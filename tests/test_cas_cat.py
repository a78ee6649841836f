import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from equivar.cas_cat import (
    CasMorphism,
    compare_with_P_homs,
    compose,
    hom_dimension,
    injective_I,
)
from reference import identity_morphism

SEED = 0xA5


def random_morphism(rng, m, n, s, max_terms=2):
    injs = list(itertools.permutations(range(n), m))
    if not injs:
        return CasMorphism.make(m, n, s, {})
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        f = rng.choice(injs)
        mono = tuple(rng.randint(0, s) for _ in range(n))
        terms[(f, mono)] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    return CasMorphism.make(m, n, s, terms)


@pytest.mark.parametrize("m,n,s", [(1, -1, 1), (-1, 1, 1), (1, 1, -1)])
def test_negative_sizes_are_rejected(m, n, s):
    # (s + 1) ** n with n < 0 is a float, so these used to answer 0.0
    with pytest.raises(ValueError):
        hom_dimension(m, n, s)
    with pytest.raises(ValueError):
        injective_I(s, n, m)


def test_identity_laws():
    f = CasMorphism.make(1, 2, 1, {((1,), (1, 0)): 2})
    assert compose(identity_morphism(2, 1), f) == f
    assert compose(f, identity_morphism(1, 1)) == f


def test_nilpotent_composition_vanishes():
    x1 = CasMorphism.make(1, 1, 1, {((0,), (1,)): 1})
    assert compose(x1, x1).terms == ()


def test_composition_pushes_coefficients_forward():
    # composing a plain injection after a coefficient-bearing morphism
    # relabels the coefficient variables along the outer injection
    a_f = CasMorphism.make(1, 2, 2, {((0,), (2, 0)): 1})  # a = x_0^2
    g = CasMorphism.make(2, 3, 2, {((2, 1), (0, 0, 0)): 1})
    out = compose(g, a_f)
    assert out == CasMorphism.make(1, 3, 2, {((2,), (0, 0, 2)): 1})


def test_composition_shape_mismatch():
    f = identity_morphism(1, 1)
    g = identity_morphism(2, 1)
    with pytest.raises(ValueError):
        compose(g, f)


def test_associativity_on_seeded_random_triples():
    rng = random.Random(SEED)
    checked = 0
    while checked < 200:
        s = rng.randint(1, 2)
        sizes = [rng.randint(0, 3) for _ in range(4)]
        a, b, c, d = sorted(sizes)
        f = random_morphism(rng, a, b, s)
        g = random_morphism(rng, b, c, s)
        h = random_morphism(rng, c, d, s)
        assert compose(h, compose(g, f)) == compose(compose(h, g), f)
        checked += 1


def test_bilinearity():
    rng = random.Random(SEED + 1)
    f1 = random_morphism(rng, 1, 2, 1)
    f2 = random_morphism(rng, 1, 2, 1)
    g = random_morphism(rng, 2, 3, 1)
    lhs = compose(g, f1 + f2)
    rhs = compose(g, f1) + compose(g, f2)
    assert lhs == rhs


def test_hom_dimension_examples():
    assert hom_dimension(1, 1, 1) == 2
    assert hom_dimension(0, 3, 1) == 2 ** 3
    assert hom_dimension(2, 1, 1) == 0
    assert hom_dimension(1, 2, 1) == 2 * 4


def test_injective_dimensions_and_socle():
    info = injective_I(1, 1, 1)
    assert info.dim == 2 and info.socle_dim == 1
    info = injective_I(1, 2, 2)
    assert info.dim == 8 and info.socle_dim == 2
    # socle spanned by dual vectors at (bijection, zero monomial), which pair
    # with the full products of the coefficient variables
    assert sorted(info.socle_basis) == sorted(
        (f, (0, 0)) for f in itertools.permutations(range(2))
    )
    assert injective_I(1, 0, 0).dim == 1
    assert injective_I(1, 0, 2).dim == 0


def test_injective_socle_count_general():
    for s in (1, 2):
        for n in (1, 2, 3):
            info = injective_I(s, n, n)
            assert info.socle_dim == factorial(n)
            assert info.dim == factorial(n) * (s + 1) ** n


def test_injective_vanishes_above_top_degree():
    # transitions out of the top degree land in zero spaces
    for m in (3, 4):
        assert injective_I(1, 2, m).dim == 0
        assert injective_I(1, 2, m).socle_dim == 0


@pytest.mark.parametrize("m,n,s", [(0, 0, 1), (1, 1, 1), (0, 1, 2), (1, 0, 1), (1, 2, 1)])
def test_compare_with_module_homs_small(m, n, s):
    assert compare_with_P_homs(m, n, s, n + m + 1)


def test_compare_needs_margin():
    with pytest.raises(ValueError):
        compare_with_P_homs(1, 1, 1, 2)


def test_make_rejects_bad_terms():
    with pytest.raises(ValueError):
        CasMorphism.make(1, 2, 1, {((0, 1), (0, 0)): 1})
    with pytest.raises(ValueError):
        CasMorphism.make(1, 2, 1, {((0,), (2, 0)): 1})
