import itertools
from fractions import Fraction
from math import comb, factorial

import pytest

from equivar.combinat import (
    SymFunc,
    frobenius_char,
    induce_character,
    irreducible_class_function,
    partitions,
    schur,
)
from equivar.groth import (
    KGenClass,
    KModClass,
    char_of_S,
    mu_matrix,
    p_class_in_q_basis,
    q_class_in_p_basis,
    rank_expand,
    truncation_dim_check,
)
from equivar.linalg import matrix_rank
from reference import solve_columns, specht_dimension


def test_char_of_s_examples():
    assert char_of_S(2, 1).values == {(1, 1): 4, (2,): 2}
    assert char_of_S(3, 1).values == {(1, 1, 1): 8, (2, 1): 4, (3,): 2}
    assert all(v == 1 for v in char_of_S(3, 0).values.values())


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("s", range(4))
def test_char_of_s_strictly_positive(n, s):
    assert all(v > 0 for v in char_of_S(n, s).values.values())


def test_mu_examples():
    # the ring tensored with an irreducible, as p_class_in_q_basis and as
    # the column of mu_matrix that it fills
    for lam, s, mult in [((1,), 0, {(1,): 1}), ((1,), 1, {(1,): 2}),
                         ((2,), 1, {(2,): 3, (1, 1): 1})]:
        assert {mu: c for (_, _, mu), c in p_class_in_q_basis(lam, s).coeffs.items()} == mult
        mat, ps, index = mu_matrix(sum(lam), s)
        assert {mu: mat.rows[index[mu]].get(index[lam], 0) for mu in ps} == {
            mu: mult.get(mu, 0) for mu in ps}


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("s", range(4))
def test_mu_matrix_invertible(n, s):
    mat, ps, _ = mu_matrix(n, s)
    assert matrix_rank(mat) == len(ps)


def test_p_class_examples():
    assert p_class_in_q_basis((1,), 0) == KGenClass({("Q", 0, (1,)): 1})
    assert p_class_in_q_basis((1,), 1) == KGenClass({("Q", 1, (1,)): 2})
    assert p_class_in_q_basis((2,), 1) == KGenClass({("Q", 1, (2,)): 3, ("Q", 1, (1, 1)): 1})


@pytest.mark.parametrize("lam, s, p2q, q2p", [
    ((1, 2), 1, "not a partition: (1, 2)", "not a partition: (1, 2)"),
    ((2, -1), 1, "not a partition: (2, -1)", "not a partition: (2, -1)"),
    ((2, 1), -1, "RingConfig requires", "RingConfig requires"),
    # p2q reads the ring character first, q2p the irreducible
    ((1, 2), -1, "RingConfig requires", "not a partition: (1, 2)"),
])
def test_basis_changes_refuse_bad_input(lam, s, p2q, q2p):
    for change, message in ((p_class_in_q_basis, p2q), (q_class_in_p_basis, q2p)):
        with pytest.raises(ValueError) as raised:
            change(lam, s)
        assert type(raised.value) is ValueError and str(raised.value).startswith(message)


def test_class_bounds_are_nonnegative():
    with pytest.raises(ValueError, match="nonnegative"):
        KGenClass({("P", -1, (2,)): 1})


def test_q_class_examples():
    assert q_class_in_p_basis((1,), 1) == KGenClass({("P", 1, (1,)): Fraction(1, 2)})
    assert q_class_in_p_basis((1,), 0) == KGenClass({("P", 0, (1,)): 1})


@pytest.mark.parametrize("s", range(4))
def test_division_matches_the_reference_inversion(s):
    # q_class_in_p_basis divides by the ring character; the reference solves
    # the multiplication-by-the-ring matrix for the lam-th unit vector
    for n in range(8):
        mat, ps, index = mu_matrix(n, s)
        for lam in ps:
            (sol,) = solve_columns(mat, [{index[lam]: Fraction(1)}])
            expected = KGenClass({("P", s, ps[i]): c for i, c in sol.items()})
            got = q_class_in_p_basis(lam, s)
            assert got == expected and repr(got) == repr(expected), (lam, s)
            assert all(type(c) is Fraction for c in got.coeffs.values())


@pytest.mark.parametrize("s", [0, 1, 2])
def test_round_trips_are_identity(s):
    for size in range(1, 5):
        for lam in partitions(size):
            # p -> q -> p
            back = KGenClass()
            for (kind, r, mu), c in p_class_in_q_basis(lam, s).coeffs.items():
                back = back + q_class_in_p_basis(mu, r).scale(c)
            assert back == KGenClass({("P", s, lam): 1})
            # q -> p -> q
            back = KGenClass()
            for (kind, r, mu), c in q_class_in_p_basis(lam, s).coeffs.items():
                back = back + p_class_in_q_basis(mu, r).scale(c)
            assert back == KGenClass({("Q", s, lam): 1})


def test_p_to_q_total_multiplicity_matches_filtration_length():
    # dimension bookkeeping: expanding a P class in Q classes accounts for
    # exactly (s+1)^n copies weighted by irreducible dimensions
    for s in (1, 2):
        for size in (1, 2, 3):
            for lam in partitions(size):
                cls = p_class_in_q_basis(lam, s)
                total = sum(c * specht_dimension(mu) for (_, _, mu), c in cls.coeffs.items())
                assert total == (s + 1) ** size * specht_dimension(lam)


def test_rank_expand_examples():
    assert rank_expand(KGenClass({("P", 1, ()): 1})) == KModClass({1: schur(())})
    assert rank_expand(KGenClass({("P", 1, (1,)): 1})) == KModClass({1: schur((1,))})
    assert rank_expand(KGenClass({("Q", 1, (1,)): 1})) == KModClass({1: schur((1,)).scale(Fraction(1, 2))})


def test_rank_expand_injective_on_p_span():
    # the map sends the P-class basis to distinct ring-basis monomials, so a
    # combination maps to zero only if it is zero
    for s in (1, 2):
        combo = KGenClass()
        for r in range(s + 1):
            for size in range(0, 4):
                for lam in partitions(size):
                    combo = combo + KGenClass({("P", r, lam): 1})
        image = rank_expand(combo)
        terms = sum(len(f.coeffs) for f in image.parts.values())
        assert terms == len(combo.coeffs)  # no collisions, hence injective


def test_rank_expand_respects_symmetric_function_action():
    base = rank_expand(KGenClass({("P", 1, (1,)): 1}))
    scaled = KModClass({r: schur((2,)) * g for r, g in base.parts.items()})
    assert scaled == KModClass({1: schur((2,)) * schur((1,))})


def test_kmodclass_json_shape():
    data = rank_expand(KGenClass({("Q", 1, (1,)): 1})).to_json_dict()
    assert data == {"1": {"1": [1, 2]}}


def tuple_module_dim(n, N):
    return factorial(N) // factorial(N - n)


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)])
def test_tensor_decompose_dimension_identity_at_truncation(n, m):
    for N in range(n + m, 9):
        assert truncation_dim_check(n, m, N)


def test_truncation_dim_check_bruteforce_basis_matching():
    # count ordered pairs of tuples grouped by overlap size, explicitly
    n, m, N = 2, 1, 4
    pairs = 0
    by_overlap = {}
    for T in itertools.permutations(range(N), n):
        for U in itertools.permutations(range(N), m):
            pairs += 1
            r = len(set(T) & set(U))
            by_overlap[r] = by_overlap.get(r, 0) + 1
    assert pairs == tuple_module_dim(n, N) * tuple_module_dim(m, N)
    for r, count in by_overlap.items():
        assert count == comb(n, r) * comb(m, r) * factorial(r) * tuple_module_dim(n + m - r, N)
    assert truncation_dim_check(n, m, N)


def test_truncation_dim_check_degenerate():
    assert truncation_dim_check(0, 2, 3)
    with pytest.raises(ValueError):
        truncation_dim_check(2, 2, 3)
