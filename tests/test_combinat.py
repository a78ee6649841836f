import itertools
from fractions import Fraction
from math import factorial

import pytest

from equivar.combinat import (
    ClassFunction,
    SymFunc,
    decompose,
    frobenius_char,
    induce_character,
    injection_count,
    injections,
    inner_product,
    irreducible_character,
    irreducible_class_function,
    partitions,
    schur,
    z_order,
)
from reference import regular_character, specht_dimension, trivial_character


# --- independent oracles -----------------------------------------------------

def oracle_partitions(n):
    """Brute force: weakly decreasing positive tuples summing to n."""
    if n == 0:
        return {()}
    out = set()

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            out.add(tuple(acc))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, acc + [p])

    rec(n, n, [])
    return out


def oracle_syt_count(lam):
    """Standard tableaux counted by brute-force recursive filling."""
    if not lam:
        return 1
    total = 0
    for i in range(len(lam)):
        if lam[i] >= 1 and (i == len(lam) - 1 or lam[i] > lam[i + 1]):
            smaller = tuple(p for p in (lam[:i] + (lam[i] - 1,) + lam[i + 1:]) if p)
            total += oracle_syt_count(smaller)
    return total


def perm_matrix_trace(g):
    return sum(1 for i, v in enumerate(g) if v == i)


def oracle_character_table_s3():
    """Character values of the 3-letter symmetric group from explicit
    permutation matrices: trivial, sign, and (permutation minus trivial)."""
    reps = {(1, 1, 1): (0, 1, 2), (2, 1): (1, 0, 2), (3,): (1, 2, 0)}
    table = {}
    for mu, g in reps.items():
        sign = 1 if mu in ((1, 1, 1),) else (-1 if mu == (2, 1) else 1)
        table[((3,), mu)] = 1
        table[((1, 1, 1), mu)] = sign
        table[((2, 1), mu)] = perm_matrix_trace(g) - 1
    return table


# --- partitions --------------------------------------------------------------

def test_partitions_basic():
    assert partitions(0) == ((),)
    assert partitions(1) == ((1,),)
    assert len(partitions(4)) == 5


@pytest.mark.parametrize("n", range(8))
def test_partitions_match_oracle_and_order(n):
    ps = partitions(n)
    assert set(ps) == oracle_partitions(n)
    assert ps == tuple(sorted(ps, reverse=True))  # reverse-lexicographic


def test_z_order_sums_to_group_order():
    for n in range(1, 7):
        assert sum(factorial(n) // z_order(mu) for mu in partitions(n)) == factorial(n)


# --- dimensions and characters ----------------------------------------------

def test_specht_dimension_small():
    assert specht_dimension((3,)) == 1
    assert specht_dimension((2, 1)) == oracle_syt_count((2, 1)) == 2
    assert specht_dimension((2, 2)) == oracle_syt_count((2, 2)) == 2


@pytest.mark.parametrize("n", range(1, 7))
def test_specht_dimensions_square_sum(n):
    assert sum(specht_dimension(lam) ** 2 for lam in partitions(n)) == factorial(n)
    for lam in partitions(n):
        assert specht_dimension(lam) == oracle_syt_count(lam)
        assert irreducible_character(lam, (1,) * n) == specht_dimension(lam)


def test_character_values_from_explicit_matrices():
    # trivial representation
    for mu in partitions(4):
        assert irreducible_character((4,), mu) == 1
    # sign on a transposition of two letters: explicit 2x2 permutation matrices
    swap_trace = perm_matrix_trace((1, 0))
    assert irreducible_character((1, 1), (2,)) == swap_trace - 1 == -1
    # two-row hook on a 3-cycle
    assert irreducible_character((2, 1), (3,)) == -1
    for (lam, mu), val in oracle_character_table_s3().items():
        assert irreducible_character(lam, mu) == val


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        irreducible_character((2,), (1,))


@pytest.mark.parametrize("n", range(1, 7))
def test_orthonormality(n):
    chars = {lam: irreducible_class_function(lam) for lam in partitions(n)}
    for lam, mu in itertools.combinations_with_replacement(partitions(n), 2):
        expected = 1 if lam == mu else 0
        assert inner_product(chars[lam], chars[mu]) == expected


def test_inner_product_level_mismatch():
    with pytest.raises(ValueError):
        inner_product(trivial_character(2), trivial_character(3))


def test_regular_character_decomposition():
    reg = regular_character(3)
    assert inner_product(reg, irreducible_class_function((2, 1))) == 2
    assert decompose(reg) == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}


def test_decompose_permutation_action_on_truncated_monomials():
    # two letters acting on the four monomials with exponents at most one:
    # fixed points 4 (identity) and 2 (swap)
    f = ClassFunction(2, {(1, 1): 4, (2,): 2})
    assert decompose(f) == {(2,): 3, (1, 1): 1}
    assert decompose(irreducible_class_function((2,))) == {(2,): 1}


# --- Frobenius map and induction ----------------------------------------------

def test_frobenius_char_basics():
    assert frobenius_char(irreducible_class_function((2, 1))) == schur((2, 1))
    assert frobenius_char(regular_character(2)) == schur((2,)) + schur((1, 1))


def test_induce_single_factor_identity():
    f = irreducible_class_function((2, 1))
    assert induce_character([(3, f)]) == f


def test_induce_trivial_pair_explicit():
    ind = induce_character([(1, trivial_character(1)), (1, trivial_character(1))])
    # direct coset computation: two cosets, identity fixes both, swap fixes none
    assert ind.values[(1, 1)] == 2
    assert ind.values[(2,)] == 0
    assert frobenius_char(ind) == schur((2,)) + schur((1, 1))


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 2), (2, 3), (1, 3)])
def test_induced_dimension_formula(a, b):
    for lam in partitions(a):
        for mu in partitions(b):
            ind = induce_character([
                (a, irreducible_class_function(lam)),
                (b, irreducible_class_function(mu)),
            ])
            expected = (factorial(a + b) // (factorial(a) * factorial(b))
                        * specht_dimension(lam) * specht_dimension(mu))
            assert ind.dim() == expected


# --- Schur function arithmetic -------------------------------------------------

def oracle_ssyt_monomials(lam, nvars):
    """Monomial expansion of a Schur polynomial by enumerating semistandard
    tableaux with entries in 1..nvars."""
    rows = len(lam)
    if rows == 0:
        return {(0,) * nvars: 1}
    out = {}

    def rec(r, filled):
        if r == rows:
            expo = [0] * nvars
            for row in filled:
                for v in row:
                    expo[v - 1] += 1
            key = tuple(expo)
            out[key] = out.get(key, 0) + 1
            return
        for row in itertools.combinations_with_replacement(range(1, nvars + 1), lam[r]):
            if r > 0:
                above = filled[r - 1]
                if any(row[j] <= above[j] for j in range(lam[r])):
                    continue
            rec(r + 1, filled + [list(row)])

    rec(0, [])
    return out


def oracle_schur_product(lam, mu):
    """Littlewood-Richardson expansion through polynomial arithmetic."""
    deg = sum(lam) + sum(mu)
    nvars = max(deg, 1)
    a = oracle_ssyt_monomials(lam, nvars)
    b = oracle_ssyt_monomials(mu, nvars)
    prod = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            prod[key] = prod.get(key, 0) + c1 * c2
    out = {}
    while any(prod.values()):
        lead = max((e for e, c in prod.items() if c), key=lambda e: tuple(sorted(e, reverse=True)))
        shape = tuple(sorted((x for x in lead if x), reverse=True))
        coeff = prod[lead]
        out[shape] = coeff
        for e, c in oracle_ssyt_monomials(shape, nvars).items():
            prod[e] = prod.get(e, 0) - coeff * c
    return out


@pytest.mark.parametrize("da,db", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)])
def test_schur_product_against_tableau_oracle(da, db):
    for lam in partitions(da):
        for mu in partitions(db):
            got = (schur(lam) * schur(mu)).coeffs
            want = {k: Fraction(v) for k, v in oracle_schur_product(lam, mu).items() if v}
            assert got == want


def test_symfunc_linear_ops():
    f = schur((2,)) + schur((1, 1)).scale(3)
    assert (f - f).is_zero()
    assert f.coeffs[(1, 1)] == 3


# --- injections ----------------------------------------------------------------

def oracle_injections(n, m):
    return sorted(t for t in itertools.product(range(m), repeat=n) if len(set(t)) == n)


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("m", range(6))
def test_injections_against_bruteforce(n, m):
    inj = injections(n, m)
    assert inj == oracle_injections(n, m)
    assert len(inj) == injection_count(n, m)


def test_injections_examples():
    assert len(injections(1, 2)) == 2
    assert len(injections(2, 3)) == 6
    assert injections(3, 2) == []
