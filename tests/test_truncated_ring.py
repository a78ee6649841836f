import itertools

import pytest

from equivar.combinat import partitions
from equivar.truncated_ring import (
    RingConfig,
    all_monomials,
    coxeter_word,
    fixed_monomial_count,
    monomial_unrank,
    representative_permutation,
)
from reference import cycle_type, permute


@pytest.mark.parametrize("N", range(7))
@pytest.mark.parametrize("s", range(4))
def test_monomial_count(N, s):
    cfg = RingConfig(N, s)
    monos = all_monomials(cfg)
    assert len(monos) == (s + 1) ** N == cfg.monomial_count
    assert len(set(monos)) == len(monos)
    for r, m in enumerate(monos):
        assert monomial_unrank(r, cfg) == m


def test_permute_basic_and_homomorphism():
    cfg = RingConfig(3, 2)
    m = (2, 1, 0)
    ident = (0, 1, 2)
    assert permute(ident, m) == m
    swap01 = (1, 0, 2)
    assert permute(swap01, (1, 0, 0)) == (0, 1, 0)  # first variable becomes second
    assert permute(swap01, (0, 0, 0)) == (0, 0, 0)
    # a product of monomials adds exponent vectors, and permute respects it
    for g in itertools.permutations(range(3)):
        for a, b in itertools.product(all_monomials(cfg), repeat=2):
            ab = tuple(x + y for x, y in zip(a, b))
            assert permute(g, ab) == tuple(x + y for x, y in zip(permute(g, a), permute(g, b)))


def test_permute_is_group_action():
    for g in itertools.permutations(range(4)):
        for h in itertools.permutations(range(4)):
            gh = tuple(g[h[i]] for i in range(4))
            m = (3, 1, 0, 2)
            assert permute(gh, m) == permute(g, permute(h, m))


def test_cycle_type_and_representative():
    for n in range(1, 6):
        for mu in partitions(n):
            g = representative_permutation(mu)
            assert cycle_type(g) == mu


def test_coxeter_word_reconstructs_permutation():
    for n in range(1, 6):
        for g in itertools.permutations(range(n)):
            word = coxeter_word(g)
            acc = tuple(range(n))
            for j in word:
                swap = list(range(n))
                swap[j], swap[j + 1] = swap[j + 1], swap[j]
                # apply the adjacent swap after acc
                acc = tuple(swap[acc[i]] for i in range(n))
            assert acc == g


@pytest.mark.parametrize("N", range(1, 6))
def test_fixed_monomial_count_bruteforce(N):
    for s in (1, 2):
        cfg = RingConfig(N, s)
        monos = all_monomials(cfg)
        for mu in partitions(N):
            g = representative_permutation(mu)
            brute = sum(1 for m in monos if permute(g, m) == m)
            assert fixed_monomial_count(mu, cfg) == brute
            assert fixed_monomial_count(mu, cfg) > 0


def test_fixed_monomial_count_examples():
    assert fixed_monomial_count((1, 1), RingConfig(2, 1)) == 4
    assert fixed_monomial_count((2,), RingConfig(2, 1)) == 2
    with pytest.raises(ValueError):
        fixed_monomial_count((2,), RingConfig(3, 1))
