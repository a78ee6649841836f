"""The truncated polynomial ring in N variables with exponents bounded by s.

A monomial is a length-N tuple with entries in [0, s]; it doubles as a
base-(s+1) digit vector, so the monomials have a rank order
(``all_monomials``, ``monomial_unrank``) used to index basis arrays.

Permutations are length-N tuples g with g[i] the image of position i, acting
on monomials by relocating exponents and on the basis by permutation.  All
values here are immutable; every function is pure.
"""

from __future__ import annotations

from collections import namedtuple


class RingConfig(namedtuple("RingConfig", "N s")):
    """N variables, exponent bound s (so (s+1)st powers vanish)."""

    __slots__ = ()

    def __new__(cls, N: int, s: int):
        if N < 0 or s < 0:
            raise ValueError("RingConfig requires N >= 0 and s >= 0")
        return super().__new__(cls, N, s)

    @property
    def monomial_count(self) -> int:
        return (self.s + 1) ** self.N


def all_monomials(cfg: RingConfig) -> list:
    """All monomials in rank order (position 0 is the fastest digit)."""
    return [monomial_unrank(r, cfg) for r in range(cfg.monomial_count)]


def monomial_unrank(r: int, cfg: RingConfig):
    out = []
    for _ in range(cfg.N):
        r, d = divmod(r, cfg.s + 1)
        out.append(d)
    return tuple(out)


def representative_permutation(mu) -> tuple:
    """A permutation of cycle type mu: one cycle per part, consecutive blocks."""
    g = []
    start = 0
    for part in mu:
        g.extend(list(range(start + 1, start + part)) + [start])
        start += part
    return tuple(g)


def coxeter_word(g) -> list:
    """Adjacent-transposition word for g: g equals the product of swaps
    (j, j+1) applied in list order (first entry acts first)."""
    p = list(g)
    word = []
    changed = True
    while changed:
        changed = False
        for j in range(len(p) - 1):
            if p[j] > p[j + 1]:
                p[j], p[j + 1] = p[j + 1], p[j]
                word.append(j)
                changed = True
    return word


def fixed_monomial_count(mu, cfg: RingConfig) -> int:
    """Number of monomials fixed by a permutation of cycle type mu.

    A fixed monomial is constant on every cycle, so the count is
    (s+1)^(number of parts); in particular it is always positive.
    """
    if sum(mu) != cfg.N:
        raise ValueError(f"cycle type of size {sum(mu)} does not match N={cfg.N}")
    return (cfg.s + 1) ** len(mu)
