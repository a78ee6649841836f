"""Grothendieck-group bookkeeping: classes of the P/Q families, the
multiplication-by-the-truncated-ring operator, exact basis changes between
the two families, the rank-(s+1) expansion, and the dimension identity for
tensors of tuple modules.

Tensoring with the ring S is pointwise multiplication of characters by
chi_S(mu) = (s+1)^(number of cycles of mu), so the P-to-Q change multiplies
and the Q-to-P change divides by that character, which vanishes nowhere
(the plethysm s_lam[X/(s+1)]; Macdonald, Symmetric functions and Hall
polynomials, I.7-I.8).  No basis change solves a linear system.

Class data lives at two levels:

- ``KGenClass``: a rational combination of family classes keyed by
  (kind, exponent bound, partition);
- ``KModClass``: a combination  sum_r f_r * [ring at bound r]  with symmetric
  function coefficients f_r.

The Q-classes form an integral basis; the P-classes only a rational one, so
every transform from the Q side to the P side exposes denominators.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .combinat import (
    ClassFunction,
    SymFunc,
    combine,
    decompose,
    injection_count,
    irreducible_class_function,
    partitions,
    schur,
)
from .linalg import SparseRationalMatrix
from .truncated_ring import RingConfig, fixed_monomial_count

__all__ = [
    "KGenClass",
    "KModClass",
    "char_of_S",
    "mu_matrix",
    "p_class_in_q_basis",
    "q_class_in_p_basis",
    "rank_expand",
    "truncation_dim_check",
]


class KGenClass:
    """Rational combination of family classes keyed (kind, bound, partition)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        pairs = []
        for (kind, r, lam), c in (coeffs or {}).items():
            if kind not in ("P", "Q"):
                raise ValueError(f"unknown kind {kind!r}")
            if r < 0:
                raise ValueError(f"a class bound must be nonnegative, got {r}")
            pairs.append(((kind, r, tuple(lam)), c))
        self.coeffs = dict(sorted(combine(pairs).items()))

    def __add__(self, other):
        return KGenClass(combine(itertools.chain(self.coeffs.items(), other.coeffs.items())))

    def scale(self, c):
        from fractions import Fraction
        c = Fraction(c)
        return KGenClass({k: c * v for k, v in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, KGenClass) and self.coeffs == other.coeffs

    def __repr__(self):
        terms = ", ".join(f"{k[0]}(r={k[1]},{list(k[2])}): {v}" for k, v in self.coeffs.items())
        return f"KGenClass({{{terms}}})"


class KModClass:
    """Combination sum_r f_r * [ring at bound r], f_r symmetric functions."""

    __slots__ = ("parts",)

    def __init__(self, parts: dict | None = None):
        clean = {}
        for r, f in (parts or {}).items():
            if not isinstance(f, SymFunc):
                f = SymFunc(f)
            if not f.is_zero():
                clean[int(r)] = f
        self.parts = dict(sorted(clean.items()))

    def __add__(self, other):
        out = dict(self.parts)
        for r, f in other.parts.items():
            g = out.get(r, SymFunc()) + f
            if g.is_zero():
                out.pop(r, None)
            else:
                out[r] = g
        return KModClass(out)

    def __eq__(self, other):
        return isinstance(other, KModClass) and self.parts == other.parts

    def to_json_dict(self) -> dict:
        return {
            str(r): {
                ",".join(map(str, lam)) or "()": [c.numerator, c.denominator]
                for lam, c in f.coeffs.items()
            }
            for r, f in self.parts.items()
        }

    def __repr__(self):
        return f"KModClass({self.parts!r})"


def char_of_S(n: int, s: int) -> ClassFunction:
    """Character of the truncated ring in n variables as a permutation module:
    the trace of a permutation is its count of fixed monomials, which is
    (s+1)^(number of cycles) and in particular strictly positive, so
    ``q_class_in_p_basis`` can divide by it."""
    cfg = RingConfig(n, s)
    return ClassFunction(n, {mu: fixed_monomial_count(mu, cfg) for mu in partitions(n)})


@lru_cache(maxsize=None)
def mu_matrix(n: int, s: int):
    """Multiplication-by-the-ring-class matrix on the irreducible basis at
    level n: column lam is ``p_class_in_q_basis(lam, s)``."""
    ps = partitions(n)
    index = {lam: i for i, lam in enumerate(ps)}
    mat = SparseRationalMatrix(len(ps), len(ps))
    for lam in ps:
        for (_, _, mu), c in p_class_in_q_basis(lam, s).coeffs.items():
            mat.set(index[mu], index[lam], c)
    return mat, ps, index


def p_class_in_q_basis(lam, s: int) -> KGenClass:
    """Expand a P-family class integrally in the Q-family classes at the same
    bound: the multiplicities of the ring tensored with the irreducible,
    whose character is the pointwise product with the ring character."""
    lam = tuple(lam)
    product = char_of_S(sum(lam), s) * irreducible_class_function(lam)
    return KGenClass({("Q", s, mu): c for mu, c in decompose(product).items()})


def q_class_in_p_basis(lam, s: int) -> KGenClass:
    """Expand a Q-family class rationally in the P-family classes: the
    inverse of ``p_class_in_q_basis``, which multiplies by the ring
    character, is pointwise division by it."""
    lam = tuple(lam)
    quotient = irreducible_class_function(lam) / char_of_S(sum(lam), s)
    return KGenClass({("P", s, mu): c for mu, c in decompose(quotient).items()})


def rank_expand(cls: KGenClass) -> KModClass:
    """Express a combination of family classes over the ring-class basis:
    a P-class contributes its Schur function at its own bound, a Q-class is
    first converted (rationally) to the P side."""
    out = KModClass()
    for (kind, r, lam), c in cls.coeffs.items():
        if kind == "P":
            out = out + KModClass({r: schur(lam).scale(c)})
        else:
            for (kind2, r2, mu), c2 in q_class_in_p_basis(lam, r).coeffs.items():
                assert kind2 == "P" and r2 == r
                out = out + KModClass({r: schur(mu).scale(c * c2)})
    return out


def truncation_dim_check(n: int, m: int, N: int) -> bool:
    """Exact integer identity between the dimension of a tensor of two
    tuple modules at truncation N and the sum over overlap sizes."""
    from math import comb, factorial

    if n + m > N:
        raise ValueError("need n + m <= N so that every summand is nonzero")
    lhs = injection_count(n, N) * injection_count(m, N)
    rhs = 0
    for r in range(min(n, m) + 1):
        rhs += comb(n, r) * comb(m, r) * factorial(r) * injection_count(n + m - r, N)
    return lhs == rhs
