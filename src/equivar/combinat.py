"""Partitions, symmetric-group characters, symmetric functions, injections.

Conventions used throughout the package:

- a partition is a tuple of weakly decreasing positive integers;
- ``partitions(n)`` lists partitions of n in reverse-lexicographic order,
  from ``(n,)`` down to ``(1,)*n``, as a memoized tuple;
- irreducible characters are computed by the Murnaghan-Nakayama recursion
  (memoized on the pair of partitions, which is safe for concurrent use);
- symmetric functions are finite rational combinations of Schur functions,
  multiplied through character induction rather than a standalone
  Littlewood-Richardson rule, so one code path serves both.
- injections are tuples of distinct 0-based values, listed lexicographically.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import factorial

Partition = tuple

__all__ = [
    "Partition",
    "partitions",
    "is_partition",
    "z_order",
    "irreducible_character",
    "ClassFunction",
    "irreducible_class_function",
    "inner_product",
    "decompose",
    "combine",
    "SymFunc",
    "schur",
    "frobenius_char",
    "induce_from_young",
    "induce_character",
    "injections",
    "injection_count",
]


def is_partition(lam) -> bool:
    return all(isinstance(p, int) and p >= 1 for p in lam) and all(
        lam[i] >= lam[i + 1] for i in range(len(lam) - 1)
    )


def _check_partition(lam) -> Partition:
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam!r}")
    return lam


@cache
def partitions(n: int) -> tuple:
    """All partitions of n, reverse-lexicographically from (n,) to (1^n).
    Memoized, so the sequence is a tuple that no caller can change."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ((),)
    out = []
    part = [n]
    while True:
        out.append(tuple(part))
        # find rightmost part > 1
        i = len(part) - 1
        while i >= 0 and part[i] == 1:
            i -= 1
        if i < 0:
            return tuple(out)
        rest = len(part) - i  # the ones we absorb, plus 1 from part[i]
        part[i] -= 1
        del part[i + 1:]
        total = rest
        while total > 0:
            nxt = min(part[-1], total)
            part.append(nxt)
            total -= nxt


@cache
def z_order(mu) -> int:
    """Order of the centralizer of a permutation of cycle type mu (memoized)."""
    z = 1
    for v, grp in itertools.groupby(mu):
        m = len(list(grp))
        z *= v**m * factorial(m)
    return z


def _border_strips(lam, k):
    """All removals of a k-rim-hook from lam: (smaller partition, leg length)."""
    n = len(lam)
    beta = [lam[i] + (n - 1 - i) for i in range(n)]  # strictly decreasing
    beta_set = set(beta)
    out = []
    for idx, b in enumerate(beta):
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((x for x in beta if x != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        m = len(new_beta)
        new_lam = tuple(new_beta[i] - (m - 1 - i) for i in range(m))
        new_lam = tuple(p for p in new_lam if p > 0)
        out.append((new_lam, height))
    return out


@cache
def irreducible_character(lam, mu) -> int:
    """Value of the irreducible character of shape lam on cycle type mu."""
    lam = _check_partition(lam)
    mu = _check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    if not lam:
        return 1
    k = mu[0]
    rest = mu[1:]
    total = 0
    for new_lam, height in _border_strips(lam, k):
        total += (-1) ** height * irreducible_character(new_lam, rest)
    return total


class ClassFunction:
    """A rational-valued class function on the symmetric group of a level.

    ``values`` maps *every* partition of ``level`` (cycle type) to a Fraction.
    Immutable by convention; arithmetic returns new objects.
    """

    __slots__ = ("level", "values")

    def __init__(self, level: int, values: dict):
        keys = set(values)
        expected = set(partitions(level))
        if keys != expected:
            raise ValueError(f"class function at level {level} must be defined on all cycle types")
        from fractions import Fraction
        self.level = level
        self.values = {mu: Fraction(values[mu]) for mu in sorted(values, reverse=True)}

    def __call__(self, mu) -> Fraction:
        return self.values[tuple(mu)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return self.level == other.level and self.values == other.values

    def __add__(self, other):
        self._check_level(other)
        return ClassFunction(self.level, {mu: v + other.values[mu] for mu, v in self.values.items()})

    def __sub__(self, other):
        self._check_level(other)
        return ClassFunction(self.level, {mu: v - other.values[mu] for mu, v in self.values.items()})

    def __mul__(self, other):
        """Pointwise product (character of a tensor product)."""
        self._check_level(other)
        return ClassFunction(self.level, {mu: v * other.values[mu] for mu, v in self.values.items()})

    def __truediv__(self, other):
        """Pointwise quotient, the inverse of tensoring with a character
        that vanishes nowhere (a zero value is a ZeroDivisionError)."""
        self._check_level(other)
        return ClassFunction(self.level, {mu: v / other.values[mu] for mu, v in self.values.items()})

    def _check_level(self, other):
        if self.level != other.level:
            raise ValueError(f"level mismatch: {self.level} != {other.level}")

    def dim(self) -> Fraction:
        return self.values[(1,) * self.level if self.level else ()]

    def __repr__(self):
        vals = ", ".join(f"{mu}: {v}" for mu, v in self.values.items())
        return f"ClassFunction(level={self.level}, {{{vals}}})"


def irreducible_class_function(lam) -> ClassFunction:
    lam = _check_partition(lam)
    n = sum(lam)
    return ClassFunction(n, {mu: irreducible_character(lam, mu) for mu in partitions(n)})


def inner_product(f: ClassFunction, g: ClassFunction) -> Fraction:
    """Standard pairing: sum over cycle types of f*g weighted by 1/z_mu."""
    if f.level != g.level:
        raise ValueError(f"level mismatch: {f.level} != {g.level}")
    from fractions import Fraction
    return sum((f.values[mu] * g.values[mu] / z_order(mu) for mu in f.values), Fraction(0))


def decompose(f: ClassFunction) -> dict:
    """Multiplicities of each irreducible in f (f is assumed a character)."""
    out = {}
    for lam in partitions(f.level):
        c = inner_product(f, irreducible_class_function(lam))
        if c:
            out[lam] = c
    return out


def combine(pairs) -> dict:
    """The sparse rational combination of (key, coefficient) pairs, as
    {key: Fraction}: coefficients of equal keys add up, and a key whose sum
    is zero is dropped."""
    from fractions import Fraction
    out: dict = {}
    for key, c in pairs:
        w = out.get(key, 0) + Fraction(c)
        if w:
            out[key] = w
        else:
            out.pop(key, None)
    return out


class SymFunc:
    """A finite rational combination of Schur functions, any degrees mixed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        clean = combine((_check_partition(lam), c) for lam, c in (coeffs or {}).items())
        self.coeffs = {lam: clean[lam] for lam in sorted(clean, key=lambda t: (sum(t), t), reverse=True)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other):
        return SymFunc(combine(itertools.chain(self.coeffs.items(), other.coeffs.items())))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, coef):
        from fractions import Fraction
        coef = Fraction(coef)
        return SymFunc({lam: coef * c for lam, c in self.coeffs.items()})

    def __mul__(self, other):
        return SymFunc(combine((nu, a * b * c)
                               for lam, a in self.coeffs.items()
                               for mu, b in other.coeffs.items()
                               for nu, c in _schur_times_schur(lam, mu).items()))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "SymFunc(0)"
        return "SymFunc(" + " + ".join(f"{c}*s{list(lam)}" for lam, c in self.coeffs.items()) + ")"


def schur(lam) -> SymFunc:
    return SymFunc({tuple(lam): 1})


@cache
def _schur_times_schur(lam, mu) -> dict:
    """Expansion of a product of two Schur functions, via character induction."""
    f = induce_character([(sum(lam), irreducible_class_function(lam)),
                          (sum(mu), irreducible_class_function(mu))])
    return {nu: int(c) for nu, c in decompose(f).items()}


def frobenius_char(f: ClassFunction) -> SymFunc:
    """Schur expansion of the symmetric function attached to a character."""
    return SymFunc(decompose(f))


def _split_partition(mu, sizes):
    """All tuples (mu_1, ..., mu_k) of partitions with |mu_i| = sizes[i] whose
    disjoint union of parts is mu.  Each distinct tuple appears exactly once."""
    distinct = sorted(set(mu), reverse=True)
    counts = [mu.count(v) for v in distinct]
    k = len(sizes)

    def rec(vi, groups, sums):
        if vi == len(distinct):
            if list(sums) == list(sizes):
                yield tuple(tuple(sorted(grp, reverse=True)) for grp in groups)
            return
        v, c = distinct[vi], counts[vi]
        for comp in _compositions(c, k):
            new_sums = [sums[t] + v * comp[t] for t in range(k)]
            if any(new_sums[t] > sizes[t] for t in range(k)):
                continue
            new_groups = [grp + [v] * comp[t] for t, grp in enumerate(groups)]
            yield from rec(vi + 1, new_groups, new_sums)

    yield from rec(0, [[] for _ in range(k)], [0] * k)


def _compositions(total, k):
    """All ways to write total as an ordered sum of k nonnegative integers."""
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


def induce_from_young(sizes, value_fn) -> ClassFunction:
    """Induce to the full symmetric group from a Young subgroup.

    ``sizes`` are the block sizes (n_1, ..., n_k); ``value_fn`` takes a tuple
    of cycle types (one per block) and returns the value of the inducing class
    function on an element with those types.
    """
    from fractions import Fraction
    n = sum(sizes)
    vals = {}
    for mu in partitions(n):
        total = Fraction(0)
        for split in _split_partition(mu, sizes):
            term = value_fn(split)
            if not term:
                continue
            denom = 1
            for part in split:
                denom *= z_order(part)
            total += Fraction(term) / denom
        vals[mu] = z_order(mu) * total
    return ClassFunction(n, vals)


def induce_character(factors) -> ClassFunction:
    """Character induced from an outer tensor product over a Young subgroup.

    ``factors`` is a list of (level, ClassFunction) pairs; a single factor is
    returned unchanged.
    """
    factors = list(factors)
    for lvl, f in factors:
        if f.level != lvl:
            raise ValueError("declared level disagrees with the class function")
    if len(factors) == 1:
        return factors[0][1]
    from fractions import Fraction
    sizes = tuple(lvl for lvl, _ in factors)
    fns = [f for _, f in factors]

    def value(split):
        v = Fraction(1)
        for f, part in zip(fns, split):
            v *= f.values[part]
        return v

    return induce_from_young(sizes, value)


def injections(n: int, m: int) -> list:
    """All injections [n] -> [m] as tuples of distinct 0-based values, in
    lexicographic order; empty when n > m."""
    if n < 0 or m < 0:
        raise ValueError("sizes must be >= 0")
    if n > m:
        return []
    return sorted(itertools.permutations(range(m), n))


def injection_count(n: int, m: int) -> int:
    """m!/(m-n)!, the number of injections [n] -> [m]; 0 when n > m."""
    if n > m:
        return 0
    return factorial(m) // factorial(m - n)
