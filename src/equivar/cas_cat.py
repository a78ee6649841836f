"""A combinatorial category on finite sets with truncated-ring twists.

Objects are finite sets [n]; a morphism [m] -> [n] is a formal combination
of pairs (coefficient polynomial in the target's truncated ring, injection
[m] -> [n]), composed by pushing coefficients forward along the outer
injection.  The category is built standalone (no dependence on the module
machinery), so the dimension comparison with stable module Homs is a genuine
two-path cross-check.
"""

from __future__ import annotations

from collections import namedtuple

from .combinat import combine, injection_count, injections
from .linalg import SparseRationalMatrix, joint_kernel

__all__ = [
    "CasMorphism",
    "compose",
    "hom_dimension",
    "injective_I",
    "InjectiveInfo",
    "compare_with_P_homs",
]


def _check_monomial(mono, n, s):
    if len(mono) != n or any(e < 0 or e > s for e in mono):
        raise ValueError(f"not a monomial in {n} variables bounded by {s}: {mono!r}")


class CasMorphism(namedtuple("CasMorphism", "m n s terms")):
    """A morphism [m] -> [n]: sparse rational combination of (injection,
    target monomial) pairs, exponents bounded by s; terms is sorted
    ((injection, monomial), Fraction) pairs."""

    __slots__ = ()

    @classmethod
    def make(cls, m, n, s, terms) -> "CasMorphism":
        pairs = []
        for (f, mono), c in (terms.items() if isinstance(terms, dict) else terms):
            f = tuple(f)
            mono = tuple(mono)
            if len(f) != m or len(set(f)) != m or any(v < 0 or v >= n for v in f):
                raise ValueError(f"not an injection [{m}] -> [{n}]: {f!r}")
            _check_monomial(mono, n, s)
            pairs.append(((f, mono), c))
        return cls(m, n, s, tuple(sorted(combine(pairs).items())))

    def __add__(self, other: "CasMorphism") -> "CasMorphism":
        if (self.m, self.n, self.s) != (other.m, other.n, other.s):
            raise ValueError("shape mismatch")
        return CasMorphism.make(self.m, self.n, self.s, list(self.terms) + list(other.terms))


def compose(g: CasMorphism, f: CasMorphism) -> CasMorphism:
    """g after f: coefficients of f are pushed forward along g's injections
    and multiplied in the target's truncated ring (overflow kills the term)."""
    if f.n != g.m or f.s != g.s:
        raise ValueError(f"shapes do not compose: {f.m}->{f.n} then {g.m}->{g.n}")
    s = f.s
    out = []
    for (gi, b), cg in g.terms:
        for (fi, a), cf in f.terms:
            pushed = [0] * g.n
            for pos, e in enumerate(a):
                pushed[gi[pos]] = e
            prod = tuple(x + y for x, y in zip(pushed, b))
            if any(e > s for e in prod):
                continue
            comp = tuple(gi[v] for v in fi)
            out.append(((comp, prod), cg * cf))
    return CasMorphism.make(f.m, g.n, s, out)


def hom_dimension(m: int, n: int, s: int) -> int:
    """Dimension of the full morphism space [m] -> [n]: one coefficient ring
    copy per injection.  Raises ValueError on a negative size (so does
    ``injective_I``, through this function)."""
    if min(m, n, s) < 0:
        raise ValueError(f"sizes must be nonnegative: m={m}, n={n}, s={s}")
    return injection_count(m, n) * (s + 1) ** n


class InjectiveInfo(namedtuple("InjectiveInfo", "dim socle_dim socle_basis")):
    """socle_basis: dual-basis labels, at the top level only."""

    __slots__ = ()


def _hom_basis(m: int, n: int, s: int) -> list:
    monos = [()]
    for _ in range(n):
        monos = [mo + (e,) for mo in monos for e in range(s + 1)]
    return [(f, mono) for f in injections(m, n) for mono in sorted(monos)]


def injective_I(s: int, n: int, m: int) -> InjectiveInfo:
    """The dual of the morphism space into [n], evaluated at [m].

    The socle lives in the top degree m = n: it is the joint kernel of every
    variable action, spanned by the dual vectors at (bijection, zero
    monomial) -- under the self-duality of the coefficient ring these are the
    full-product elements (x_1 ... x_n)^s tensor a group element.  Away from
    the top degree the socle contribution is zero (every transition out of
    degree n lands in a zero space, so top socle vectors are annihilated).
    """
    dim = hom_dimension(m, n, s)
    if m != n:
        return InjectiveInfo(dim, 0, [])
    basis = _hom_basis(n, n, s)
    index = {b: i for i, b in enumerate(basis)}
    kills = []
    for i in range(n):
        # action of the i-th variable on the dual: transpose of precomposition
        mat = SparseRationalMatrix(len(basis), len(basis))
        for col, (f, mono) in enumerate(basis):
            # precomposition by (x_i tensor identity) multiplies the
            # coefficient by the image variable; dualizing divides
            target_var = f[i]
            if mono[target_var] >= 1:
                smaller = mono[:target_var] + (mono[target_var] - 1,) + mono[target_var + 1:]
                mat.set(index[(f, smaller)], col, 1)
        kills.append(mat)
    socle_vectors = joint_kernel(kills, len(basis))
    socle_labels = []
    for v in socle_vectors:
        (idx,) = v.keys()
        socle_labels.append(basis[idx])
    return InjectiveInfo(dim, len(socle_vectors), socle_labels)


def compare_with_P_homs(m: int, n: int, s: int, N: int) -> bool:
    """Two-path check: the morphism-space dimension [m] -> [n] must equal the
    stable dimension of module maps from the size-n family to the size-m
    family (the comparison functor reverses arrows)."""
    if N < n + m + 1:
        raise ValueError("need N >= n + m + 1 for a stabilization margin")
    from .homcalc import PQFamily, stable_hom

    r = stable_hom(PQFamily("P", s, n), PQFamily("P", s, m), N)
    return r.dim_stable == hom_dimension(m, n, s)
