"""Principal and torsion FI-modules and the weight-bounded functor into
graded equivariant modules.

An FI-module here is a functor from finite sets with injections to vector
spaces, of one of two kinds.  Principal modules follow the covariant
convention: ``Principal(n)`` evaluated on a set S is spanned by the
injections from an n-element set into S, with transition maps given by
post-composition.  ``Torsion(n)`` is its quotient concentrated in degree n:
the regular representation of S_n, spanned by the permutations of an
n-element set, where every transition that leaves the degree is zero.  Both
act on their bases by partial injections, so a transition is a partial
label map.

``phi_s`` turns an FI-module into a graded equivariant module over the
truncated ring: the component in degree alpha (an exponent vector bounded by
s) is the module evaluated on the positions where alpha equals s; a variable
acts by the transition map along the inclusion of those position sets, and
becomes zero whenever the target degree would exceed the bound.  Its label
maps are the transitions' label maps, shifted by the offsets of the degree
blocks.  ``verify_phi_P`` and ``verify_phi_T`` match the images of principal
and torsion modules with the Q family through an explicit label bijection.
"""

from __future__ import annotations

from collections import namedtuple

from .combinat import injection_count, injections
from .equivariant import EquivModule, build_Q
from .truncated_ring import RingConfig, all_monomials

__all__ = [
    "Principal",
    "Torsion",
    "phi_s",
    "PhiComparison",
    "verify_phi_P",
    "verify_phi_T",
]


def _check_injection(f, m_src, m_tgt):
    if len(f) != m_src or len(set(f)) != len(f) or any(v < 0 or v >= m_tgt for v in f):
        raise ValueError(f"not an injection into range({m_tgt}): {f!r}")


class Principal:
    """The represented FI-module on an n-element set (covariant).

    ``map(f, m_src, m_tgt)`` is the label map of the transition along the
    injection f (a tuple of distinct values in range(m_tgt), one per source
    point).  Bases are memoized per level; the caches are only ever
    appended to, so concurrent readers are safe.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("n must be >= 0")
        self.n = n
        self._memo: dict = {}

    def _cached(self, key, thunk):
        if key not in self._memo:
            self._memo[key] = thunk()
        return self._memo[key]

    def dim(self, m):
        return injection_count(self.n, m)

    def basis(self, m):
        return self._cached(("basis", m), lambda: injections(self.n, m))

    def _index(self, m):
        return self._cached(("index", m), lambda: {g: i for i, g in enumerate(self.basis(m))})

    def map(self, f, m_src, m_tgt):
        _check_injection(f, m_src, m_tgt)
        idx_tgt = self._index(m_tgt)
        return [idx_tgt[tuple(f[v] for v in g)] for g in self.basis(m_src)]

    def __repr__(self):
        return f"Principal({self.n})"


class Torsion(Principal):
    """The regular representation of S_n placed in degree n: ``Principal(n)``
    there, whose injections are the permutations, and zero elsewhere; every
    transition that leaves the degree (hence every non-bijective injection)
    acts by zero."""

    def dim(self, m):
        return super().dim(m) if m == self.n else 0

    def map(self, f, m_src, m_tgt):
        if m_src == m_tgt == self.n:
            return super().map(f, m_src, m_tgt)
        _check_injection(f, m_src, m_tgt)
        return [None] * self.dim(m_src)

    def __repr__(self):
        return f"Torsion(n={self.n}, dim={self.dim(self.n)})"


# ---------------------------------------------------------------------------
# the weight-bounded functor


def _weight_positions(alpha, s):
    return tuple(p for p, e in enumerate(alpha) if e == s)


def phi_s(M: Principal, s: int, N: int) -> EquivModule:
    """Graded equivariant module whose degree-alpha part is M on the set of
    positions where alpha attains the bound s.  Degree alpha's labels
    (alpha, b) sit at offset(alpha) + b, so x_i and the swap (j, j+1) send
    label offset(alpha) + b to offset(beta) + the transition's image of b,
    for beta = alpha + e_i and alpha with j, j+1 exchanged."""
    if s < 1:
        raise ValueError("the functor needs s >= 1")
    cfg = RingConfig(N, s)
    offsets = {}
    labels = []
    for alpha in all_monomials(cfg):
        offsets[alpha] = len(labels)
        labels.extend((alpha, b) for b in range(M.dim(len(_weight_positions(alpha, s)))))
    xmaps = [[None] * len(labels) for _ in range(N)]
    swaps = [[None] * len(labels) for _ in range(N - 1)]

    def place(cm, alpha, beta, move):
        # the transition along the inclusion of alpha's weight positions into
        # beta's, position p going to move(p)
        pa, pb = _weight_positions(alpha, s), _weight_positions(beta, s)
        f = tuple(pb.index(move(p)) for p in pa)
        ra, rb = offsets[alpha], offsets[beta]
        for c, u in enumerate(M.map(f, len(pa), len(pb))):
            if u is not None:
                cm[ra + c] = rb + u

    for alpha in offsets:
        for i in range(N):
            if alpha[i] < s:
                place(xmaps[i], alpha, alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:], lambda p: p)
        for j in range(N - 1):
            place(swaps[j], alpha, alpha[:j] + (alpha[j + 1], alpha[j]) + alpha[j + 2:],
                  lambda p: j + 1 if p == j else j if p == j + 1 else p)
    return EquivModule(cfg, labels, xmaps, swaps, grading=[alpha for alpha, _ in labels],
                       name=f"phi_{s}({M!r})")


class PhiComparison(namedtuple("PhiComparison", "ok mismatch")):
    """Outcome of matching a functor image against a Q-type module through
    the canonical label correspondence."""

    __slots__ = ()


def _compare_with_q(A: EquivModule, B: EquivModule, correspondence) -> PhiComparison:
    """Check that ``correspondence`` (B label -> A label) is a bijection of
    labels that commutes with every variable and swap label map, and that it
    preserves the gradings when both modules live over the same ring."""
    if A.dim != B.dim:
        return PhiComparison(False, f"dimensions differ: {A.dim} != {B.dim}")
    image, seen = [], set()
    for lab in B.labels:
        row = A.label_index.get(correspondence(lab))
        if row is None:
            return PhiComparison(False, f"no image for label {lab!r}")
        if row in seen:
            return PhiComparison(False, f"correspondence not injective at {lab!r}")
        seen.add(row)
        image.append(row)
    if A.cfg == B.cfg and A.grading is not None and B.grading is not None:
        for lab, row, deg in zip(B.labels, image, B.grading):
            if A.grading[row] != deg:
                return PhiComparison(False, f"grading mismatch at {lab!r}")
    for what, a_maps, b_maps in (("variable", A.xmaps, B.xmaps), ("swap", A.swaps, B.swaps)):
        for i, (a_cm, b_cm) in enumerate(zip(a_maps, b_maps)):
            for lab, row, u in zip(B.labels, image, b_cm):
                if a_cm[row] != (None if u is None else image[u]):
                    return PhiComparison(False, f"{what} {i} does not commute at {lab!r}")
    return PhiComparison(True, "")


def _verify_phi(M: Principal, s: int, B: EquivModule) -> PhiComparison:
    """Compare phi_s(M) with B through the correspondence sending B's label
    (T, mono) to degree alpha = mono + s on T and the injection of T into
    alpha's weight positions."""

    def corr(lab):
        T, mono = lab
        alpha = list(mono)
        for t in T:
            alpha[t] += s
        positions = _weight_positions(alpha, s)
        return (tuple(alpha), M._index(len(positions))[tuple(positions.index(t) for t in T)])

    return _compare_with_q(phi_s(M, s, B.cfg.N), B, corr)


def verify_phi_P(s: int, n: int, N: int) -> PhiComparison:
    """Explicit basis isomorphism between the functor image of the principal
    module and the Q family with the same parameters: the canonical generator
    of degree (s on the first n positions) goes to the tuple (0..n-1), and the
    correspondence extends over every basis label."""
    if s < 1 or n > N:
        raise ValueError("need s >= 1 and n <= N")
    return _verify_phi(Principal(n), s, build_Q(s, n, N))


def verify_phi_T(s: int, n: int, N: int) -> PhiComparison:
    """Same comparison for the torsion module on the regular representation,
    matched against the Q family at exponent bound s-1; the gradings live
    over different bounds, so only the structure is compared."""
    if s < 1 or n > N:
        raise ValueError("need s >= 1 and n <= N")
    return _verify_phi(Torsion(n), s, build_Q(s - 1, n, N))
