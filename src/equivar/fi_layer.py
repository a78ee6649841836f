"""Finitely presented FI-modules and the weight-bounded functor into graded
equivariant modules.

An FI-module here is a functor from finite sets with injections to vector
spaces, drawn from a closed grammar: principal (represented) modules,
induced modules, torsion modules concentrated in one degree, shifts, and
finite direct sums.  Principal modules follow the covariant convention:
``Principal(n)`` evaluated on a set S is spanned by the injections from an
n-element set into S, with transition maps given by post-composition.

``phi_s`` turns an FI-module into a graded equivariant module over the
truncated ring: the component in degree alpha (an exponent vector bounded by
s) is the module evaluated on the positions where alpha equals s; a variable
acts by the transition map along the inclusion of those position sets, and
becomes zero whenever the target degree would exceed the bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .combinat import injection_count, injections
from .equivariant import (
    EquivModule,
    SnRep,
    _map_matrix,
    build_Q,
    regular_rep,
)
from .linalg import ONE, SparseRationalMatrix, Subspace, joint_kernel, kron
from .truncated_ring import RingConfig, all_monomials

__all__ = [
    "FIModule",
    "Principal",
    "Torsion",
    "Induced",
    "Shift",
    "DirectSum",
    "FIEvaluation",
    "evaluate",
    "phi_s",
    "PhiComparison",
    "verify_phi_P",
    "verify_phi_T",
    "theta",
    "fi_to_json",
    "fi_from_json",
]


@dataclass
class FIEvaluation:
    """One level of an FI-module: dimension, basis labels, swap matrices."""

    level: int
    dim: int
    basis: list
    coxeter: list


class FIModule:
    """Base class; concrete nodes implement dim / basis / map.

    ``map(f, m_src, m_tgt)`` is the matrix of the transition along the
    injection f (a tuple of distinct values in range(m_tgt), one per source
    point).  Evaluations are memoized per level; the caches are only ever
    appended to, so concurrent readers are safe.
    """

    def __init__(self):
        self._memo: dict = {}

    def dim(self, m: int) -> int:
        raise NotImplementedError

    def basis(self, m: int) -> list:
        raise NotImplementedError

    def map(self, f: tuple, m_src: int, m_tgt: int) -> SparseRationalMatrix:
        raise NotImplementedError

    def _cached(self, key, thunk):
        if key not in self._memo:
            self._memo[key] = thunk()
        return self._memo[key]

    def swap_matrix(self, j: int, m: int) -> SparseRationalMatrix:
        swap = tuple(j + 1 if v == j else j if v == j + 1 else v for v in range(m))
        return self.map(swap, m, m)


def _check_injection(f, m_src, m_tgt):
    if len(f) != m_src or len(set(f)) != len(f) or any(v < 0 or v >= m_tgt for v in f):
        raise ValueError(f"not an injection into range({m_tgt}): {f!r}")


class Principal(FIModule):
    """The represented FI-module on an n-element set (covariant)."""

    def __init__(self, n: int):
        super().__init__()
        if n < 0:
            raise ValueError("n must be >= 0")
        self.n = n

    def dim(self, m):
        return injection_count(self.n, m)

    def basis(self, m):
        return self._cached(("basis", m), lambda: injections(self.n, m))

    def _index(self, m):
        return self._cached(("index", m), lambda: {g: i for i, g in enumerate(self.basis(m))})

    def map(self, f, m_src, m_tgt):
        _check_injection(f, m_src, m_tgt)
        idx_tgt = self._index(m_tgt)
        return _map_matrix([idx_tgt[tuple(f[v] for v in g)] for g in self.basis(m_src)],
                           self.dim(m_tgt))

    def __repr__(self):
        return f"Principal({self.n})"


class Torsion(FIModule):
    """A representation placed in a single degree; every transition that
    leaves the degree (hence every non-bijective injection) acts by zero."""

    def __init__(self, rep: SnRep):
        super().__init__()
        self.rep = rep

    def dim(self, m):
        return self.rep.dim if m == self.rep.n else 0

    def basis(self, m):
        return [("t", i) for i in range(self.dim(m))]

    def map(self, f, m_src, m_tgt):
        _check_injection(f, m_src, m_tgt)
        out = SparseRationalMatrix(self.dim(m_tgt), self.dim(m_src))
        if m_src == m_tgt == self.rep.n:
            return self.rep.matrix(f)
        return out

    def __repr__(self):
        return f"Torsion(n={self.rep.n}, dim={self.rep.dim})"


class Induced(FIModule):
    """Invariants of (rep tensor Principal(n)) under the diagonal action of
    the symmetric group on n letters (acting on injections by relabeling the
    source points)."""

    def __init__(self, rep: SnRep):
        super().__init__()
        self.rep = rep
        self._plain = Principal(rep.n)

    def _invariants(self, m) -> Subspace:
        def build():
            inj = self._plain.basis(m)
            idx = {g: i for i, g in enumerate(inj)}
            big = len(inj) * self.rep.dim
            eye = SparseRationalMatrix.identity(big)
            # relabel the source points: swap arguments c, c+1 of each injection
            blocks = [kron(_map_matrix([idx[g[:c] + (g[c + 1], g[c]) + g[c + 2:]] for g in inj]),
                           self.rep.coxeter[c]) - eye
                      for c in range(self.rep.n - 1)]
            return Subspace(joint_kernel(blocks, big), big)

        return self._cached(("incl", m), build)

    def dim(self, m):
        return self._invariants(m).dim

    def basis(self, m):
        return [("inv", i) for i in range(self.dim(m))]

    def map(self, f, m_src, m_tgt):
        _check_injection(f, m_src, m_tgt)
        plain = kron(self._plain.map(f, m_src, m_tgt), SparseRationalMatrix.identity(self.rep.dim))
        return self._invariants(m_tgt).coords(plain @ self._invariants(m_src).B)

    def __repr__(self):
        return f"Induced(n={self.rep.n}, dim={self.rep.dim})"


class Shift(FIModule):
    """Evaluation on the disjoint union with k extra fixed points."""

    def __init__(self, inner: FIModule, k: int):
        super().__init__()
        if k < 0:
            raise ValueError("shift must be nonnegative")
        self.inner = inner
        self.k = k

    def dim(self, m):
        return self.inner.dim(m + self.k)

    def basis(self, m):
        return [("sh", b) for b in self.inner.basis(m + self.k)]

    def map(self, f, m_src, m_tgt):
        _check_injection(f, m_src, m_tgt)
        extended = tuple(f) + tuple(m_tgt + i for i in range(self.k))
        return self.inner.map(extended, m_src + self.k, m_tgt + self.k)

    def __repr__(self):
        return f"Shift({self.inner!r}, {self.k})"


class DirectSum(FIModule):
    def __init__(self, parts):
        super().__init__()
        self.parts = list(parts)
        if not self.parts:
            raise ValueError("empty direct sum")

    def dim(self, m):
        return sum(p.dim(m) for p in self.parts)

    def basis(self, m):
        return [(t, b) for t, p in enumerate(self.parts) for b in p.basis(m)]

    def map(self, f, m_src, m_tgt):
        _check_injection(f, m_src, m_tgt)
        out = SparseRationalMatrix(self.dim(m_tgt), self.dim(m_src))
        roff = coff = 0
        for p in self.parts:
            for r, row in enumerate(p.map(f, m_src, m_tgt).rows):
                out.rows[roff + r].update((coff + c, v) for c, v in row.items())
            roff += p.dim(m_tgt)
            coff += p.dim(m_src)
        return out

    def __repr__(self):
        return f"DirectSum({self.parts!r})"


def evaluate(M: FIModule, m: int) -> FIEvaluation:
    """Dimension, basis, and swap matrices of one level of an FI-module."""
    return FIEvaluation(
        level=m,
        dim=M.dim(m),
        basis=M.basis(m),
        coxeter=[M.swap_matrix(j, m) for j in range(m - 1)],
    )


def theta(M: FIModule, N: int) -> SnRep:
    """A single level with its symmetric-group action: the finite stand-in
    for the limit along the standard inclusions (which kills torsion)."""
    return SnRep(N, M.dim(N), tuple(M.swap_matrix(j, N) for j in range(N - 1)))


# ---------------------------------------------------------------------------
# the weight-bounded functor


def _weight_positions(alpha, s):
    return tuple(p for p, e in enumerate(alpha) if e == s)


def phi_s(M: FIModule, s: int, N: int) -> EquivModule:
    """Graded equivariant module whose degree-alpha part is M on the set of
    positions where alpha attains the bound s."""
    if s < 1:
        raise ValueError("the functor needs s >= 1")
    cfg = RingConfig(N, s)
    degrees = all_monomials(cfg)
    dims = {}
    offsets = {}
    labels = []
    for alpha in degrees:
        m = len(_weight_positions(alpha, s))
        d = M.dim(m)
        dims[alpha] = d
        offsets[alpha] = len(labels)
        labels.extend((alpha, b) for b in range(d))
    total = len(labels)

    def block_into(mat_out, alpha, beta, f, m_a, m_b):
        # the blocks of one matrix occupy disjoint columns, so nothing adds up
        ra, rb = offsets[alpha], offsets[beta]
        for r, row in enumerate(M.map(f, m_a, m_b).rows):
            mat_out.rows[rb + r].update((ra + c, v) for c, v in row.items())

    xmul = []
    for i in range(N):
        mat = SparseRationalMatrix(total, total)
        for alpha in degrees:
            if dims[alpha] == 0 or alpha[i] == s:
                continue
            beta = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
            pa = _weight_positions(alpha, s)
            pb = _weight_positions(beta, s)
            f = tuple(pb.index(p) for p in pa)
            block_into(mat, alpha, beta, f, len(pa), len(pb))
        xmul.append(mat)

    coxeter = []
    for j in range(N - 1):
        mat = SparseRationalMatrix(total, total)
        for alpha in degrees:
            if dims[alpha] == 0:
                continue
            beta = list(alpha)
            beta[j], beta[j + 1] = beta[j + 1], beta[j]
            beta = tuple(beta)
            pa = _weight_positions(alpha, s)
            pb = _weight_positions(beta, s)
            sigma = {j: j + 1, j + 1: j}
            f = tuple(pb.index(sigma.get(p, p)) for p in pa)
            block_into(mat, alpha, beta, f, len(pa), len(pb))
        coxeter.append(mat)

    grading = [alpha for alpha, _ in labels]
    return EquivModule(cfg, labels, xmul, coxeter, grading=grading,
                       name=f"phi_{s}({M!r})")


@dataclass
class PhiComparison:
    """Outcome of matching a functor image against a Q-type module through
    the canonical basis correspondence."""

    ok: bool
    mismatch: str
    matrix: SparseRationalMatrix | None


def _compare_with_q(A: EquivModule, B: EquivModule, correspondence) -> PhiComparison:
    """Check that ``correspondence`` (B label -> A label) is a basis bijection
    commuting with every variable and swap and preserving the gradings."""
    if A.dim != B.dim:
        return PhiComparison(False, f"dimensions differ: {A.dim} != {B.dim}", None)
    phi = SparseRationalMatrix(A.dim, B.dim)
    seen = set()
    for col, lab in enumerate(B.labels):
        target = correspondence(lab)
        row = A.label_index.get(target)
        if row is None:
            return PhiComparison(False, f"no image for label {lab!r}", None)
        if row in seen:
            return PhiComparison(False, f"correspondence not injective at {lab!r}", None)
        seen.add(row)
        phi.set(row, col, ONE)
        if A.grading is not None and B.grading is not None:
            if A.grading[row] != B.grading[col]:
                return PhiComparison(False, f"grading mismatch at {lab!r}", None)
    for i in range(A.cfg.N):
        if (phi @ B.xmul[i]) != (A.xmul[i] @ phi):
            return PhiComparison(False, f"variable {i} does not commute", phi)
    for j in range(A.cfg.N - 1):
        if (phi @ B.coxeter[j]) != (A.coxeter[j] @ phi):
            return PhiComparison(False, f"swap {j} does not commute", phi)
    return PhiComparison(True, "", phi)


def verify_phi_P(s: int, n: int, N: int) -> PhiComparison:
    """Explicit basis isomorphism between the functor image of the principal
    module and the Q family with the same parameters: the canonical generator
    of degree (s on the first n positions) goes to the tuple (0..n-1), and the
    correspondence extends over every basis label."""
    if s < 1 or n > N:
        raise ValueError("need s >= 1 and n <= N")
    M = Principal(n)
    A = phi_s(M, s, N)
    B = build_Q(s, n, N)

    basis_index = {}

    def corr(lab):
        T, mono = lab
        alpha = list(mono)
        for t in T:
            alpha[t] += s
        alpha = tuple(alpha)
        positions = _weight_positions(alpha, s)
        f = tuple(positions.index(t) for t in T)
        m = len(positions)
        if m not in basis_index:
            basis_index[m] = {g: i for i, g in enumerate(M.basis(m))}
        return (alpha, basis_index[m][f])

    out = _compare_with_q(A, B, corr)
    if out.ok:
        gen_b = B.label_index[(tuple(range(n)), (0,) * N)]
        gen_alpha = tuple(s if p < n else 0 for p in range(N))
        ident = tuple(range(n))
        gen_a = A.label_index[(gen_alpha, M.basis(n).index(ident))]
        if out.matrix.get(gen_a, gen_b) != ONE:
            return PhiComparison(False, "canonical generators do not match", out.matrix)
    return out


def verify_phi_T(s: int, n: int, N: int) -> PhiComparison:
    """Same comparison for the torsion module on the regular representation,
    matched against the Q family at exponent bound s-1."""
    if s < 1 or n > N:
        raise ValueError("need s >= 1 and n <= N")
    rep = regular_rep(n)
    M = Torsion(rep)
    A = phi_s(M, s, N)
    B = build_Q(s - 1, n, N)
    perms = sorted(itertools.permutations(range(n)))
    perm_index = {g: i for i, g in enumerate(perms)}

    def corr(lab):
        T, mono = lab
        alpha = [0] * N
        for p, e in enumerate(mono):
            alpha[p] = e
        for t in T:
            alpha[t] += s
        alpha = tuple(alpha)
        positions = _weight_positions(alpha, s)
        if len(positions) != n:
            raise AssertionError("torsion component off its degree")
        pi = tuple(positions.index(t) for t in T)
        return (alpha, perm_index[pi])

    # the gradings live over different exponent bounds, so compare structure only
    A2 = EquivModule(A.cfg, A.labels, A.xmul, A.coxeter, grading=None, name=A.name)
    B2 = EquivModule(B.cfg, B.labels, B.xmul, B.coxeter, grading=None, name=B.name)
    return _compare_with_q(A2, B2, corr)


# ---------------------------------------------------------------------------
# JSON forms: a tagged union mirroring the grammar


def _rep_to_json(rep: SnRep) -> dict:
    return {
        "n": rep.n,
        "dim": rep.dim,
        "coxeter": [m.to_triplets() for m in rep.coxeter],
    }


def _rep_from_json(data) -> SnRep:
    mats = tuple(
        SparseRationalMatrix.from_entries(
            data["dim"], data["dim"],
            [(r, c, Fraction(num, den)) for (r, c, num, den) in tri],
        )
        for tri in data["coxeter"]
    )
    return SnRep(data["n"], data["dim"], mats)


def fi_to_json(M: FIModule) -> dict:
    if isinstance(M, Principal):
        return {"kind": "principal", "n": M.n}
    if isinstance(M, Torsion):
        return {"kind": "torsion", "rep": _rep_to_json(M.rep)}
    if isinstance(M, Induced):
        return {"kind": "induced", "rep": _rep_to_json(M.rep)}
    if isinstance(M, Shift):
        return {"kind": "shift", "k": M.k, "inner": fi_to_json(M.inner)}
    if isinstance(M, DirectSum):
        return {"kind": "sum", "parts": [fi_to_json(p) for p in M.parts]}
    raise ValueError(f"unknown node {M!r}")


def fi_from_json(data) -> FIModule:
    kind = data["kind"]
    if kind == "principal":
        return Principal(data["n"])
    if kind == "torsion":
        return Torsion(_rep_from_json(data["rep"]))
    if kind == "induced":
        return Induced(_rep_from_json(data["rep"]))
    if kind == "shift":
        return Shift(fi_from_json(data["inner"]), data["k"])
    if kind == "sum":
        return DirectSum([fi_from_json(p) for p in data["parts"]])
    raise ValueError(f"unknown kind {kind!r}")
