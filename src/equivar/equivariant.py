"""Equivariant modules over the truncated ring at a finite truncation.

An ``EquivModule`` carries, over a fixed ``RingConfig(N, s)``:

- a list of hashable basis labels (for the standard families these are pairs
  ``(tuple_of_positions, exponent_vector)``);
- one action per variable and one per adjacent transposition (arbitrary
  permutations act through a reduced word, so storage is linear in N);
- an optional grading assigning each basis label an exponent vector.

The actions come in one of two forms.  A permutation-like module (the P and
Q families, their direct sums and filtration layers, the periodic Tor
complex) stores integer label maps: ``xmaps[i][t]`` is the label that x_i
sends label t to, or None where x_i kills it, and ``swaps[j]`` is the label
permutation of the swap (j, j+1).  Its Fraction matrices ``xmul`` and
``coxeter`` are derived from the maps on first access and kept.  Any other
module (free covers, kernels, induced modules) stores the matrices alone and
has ``xmaps is None``.

Modules are immutable after construction; submodules and quotients are new
objects.  The two standard families:

- ``build_P(s, n, N)``: free module on ordered n-tuples of distinct
  positions, one copy of the truncated ring per tuple;
- ``build_Q(s, n, N)``: its quotient where each variable listed in the tuple
  annihilates that tuple's generator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .combinat import (
    ClassFunction,
    injection_count,
    injections,
    partitions,
)
from .linalg import ONE, SparseRationalMatrix, Subspace, joint_kernel, kron
from .truncated_ring import (
    RingConfig,
    all_monomials,
    coxeter_word,
    representative_permutation,
)

__all__ = [
    "EquivModule",
    "EquivMap",
    "SnRep",
    "trivial_rep",
    "sign_rep",
    "regular_rep",
    "build_P",
    "build_Q",
    "build_induced",
    "direct_sum",
    "q_into_p_embedding",
    "character_of",
    "iso_by_character",
    "filtration_P",
    "filtration_layers",
    "check_axioms",
    "embed_label",
    "embedding_matrix",
    "pq_dimension",
]


class EquivModule:
    """A finite-dimensional module with commuting variable actions and a
    compatible symmetric-group action stored on adjacent transpositions.

    Give the actions either as matrices (``xmul``, ``coxeter``) or as label
    maps (``xmaps``, ``swaps``); see the module docstring.
    """

    __slots__ = ("cfg", "labels", "label_index", "xmaps", "swaps", "_xmul", "_coxeter",
                 "grading", "name")

    def __init__(self, cfg, labels, xmul=None, coxeter=None, grading=None, name="", *,
                 xmaps=None, swaps=None):
        self.cfg = cfg
        self.labels = list(labels)
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.label_index) != len(self.labels):
            raise ValueError("duplicate basis labels")
        as_maps = xmaps is not None
        if (swaps is not None) != as_maps or (xmul is None) != as_maps or (coxeter is None) != as_maps:
            raise ValueError("give the actions either as matrices or as label maps")
        self.xmaps, self.swaps = (list(xmaps), list(swaps)) if as_maps else (None, None)
        self._xmul, self._coxeter = (None, None) if as_maps else (list(xmul), list(coxeter))
        xs, sws = (self.xmaps, self.swaps) if as_maps else (self._xmul, self._coxeter)
        if len(xs) != cfg.N or len(sws) != max(cfg.N - 1, 0):
            raise ValueError("expected one action per variable and per adjacent swap")
        if as_maps and any(len(cm) != self.dim for cm in xs + sws):
            raise ValueError("a label map has the wrong length")
        self.grading = list(grading) if grading is not None else None
        self.name = name

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def xmul(self) -> list:
        """One multiplication matrix per variable."""
        if self._xmul is None:
            self._xmul = [_map_matrix(cm) for cm in self.xmaps]
        return self._xmul

    @property
    def coxeter(self) -> list:
        """One permutation matrix per adjacent transposition."""
        if self._coxeter is None:
            self._coxeter = [_map_matrix(cm) for cm in self.swaps]
        return self._coxeter

    def perm_matrix(self, g) -> SparseRationalMatrix:
        """Action of an arbitrary permutation, via a reduced word."""
        if self.swaps is not None:
            perm = list(range(self.dim))
            for j in coxeter_word(g):
                sw = self.swaps[j]
                perm = [sw[t] for t in perm]
            return _map_matrix(perm)
        return _word_product(self.coxeter, self.dim, g)

    def to_json_dict(self) -> dict:
        out = {
            "cfg": {"N": self.cfg.N, "s": self.cfg.s},
            "dim": self.dim,
            "labels": [_label_to_json(lab) for lab in self.labels],
            "xmul": [m.to_triplets() for m in self.xmul],
            "coxeter": [m.to_triplets() for m in self.coxeter],
        }
        if self.grading is not None:
            out["grading"] = [list(d) for d in self.grading]
        return out

    def __repr__(self):
        tag = self.name or "EquivModule"
        return f"{tag}(N={self.cfg.N}, s={self.cfg.s}, dim={self.dim})"


def _word_product(gens, dim: int, g) -> SparseRationalMatrix:
    """The action of the permutation g, given one matrix per adjacent swap:
    the product of the generators along a reduced word of g."""
    m = SparseRationalMatrix.identity(dim)
    for j in coxeter_word(g):
        m = gens[j] @ m
    return m


def _map_matrix(cm, nrows: int | None = None) -> SparseRationalMatrix:
    """The 0/1 matrix of a label map: column t has its one entry in row cm[t].
    Square unless ``nrows`` is given."""
    m = SparseRationalMatrix(len(cm) if nrows is None else nrows, len(cm))
    for t, u in enumerate(cm):
        if u is not None:
            m.rows[u][t] = ONE
    return m


def _label_to_json(lab):
    if isinstance(lab, tuple) and len(lab) == 2 and all(isinstance(x, tuple) for x in lab):
        return {"tuple": list(lab[0]), "mono": list(lab[1])}
    return {"raw": repr(lab)}


@dataclass
class EquivMap:
    """A module map: matrix is dim(target) x dim(source)."""

    source: EquivModule
    target: EquivModule
    matrix: SparseRationalMatrix

    def __post_init__(self):
        if self.matrix.nrows != self.target.dim or self.matrix.ncols != self.source.dim:
            raise ValueError("map shape does not match the modules")

    def check(self) -> None:
        """Assert equivariance: the matrix commutes with every variable and
        every adjacent transposition."""
        if self.source.cfg.N != self.target.cfg.N:
            raise ValueError("truncation levels differ")
        for i in range(self.source.cfg.N):
            if (self.matrix @ self.source.xmul[i]) != (self.target.xmul[i] @ self.matrix):
                raise AssertionError(f"map does not commute with x_{i}")
        for j in range(self.source.cfg.N - 1):
            if (self.matrix @ self.source.coxeter[j]) != (self.target.coxeter[j] @ self.matrix):
                raise AssertionError(f"map does not commute with swap {j}")

    def compose(self, other: "EquivMap") -> "EquivMap":
        """self after other."""
        if other.target is not self.source and other.target.labels != self.source.labels:
            raise ValueError("composition shape mismatch")
        return EquivMap(other.source, self.target, self.matrix @ other.matrix)

    def rank(self) -> int:
        from .linalg import matrix_rank

        return matrix_rank(self.matrix)


@dataclass(frozen=True)
class SnRep:
    """A representation of the symmetric group on n letters: dimension plus
    one matrix per adjacent transposition."""

    n: int
    dim: int
    coxeter: tuple

    def __post_init__(self):
        if len(self.coxeter) != max(self.n - 1, 0):
            raise ValueError("expected n-1 generator matrices")
        for m in self.coxeter:
            if m.nrows != self.dim or m.ncols != self.dim:
                raise ValueError("generator matrix has wrong shape")

    def matrix(self, g) -> SparseRationalMatrix:
        return _word_product(self.coxeter, self.dim, g)


def trivial_rep(n: int) -> SnRep:
    one = SparseRationalMatrix.identity(1)
    return SnRep(n, 1, tuple(one for _ in range(max(n - 1, 0))))


def sign_rep(n: int) -> SnRep:
    neg = SparseRationalMatrix.from_entries(1, 1, [(0, 0, -1)])
    return SnRep(n, 1, tuple(neg for _ in range(max(n - 1, 0))))


def regular_rep(n: int) -> SnRep:
    """Left regular representation on all permutations of [n]."""
    elems = sorted(itertools.permutations(range(n)))
    index = {g: i for i, g in enumerate(elems)}
    mats = [_map_matrix([index[_compose_swap(j, g)] for g in elems]) for j in range(max(n - 1, 0))]
    return SnRep(n, len(elems), tuple(mats))


def _compose_swap(j, g):
    """The permutation (swap j,j+1) composed after g."""
    out = []
    for v in g:
        if v == j:
            out.append(j + 1)
        elif v == j + 1:
            out.append(j)
        else:
            out.append(v)
    return tuple(out)


def pq_dimension(kind: str, s: int, n: int, N: int) -> int:
    """Closed-form dimension of the P or Q module at truncation N."""
    if n > N:
        raise ValueError(f"tuple size n={n} exceeds truncation N={N}")
    tuples = injection_count(n, N)
    if kind == "P":
        return (s + 1) ** N * tuples
    if kind == "Q":
        return (s + 1) ** (N - n) * tuples
    raise ValueError(f"unknown kind {kind!r}")


def _build_pq(kind: str, s: int, n: int, N: int) -> EquivModule:
    cfg = RingConfig(N, s)
    if n > N:
        raise ValueError(f"tuple size n={n} exceeds truncation N={N}")
    # A label (T, mono) is a pair (tuple index, monomial index), so each label
    # map combines a small table on tuples with a small table on monomials.
    monos = all_monomials(cfg)
    tuples = injections(n, N)
    mono_index = {m: b for b, m in enumerate(monos)}
    tuple_index = {T: a for a, T in enumerate(tuples)}
    labels, tix, mix = [], [], []
    pos = []  # pos[a][b]: index of the label (tuples[a], monos[b]), None if absent
    for a, T in enumerate(tuples):
        row = [None] * len(monos)
        for b, mono in enumerate(monos):
            if kind == "Q" and any(mono[t] for t in T):
                continue
            row[b] = len(labels)
            labels.append((T, mono))
            tix.append(a)
            mix.append(b)
        pos.append(row)

    xmaps = []
    for i in range(N):
        up = [mono_index.get(m[:i] + (m[i] + 1,) + m[i + 1:]) for m in monos]  # None at s
        dead = [kind == "Q" and i in T for T in tuples]
        xmaps.append([None if dead[a] or up[b] is None else pos[a][up[b]]
                      for a, b in zip(tix, mix)])

    swaps = []
    for j in range(N - 1):
        tsw = [tuple_index[tuple(j + 1 if t == j else j if t == j + 1 else t for t in T)]
               for T in tuples]
        msw = [mono_index[m[:j] + (m[j + 1], m[j]) + m[j + 2:]] for m in monos]
        swaps.append([pos[tsw[a]][msw[b]] for a, b in zip(tix, mix)])

    if kind == "P":
        grading = [mono for _, mono in labels]
    else:
        grading = []
        for T, mono in labels:
            d = list(mono)
            for t in T:
                d[t] += s
            grading.append(tuple(d))

    return EquivModule(cfg, labels, grading=grading, name=f"{kind}(s={s},n={n})",
                       xmaps=xmaps, swaps=swaps)


def build_P(s: int, n: int, N: int) -> EquivModule:
    """Free module on ordered n-tuples: labels (T, mono) with mono unconstrained."""
    return _build_pq("P", s, n, N)


def build_Q(s: int, n: int, N: int) -> EquivModule:
    """Quotient family: labels (T, mono) with mono zero on T, and the listed
    variables annihilate their tuple's generator."""
    return _build_pq("Q", s, n, N)


def direct_sum(mods) -> EquivModule:
    """Direct sum of modules that carry label maps; the label of the k-th
    summand's label lab is (k, lab)."""
    mods = list(mods)
    if not mods:
        raise ValueError("empty direct sum")
    cfg = mods[0].cfg
    if any(m.cfg != cfg for m in mods):
        raise ValueError("all summands must share the ring configuration")
    if any(m.xmaps is None for m in mods):
        raise ValueError("every summand must carry label maps")
    labels = []
    for t, m in enumerate(mods):
        labels.extend((t, lab) for lab in m.labels)
    offsets = []
    off = 0
    for m in mods:
        offsets.append(off)
        off += m.dim

    def concat(pick):
        return [None if u is None else u + base
                for m, base in zip(mods, offsets) for u in pick(m)]

    grading = None
    if all(m.grading is not None for m in mods):
        grading = []
        for m in mods:
            grading.extend(m.grading)
    return EquivModule(cfg, labels, grading=grading, name="(+)".join(m.name or "M" for m in mods),
                       xmaps=[concat(lambda m, i=i: m.xmaps[i]) for i in range(cfg.N)],
                       swaps=[concat(lambda m, j=j: m.swaps[j]) for j in range(cfg.N - 1)])


def _slot_swap_matrix(mod: EquivModule, c: int) -> SparseRationalMatrix:
    """Permutation of tuple slots c, c+1 on a P/Q module basis."""
    return _map_matrix([mod.label_index[(T[:c] + (T[c + 1], T[c]) + T[c + 2:], mono)]
                        for T, mono in mod.labels])


def build_induced(kind: str, s: int, rep: SnRep, N: int) -> EquivModule:
    """Isotypic induction: the slot-diagonal invariants of (P or Q) tensor rep.

    The subspace is the joint kernel of (generator - identity) for the slot
    action tensored with the representation matrices; its dimension is
    whatever that kernel computation returns.
    """
    n, e = rep.n, rep.dim
    base = _build_pq(kind, s, n, N)
    total = base.dim * e
    ident = SparseRationalMatrix.identity(total)
    inv = Subspace(joint_kernel([kron(_slot_swap_matrix(base, c), rep.coxeter[c]) - ident
                                 for c in range(n - 1)], total), total)
    eye = SparseRationalMatrix.identity(e)
    xmul = [inv.restrict(kron(m, eye)) for m in base.xmul]
    coxeter = [inv.restrict(kron(m, eye)) for m in base.coxeter]
    labels = [("inv", kind, s, n, t) for t in range(inv.dim)]
    return EquivModule(RingConfig(N, s), labels, xmul, coxeter, grading=None,
                       name=f"{kind}_ind(s={s},n={n},dimV={e})")


def q_into_p_embedding(s: int, n: int, N: int) -> EquivMap:
    """The injective map from the Q family into the P family sending a tuple
    generator to the product of its own variables to the s-th power times it."""
    Q = build_Q(s, n, N)
    P = build_P(s, n, N)
    rows = []
    for T, mono in Q.labels:
        target = list(mono)
        for t in T:
            target[t] += s
        rows.append(P.label_index[(T, tuple(target))])
    return EquivMap(Q, P, _map_matrix(rows, P.dim))


def character_of(M: EquivModule) -> ClassFunction:
    """Trace of a representative permutation of each cycle type."""
    N = M.cfg.N
    vals = {}
    for mu in partitions(N):
        g = representative_permutation(mu)
        mat = M.perm_matrix(g)
        vals[mu] = sum((mat.rows[i].get(i, Fraction(0)) for i in range(M.dim)), Fraction(0))
    return ClassFunction(N, vals)


def iso_by_character(A: EquivModule, B: EquivModule) -> bool:
    """Equality of characters; in characteristic zero this decides whether the
    underlying group representations agree (nothing is claimed about the
    module structure)."""
    if A.cfg != B.cfg:
        raise ValueError(f"config mismatch: {A.cfg} != {B.cfg}")
    return character_of(A) == character_of(B)


def _layer_order(s: int, n: int) -> list:
    """Exponent patterns on the tuple slots, deepest (all s) first: total
    degree descending, lexicographic within a degree."""
    pats = itertools.product(range(s + 1), repeat=n)
    return sorted(pats, key=lambda p: (-sum(p), p))


def filtration_layers(s: int, n: int, N: int):
    """The chain refining the power filtration of the P family.

    Returns (P, layers) where each layer is an EquivModule presenting one
    successive quotient; the k-th partial union of layer label sets spans a
    genuine submodule of P.
    """
    P = build_P(s, n, N)
    layers = []
    for pat in _layer_order(s, n):
        members = [t for t, (T, mono) in enumerate(P.labels)
                   if tuple(mono[k] for k in T) == pat]
        index = {t: k for k, t in enumerate(members)}  # P label -> layer label

        def project(cm):  # a P label map, restricted to the layer; None leaves it
            return [index.get(cm[t]) for t in members]

        layers.append(EquivModule(P.cfg, [P.labels[t] for t in members],
                                  name=f"P(s={s},n={n})/layer{pat}",
                                  xmaps=[project(cm) for cm in P.xmaps],
                                  swaps=[project(cm) for cm in P.swaps]))
    return P, layers


def filtration_P(s: int, n: int, N: int) -> list:
    """Characters of the successive quotients of the refined power filtration
    of the P family; the list has length (s+1)^n."""
    _, layers = filtration_layers(s, n, N)
    return [character_of(layer) for layer in layers]


def check_axioms(M: EquivModule) -> None:
    """Assert every structural identity of an equivariant module, exactly."""
    N, s = M.cfg.N, M.cfg.s
    eye = SparseRationalMatrix.identity(M.dim)
    for i in range(N):
        for j in range(i + 1, N):
            if (M.xmul[i] @ M.xmul[j]) != (M.xmul[j] @ M.xmul[i]):
                raise AssertionError(f"x_{i} and x_{j} do not commute")
    for i in range(N):
        if not M.xmul[i].power(s + 1).is_zero():
            raise AssertionError(f"x_{i}^(s+1) is nonzero")
    for j in range(N - 1):
        if (M.coxeter[j] @ M.coxeter[j]) != eye:
            raise AssertionError(f"swap {j} is not an involution")
    for j in range(N - 2):
        a, b = M.coxeter[j], M.coxeter[j + 1]
        if (a @ b @ a) != (b @ a @ b):
            raise AssertionError(f"braid relation fails at {j}")
    for j in range(N - 1):
        for k in range(j + 2, N - 1):
            a, b = M.coxeter[j], M.coxeter[k]
            if (a @ b) != (b @ a):
                raise AssertionError(f"distant swaps {j},{k} do not commute")
    for j in range(N - 1):
        for i in range(N):
            swapped = j + 1 if i == j else j if i == j + 1 else i
            lhs = M.coxeter[j] @ M.xmul[i] @ M.coxeter[j]
            if lhs != M.xmul[swapped]:
                raise AssertionError(f"swap {j} conjugates x_{i} incorrectly")
    if M.grading is not None:
        for i in range(N):
            for col, row_entries in enumerate(M.xmul[i].columns()):
                for r in row_entries:
                    expect = list(M.grading[col])
                    expect[i] += 1
                    if tuple(expect) != M.grading[r]:
                        raise AssertionError("grading is not raised by one step")
        for j in range(N - 1):
            for col, row_entries in enumerate(M.coxeter[j].columns()):
                for r in row_entries:
                    d = list(M.grading[col])
                    d[j], d[j + 1] = d[j + 1], d[j]
                    if tuple(d) != M.grading[r]:
                        raise AssertionError("grading is not permuted by swaps")


def embed_label(lab, N_new: int):
    """Pad the exponent part of a (tuple, mono) label to a larger truncation.

    Direct-sum labels (component index, inner label) are padded recursively.
    """
    if isinstance(lab, tuple) and len(lab) == 2:
        head, tail = lab
        if isinstance(head, int) and isinstance(tail, tuple):
            return (head, embed_label(tail, N_new))
        if isinstance(head, tuple) and isinstance(tail, tuple):
            if N_new < len(tail):
                raise ValueError("cannot shrink a label")
            return (head, tail + (0,) * (N_new - len(tail)))
    raise ValueError(f"no canonical inclusion for label {lab!r}")


def embedding_matrix(small: EquivModule, big: EquivModule) -> SparseRationalMatrix:
    """Canonical basis-label inclusion of a module at truncation N into the
    matching module at truncation N+1 (labels padded by zero exponents)."""
    rows = []
    for lab in small.labels:
        try:
            target = embed_label(lab, big.cfg.N)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"no canonical inclusion for label {lab!r}") from exc
        row = big.label_index.get(target)
        if row is None:
            raise ValueError(f"label {target!r} is absent at the larger truncation")
        rows.append(row)
    return _map_matrix(rows, big.dim)
