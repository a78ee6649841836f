"""Equivariant modules over the truncated ring at a finite truncation.

An ``EquivModule`` carries, over a fixed ``RingConfig(N, s)``:

- a list of hashable basis labels (for the standard families these are pairs
  ``(tuple_of_positions, exponent_vector)``);
- one action per variable and one per adjacent transposition (arbitrary
  permutations act through a reduced word, so storage is linear in N);
- an optional grading assigning each basis label an exponent vector.

Every module the package builds (the P and Q families, their direct sums and
filtration layers, the periodic Tor complex, the functor images of
``fi_layer.phi_s``) acts on its basis by partial injections of labels, so
the actions are integer label maps: ``xmaps[i][t]`` is the label that x_i
sends label t to, or None where x_i kills it, and ``swaps[j]`` is the label
permutation of the swap (j, j+1).  ``label_perm`` composes the swaps along a
word, a character counts fixed labels, and stable Ext reads its stable
labels' slot digits off the label arithmetic, so no action is held as a
matrix; ``_map_matrix`` gives the 0/1 matrix of a label map where one is
printed or multiplied.

Modules are immutable after construction; submodules and quotients are new
objects.  The two standard families:

- ``build_P(s, n, N)``: free module on ordered n-tuples of distinct
  positions, one copy of the truncated ring per tuple;
- ``build_Q(s, n, N)``: its quotient where each variable listed in the tuple
  annihilates that tuple's generator.

Both, and ``homcalc.PQFamily.build``, call the one builder ``_build_family``,
which keeps the last 64 modules it built, so a P or Q module is built once
per process however many callers ask for it.  The builder checks its
arguments and returns a module that holds only its ring, name and family;
the labels, label index, label maps and grading are filled on the first
read of any of them, through ``EquivModule.__init__``.  A caller that reads
only the family (``homcalc.ext_truncated``) pays for no label.  Filling is
idempotent, so a module may be shared before it is filled.

Their labels (T, mono) list the tuples in lexicographic order, and within a
tuple the monomials on its F free positions (all N for P, the N - n outside
T for Q) in rank order: label (a, rank) sits at index a * (s+1)^F + rank, so
the label maps are built by rank arithmetic, not by enumerating the ring.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from .combinat import (
    ClassFunction,
    injection_count,
    injections,
    partitions,
)
from .linalg import ONE, SparseRationalMatrix
from .truncated_ring import (
    RingConfig,
    coxeter_word,
    representative_permutation,
)

__all__ = [
    "EquivModule",
    "EquivMap",
    "build_P",
    "build_Q",
    "direct_sum",
    "q_into_p_embedding",
    "character_of",
    "filtration_P",
    "filtration_layers",
    "pq_dimension",
]


# the slots a module from _build_family fills on first read
_DATA_SLOTS = frozenset(("labels", "label_index", "xmaps", "swaps", "grading"))


class EquivModule:
    """A finite-dimensional module with commuting variable actions and a
    compatible symmetric-group action stored on adjacent transpositions, both
    as label maps (``xmaps``, ``swaps``); see the module docstring.
    ``family`` is (kind, s, n) on a module ``build_P`` or ``build_Q`` made,
    else None; such a module fills its data slots on first read.
    """

    __slots__ = ("cfg", "labels", "label_index", "xmaps", "swaps", "grading", "name", "family")

    def __init__(self, cfg, labels, xmaps, swaps, grading=None, name="", family=None):
        self.cfg = cfg
        self.labels = list(labels)
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.label_index) != len(self.labels):
            raise ValueError("duplicate basis labels")
        self.xmaps, self.swaps = list(xmaps), list(swaps)
        if len(self.xmaps) != cfg.N or len(self.swaps) != max(cfg.N - 1, 0):
            raise ValueError("expected one action per variable and per adjacent swap")
        if any(len(cm) != self.dim for cm in self.xmaps + self.swaps):
            raise ValueError("a label map has the wrong length")
        self.grading = list(grading) if grading is not None else None
        self.name = name
        self.family = family

    def __getattr__(self, name):
        # reached only for an unset slot: the data of a module that
        # _build_family returned unfilled; pickle and copy probe other names
        if name not in _DATA_SLOTS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        kind, s, n = self.family
        labels, grading, xmaps, swaps = _family_data(kind, s, n, self.cfg.N)
        EquivModule.__init__(self, self.cfg, labels, grading=grading, name=self.name,
                             xmaps=xmaps, swaps=swaps, family=self.family)
        return object.__getattribute__(self, name)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def label_perm(self, g) -> list:
        """The label permutation of an arbitrary permutation g: the label maps
        ``swaps`` composed along ``coxeter_word(g)``."""
        perm = list(range(self.dim))
        for j in coxeter_word(g):
            sw = self.swaps[j]
            perm = [sw[t] for t in perm]
        return perm

    def perm_matrix(self, g) -> SparseRationalMatrix:
        """The permutation matrix of an arbitrary permutation g."""
        return _map_matrix(self.label_perm(g))

    def to_json_dict(self) -> dict:
        out = {
            "cfg": {"N": self.cfg.N, "s": self.cfg.s},
            "dim": self.dim,
            "labels": [_label_to_json(lab) for lab in self.labels],
            "xmul": [_map_matrix(cm).to_triplets() for cm in self.xmaps],
            "coxeter": [_map_matrix(cm).to_triplets() for cm in self.swaps],
        }
        if self.grading is not None:
            out["grading"] = [list(d) for d in self.grading]
        return out

    def __repr__(self):
        tag = self.name or "EquivModule"
        return f"{tag}(N={self.cfg.N}, s={self.cfg.s}, dim={self.dim})"


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


class EquivMap(namedtuple("EquivMap", "source target matrix")):
    """A module map: matrix is dim(target) x dim(source)."""

    __slots__ = ()

    def __new__(cls, source: EquivModule, target: EquivModule, matrix: SparseRationalMatrix):
        if matrix.nrows != target.dim or matrix.ncols != source.dim:
            raise ValueError("map shape does not match the modules")
        return super().__new__(cls, source, target, matrix)


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


@lru_cache(maxsize=64)
def _build_family(kind: str, s: int, n: int, N: int) -> EquivModule:
    # every ValueError is raised here; the data is filled on first read
    # (EquivModule.__getattr__), and a filled module is immutable, so
    # sharing one is safe
    cfg = RingConfig(N, s)
    if n > N:
        raise ValueError(f"tuple size n={n} exceeds truncation N={N}")
    if n < 0:
        raise ValueError("sizes must be >= 0")
    module = EquivModule.__new__(EquivModule)
    module.cfg, module.name, module.family = cfg, f"{kind}(s={s},n={n})", (kind, s, n)
    return module


def _family_data(kind: str, s: int, n: int, N: int):
    """(labels, grading, xmaps, swaps) of the P or Q module of family
    (kind, s, n) at N, by rank arithmetic (see the module docstring)."""
    # Tuple a has F free positions (all N for P, the N - n outside it for Q);
    # its labels are the monomials on them in rank order, label (a, rank) at
    # index a * (s+1)^F + rank.  x_i adds the stride of i's place among the
    # free positions, or kills the label when that digit is s (or i is in a
    # Q tuple).  A swap sends tuple a to the swapped tuple and exchanges two
    # adjacent reduced digits when both positions are free, else keeps the
    # rank.  The rank tables depend only on the free positions.
    tuples = injections(n, N)
    size = (s + 1) ** (N - n if kind == "Q" else N)
    idx = list(range(len(tuples) * size))  # every map entry shares these ints
    tuple_index = {T: a for a, T in enumerate(tuples)}
    tables = {}

    def monomials(free, fill):  # free digits in rank order (position 0 fastest), fill elsewhere
        return [m[::-1] for m in itertools.product(
            *(range(s + 1) if k in free else (fill,) for k in reversed(range(N))))]

    labels, grading = [], []
    xmaps, swaps = [[] for _ in range(N)], [[] for _ in range(N - 1)]
    for a, T in enumerate(tuples):
        free = tuple(k for k in range(N) if kind == "P" or k not in T)
        if free not in tables:
            stride = {k: (s + 1) ** p for p, k in enumerate(free)}
            up = {i: [r + st if r // st % (s + 1) < s else size for r in range(size)]
                  for i, st in stride.items()}  # size: x_i kills the label
            moves = {j: [r + (r // st % (s + 1) - r // st // (s + 1) % (s + 1)) * st * s
                         for r in range(size)]
                     for j, st in stride.items() if j + 1 in stride}
            monos = monomials(stride, 0)
            tables[free] = (monos, monos if kind == "P" else monomials(stride, s), up, moves)
        monos, grades, up, moves = tables[free]
        labels.extend(zip(itertools.repeat(T), monos))
        grading.extend(grades)
        row = idx[a * size:(a + 1) * size] + [None]
        for i, cm in enumerate(xmaps):
            cm.extend(map(row.__getitem__, up[i]) if i in up else itertools.repeat(None, size))
        for j, cm in enumerate(swaps):
            b = tuple_index[tuple(j + 1 if t == j else j if t == j + 1 else t for t in T)]
            dst = idx[b * size:(b + 1) * size]
            cm.extend(map(dst.__getitem__, moves[j]) if j in moves else dst)
    return labels, grading, xmaps, swaps


def build_P(s: int, n: int, N: int) -> EquivModule:
    """Free module on ordered n-tuples: labels (T, mono) with mono unconstrained."""
    return _build_family("P", s, n, N)


def build_Q(s: int, n: int, N: int) -> EquivModule:
    """Quotient family: labels (T, mono) with mono zero on T, and the listed
    variables annihilate their tuple's generator."""
    return _build_family("Q", s, n, N)


def direct_sum(mods) -> EquivModule:
    """Direct sum of modules; the label of the k-th summand's label lab is
    (k, lab)."""
    mods = list(mods)
    if not mods:
        raise ValueError("empty direct sum")
    cfg = mods[0].cfg
    if any(m.cfg != cfg for m in mods):
        raise ValueError("all summands must share the ring configuration")
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


def character_of(M: EquivModule, labels=None) -> ClassFunction:
    """Character of M, or of its coordinate subspace on a stable set of label
    indices: the labels among them that a representative permutation of each
    cycle type fixes."""
    labels = range(M.dim) if labels is None else labels
    vals = {}
    for mu in partitions(M.cfg.N):
        perm = M.label_perm(representative_permutation(mu))
        vals[mu] = sum(perm[t] == t for t in labels)
    return ClassFunction(M.cfg.N, vals)


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
