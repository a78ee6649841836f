"""Equivariant Hom solvers, stabilization across truncations, Ext and Tor.

Hom convention: ``hom`` and ``stable_hom`` take the *source* first, so
``stable_hom(PQFamily("Q", s, a), PQFamily("Q", s, b), N)`` computes module
maps from the tuple-size-a family to the tuple-size-b family.  By the mapping
property of the Q generators, such a map is determined by the image of the
canonical generator, so the solution space is the set of vectors in the
target that are fixed by every swap not touching the first a positions and
annihilated by the first a variables (plus (r+1)st-power conditions when the
source has a smaller exponent bound r than the ambient ring).

Stabilization: truncation-level solution spaces contain boundary junk
supported on all N variables.  ``stable_hom`` therefore keeps the level-N
solutions whose push along the canonical basis-label inclusion into level
N+1 lies in the span of the level-(N+1) solutions.  Both bases are
indicators of residual-group orbits, so this is a set of equal-or-zero
relations on the coefficients.  The target is a P or Q family and is never
built and no label of it is listed.  An orbit of the label index
a * (s+1)^F + rank has a key (slot pattern, low digits, slot digits,
multiset of the other high digits); the push keeps the rank and moves only
the tuple index, since the new position N is the top free digit and is 0,
so an orbit lands in the level-(N+1) orbit whose multiset has one more 0.
That orbit is a solution unless the source bound r is below s, and the
push covers it exactly when the two orbits have the same size, which each
key gives.  An orbit with a high slot (a tuple entry at or above the
source's tuple size m) grows at N+1, so it is never kept.  So
``_family_stable_space`` keys only the unslotted level-N orbits, those
whose tuple lies inside positions 0..m-1, each by its first label and key,
and counts the orbits of level N and of level N+1 (``_orbit_census``, times
the low-digit choices); a kept orbit is a single label.  The three
dimensions (at N, at N+1, stable) are always reported separately.

Truncated Ext: over k[x]/(x^(s+1)), k[x]/(x) has the 2-periodic free
resolution ... -> A -x^s-> A -x-> A, and Q(s, n, N) is a sum of such
quotients, one variable per tuple slot.  So ``ext_truncated`` resolves a P
or Q source by its slot strands, the same ``_strand_complex`` that
``coresolution_Q`` builds: degree j is one P(s, n, N) per composition of j
into n parts (one P in all for a P source, or when s = 0).  The invariant
maps from one P into T are its generator images, the orbit sums S of T's
labels under Sym{n, ..., N-1}, which every variable x_pos (pos < n) keeps,
so the Hom complex is the strand complex over S.  T must be a P or Q
module, and S is read off its family's label arithmetic, not off T.  Its
orbit keys (those of ``_slot_patterns``) that share slot pattern, slot
digits and multiset form the full grid [0..s]^low of digits at the
pattern's low positions, and x_pos raises grid digit pos when pos is low
and is zero otherwise.  So the complex is a direct sum of copies of the
strand complex over one grid per set of low positions, whose cohomology
depends only on how many positions are low, since the strand complex is
symmetric in the positions; ``_orbit_census``, the count of stable Hom's
level N+1, gives the copies by that number with no key listed, each grid
[0..s]^k is eliminated once per process (``_grid_cohomology``), and its
dimensions count once per copy.  Only the families and the ring of source
and target are read, so neither module fills its labels.

Stable Ext: ``ext_stable`` is the cohomology of the stable-Hom complex
of the coresolution of the target Q family by P terms, and builds neither
the coresolution nor any module.  Term k is a direct sum of b_k copies of
P, and the source constraints are label maps acting on each copy alone, so
the stable space of a term is b_k copies of the stable space S of P at N
into P at N+1, solved once per request by ``_family_stable_space``.  S is
a set of single labels, and the cochain complex is the strand complex over
it, on which each slot variable raises the label's slot digit, read off
P's label arithmetic on S's labels alone.  ``_stable_ext`` certifies that
raising keeps S and that S is copies of one grid of slot digits: [0..s]^0
when every slot digit is s (every slot variable is zero on S), or
[0..s]^n, one grid per label whose slot digits are all 0.  So its
cohomology is the copies times that of the grid, the same cached
``_grid_cohomology`` that truncated Ext sums.  ``coresolution_Q`` builds
and checks the complex itself, its blocks the 0/1 matrices of powers of
the slot variables' label maps on all of P (``_slot_variable``);
``verify`` and the tests run it.  Both Ext paths end in
``_strand_cohomology``, which reads their dimensions off the ranks of the
differentials, ``_cohomology``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations_with_replacement, compress, product, repeat
from math import comb, factorial
from operator import is_not, mul

from .combinat import ClassFunction, _compositions, injection_count, injections
from .equivariant import (
    EquivMap,
    EquivModule,
    _build_family,
    _map_matrix,
    character_of,
    direct_sum,
    pq_dimension,
    q_into_p_embedding,
)
from .linalg import (
    ONE,
    AssemblyError,
    SparseRationalMatrix,
    kernel_of_vectors,
    matrix_rank,
)
from .truncated_ring import RingConfig

__all__ = [
    "AssemblyError",
    "PQFamily",
    "StableHomResult",
    "Complex",
    "hom_mapping_property",
    "stable_hom",
    "coresolution_Q",
    "ext_stable",
    "ext_truncated",
    "tor_periodic",
]


class PQFamily(namedtuple("PQFamily", "kind s n")):
    """A P- or Q-type module family: kind, intrinsic exponent bound, tuple size."""

    __slots__ = ()

    def __new__(cls, kind: str, s: int, n: int):
        if kind not in ("P", "Q"):
            raise ValueError(f"unknown family kind {kind!r}")
        if s < 0 or n < 0:
            raise ValueError("family parameters must be nonnegative")
        return super().__new__(cls, kind, s, n)

    def build(self, N: int) -> EquivModule:
        return _build_family(self.kind, self.s, self.n, N)


class StableHomResult(namedtuple("StableHomResult",
                                 "dim_at_N dim_at_N_plus_1 dim_stable basis")):
    """Solution counts at N and N+1, the stable dimension, and the stable
    solution vectors at level N (basis)."""

    __slots__ = ()

    def __new__(cls, dim_at_N: int, dim_at_N_plus_1: int, dim_stable: int, basis: list):
        if dim_stable > min(dim_at_N, dim_at_N_plus_1):
            raise AssemblyError("stable dimension exceeds a truncation dimension")
        return super().__new__(cls, dim_at_N, dim_at_N_plus_1, dim_stable, basis)


class Complex(namedtuple("Complex", "modules maps")):
    """A sequence of modules with maps[k]: modules[k] -> modules[k+1];
    consecutive composites must vanish exactly."""

    __slots__ = ()

    def check_composites(self) -> None:
        for k in range(len(self.maps) - 1):
            prod = self.maps[k + 1].matrix @ self.maps[k].matrix
            if not prod.is_zero():
                raise AssemblyError(f"composite at position {k} is nonzero")

    def ranks(self) -> list:
        return [matrix_rank(m.matrix) for m in self.maps]

    def check_exactness(self) -> None:
        """Rank bookkeeping: exact at every interior module."""
        ranks = self.ranks()
        for k in range(1, len(self.maps)):
            dim = self.modules[k].dim
            if ranks[k - 1] + ranks[k] != dim:
                raise AssemblyError(
                    f"complex is not exact at position {k}: "
                    f"{ranks[k - 1]} + {ranks[k]} != {dim}"
                )


# ---------------------------------------------------------------------------
# mapping-property constraints


def _source_constraints(profile: PQFamily, cfg: RingConfig):
    """The mapping property of the profile's generator over the ring cfg, as
    (kills, swaps): v is the generator image of a module map exactly when
    x_i^e kills v for every (i, e) in kills and the adjacent swap (j, j+1)
    fixes v for every j in swaps.  A Q generator is killed by its first n
    variables; (r+1)st powers kill it (all of a P generator) elsewhere, a
    condition every module over the ring meets already when r >= cfg.s."""
    N, n, r = cfg.N, profile.n, profile.s
    if n > N:
        raise ValueError(f"profile tuple size {n} exceeds truncation {N}")
    first = n if profile.kind == "Q" else 0
    kills = [(i, 1) for i in range(first)]
    if r < cfg.s:
        kills += [(i, r + 1) for i in range(first, N)]
    return kills, range(n, N - 1)


def _power_map(cm, k: int) -> list:
    """The label map of k applications of the partial label map cm, by
    repeated squaring."""
    out = list(range(len(cm)))
    while k:
        if k & 1:
            out = [None if t is None else cm[t] for t in out]
        k >>= 1
        if k:
            cm = [None if t is None else cm[t] for t in cm]
    return out


def hom_mapping_property(profile: PQFamily, T: EquivModule) -> list:
    """Solution vectors v in T for maps out of the profile module: v is fixed
    by every swap beyond the first n positions and annihilated by the first n
    variables (and by (r+1)st powers elsewhere when r is below the ring bound),
    as orbit sums.

    The x-type constraints are partial injections on labels, so a solution
    must vanish on every label they move; the swap constraints make it
    constant on orbits of the residual symmetric group.
    """
    if profile.kind != "Q":
        raise ValueError("the mapping-property solver expects a Q-type source")
    kills, swaps = _source_constraints(profile, T.cfg)
    dim = T.dim
    allowed = bytearray(b"\x01") * dim
    for i, e in kills:
        cm = T.xmaps[i] if e == 1 else _power_map(T.xmaps[i], e)
        for t in compress(range(dim), map(is_not, cm, repeat(None))):
            allowed[t] = 0
    swap_maps = [T.swaps[j] for j in swaps]
    # orbits of the residual group on labels; those inside allowed are solutions
    seen = bytearray(dim)
    basis = []
    for t in compress(range(dim), allowed):
        if seen[t]:
            continue
        seen[t] = 1
        orbit = [t]
        for u in orbit:
            for cm in swap_maps:
                w = cm[u]
                if not seen[w]:
                    seen[w] = 1
                    orbit.append(w)
        if all(map(allowed.__getitem__, orbit)):
            basis.append(dict.fromkeys(sorted(orbit), ONE))
    return basis


def _orbit_relations(count: int, meets: dict, sizes) -> list:
    """Columns whose kernel is the set of c in Q^count with
    sum_k c_k pushed[k] in the span of the big orbits' indicators, the
    pushes being indicators of disjoint label sets: meets maps each big orbit
    (None: no big orbit) to {k: the number of labels of pushed[k] in it},
    and sizes[b] is big orbit b's number of labels.  The pushes that meet one
    big orbit have equal coefficients, zero unless they cover it, and a push
    with a label outside every big orbit has coefficient zero.  Column k
    holds c_k's coefficient in each relation.
    """
    columns = [{} for _ in range(count)]
    row = 0
    for k in meets.get(None, ()):  # c_k = 0
        columns[k][row] = ONE
        row += 1
    for b, hits in meets.items():
        if b is None:
            continue
        k0, *rest = hits
        for k in rest:  # c_k = c_k0
            columns[k][row], columns[k0][row] = ONE, -ONE
            row += 1
        if sum(hits.values()) < sizes[b]:  # c_k0 = 0
            columns[k0][row] = ONE
            row += 1
    return columns


def _position_digits(profile: PQFamily, s: int, N: int) -> list:
    """The digits that a label of a level-N target over k[x]/(x^(s+1)) may
    carry at each position under the profile's kills: d at position p
    unless a kill (p, e) has d + e <= s.  The kills treat every position
    below m (the profile's tuple size) alike, and every position >= m
    alike, as the residual group Sym{m, ..., N-1} must; so the first N
    entries at N+1 are the digits at N."""
    kills, _ = _source_constraints(profile, RingConfig(N, s))
    least = [0] * N  # the least allowed digit at each position
    for i, e in kills:
        least[i] = max(least[i], s + 1 - e)
    return [list(range(d, s + 1)) for d in least]


def _slot_patterns(profile: PQFamily, family: tuple, N: int, digits: list):
    """The orbit keys of the residual group Sym{m, ..., N-1} (m the
    profile's tuple size) on the labels of the P or Q module of family
    (kind, s, n) at N that the profile's kills allow, digits[p] being the
    allowed digits at each position p < N (``_position_digits``): one row
    (pattern, a, U, low, lows, slots, multisets) per slot pattern.

    Label (a, rank) of the module has tuple U = injections(n, N)[a] and
    digits d_p at its free positions (all N for P, those outside U for Q).
    Two allowed labels share an orbit exactly when they agree on the key
    (pattern, low_ds, slot_ds, multiset): the slot pattern (U[k] if
    U[k] < m, else None), the digits at the free positions below m, the
    slot digits at positions >= m (P only) and the multiset of the other
    high digits, as a sorted tuple.  The keys of a row are those with
    low_ds in ``lows`` (the digits at the positions ``low``), slot_ds in
    ``slots`` and multiset in ``multisets``, in that order, the first the
    slowest; U is the pattern's first tuple, with index a.
    """
    kind, s, n = family
    m = profile.n
    first_tuple: dict = {}  # slot pattern -> (a, U) of its first tuple
    for a, U in enumerate(injections(n, N)):
        first_tuple.setdefault(tuple(t if t < m else None for t in U), (a, U))
    high_digits = digits[m] if m < N else []
    slots: dict = {}  # number j of high slots -> the slot digits on them
    multisets: dict = {}  # j -> the multisets on the other N - m - j high positions
    for pattern, (a, U) in first_tuple.items():
        # the free low positions and the number of high slots are the same
        # for every tuple of the pattern
        low = [p for p in range(m) if kind == "P" or p not in U]
        j = pattern.count(None)
        if j not in slots:
            slots[j] = list(product(high_digits, repeat=j if kind == "P" else 0))
            multisets[j] = list(combinations_with_replacement(high_digits, N - m - j))
        yield pattern, a, U, low, list(product(*(digits[p] for p in low))), slots[j], multisets[j]


def _family_keys(profile: PQFamily, family: tuple, N: int, digits: list) -> list:
    """The unslotted orbits of the orbit solver (``hom_mapping_property``)
    for maps from the profile into the P or Q module of family (kind, s, n)
    at N, in the same order, keyed with no label listed: one row (first
    label, key, size at N, size at N+1 of the orbit whose multiset has one
    more 0) per key whose slot pattern has no high slot, sorted by first
    label.  The slotted orbits are only counted (``_orbit_census``).

    An unslotted orbit is one tuple U inside positions 0..m-1 (m the
    profile's tuple size), with one low part and every arrangement of one
    multiset on the N - m high positions.  So its patterns, low positions
    and low digits are those of ``_slot_patterns`` at level m, where every
    tuple is unslotted, and there are none when n > m.  Its first label has
    U's index among injections(n, N) and the multiset's sorted digits on the
    descending strides of the high positions.
    """
    kind, s, n = family
    m = profile.n
    if n > m:
        return []
    base = s + 1
    # a high position p sits at place p - n among a Q label's free positions
    shift = n if kind == "Q" else 0
    others = [base ** (p - shift) for p in reversed(range(m, N))]
    # both sizes depend only on the multiset when there is no high slot
    sized = [(multiset, _orbit_size(((), (), (), multiset), m, N),
              _orbit_size(((), (), (), (0, *multiset)), m, N + 1))
             for multiset in combinations_with_replacement(digits[m] if m < N else (), N - m)]
    tuple_labels = base ** (N - shift)
    rows = []
    for U, _, _, low, lows, _, _ in _slot_patterns(profile, family, m, digits):
        # the number of injections(n, N) before U, lexicographically
        a = sum((t - sum(u < t for u in U[:k])) * injection_count(n - 1 - k, N - 1 - k)
                for k, t in enumerate(U))
        low_strides = [base ** (p - sum(t < p for t in U) if kind == "Q" else p) for p in low]
        parts = [(low_ds, a * tuple_labels + sum(map(mul, low_ds, low_strides)))
                 for low_ds in lows]
        for multiset, *sizes in sized:
            offset = sum(map(mul, multiset, others))
            rows += [(offset + part, (U, low_ds, (), multiset), *sizes) for low_ds, part in parts]
    rows.sort()
    return rows


def _orbit_size(key: tuple, m: int, N: int) -> int:
    """The number of labels in the level-N orbit with this key, for a source
    of tuple size m: the tuples of its slot pattern, injection_count(j, N - m)
    for j high slots, times the arrangements of its multiset on each tuple's
    other high positions."""
    pattern, _, _, multiset = key
    arrangements = factorial(len(multiset))
    for d in set(multiset):
        arrangements //= factorial(multiset.count(d))
    return injection_count(pattern.count(None), N - m) * arrangements


def _orbit_census(kind: str, n: int, m: int, N: int, high: int) -> dict:
    """The orbit keys of the P or Q family ``kind`` with tuple size n at
    level N, for a source of tuple size m, counted with no key formed:
    {number k of free low positions: keys per choice of their low digits},
    high being the number of allowed digits at each position >= m.

    The sum runs over the number j of high slots.  There are
    C(n, j) * injection_count(n - j, m) slot patterns with j high slots
    (which slots are high, and the low positions of the others); each has
    k = m free low positions for P and m - (n - j) for Q, high^j slot
    digits (P only) and C(h + high - 1, h) multisets of its h = N - m - j
    other high digits."""
    census: dict = {}
    for j in range(max(n - m, 0), min(n, N - m) + 1):
        h = N - m - j
        k = m if kind == "P" else m - (n - j)
        slot_choices = high ** j if kind == "P" else 1
        keys = comb(n, j) * injection_count(n - j, m) * slot_choices * comb(h + high - 1, h)
        census[k] = census.get(k, 0) + keys
    return census


def _family_stable_space(profile: PQFamily, family: tuple, N: int):
    """(the number of solutions at N, the number at N+1, stable space) for
    maps from the profile into the P or Q family (kind, s, n): the solutions
    at N whose push lies in the span of the solutions at N+1, with no module
    built and no label listed at either level.  Both levels are counted
    (``_orbit_census``, times the low-digit choices), and only the
    unslotted orbits at N are keyed (``_family_keys``), all from the
    position digits at N+1.

    The push keeps a label's rank and moves only its tuple index, because
    the new position N is the top free digit and is 0; so it sends the
    orbit with key (pattern, low, slot, multiset) into the level-(N+1) orbit
    whose multiset has one more 0.  That orbit is a solution unless the
    kills forbid digit 0 at the high positions (source bound r below s), and
    it meets no other push; the push covers it exactly when both orbits have
    the same size, ``_orbit_size``.  Equal sizes need injection_count(j,
    N - m) = injection_count(j, N + 1 - m), so no high slot (j = 0): an
    orbit with a high slot is never kept, and is not keyed.  They also need
    an extra 0 that adds no arrangement, so every other high digit 0: a kept
    orbit is a single label, its first.  The kernel of the relations is
    certified to keep only such orbits (AssemblyError otherwise)."""
    kind, s, n = family
    cfg = RingConfig(N, s)  # the level-N ValueErrors of _build_family, then of the kills
    pq_dimension(kind, s, n, N)
    _source_constraints(profile, cfg)
    digits = _position_digits(profile, s, N + 1)
    m = profile.n
    dim, big_count = (sum(keys * len(digits[0]) ** k for k, keys in
                          _orbit_census(kind, n, m, level, len(digits[m])).items())
                      for level in (N, N + 1))
    rows = _family_keys(profile, family, N, digits)
    if not rows:
        return dim, big_count, []
    zero = 0 in digits[m]
    meets: dict = {}  # level-(N+1) key (None: no solution) -> {k: labels of push k in it}
    sizes: dict = {}  # level-(N+1) key -> its number of labels
    for k, (_, (pattern, low_ds, slot_ds, multiset), size, big_size) in enumerate(rows):
        big = (pattern, low_ds, slot_ds, (0, *multiset)) if zero else None
        meets.setdefault(big, {})[k] = size
        sizes[big] = big_size
    stable = []
    for coeffs in kernel_of_vectors(_orbit_relations(len(rows), meets, sizes)):
        if any(rows[k][2] != 1 for k in coeffs):
            raise AssemblyError("a kept orbit has more than one label")
        stable.append({rows[k][0]: c for k, c in coeffs.items()})
    return dim, big_count, stable


def stable_hom(source: PQFamily, target: PQFamily, N: int) -> StableHomResult:
    """Solve for maps source -> target at truncation N, then keep the
    solutions that survive the canonical inclusion into truncation N+1.
    The target family is solved by ``_family_stable_space`` from its label
    arithmetic: the unslotted level-N orbits are keyed, the orbits of levels
    N and N+1 counted, and each keyed push is sized by its orbit key; no
    module is built and no label is listed.  A target that is not a
    PQFamily is a ValueError."""
    if not isinstance(target, PQFamily):
        raise ValueError(f"stable_hom needs a PQFamily target, got {target!r}")
    dim, big_count, stable = _family_stable_space(source, (target.kind, target.s, target.n), N)
    return StableHomResult(dim, big_count, len(stable), stable)


# ---------------------------------------------------------------------------
# coresolutions and Ext


def _strand_complex(s: int, n: int, length: int, dim: int, block):
    """The first ``length`` terms of the tensor product of n slot strands, each
    strand multiplying by its slot's variable and by its s-th power in turn,
    over a module of dimension dim: (terms, maps).  Term j is one copy of the
    module per composition of j into n parts, listed in terms[j] in sorted
    order, each copy at offset (its place in the list) * dim.  maps[j] sends
    copy a of term j to copy a + e_pos by sign * block(pos, exp), with exp 1
    from an even a_pos and s from an odd one, and sign
    (-1)^(a_0 + ... + a_(pos-1)).  With s = 0 or n = 0 there is no strand:
    term 0 is the single copy () and the later terms are empty."""
    if s == 0 or n == 0:
        terms = [[()]] + [[] for _ in range(length - 1)]
    else:
        terms = [sorted(_compositions(j, n)) for j in range(length)]
    entries: dict = {}  # (pos, exp) -> the (row, col, value) entries of block(pos, exp)
    maps = []
    for src, dst in zip(terms, terms[1:]):
        index = {b: t for t, b in enumerate(dst)}
        mat = SparseRationalMatrix(len(dst) * dim, len(src) * dim)
        for c, a in enumerate(src if dim else ()):  # with dim 0 no block is built
            for pos in range(len(a)):
                key = (pos, s if a[pos] % 2 else 1)
                if key not in entries:
                    entries[key] = [(r, col, v) for r, row in enumerate(block(*key).rows)
                                    for col, v in row.items()]
                sign = -ONE if sum(a[:pos]) % 2 else ONE
                roff = index[a[:pos] + (a[pos] + 1,) + a[pos + 1:]] * dim
                for r, col, v in entries[key]:  # distinct steps write distinct entries
                    mat.rows[roff + r][c * dim + col] = sign * v
        maps.append(mat)
    return terms, maps


def coresolution_Q(s: int, n: int, N: int, length: int) -> Complex:
    """The augmented exact complex 0 -> Q -> P^(b_0) -> P^(b_1) -> ...

    The P terms are the slot strands of ``_strand_complex`` over P, where
    x_pos acts as the variable at tuple slot pos (``_slot_variable``);
    ``length`` is the number of P-type terms.  Exactness is verified by rank bookkeeping and composite
    checks; failures raise AssemblyError with the offending position.
    """
    if length < 1:
        raise ValueError("need at least one coresolution term")
    embedding = q_into_p_embedding(s, n, N)
    Q, P = embedding.source, embedding.target
    tuples = injections(n, N)

    def block(pos, exp):
        return _map_matrix(_power_map(_slot_variable(s, N, tuples, range(P.dim), pos), exp))

    terms, diffs = _strand_complex(s, n, length, P.dim, block)
    zero = EquivModule(RingConfig(N, s), [], name="0", xmaps=[[]] * N, swaps=[[]] * max(N - 1, 0))
    modules = [Q] + [direct_sum([P] * len(t)) if len(t) > 1 else P if t else zero for t in terms]
    maps = [embedding] + [EquivMap(a, b, d) for a, b, d in zip(modules[1:], modules[2:], diffs)]
    cx = Complex(modules, maps)
    cx.check_composites()
    cx.check_exactness()
    return cx


def _cohomology(dims: list, diffs: list) -> list:
    """Cohomology dimensions of a cochain complex with dims[i] cochains in
    degree i and differential diffs[i] from degree i to degree i+1: degree
    i, for each i with a differential, has dimension
    dims[i] - rank d_i - rank d_(i-1)."""
    ranks = [matrix_rank(d) for d in diffs]
    return [dims[i] - ranks[i] - (ranks[i - 1] if i else 0) for i in range(len(ranks))]


def _strand_cohomology(s: int, n: int, length: int, dim: int, block) -> list:
    """Cohomology of the first ``length`` strand terms over a cochain space
    of dimension dim, block(pos, exp) being the matrix there of the exp-th
    power of the variable at tuple slot pos."""
    terms, diffs = _strand_complex(s, n, length, dim, block)
    return _cohomology([len(t) * dim for t in terms], diffs)


def _slot_variable(s: int, N: int, tuples: list, labels, pos: int) -> list:
    """The label map of the variable at tuple slot pos on P(s, n, N), whose
    tuples are ``injections(n, N)``, evaluated on the given labels only (it
    is None on the others), by label arithmetic: label t = a * (s+1)^N +
    rank has tuple U = tuples[a], and x_(U[pos]) adds the stride
    (s+1)^U[pos] to the rank when that digit of the rank is below s, and
    kills t otherwise.  With the one tuple (k-1, ..., 0) at N = k it is x_pos
    on the grid [0..s]^k of digits, the first the slowest.  Its two readers,
    ``coresolution_Q`` and ``_grid_cohomology``, pass every label."""
    size = (s + 1) ** N  # labels per tuple
    cm = [None] * (len(tuples) * size)
    for t in labels:
        stride = (s + 1) ** tuples[t // size][pos]
        if t % size // stride % (s + 1) < s:
            cm[t] = t + stride
    return cm


@lru_cache(maxsize=256)
def _grid_cohomology(s: int, strands: int, length: int, low: int) -> tuple:
    """The cohomology of the first ``length`` terms of the strand complex
    of ``strands`` strands over the grid [0..s]^low (``_strand_cohomology``),
    eliminated once per process: x_pos raises grid digit pos
    (``_slot_variable`` on the grid) and is zero when pos >= low."""
    size = (s + 1) ** low
    grid = [tuple(reversed(range(low)))]

    def block(pos, exp):
        cm = _slot_variable(s, low, grid, range(size), pos) if pos < low else [None] * size
        return _map_matrix(_power_map(cm, exp))

    return tuple(_strand_cohomology(s, strands, length, size, block))


def _stable_ext(profile: PQFamily, s: int, n: int, N: int, length: int) -> list:
    """The cohomology of the first ``length`` strand terms over the stable
    space S of maps from the profile into P(s, n) at N into N+1
    (``_family_stable_space``), as copies of one grid (``_grid_cohomology``).

    Each vector of S is certified to be one label with coefficient 1.  Label
    t = a * (s+1)^N + rank has tuple U = injections(n, N)[a] and slot digit
    pos the digit of the rank at position U[pos], which the variable at slot
    pos raises (``_slot_variable``); raising a digit below s must stay in S.
    Then either every slot digit is s, so every slot variable is zero on S
    and S is |S| copies of the grid [0..s]^0, or the labels whose slot
    digits are all 0 number |S| / (s+1)^n: each raises to a grid [0..s]^n
    inside S, on which the slot variables act as on ``_grid_cohomology``'s
    grid, the grids are disjoint, and together they fill S.  Any other S
    raises AssemblyError."""
    tuples = injections(n, N)
    _, _, stable = _family_stable_space(profile, ("P", s, n), N)
    labels = set()
    for v in stable:
        if list(v.values()) != [ONE]:
            raise AssemblyError("a stable vector is not a single label")
        labels.update(v)
    base = s + 1
    size = base ** N  # labels per tuple
    corners, top = 0, True
    for t in labels:
        strides = [base ** p for p in tuples[t // size]]
        digits = [t % size // stride % base for stride in strides]
        if any(d < s and t + stride not in labels for d, stride in zip(digits, strides)):
            raise AssemblyError("a slot variable leaves S")
        corners += not any(digits)
        top = top and all(d == s for d in digits)
    if top:
        low = 0
    elif corners * base ** n == len(labels):
        low = n
    else:
        raise AssemblyError("S is not copies of one grid of slot digits")
    copies = len(labels) // base ** low
    return [copies * c for c in _grid_cohomology(s, n, length, low)]


def ext_stable(s: int, n_source: int, n_target: int, N: int, max_degree: int) -> list:
    """Stable self/cross Ext of Q families in degrees 0..max_degree, as
    cohomology of the stable-Hom complex of the coresolution of the target
    by P terms (``coresolution_Q``), to one term beyond ``max_degree + 1``.
    No module is built and no strand complex over S is eliminated: the
    stable space S of P(s, n_target) at N into N+1 is certified to be
    copies of one grid of slot digits, and each grid is eliminated once per
    process (``_stable_ext``, ``_grid_cohomology``)."""
    if max_degree < 0:
        raise ValueError("the degree bound must be nonnegative")
    RingConfig(N, s)  # the target's ValueErrors, in _build_family's order
    pq_dimension("P", s, n_target, N)
    return _stable_ext(PQFamily("Q", s, n_source), s, n_target, N, max_degree + 2)


# ---------------------------------------------------------------------------
# truncated equivariant Ext


def ext_truncated(M: EquivModule, T: EquivModule, max_i: int) -> list:
    """Equivariant Ext at the truncation, degrees 0..max_i, read off the
    families of M and T and their ring; nothing else of either is read.

    A P or Q source is resolved by its slot strands: term j of the
    resolution of Q(s, n, N) is one P(s, n, N) per composition of j into n
    parts (Eisenbud, Trans. AMS 260, 1980), and P is free.  By Frobenius
    reciprocity the invariant maps from one P into T are the orbit sums of
    T's labels under Sym{n, ..., N-1}, one per orbit key, a direct sum of
    copies of one grid [0..s]^k of low digits per number k of low positions
    (all n for a P target, those off the tuple for a Q target), and x_pos
    keeps each copy: it raises grid digit pos when pos is low and is zero
    otherwise.  The copies are the keys per low-digit choice that
    ``_orbit_census`` counts for a source of tuple size n and the s + 1
    digits of a high position.  So the Hom complex is a direct sum of strand
    complexes over grids: each distinct grid is eliminated once per process
    (``_grid_cohomology``), and its dimensions count once per copy.  A
    source or target without a family, or with one that no module over T's
    ring carries (another s, or a tuple larger than N), is a ValueError.
    Exact at the truncation; stable answers across truncations are the
    business of ``ext_stable``.
    """
    if max_i < 0:
        raise ValueError("the degree bound must be nonnegative")
    if M.cfg != T.cfg:
        raise ValueError(f"config mismatch: {M.cfg} != {T.cfg}")
    for role, X in (("source", M), ("target", T)):
        if X.family is None:
            raise ValueError(f"ext_truncated needs a P or Q {role}; {X!r} has no family")
    kind, s, n = M.family
    cfg = T.cfg
    _source_constraints(PQFamily("P", s, n), cfg)  # the source's tuple size against N
    for role, X in (("source", M), ("target", T)):
        family = PQFamily(*X.family)
        if family.s != cfg.s:
            raise ValueError(f"the {role} family {family} is not over the ring's s={cfg.s}")
        if family.n > cfg.N:
            raise ValueError(f"{role} tuple size n={family.n} exceeds truncation N={cfg.N}")
    dims = [0] * (max_i + 1)
    target_kind, _, d = T.family
    for low, copies in _orbit_census(target_kind, d, n, cfg.N, s + 1).items():
        grid = _grid_cohomology(s, n if kind == "Q" else 0, max_i + 2, low)
        dims = [a + copies * b for a, b in zip(dims, grid)]
    return dims


# ---------------------------------------------------------------------------
# the periodic Tor computation


def _tor_label_maps(s: int, N: int):
    """The periodic complex for the tuple-size-one Q family as label maps
    (C, odd, even): C has labels (position, Q-label) and the diagonal action;
    odd and even multiply position i's Q part by x_i and by x_i^s."""
    if s < 1:
        raise ValueError("the periodic complex needs s >= 1")
    Q = PQFamily("Q", s, 1).build(N)
    d = Q.dim
    # label (i, Q.labels[q]) sits at index i * d + q
    labels = [(i, lab) for i in range(N) for lab in Q.labels]
    xmaps = [[None if u is None else i * d + u for i in range(N) for u in cm]
             for cm in Q.xmaps]
    swaps = []
    for j, cm in enumerate(Q.swaps):
        moved = [j + 1 if i == j else j if i == j + 1 else i for i in range(N)]
        swaps.append([moved[i] * d + u for i in range(N) for u in cm])
    C = EquivModule(Q.cfg, labels, name=f"V(x)Q(s={s})", xmaps=xmaps, swaps=swaps)

    def delta(exp):
        return [None if u is None else i * d + u
                for i in range(N) for u in _power_map(Q.xmaps[i], exp)]

    odd, even = delta(1), delta(s)
    for first, then in ((odd, even), (even, odd)):
        if any(then[u] is not None for u in first if u is not None):
            raise AssemblyError("periodic differentials do not square to zero")
    return C, odd, even


def _image_labels(C: EquivModule, cm) -> list:
    """The labels that cm hits, certified to span its image as a submodule:
    AssemblyError if cm sends two labels to one or a swap leaves them."""
    image = [u for u in cm if u is not None]
    members = set(image)
    if len(members) != len(image) or any(sw[t] not in members for sw in C.swaps for t in image):
        raise AssemblyError("a periodic differential is not injective onto a swap-stable image")
    return image


def tor_periodic(s: int, N: int) -> ClassFunction:
    """The character of every positive homology degree of the periodic
    complex tensored against the tuple-size-one Q family.  The complex is
    2-periodic and each degree is the kernel of one differential modulo the
    image of the other, so every degree is C minus both images."""
    C, odd, even = _tor_label_maps(s, N)
    return (character_of(C) - character_of(C, _image_labels(C, odd))
            - character_of(C, _image_labels(C, even)))
