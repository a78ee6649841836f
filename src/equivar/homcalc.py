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
supported on all N variables.  ``stable_hom`` therefore solves at N and at
N+1, pushes each level-N solution along the canonical basis-label inclusion
into level N+1, and keeps the combinations whose push lies in the span of
the level-(N+1) solutions.  Over label maps both bases are indicators of
residual-group orbits, so this is a set of equal-or-zero relations on the
coefficients; other targets reduce each push modulo the span.  A P or Q
family target is never built: ``_family_stable_space`` reads its orbits and
the push off the label index a * (s+1)^F + rank, and keeps the rank while
moving only the tuple index, since the new position N is the top free digit
and is 0.  The module path (``_mapping_solutions_fast``, ``_embed_vector``,
``_stable_subspace``) serves callable targets and is its cross-check.  The
three dimensions (at N, at N+1, stable) are always reported separately.

Truncated Ext: over k[x]/(x^(s+1)), k[x]/(x) has the 2-periodic free
resolution ... -> A -x^s-> A -x-> A, and Q(s, n, N) is a sum of such
quotients, one variable per tuple slot.  So ``ext_truncated`` resolves a P
or Q source by its slot strands, the same ``_strand_complex`` that
``coresolution_Q`` builds: degree j is one P(s, n, N) per composition of j
into n parts (one P in all for a P source, or when s = 0).  The invariant
maps from one P into T are its generator images, a subspace S of T that
every variable keeps, so the Hom complex is the strand complex over S:
``_strand_cohomology`` restricts each slot variable to S once, by
``Subspace.restrict``, and takes its s-th power there.  A source without a
family (a free cover, a kernel, a changed basis) goes through the
reference, ``_ext_by_free_covers``, the way ``hom_generic`` is the
reference for Hom.  It resolves by minimal equivariant free covers: a cover
on the fiber V has the label (mono, f) at rank(mono) * dim V + f, so its
actions are Kronecker products, and only the image of each generator of F_i
in F_(i-1) is kept.
The Hom differential's block (f, f') is the sum of coeff * x^mono over the
terms coeff * (mono, f') of generator f's image, and each degree's
invariant maps V_i -> T come from elimination on all dim V_i * dim T
entries, with the differential restricted from one degree's invariants to
the next's (``Subspace.restrict``).  A cover's section is the lift of its
fiber when that lift commutes with every swap, and otherwise the lift's
average over the group, enumerated once by ``_group_walk`` (each element an
earlier one followed by one adjacent swap).

Stable Ext: ``ext_stable`` is the cohomology of the stable-Hom complex
of the coresolution of the target Q family by P terms, and builds neither
the coresolution nor any module.  Term k is a direct sum of b_k copies of
P, and the source constraints are label maps acting on each copy alone, so
the stable space of a term is b_k copies of the stable space S of P at N
into P at N+1, solved once per request by ``_family_stable_space``.  The
cochain complex is the strand complex over S, read by the same
``_strand_cohomology`` from the slot variables of P, which
``_slot_variable`` reads off P's label arithmetic on S's support alone
(restricting one checks exactly that it keeps S).  ``coresolution_Q``
builds and checks the complex itself; ``verify`` and the tests run it.  All
three Ext paths read their dimensions off the ranks of their restricted
differentials, ``_cohomology``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, product, repeat
from operator import is_not, itemgetter, mul

from .combinat import _compositions, injections
from .equivariant import (
    EquivMap,
    EquivModule,
    SnRep,
    _compose_swap,
    _map_matrix,
    _word_product,
    build_P,
    build_Q,
    character_of,
    direct_sum,
    embed_label,
    pq_dimension,
    q_into_p_embedding,
)
from .linalg import (
    ONE,
    AssemblyError,
    SpanBasis,
    SparseRationalMatrix,
    Subspace,
    apply_columns,
    joint_kernel,
    kernel_of_vectors,
    kron,
    matrix_rank,
    nullspace,
    vec_axpy,
)
from .truncated_ring import RingConfig, monomial_word

__all__ = [
    "AssemblyError",
    "PQFamily",
    "StableHomResult",
    "Complex",
    "hom_generic",
    "hom_mapping_property",
    "map_from_generator_value",
    "stable_hom",
    "coresolution_Q",
    "ext_stable",
    "ext_truncated",
    "tor_periodic",
    "tor_complex",
]


@dataclass(frozen=True)
class PQFamily:
    """A P- or Q-type module family: kind, intrinsic exponent bound, tuple size."""

    kind: str
    s: int
    n: int

    def __post_init__(self):
        if self.kind not in ("P", "Q"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.s < 0 or self.n < 0:
            raise ValueError("family parameters must be nonnegative")

    def build(self, N: int) -> EquivModule:
        return _build_family(self.kind, self.s, self.n, N)


@lru_cache(maxsize=64)
def _build_family(kind: str, s: int, n: int, N: int) -> EquivModule:
    # modules are immutable after construction, so sharing them is safe
    if kind == "P":
        return build_P(s, n, N)
    return build_Q(s, n, N)


@dataclass
class StableHomResult:
    dim_at_N: int
    dim_at_N_plus_1: int
    dim_stable: int
    basis: list  # stable solution vectors at level N

    def __post_init__(self):
        if self.dim_stable > min(self.dim_at_N, self.dim_at_N_plus_1):
            raise AssemblyError("stable dimension exceeds a truncation dimension")


@dataclass
class Complex:
    """A sequence of modules with maps[k]: modules[k] -> modules[k+1];
    consecutive composites must vanish exactly."""

    modules: list
    maps: list

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


def _mapping_solutions(profile: PQFamily, T: EquivModule) -> list:
    """Basis of the joint kernel of the source constraints inside T."""
    if T.xmaps is not None:
        return _mapping_solutions_fast(profile, T)
    return _mapping_solutions_generic(profile, T)


def _mapping_solutions_generic(profile: PQFamily, T: EquivModule) -> list:
    """The reference solver: elimination on the stacked constraint matrices."""
    kills, swaps = _source_constraints(profile, T.cfg)
    eye = SparseRationalMatrix.identity(T.dim)
    return joint_kernel([T.xmul[i].power(e) for i, e in kills]
                        + [T.coxeter[j] - eye for j in swaps], T.dim)


def _mapping_solutions_fast(profile: PQFamily, T: EquivModule) -> list:
    """Orbit-sum solution basis for permutation-like targets.

    The x-type constraints are partial injections on labels, so a solution
    must vanish on every label they move; the swap constraints make it
    constant on orbits of the residual symmetric group.  This computes the
    identical kernel as the generic elimination, exactly.
    """
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


def hom_mapping_property(profile: PQFamily, T: EquivModule) -> list:
    """Solution vectors v in T for maps out of the profile module: v is fixed
    by every swap beyond the first n positions and annihilated by the first n
    variables (and by (r+1)st powers elsewhere when r is below the ring bound)."""
    if profile.kind != "Q":
        raise ValueError("the mapping-property solver expects a Q-type source")
    return _mapping_solutions(profile, T)


def map_from_generator_value(profile: PQFamily, source: EquivModule,
                             target: EquivModule, v: dict) -> EquivMap:
    """Equivariant extension of generator-image v to a full module map.

    The source must be the profile's module at the target's truncation; the
    column at a basis label (T, mono) is mono applied to the relabeling of v
    along any permutation sending (0..n-1) to T.
    """
    N = target.cfg.N
    n = profile.n
    mat = SparseRationalMatrix(target.dim, source.dim)
    perm_cache: dict = {}
    for col, (tup, mono) in enumerate(source.labels):
        if tup not in perm_cache:
            rest = [p for p in range(N) if p not in tup]
            perm = tuple(list(tup) + rest)  # position k maps to perm[k]
            perm_cache[tup] = apply_columns(target.perm_matrix(perm).columns(), v)
        xmono = _word_product(target.xmul, target.dim, monomial_word(mono))
        for r, val in apply_columns(xmono.columns(), perm_cache[tup]).items():
            mat.set(r, col, val)
    return EquivMap(source, target, mat)


def hom_generic(M: EquivModule, T: EquivModule) -> list:
    """Exact basis of the space of equivariant maps M -> T, by solving the
    commutation constraints X @ a == b @ X on the full matrix X of the map.
    Entry m_col * T.dim + t_row of a solution vector is X[t_row, m_col], so
    the constraint on that vector is kron(a^T, I) - kron(I, b)."""
    if M.cfg != T.cfg:
        raise ValueError(f"config mismatch: {M.cfg} != {T.cfg}")
    dm, dt = M.dim, T.dim
    eye_m, eye_t = SparseRationalMatrix.identity(dm), SparseRationalMatrix.identity(dt)
    blocks = [kron(a.transpose(), eye_t) - kron(eye_m, b)
              for a, b in zip(M.xmul + M.coxeter, T.xmul + T.coxeter)]
    maps = []
    for vec in joint_kernel(blocks, dm * dt):
        mat = SparseRationalMatrix(dt, dm)
        for key, val in vec.items():
            m_col, t_row = divmod(key, dt)
            mat.set(t_row, m_col, val)
        maps.append(EquivMap(M, T, mat))
    return maps


def _embed_vector(v: dict, small: EquivModule, big: EquivModule) -> dict:
    out = {}
    for idx, val in v.items():
        target = embed_label(small.labels[idx], big.cfg.N)
        row = big.label_index.get(target)
        if row is None:
            raise ValueError("no canonical inclusion between the built modules")
        out[row] = val
    return out


def _orbit_relations(pushed: list, big_solutions: list) -> list:
    """Columns whose kernel is the set of c with sum_k c_k pushed[k] in
    span(big_solutions), both families indicators of disjoint label sets:
    the pushes that meet one big solution have equal coefficients, zero
    unless they cover it, and a push with a label outside every big solution
    has coefficient zero.  Column k holds c_k's coefficient in each relation.
    """
    orbit_of = {t: b for b, vec in enumerate(big_solutions) for t in vec}
    meets: dict = {}  # big solution (None: none) -> {k: labels of pushed[k] in it}
    for k, vec in enumerate(pushed):
        for t in vec:
            hits = meets.setdefault(orbit_of.get(t), {})
            hits[k] = hits.get(k, 0) + 1
    columns = [{} for _ in pushed]
    row = 0
    for k in meets.pop(None, ()):  # c_k = 0
        columns[k][row] = ONE
        row += 1
    for b, hits in meets.items():
        k0, *rest = hits
        for k in rest:  # c_k = c_k0
            columns[k][row], columns[k0][row] = ONE, -ONE
            row += 1
        if sum(hits.values()) < len(big_solutions[b]):  # c_k0 = 0
            columns[k0][row] = ONE
            row += 1
    return columns


def _kept_combinations(solutions, columns) -> list:
    """The members sum_k c_k solutions[k], for c in the kernel of the columns."""
    kept = []
    for coeffs in kernel_of_vectors(columns):
        vec: dict = {}
        for t, c in coeffs.items():
            vec_axpy(vec, c, solutions[t])
        kept.append(vec)
    return kept


def _stable_subspace(solutions, big_solutions, small: EquivModule,
                     big: EquivModule) -> list:
    """Members of span(solutions) whose push along the label inclusion into
    the larger module lies in span(big_solutions), the solutions there."""
    if not solutions:
        return []
    pushed = [_embed_vector(v, small, big) for v in solutions]
    if small.xmaps is not None and big.xmaps is not None:
        columns = _orbit_relations(pushed, big_solutions)
    else:
        span = Subspace(big_solutions, big.dim)
        columns = [span.residue(w) for w in pushed]
    return _kept_combinations(solutions, columns)


def _family_orbits(profile: PQFamily, family: tuple, N: int) -> list:
    """``_mapping_solutions_fast(profile, T)`` for T the P or Q module of
    family (kind, s, n) at N, the same list, read off T's label arithmetic
    with no module built.

    Label (a, rank) of T has tuple U = injections(n, N)[a] and digits d_p at
    its free positions.  A kill (i, e) allows it when i is not free or
    d_i + e > s.  Two allowed labels share an orbit of the residual group
    Sym{m, ..., N-1} (m the source's tuple size) exactly when they agree on
    the slot pattern (U[k] if U[k] < m, else *), the digits at free
    positions below m, the slot digits at positions >= m (P only) and the
    multiset of the other high digits.  So each orbit is one low part, over
    the tuples of one pattern, with every arrangement of one multiset on
    each tuple's other high positions.
    """
    kind, s, n = family
    cfg = RingConfig(N, s)  # _build_pq's ValueErrors, in its order
    tuples = injections(n, N)
    size = pq_dimension(kind, s, n, N) // len(tuples)  # labels per tuple
    kills, _ = _source_constraints(profile, cfg)
    m = profile.n
    digits = [[d for d in range(s + 1) if all(d + e > s for i, e in kills if i == p)]
              for p in range(N)]
    by_pattern: dict = {}
    for a, U in enumerate(tuples):
        by_pattern.setdefault(tuple(t if t < m else None for t in U), []).append((a, U))
    # the kills treat every position >= m alike, as the residual group must
    high_digits = digits[m] if m < N else []
    high_ranks: dict = {}  # strides -> {multiset: ranks of the digits there}

    def other_ranks(U):
        """{multiset: ascending ranks} of the digits at U's other high positions."""
        free = [p for p in range(N) if kind == "P" or p not in U]
        strides = tuple((s + 1) ** k for k, p in enumerate(free) if p >= m and p not in U)[::-1]
        if strides not in high_ranks:
            table = high_ranks[strides] = {}
            for ds in product(high_digits, repeat=len(strides)):  # ascending ranks
                table.setdefault(tuple(sorted(ds)), []).append(sum(map(mul, ds, strides)))
        return high_ranks[strides]

    orbits = []
    for members in by_pattern.values():
        U0 = members[0][1]
        # the free low positions with their strides, the high slots and the
        # number of other high positions are the same for every tuple of the
        # pattern, so are the multisets
        low = [p for p in range(m) if kind == "P" or p not in U0]
        low_strides = [(s + 1) ** (p - sum(t < p for t in U0) if kind == "Q" else p) for p in low]
        slots = [k for k in range(n) if U0[k] >= m] if kind == "P" else []
        tables = [(a * size, [(s + 1) ** U[k] for k in slots], other_ranks(U)) for a, U in members]
        for low_ds in product(*(digits[p] for p in low)):
            base = sum(map(mul, low_ds, low_strides))
            for slot_ds in product(high_digits, repeat=len(slots)):
                offsets = [(off + base + sum(map(mul, slot_ds, slot_strides)), table)
                           for off, slot_strides, table in tables]
                for multiset in tables[0][2]:
                    orbits.append([off + r for off, table in offsets for r in table[multiset]])
    orbits.sort(key=itemgetter(0))
    return [dict.fromkeys(orbit, ONE) for orbit in orbits]


def _family_push(vectors, family: tuple, N: int) -> list:
    """``_embed_vector`` from the P or Q module of family (kind, s, n) at N
    to the one at N+1, by index arithmetic: label (a, rank) goes to (the
    index of tuple a among the level-(N+1) tuples, rank), because the new
    position N is the top free digit and is 0."""
    kind, s, n = family
    tuples = injections(n, N)
    size = pq_dimension(kind, s, n, N) // len(tuples)  # labels per tuple
    index = {U: b for b, U in enumerate(injections(n, N + 1))}
    lift = [index[U] * size * (s + 1) for U in tuples]
    return [{lift[t // size] + t % size: c for t, c in v.items()} for v in vectors]


def _family_stable_space(profile: PQFamily, family: tuple, N: int):
    """(solutions at N, solutions at N+1, stable space) for maps from the
    profile into the P or Q family (kind, s, n): ``_stable_subspace`` on the
    family's modules at N and N+1, none of which is built."""
    sols = _family_orbits(profile, family, N)
    big_sols = _family_orbits(profile, family, N + 1)
    if not sols:
        return sols, big_sols, []
    pushed = _family_push(sols, family, N)
    return sols, big_sols, _kept_combinations(sols, _orbit_relations(pushed, big_sols))


def stable_hom(source: PQFamily, target, N: int) -> StableHomResult:
    """Solve for maps source -> target at truncation N, then keep the
    solutions that survive the canonical inclusion into truncation N+1.

    ``target`` is a PQFamily or any callable N -> EquivModule whose labels
    admit the canonical padding inclusion.  A family target is solved by
    ``_family_stable_space`` from its label arithmetic, with no module
    built; a callable's modules are built at N and N+1 and solved there.
    """
    if isinstance(target, PQFamily):
        sols, big_sols, stable = _family_stable_space(
            source, (target.kind, target.s, target.n), N)
    else:
        T_small = target(N)
        T_big = target(N + 1)
        sols = _mapping_solutions(source, T_small)
        big_sols = _mapping_solutions(source, T_big)
        stable = _stable_subspace(sols, big_sols, T_small, T_big)
    return StableHomResult(len(sols), len(big_sols), len(stable), stable)


# ---------------------------------------------------------------------------
# coresolutions and Ext


def _tuple_power_map(P: EquivModule, pos: int, exp: int) -> list:
    """Label map of multiplication by (variable at tuple slot pos)^exp on a P module."""
    powers = P.xmaps if exp == 1 else [_power_map(cm, exp) for cm in P.xmaps]
    return [powers[T[pos]][col] for col, (T, _) in enumerate(P.labels)]


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
    x_pos acts as the variable at tuple slot pos; ``length`` is the number of
    P-type terms.  Exactness is verified by rank bookkeeping and composite
    checks; failures raise AssemblyError with the offending position.
    """
    if length < 1:
        raise ValueError("need at least one coresolution term")
    embedding = q_into_p_embedding(s, n, N)
    Q, P = embedding.source, embedding.target
    terms, diffs = _strand_complex(s, n, length, P.dim,
                                   lambda pos, exp: _map_matrix(_tuple_power_map(P, pos, exp)))
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


def _strand_cohomology(s: int, n: int, length: int, sub: Subspace, slot) -> list:
    """Cohomology of the first ``length`` strand terms over the subspace sub,
    slot(pos) being the variable at tuple slot pos on sub's ambient space:
    each is restricted to sub once (``restrict`` checks that it keeps sub),
    and its powers are taken there."""
    xs = [sub.restrict(slot(pos)) for pos in range(n)]
    terms, diffs = _strand_complex(s, n, length, sub.dim, lambda pos, exp: xs[pos].power(exp))
    return _cohomology([len(t) * sub.dim for t in terms], diffs)


def _slot_variable(s: int, N: int, tuples: list, labels, pos: int) -> SparseRationalMatrix:
    """The variable at tuple slot pos on P(s, n, N), whose tuples are
    ``injections(n, N)``, evaluated on the given labels only, by label
    arithmetic: label t = a * (s+1)^N + rank has tuple U = tuples[a], and
    x_(U[pos]) adds the stride (s+1)^U[pos] to the rank when that digit of
    the rank is below s, and kills t otherwise."""
    size = (s + 1) ** N  # labels per tuple
    cm = [None] * (len(tuples) * size)
    for t in labels:
        stride = (s + 1) ** tuples[t // size][pos]
        if t % size // stride % (s + 1) < s:
            cm[t] = t + stride
    return _map_matrix(cm)


def ext_stable(s: int, n_source: int, n_target: int, N: int, max_degree: int) -> list:
    """Stable self/cross Ext of Q families in degrees 0..max_degree, as
    cohomology of the stable-Hom complex of the coresolution of the target
    by P terms (``coresolution_Q``), to one term beyond ``max_degree + 1``.
    No module is built: the stable space S of P(s, n_target) at N into N+1
    comes from ``_family_stable_space``, and the slot variables of P on S's
    support from ``_slot_variable``."""
    if max_degree < 0:
        raise ValueError("the degree bound must be nonnegative")
    RingConfig(N, s)  # the target's ValueErrors, in _build_pq's order
    dim = pq_dimension("P", s, n_target, N)
    tuples = injections(n_target, N)
    _, _, stable = _family_stable_space(PQFamily("Q", s, n_source), ("P", s, n_target), N)
    support = {t for v in stable for t in v}
    return _strand_cohomology(s, n_target, max_degree + 2, Subspace(stable, dim),
                              lambda pos: _slot_variable(s, N, tuples, support, pos))


# ---------------------------------------------------------------------------
# truncated equivariant Ext


def ext_truncated(M: EquivModule, T: EquivModule, max_i: int) -> list:
    """Equivariant Ext at the truncation, degrees 0..max_i.

    A P or Q source is resolved by its slot strands: term j of the
    resolution of Q(s, n, N) is one P(s, n, N) per composition of j into n
    parts (Eisenbud, Trans. AMS 260, 1980), and P is free.  By Frobenius
    reciprocity the invariant maps from one P into T are the generator
    images ``_mapping_solutions(PQFamily("P", s, n), T)``, and the Hom
    complex is the strand complex over their span, x_pos acting as T's
    variable pos restricted to it.  Any other source goes through
    ``_ext_by_free_covers``.  Exact at the truncation; stable answers across
    truncations are the business of ``ext_stable``.
    """
    if max_i < 0:
        raise ValueError("the degree bound must be nonnegative")
    if M.cfg != T.cfg:
        raise ValueError(f"config mismatch: {M.cfg} != {T.cfg}")
    if M.family is None:
        return _ext_by_free_covers(M, T, max_i)
    kind, s, n = M.family
    sub = Subspace(_mapping_solutions(PQFamily("P", s, n), T), T.dim)
    return _strand_cohomology(s, n if kind == "Q" else 0, max_i + 2, sub,
                              lambda pos: T.xmul[pos])


# ---------------------------------------------------------------------------
# the reference resolution by minimal free covers


def _group_walk(N: int) -> list:
    """Every element of the symmetric group on N letters once, breadth first
    over adjacent swaps.  Entry k is (parent, j): element k is element
    ``parent`` followed by the swap (j, j+1), and parent < k.  Entry 0 is the
    identity, (None, None)."""
    perms = [tuple(range(N))]
    index = {perms[0]: 0}
    walk = [(None, None)]
    for k, g in enumerate(perms):  # perms grows while it is read: breadth first
        for j in range(N - 1):
            h = _compose_swap(j, g)
            if h not in index:
                index[h] = len(perms)
                perms.append(h)
                walk.append((k, j))
    return walk


def _quotient_by_radical(M: EquivModule):
    """The fiber M / (sum of variable images): its symmetric-group
    representation and an equivariant section of the reduction.  The section
    is the lift of the free coordinates when it commutes with every swap,
    else the lift averaged over the group; both are checked to split."""
    radical = SpanBasis([c for x in M.xmul for c in x.columns()], M.dim)
    free = [t for t in range(M.dim) if t not in radical.free]
    pos = {f: t for t, f in enumerate(free)}

    def pi_matrix(mat: SparseRationalMatrix) -> SparseRationalMatrix:
        out = SparseRationalMatrix(len(free), mat.ncols)
        for j, col in enumerate(mat.columns()):
            for k, v in radical.residue(col).items():
                out.set(pos[k], j, v)
        return out

    lift = _map_matrix(free, M.dim)

    N = M.cfg.N
    moved = [M.coxeter[j] @ lift for j in range(N - 1)]
    rep = SnRep(N, len(free), tuple(pi_matrix(m) for m in moved))

    # equivariant section: the average of g . lift . g^{-1} over the group,
    # which is lift itself when lift commutes with every swap; the term of
    # g followed by swap j is coxeter[j] @ (term of g) @ rep.coxeter[j]
    sec = lift
    if any(m != lift @ r for m, r in zip(moved, rep.coxeter)):
        walk = _group_walk(N)
        terms = [lift]
        for parent, j in walk[1:]:
            terms.append(M.coxeter[j] @ terms[parent] @ rep.coxeter[j])
        acc = SparseRationalMatrix(M.dim, len(free))
        for term in terms:
            for row, trow in zip(acc.rows, term.rows):
                vec_axpy(row, ONE, trow)
        sec = acc.scale(Fraction(1, len(walk)))
        if any(M.coxeter[j] @ sec != sec @ rep.coxeter[j] for j in range(N - 1)):
            raise AssemblyError("section is not equivariant")
    if pi_matrix(sec) != SparseRationalMatrix.identity(len(free)):
        raise AssemblyError("section does not split the reduction")
    return rep, sec


def _free_cover(M: EquivModule):
    """Minimal equivariant free cover: returns (F, d, rep) with d: F -> M
    surjective, F the free module on the radical fiber of M."""
    rep, sec = _quotient_by_radical(M)
    cfg = M.cfg
    ring = _build_family("P", cfg.s, 0, cfg.N)  # the ring itself, labels ((), mono) in rank order
    dimF = ring.dim * rep.dim
    # label (mono, f) sits at rank(mono) * dim V + f: F is the ring tensor V,
    # with the variables acting on the ring and a swap on both factors
    labels = [(mono, f) for _, mono in ring.labels for f in range(rep.dim)]
    eye = SparseRationalMatrix.identity(rep.dim)
    xmul = [kron(x, eye) for x in ring.xmul]
    coxeter = [kron(c, r) for c, r in zip(ring.coxeter, rep.coxeter)]
    F = EquivModule(cfg, labels, xmul, coxeter, name=f"free_cover({M.name})")

    # the image of (mono, f) is x_i times the image of (mono - e_i, f), for
    # the last variable i in mono; that label comes earlier in the list
    sec_cols = sec.columns()
    x_cols = [m.columns() for m in M.xmul]
    images = []
    d = SparseRationalMatrix(M.dim, dimF)
    for col, (mono, f) in enumerate(labels):
        i = max((k for k, e in enumerate(mono) if e), default=None)
        if i is None:
            w = sec_cols[f]
        else:
            prev = ring.label_index[((), mono[:i] + (mono[i] - 1,) + mono[i + 1:])] * rep.dim + f
            w = apply_columns(x_cols[i], images[prev])
        images.append(w)
        for r, v in w.items():
            d.set(r, col, v)
    cover = EquivMap(F, M, d)
    if matrix_rank(d) != M.dim:
        raise AssemblyError("free cover is not surjective")
    return F, cover, rep


def _kernel_module(F: EquivModule, d: SparseRationalMatrix):
    """The kernel of d as a module, with its basis in F (label t is vector t)."""
    ker = Subspace(nullspace(d), F.dim)
    K = EquivModule(F.cfg, [("ker", t) for t in range(ker.dim)],
                    [ker.restrict(m) for m in F.xmul], [ker.restrict(m) for m in F.coxeter],
                    name=f"ker({F.name})")
    return K, ker.basis


def _resolution(M: EquivModule, levels: int):
    """The first ``levels`` terms of the minimal free resolution of M:
    (reps, gens, free_mods), with reps[i] the generator representation of
    F_i and gens[i][f] the image of generator f of F_i in F_{i-1}
    (F_{-1} = M).  The kernel of the last cover is not built."""
    reps, gens, free_mods = [], [], []
    current = M
    inc_cols = None  # the kernel basis in the previous free module
    for level in range(levels):
        F, cover, rep = _free_cover(current)
        # generator f is the label ((0,)*N, f), column f of the cover
        images = [cover.matrix.column(f) for f in range(rep.dim)]
        if inc_cols is not None:
            images = [apply_columns(inc_cols, w) for w in images]
        reps.append(rep)
        gens.append(images)
        free_mods.append(F)
        if level < levels - 1:
            current, inc_cols = _kernel_module(F, cover.matrix)
    return reps, gens, free_mods


def _hom_invariants_generic(rep: SnRep, T: EquivModule) -> list:
    """Basis of the invariant maps V -> T, by elimination on all dimV * dimT
    entries; entry f * T.dim + t of a vector is the map's coefficient from
    basis vector f of V to basis label t of T.  As a dimT x dimV matrix X,
    an invariant map is fixed by X -> rho_T @ X @ rho_V for each swap, which
    on that vector is kron(rho_V^T, rho_T)."""
    ncols = rep.dim * T.dim
    eye = SparseRationalMatrix.identity(ncols)
    return joint_kernel([kron(rv.transpose(), rt) - eye for rv, rt in zip(rep.coxeter, T.coxeter)],
                        ncols)


def _ext_by_free_covers(M: EquivModule, T: EquivModule, max_i: int) -> list:
    """The reference for ``ext_truncated``, and its path for a source with no
    family: resolve M by minimal free covers and take the cohomology of the
    invariant Hom complex into T, each degree solved by
    ``_hom_invariants_generic``."""
    reps, gens, free_mods = _resolution(M, max_i + 2)

    @lru_cache(maxsize=None)
    def mono_action(mono):
        return _word_product(T.xmul, T.dim, monomial_word(mono))

    def induced_differential(level):
        """Matrix of Hom(V_{level-1}, T) -> Hom(V_level, T): block (f, f') is
        the sum of coeff * x^mono over the terms coeff * (mono, f') of the
        image of generator f."""
        dimT = T.dim
        prev_labels = free_mods[level - 1].labels
        d = SparseRationalMatrix(reps[level].dim * dimT, reps[level - 1].dim * dimT)
        for f, image in enumerate(gens[level]):
            for idx, coeff in image.items():
                mono, fprime = prev_labels[idx]
                for t, row in enumerate(mono_action(mono).rows):
                    vec_axpy(d.rows[f * dimT + t], coeff,
                             {fprime * dimT + tprime: v for tprime, v in row.items()})
        return d

    subs = [Subspace(_hom_invariants_generic(rep, T), rep.dim * T.dim) for rep in reps]
    diffs = [subs[level].restrict(induced_differential(level), subs[level - 1])
             for level in range(1, max_i + 2)]
    return _cohomology([sub.dim for sub in subs], diffs)


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


def tor_complex(s: int, N: int):
    """(C, delta_odd, delta_even): the matrices of ``_tor_label_maps``."""
    C, odd, even = _tor_label_maps(s, N)
    return C, _map_matrix(odd), _map_matrix(even)


def _image_labels(C: EquivModule, cm) -> list:
    """The labels that cm hits, certified to span its image as a submodule:
    AssemblyError if cm sends two labels to one or a swap leaves them."""
    image = [u for u in cm if u is not None]
    members = set(image)
    if len(members) != len(image) or any(sw[t] not in members for sw in C.swaps for t in image):
        raise AssemblyError("a periodic differential is not injective onto a swap-stable image")
    return image


def tor_periodic(s: int, r_max: int, N: int) -> list:
    """Characters of the degree-1..r_max homology of the periodic complex
    tensored against the tuple-size-one Q family.  Each degree is the kernel
    of one differential modulo the image of the other: C minus both images."""
    C, odd, even = _tor_label_maps(s, N)
    chi = (character_of(C) - character_of(C, _image_labels(C, odd))
           - character_of(C, _image_labels(C, even)))
    return [chi] * r_max
