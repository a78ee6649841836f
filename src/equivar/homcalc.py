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
coefficients; other targets reduce each push modulo the span.  The three
dimensions (at N, at N+1, stable) are always reported separately.

Truncated Ext: ``ext_truncated`` resolves the source by minimal equivariant
free covers and takes the S_N-invariants of Hom(V_i, T), V_i the generator
representation at level i.  A free cover on V has the label (mono, f) at
rank(mono) * dim V + f, so its actions are Kronecker products: x_i is the
monomial raise tensor the identity, a swap is the monomial swap tensor its
action on V.  The resolution keeps only the image of each generator of F_i
in F_(i-1), and the Hom differential is read off those images: its block
(f, f') is the sum of coeff * x^mono over the terms coeff * (mono, f') of
generator f's image.  When T carries label maps it is a permutation
module, so an invariant map is fixed by its row at one label t0 per orbit,
and that row only has to be fixed by the stabilizer of t0 (Frobenius
reciprocity).  The group is enumerated once, by ``_group_walk``: a
breadth-first walk over adjacent swaps in which each element is an earlier
element followed by one swap, so a product over the group costs one matrix
product per element.  Two walk elements that reach the same label give one
stabilizer constraint.  The same walk builds the averaged equivariant section
of each free cover.  A target without label maps goes through elimination on
all dim V * dim T entries, which is also the reference for the orbit solver.

Stable Ext: ``ext_stable`` coresolves the target Q family by P terms and
takes the cohomology of the stable-Hom complex.  Term k is a direct sum of
b_k copies of P, and the source constraints are label maps acting on each
copy alone, so the stable space of a term is b_k copies of the stable space
of P at N into P at N+1, and it is solved once per request.  Level N+1 enters
only through that one P module: the differentials the answer uses are the
level-N ones, so no coresolution is built at N+1.  Both Ext paths read
their dimensions off one cohomology tail, ``_cohomology``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .combinat import ClassFunction, _compositions, partitions
from .equivariant import (
    EquivMap,
    EquivModule,
    SnRep,
    _compose_swap,
    _map_matrix,
    build_P,
    build_Q,
    character_of,
    direct_sum,
    embed_label,
    q_into_p_embedding,
)
from .linalg import (
    ONE,
    AssemblyError,
    Echelon,
    SpanBasis,
    SparseRationalMatrix,
    Subspace,
    apply_columns,
    joint_kernel,
    kernel_of_vectors,
    kron,
    matrix_rank,
    nullspace,
    rank_of_vectors,
    vec_axpy,
)
from .truncated_ring import RingConfig, all_monomials, representative_permutation

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


def _source_constraint_blocks(profile: PQFamily, T: EquivModule) -> list:
    """Matrices whose joint kernel is the space of generator images of maps
    out of the profile's module into T."""
    N = T.cfg.N
    n, r = profile.n, profile.s
    if n > N:
        raise ValueError(f"profile tuple size {n} exceeds truncation {N}")
    blocks = []
    if profile.kind == "Q":
        for i in range(n):
            blocks.append(T.xmul[i])
        power_vars = range(n, N)
    else:
        power_vars = range(N)
    for i in power_vars:
        p = T.xmul[i].power(r + 1)
        if not p.is_zero():
            blocks.append(p)
    eye = SparseRationalMatrix.identity(T.dim)
    for j in range(n, N - 1):
        blocks.append(T.coxeter[j] - eye)
    return blocks


def _power_map(cm, k: int) -> list:
    """The label map of k applications of the partial label map cm."""
    out = list(range(len(cm)))
    for _ in range(k):
        out = [None if t is None else cm[t] for t in out]
    return out


def _pq_constraint_maps(profile: PQFamily, T: EquivModule):
    """Label-chasing form of the source constraints on a permutation-like
    target: (ops, swaps), where each op is a partial injection label -> label
    (a killing operator: a solution must vanish wherever it is defined) and
    each swap is a total label permutation the solution must commute with.
    """
    N, n = T.cfg.N, profile.n
    if n > N:
        raise ValueError(f"profile tuple size {n} exceeds truncation {N}")

    ops = []
    if profile.kind == "Q":
        ops.extend(T.xmaps[:n])
        power_vars = range(n, N)
    else:
        power_vars = range(N)
    r = profile.s
    if r >= T.cfg.s:
        power_vars = ()  # x_i^(s+1) acts as zero on every module over the ring
    for i in power_vars:
        p = _power_map(T.xmaps[i], r + 1)
        if p.count(None) < len(p):
            ops.append(p)
    return ops, T.swaps[n:N - 1]


def _mapping_solutions(profile: PQFamily, T: EquivModule) -> list:
    """Basis of the joint kernel of the source constraints inside T."""
    if T.xmaps is not None:
        return _mapping_solutions_fast(profile, T)
    return _mapping_solutions_generic(profile, T)


def _mapping_solutions_generic(profile: PQFamily, T: EquivModule) -> list:
    """The reference solver: elimination on the stacked constraint matrices."""
    return joint_kernel(_source_constraint_blocks(profile, T), T.dim)


def _mapping_solutions_fast(profile: PQFamily, T: EquivModule) -> list:
    """Orbit-sum solution basis for permutation-like targets.

    The x-type constraints are partial injections on labels, so a solution
    must vanish on every label they move; the swap constraints make it
    constant on orbits of the residual symmetric group.  This computes the
    identical kernel as the generic elimination, exactly.
    """
    ops, swap_maps = _pq_constraint_maps(profile, T)
    moved = set()
    for cm in ops:
        moved.update(j for j, v in enumerate(cm) if v is not None)
    allowed = [t for t in range(T.dim) if t not in moved]
    allowed_set = set(allowed)
    # orbits of the residual group on labels, restricted to allowed ones
    seen = set()
    basis = []
    for t in allowed:
        if t in seen:
            continue
        orbit = {t}
        frontier = [t]
        while frontier:
            u = frontier.pop()
            for cm in swap_maps:
                w = cm[u]
                if w not in orbit:
                    orbit.add(w)
                    frontier.append(w)
        seen |= orbit
        if orbit <= allowed_set:
            basis.append({u: ONE for u in sorted(orbit)})
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
            perm_cache[tup] = target.perm_matrix(perm).apply(v)
        w = perm_cache[tup]
        for i, e in enumerate(mono):
            for _ in range(e):
                w = target.xmul[i].apply(w)
        for r, val in w.items():
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
        span = SpanBasis(big_solutions, big.dim)
        columns = [span.residue(w) for w in pushed]
    kept = []
    for coeffs in kernel_of_vectors(columns):
        vec: dict = {}
        for t, c in coeffs.items():
            vec_axpy(vec, c, solutions[t])
        kept.append(vec)
    return kept


def stable_hom(source: PQFamily, target, N: int) -> StableHomResult:
    """Solve for maps source -> target at truncation N, then keep the
    solutions that survive the canonical inclusion into truncation N+1.

    ``target`` is a PQFamily or any callable N -> EquivModule whose labels
    admit the canonical padding inclusion.
    """
    build = target.build if isinstance(target, PQFamily) else target
    T_small = build(N)
    T_big = build(N + 1)
    sols = _mapping_solutions(source, T_small)
    big_sols = _mapping_solutions(source, T_big)
    stable = _stable_subspace(sols, big_sols, T_small, T_big)
    return StableHomResult(len(sols), len(big_sols), len(stable), stable)


# ---------------------------------------------------------------------------
# coresolutions and Ext


def _tuple_power_map(P: EquivModule, pos: int, exp: int) -> list:
    """Label map of multiplication by (variable at tuple slot pos)^exp on a P module."""
    powers = [_power_map(cm, exp) for cm in P.xmaps]
    return [powers[T[pos]][col] for col, (T, _) in enumerate(P.labels)]


def coresolution_Q(s: int, n: int, N: int, length: int) -> Complex:
    """The augmented exact complex 0 -> Q -> P^(b_0) -> P^(b_1) -> ...

    Built from one strand per tuple slot (multiplication alternating between
    exponent 1 and exponent s on that slot's variable), tensored over the n
    slots; ``length`` is the number of P-type terms.  Exactness is verified by
    rank bookkeeping and composite checks; failures raise AssemblyError with
    the offending position.
    """
    if length < 1:
        raise ValueError("need at least one coresolution term")
    embedding = q_into_p_embedding(s, n, N)
    Q, P = embedding.source, embedding.target

    def term_indices(j):
        if s == 0 or n == 0:
            return [()] if j == 0 else []
        return sorted(_compositions(j, n))

    def make_term(j):
        idxs = term_indices(j)
        if not idxs:
            return EquivModule(RingConfig(N, s), [], name="0",
                               xmaps=[[]] * N, swaps=[[]] * max(N - 1, 0)), idxs
        if len(idxs) == 1:
            return P, idxs
        return direct_sum([P] * len(idxs)), idxs

    modules = [Q]
    terms = []
    for j in range(length):
        mod, idxs = make_term(j)
        modules.append(mod)
        terms.append(idxs)

    maps = [embedding]
    if terms[0] != [()] and terms[0] != [(0,) * n]:
        raise AssemblyError("coresolution head has unexpected shape")

    step = {0: 1, 1: s}  # exponent used from an even / odd strand position
    slot_maps: dict = {}  # (pos, exp) -> label map of x_{T[pos]}^exp on the labels (T, mono)

    for j in range(length - 1):
        src_idxs, dst_idxs = terms[j], terms[j + 1]
        src_pos = {a: t for t, a in enumerate(src_idxs)}
        dst_pos = {a: t for t, a in enumerate(dst_idxs)}
        mat = SparseRationalMatrix(modules[j + 2].dim, modules[j + 1].dim)
        if dst_idxs:
            for a in src_idxs:
                for pos in range(n):
                    b = a[:pos] + (a[pos] + 1,) + a[pos + 1:]
                    if b not in dst_pos:
                        continue
                    entry = -ONE if sum(a[:pos]) % 2 else ONE
                    key = (pos, step[a[pos] % 2])
                    if key not in slot_maps:
                        slot_maps[key] = _tuple_power_map(P, *key)
                    roff = dst_pos[b] * P.dim
                    coff = src_pos[a] * P.dim
                    # an injective map into block b: each entry is written once
                    for c, i in enumerate(slot_maps[key]):
                        if i is not None:
                            mat.rows[roff + i][coff + c] = entry
        maps.append(EquivMap(modules[j + 1], modules[j + 2], mat))

    cx = Complex(modules, maps)
    cx.check_composites()
    cx.check_exactness()
    return cx


def _stable_term_spaces(src: PQFamily, cx: Complex, P_big: EquivModule) -> list:
    """The stable solution space of each P-type term of the coresolution cx.

    Term k is a direct sum of copies of P = cx.modules[1], and the source
    constraints are label maps acting on each copy alone.  So its space is
    the stable space of P -> P_big, P_big the P module at level N+1, placed
    in each copy at offset c * dim P.
    """
    P = cx.modules[1]
    stable = _stable_subspace(_mapping_solutions(src, P), _mapping_solutions(src, P_big),
                              P, P_big)
    return [[{c * P.dim + t: v for t, v in vec.items()}
             for c in range(T.dim // P.dim) for vec in stable]
            for T in cx.modules[1:]]


def _images(d: SparseRationalMatrix, vectors) -> list:
    """The nonzero images of the vectors under d."""
    cols = d.columns()
    return [w for w in (apply_columns(cols, v) for v in vectors) if w]


def _cohomology(spaces: list, images: list, dims: list) -> list:
    """Cohomology dimensions of a cochain complex restricted to subspaces:
    spaces[i] spans the degree-i cochains, images[i] holds their nonzero
    images in degree i+1, of dimension dims[i].  Degree i, for each i with
    images, has dimension len(spaces[i]) - rank_i - rank_(i-1)."""
    ranks = [rank_of_vectors(w, dim) for w, dim in zip(images, dims)]
    return [len(spaces[i]) - ranks[i] - (ranks[i - 1] if i else 0) for i in range(len(ranks))]


def ext_stable(s: int, n_source: int, n_target: int, N: int, max_degree: int) -> list:
    """Stable self/cross Ext of Q families in degrees 0..max_degree, as
    cohomology of the stable-Hom complex of an exact coresolution of the
    target by P terms, built with one term beyond ``max_degree + 1``."""
    src = PQFamily("Q", s, n_source)
    cx = coresolution_Q(s, n_target, N, max_degree + 2)
    spaces = _stable_term_spaces(src, cx, build_P(s, n_target, N + 1))
    images = []
    for k in range(max_degree + 1):
        imgs = _images(cx.maps[k + 1].matrix, spaces[k]) if spaces[k] else []
        if imgs:
            span = SpanBasis(spaces[k + 1], cx.modules[k + 2].dim)
            if not all(span.contains(w) for w in imgs):
                raise AssemblyError("differential leaves the stable solution space")
        images.append(imgs)
    return _cohomology(spaces, images, [T.dim for T in cx.modules[2:]])


# ---------------------------------------------------------------------------
# truncated equivariant Ext via minimal covers


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


def _along_walk(walk: list, first, step) -> list:
    """The value at each element of a group walk, in walk order: ``first`` at
    the identity and ``step(j, value at the parent)`` elsewhere."""
    values = [first]
    for parent, j in walk[1:]:
        values.append(step(j, values[parent]))
    return values


def _quotient_by_radical(M: EquivModule):
    """The fiber M / (sum of variable images): reduction map, lift, and the
    induced symmetric-group representation, with an equivariant section."""
    radical = SpanBasis([c for x in M.xmul for c in x.columns()], M.dim)
    leads = set(radical.leads)
    free = [t for t in range(M.dim) if t not in leads]
    pos = {f: t for t, f in enumerate(free)}

    def pi_matrix(mat: SparseRationalMatrix) -> SparseRationalMatrix:
        out = SparseRationalMatrix(len(free), mat.ncols)
        for j, col in enumerate(mat.columns()):
            for k, v in radical.residue(col).items():
                out.set(pos[k], j, v)
        return out

    lift = _map_matrix(free, M.dim)

    N = M.cfg.N
    rep_cox = tuple(pi_matrix(M.coxeter[j] @ lift) for j in range(N - 1))
    rep = SnRep(N, len(free), rep_cox)

    # equivariant section: the average of g . lift . g^{-1} over the group;
    # the term of g followed by swap j is coxeter[j] @ (term of g) @ rep.coxeter[j]
    walk = _group_walk(N)
    acc = SparseRationalMatrix(M.dim, len(free))
    for term in _along_walk(walk, lift, lambda j, m: M.coxeter[j] @ m @ rep.coxeter[j]):
        for row, trow in zip(acc.rows, term.rows):
            vec_axpy(row, ONE, trow)
    sec = acc.scale(Fraction(1, len(walk)))
    if pi_matrix(sec) != SparseRationalMatrix.identity(len(free)):
        raise AssemblyError("averaged section does not split the reduction")
    for j in range(N - 1):
        if (M.coxeter[j] @ sec) != (sec @ rep.coxeter[j]):
            raise AssemblyError("averaged section is not equivariant")
    return rep, sec


def _free_cover(M: EquivModule, dim_cap: int | None = None):
    """Minimal equivariant free cover: returns (F, d, rep) with d: F -> M
    surjective, F the free module on the radical fiber of M.  Raises
    RuntimeError, before building F, when dim F would exceed ``dim_cap``."""
    rep, sec = _quotient_by_radical(M)
    cfg = M.cfg
    monos = all_monomials(cfg)
    dimF = len(monos) * rep.dim
    if dim_cap is not None and dimF > dim_cap:
        raise RuntimeError(f"a free cover of dimension {dimF} exceeds the dimension cap {dim_cap}")
    # label (mono, f) sits at rank(mono) * dim V + f: x_i raises the exponent
    # of the monomial part (past s the label is absent), and a swap permutes
    # the monomial part and acts on the fiber by rep
    labels = [(mono, f) for mono in monos for f in range(rep.dim)]
    rank = {mono: r for r, mono in enumerate(monos)}
    eye = SparseRationalMatrix.identity(rep.dim)
    xmul = [kron(_map_matrix([rank.get(mono[:i] + (mono[i] + 1,) + mono[i + 1:]) for mono in monos]),
                 eye) for i in range(cfg.N)]
    coxeter = [kron(_map_matrix([rank[mono[:j] + (mono[j + 1], mono[j]) + mono[j + 2:]]
                                 for mono in monos]), rep.coxeter[j]) for j in range(cfg.N - 1)]
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
            prev = rank[mono[:i] + (mono[i] - 1,) + mono[i + 1:]] * rep.dim + f
            w = apply_columns(x_cols[i], images[prev])
        images.append(w)
        for r, v in w.items():
            d.set(r, col, v)
    cover = EquivMap(F, M, d)
    if matrix_rank(d) != M.dim:
        raise AssemblyError("free cover is not surjective")
    return F, cover, rep


def _kernel_module(F: EquivModule, d: SparseRationalMatrix):
    """The kernel of d as a module, with its inclusion matrix into F."""
    ker = Subspace(nullspace(d), F.dim)
    K = EquivModule(F.cfg, [("ker", t) for t in range(ker.dim)],
                    [ker.restrict(m) for m in F.xmul], [ker.restrict(m) for m in F.coxeter],
                    name=f"ker({F.name})")
    return K, ker.B


def _resolution(M: EquivModule, levels: int, dim_cap: int | None = None):
    """The first ``levels`` terms of the minimal free resolution of M:
    (reps, gens, free_mods), with reps[i] the generator representation of
    F_i and gens[i][f] the image of generator f of F_i in F_{i-1}
    (F_{-1} = M).  The kernel of the last cover is not built."""
    reps, gens, free_mods = [], [], []
    current = M
    inc_cols = None  # columns of the kernel inclusion into the previous free module
    for level in range(levels):
        F, cover, rep = _free_cover(current, dim_cap)
        # generator f is the label ((0,)*N, f), column f of the cover
        images = [cover.matrix.column(f) for f in range(rep.dim)]
        if inc_cols is not None:
            images = [apply_columns(inc_cols, w) for w in images]
        reps.append(rep)
        gens.append(images)
        free_mods.append(F)
        if level < levels - 1:
            current, inclusion = _kernel_module(F, cover.matrix)
            inc_cols = inclusion.columns()
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


def _hom_invariants_by_orbits(rep: SnRep, T: EquivModule) -> list:
    """The invariant maps V -> T for a target with label maps, in the vector
    layout of ``_hom_invariants_generic``, spanning the same space.

    Row t of an invariant map phi is a row vector phi_t, and invariance reads
    phi_{g.t} = phi_t @ rho(g^-1).  So phi is fixed by its row r at one label
    t0 per orbit, and r is any solution of r @ rho(k) = r for k in the
    stabilizer of t0 (Frobenius reciprocity).  Along the group walk,
    mats[k] = rho(g_k^-1) is the product of the walk's swaps in path order.
    Two elements g, h reaching the same label give the constraint
    r @ (mats[g] - mats[h]) = 0; pairing each element with the first one
    that reaches its label spans all of them.  An orbit whose constraints
    reach full rank contributes nothing, and its remaining ones are skipped.
    """
    dimV, dimT = rep.dim, T.dim
    walk = _group_walk(rep.n)
    mats = _along_walk(walk, SparseRationalMatrix.identity(dimV),
                       lambda j, m: m @ rep.coxeter[j])
    mat_cols = [m.columns() for m in mats]
    basis = []
    seen = set()
    for t0 in range(dimT):
        if t0 in seen:
            continue
        reached = _along_walk(walk, t0, lambda j, t: T.swaps[j][t])
        first: dict = {}  # label -> the first walk element reaching it
        ech = Echelon(dimV)
        for k, t in enumerate(reached):
            k0 = first.setdefault(t, k)
            if k0 == k:
                continue
            for f in range(dimV):
                if ech.rank == dimV:
                    break
                row = dict(mat_cols[k][f])
                vec_axpy(row, -ONE, mat_cols[k0][f])
                if row:
                    ech.add(row)
        seen.update(first)
        if ech.rank == dimV:
            continue
        for r in ech.kernel_basis():
            vec = {}
            for t, k in first.items():  # row t is r @ mats[k]: mats[k]'s rows weighted by r
                for f, v in apply_columns(mats[k].rows, r).items():
                    vec[f * dimT + t] = v
            basis.append(vec)
    return basis


def ext_truncated(M: EquivModule, T: EquivModule, max_i: int,
                  dim_cap: int = 200_000) -> list:
    """Equivariant Ext at the truncation, degrees 0..max_i.

    Resolves M by minimal equivariant free covers (free module on the radical
    fiber at each step, with the group action carried along), forms the Hom
    complex into T, restricts to invariants under the full symmetric group,
    and reads off cohomology dimensions.  Exact at the truncation; stable
    answers across truncations are the business of ``ext_stable``.  Raises
    RuntimeError when a free cover would exceed ``dim_cap``.
    """
    if M.cfg != T.cfg:
        raise ValueError(f"config mismatch: {M.cfg} != {T.cfg}")
    reps, gens, free_mods = _resolution(M, max_i + 2, dim_cap)
    hom_invariants = _hom_invariants_generic if T.swaps is None else _hom_invariants_by_orbits

    # induced differential on Hom spaces: precompute monomial action on T
    mono_action_cache: dict = {}

    def mono_action(mono):
        if mono not in mono_action_cache:
            m = SparseRationalMatrix.identity(T.dim)
            for i, e in enumerate(mono):
                for _ in range(e):
                    m = T.xmul[i] @ m
            mono_action_cache[mono] = m
        return mono_action_cache[mono]

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

    inv_bases = [hom_invariants(rep, T) for rep in reps]
    images = [_images(induced_differential(level), inv_bases[level - 1])
              for level in range(1, max_i + 2)]
    return _cohomology(inv_bases, images, [rep.dim * T.dim for rep in reps[1:]])


# ---------------------------------------------------------------------------
# the periodic Tor computation


def tor_complex(s: int, N: int):
    """The tensored periodic complex for the tuple-size-one Q family.

    Returns (C, delta_odd, delta_even): C is the module with labels
    (position, Q-label) and diagonal group action; the differentials multiply
    the Q part by that position's variable to the first or s-th power.
    """
    if s < 1:
        raise ValueError("the periodic complex needs s >= 1")
    Q = build_Q(s, 1, N)
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
        return _map_matrix([None if u is None else i * d + u
                            for i in range(N) for u in _power_map(Q.xmaps[i], exp)])

    delta_odd = delta(1)
    delta_even = delta(s)
    if not (delta_odd @ delta_even).is_zero() or not (delta_even @ delta_odd).is_zero():
        raise AssemblyError("periodic differentials do not square to zero")
    return C, delta_odd, delta_even


def _subspace_character(C: EquivModule, span: SpanBasis) -> ClassFunction:
    N = C.cfg.N
    vals = {}
    for mu in partitions(N):
        g = representative_permutation(mu)
        mat = C.perm_matrix(g)
        tr = Fraction(0)
        for t, vec in enumerate(span.vectors):
            tr += span.coords(mat.apply(vec))[t]
        vals[mu] = tr
    return ClassFunction(N, vals)


def tor_periodic(s: int, r_max: int, N: int) -> list:
    """Characters of the degree-1..r_max homology of the periodic complex
    tensored against the tuple-size-one Q family."""
    C, delta_odd, delta_even = tor_complex(s, N)
    chi_C = character_of(C)
    span_odd = SpanBasis((c for c in delta_odd.columns() if c), C.dim)
    span_even = SpanBasis((c for c in delta_even.columns() if c), C.dim)
    chi_im = {1: _subspace_character(C, span_odd), 0: _subspace_character(C, span_even)}
    out = []
    for r in range(1, r_max + 1):
        chi = chi_C - chi_im[r % 2] - chi_im[(r + 1) % 2]
        out.append(chi)
    return out
