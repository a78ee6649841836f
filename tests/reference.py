"""Independent references that the tests compare the package against, and
fixtures that the tests feed it.

The package keeps one path per computation.  The definitions here are the
other paths: elimination on full constraint matrices where the package
chases labels, the stable space of built modules where it reads label
arithmetic, the orbit solver on built modules (for P and Q sources; the
package keeps it for Q sources only, in ``hom_mapping_property``) and the
listed level-N orbits where it keys them, the listed orbit keys of
truncated Ext where it counts their blocks, Ext by a
resolution of minimal free covers where it builds slot strands, modules
given by matrices alone where it keeps label maps, the linear solve
(``solve_columns``) that inverts the multiplication-by-the-ring matrix
where the package divides characters, and brute-force oracles.
Each one is named by some test, which ``tests/test_reachability.py``
checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, product, repeat
from math import factorial
from operator import is_not, mul

from equivar.cas_cat import CasMorphism
from equivar.combinat import ClassFunction, Partition, _check_partition, injections, partitions
from equivar.equivariant import (
    EquivMap,
    EquivModule,
    _build_family,
    _label_to_json,
    _map_matrix,
    pq_dimension,
)
from equivar.homcalc import (
    PQFamily,
    _cohomology,
    _orbit_relations,
    _position_digits,
    _power_map,
    _slot_patterns,
    _source_constraints,
)
from equivar.linalg import (
    ONE,
    AssemblyError,
    Echelon,
    SpanBasis,
    SparseRationalMatrix,
    Subspace,
    _entry,
    joint_kernel,
    kernel_of_vectors,
    matrix_rank,
    nullspace,
    vec_axpy,
)
from equivar.truncated_ring import RingConfig, coxeter_word, representative_permutation


# ---------------------------------------------------------------------------
# linear algebra


def from_entries(nrows: int, ncols: int, entries) -> SparseRationalMatrix:
    """The matrix whose entry (i, j) is the sum of the values given for it
    among the (row, col, value) entries."""
    m = SparseRationalMatrix(nrows, ncols)
    for i, j, v in entries:
        vec_axpy(m.rows[i], ONE, {j: _entry(v)})
    return m


def columns(mat: SparseRationalMatrix) -> list:
    """The columns of mat, as dicts {row: entry}."""
    cols: list = [{} for _ in range(mat.ncols)]
    for i, row in enumerate(mat.rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols


def column(mat: SparseRationalMatrix, j: int) -> dict:
    return {i: row[j] for i, row in enumerate(mat.rows) if j in row}


def transpose(mat: SparseRationalMatrix) -> SparseRationalMatrix:
    return SparseRationalMatrix(mat.ncols, mat.nrows, columns(mat))


def scale(mat: SparseRationalMatrix, coef) -> SparseRationalMatrix:
    coef = _entry(coef)
    return SparseRationalMatrix(mat.nrows, mat.ncols,
                                [{k: coef * v for k, v in r.items()} if coef else {}
                                 for r in mat.rows])


def to_dense(mat: SparseRationalMatrix) -> list:
    return [[row.get(j, 0) for j in range(mat.ncols)] for row in mat.rows]


def coords(span: Subspace, w: dict) -> list:
    """Coordinates of w in the span's basis; raises ValueError if w is outside."""
    if span.residue(w):
        raise ValueError("vector is not in the span")
    return [w.get(r, 0) for r in span.free]


def contains(span: Subspace, w: dict) -> bool:
    return not span.residue(w)


def apply_columns(cols, vec: dict) -> dict:
    """A matrix times a column vector, given the matrix's columns as dicts,
    in a list or in a dict holding at least the columns vec touches: the
    cost is the nnz of those columns, not of the whole matrix."""
    out: dict = {}
    for j, w in vec.items():
        vec_axpy(out, w, cols[j])
    return out


def restrict(sub: Subspace, mat: SparseRationalMatrix, source=None) -> SparseRationalMatrix:
    """The matrix of mat from the subspace source (by default sub) to sub:
    column k holds the coordinates of mat applied to source's basis vector
    k.  Each image is read off the columns of mat it touches; raises
    AssemblyError when one leaves sub.  The matrix form of
    ``Subspace.restrict``, which takes a label map."""
    source = sub if source is None else source
    if (mat.nrows, mat.ncols) != (sub.ambient_dim, source.ambient_dim):
        raise ValueError(f"shape mismatch: {mat.nrows}x{mat.ncols} != "
                         f"{sub.ambient_dim}x{source.ambient_dim}")
    cols: dict = {j: {} for v in source.basis for j in v}
    for i, row in enumerate(mat.rows):
        for j, x in row.items():
            col = cols.get(j)
            if col is not None:
                col[i] = x
    out = SparseRationalMatrix(sub.dim, source.dim)
    for k, v in enumerate(source.basis):
        image = apply_columns(cols, v)
        if sub.residue(image):
            raise AssemblyError("a vector leaves the subspace")
        for r, x in image.items():
            t = sub.free.get(r)
            if t is not None:
                out.rows[t][k] = x
    return out


def kron(a: SparseRationalMatrix, b: SparseRationalMatrix) -> SparseRationalMatrix:
    """The Kronecker product: entry (i * b.nrows + p, j * b.ncols + q) is
    a[i, j] * b[p, q]."""
    out = SparseRationalMatrix(a.nrows * b.nrows, a.ncols * b.ncols)
    for i, arow in enumerate(a.rows):
        for p, brow in enumerate(b.rows):
            row = out.rows[i * b.nrows + p]
            for j, av in arow.items():
                for q, bv in brow.items():
                    row[j * b.ncols + q] = av * bv
    return out


def solve_columns(A: SparseRationalMatrix, ys) -> list:
    """Solve A @ x = y for each y in ys; A must have full column rank.

    Returns the solution vectors as dicts over range(A.ncols).  Raises
    ValueError on an inconsistent system or rank-deficient A.
    """
    ys = list(ys)
    n = A.ncols
    ech = Echelon(n + len(ys))
    for i, row in enumerate(A.rows):
        full = dict(row)
        for t, y in enumerate(ys):
            v = y.get(i)
            if v is not None:
                full[n + t] = v
        if full:
            ech.add(full)
    for c in ech.pivots:
        if c >= n:
            raise ValueError("inconsistent system")
    if ech.rank != n:
        raise ValueError("matrix does not have full column rank")
    ech.back_substitute()
    sols: list = [dict() for _ in ys]
    for c, row in ech.pivots.items():
        for j, v in row.items():
            if j >= n and v:
                sols[j - n][c] = v
    return sols


def _word_product(gens, dim: int, word) -> SparseRationalMatrix:
    """The product of the generator matrices along a word, first entry acting
    first: a permutation's action along its ``coxeter_word``, one matrix per
    adjacent swap."""
    m = SparseRationalMatrix.identity(dim)
    for j in word:
        m = gens[j] @ m
    return m


# ---------------------------------------------------------------------------
# modules and representations given by matrices


class MatrixModule:
    """A module given by its action matrices alone, one per variable and
    one per adjacent swap: free covers, their kernels, modules in a skewed
    basis, and the matrix form of package modules (``matrix_module``), on
    which the references below read the actions."""

    def __init__(self, cfg, labels, xmul, coxeter, grading=None, name=""):
        self.cfg = cfg
        self.labels = list(labels)
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        self.xmul, self.coxeter = list(xmul), list(coxeter)
        self.grading = grading
        self.name = name

    dim = EquivModule.dim
    __repr__ = EquivModule.__repr__

    def to_json_dict(self) -> dict:
        """The layout of ``EquivModule.to_json_dict``, the actions read off
        the matrices."""
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

    def perm_matrix(self, g) -> SparseRationalMatrix:
        """The action of an arbitrary permutation, along a reduced word."""
        return _word_product(self.coxeter, self.dim, coxeter_word(g))


def matrix_module(M) -> MatrixModule:
    """M with its actions as matrices: a package module's label maps as
    0/1 matrices (``_map_matrix``), a MatrixModule as it is."""
    if isinstance(M, MatrixModule):
        return M
    return MatrixModule(M.cfg, M.labels, [_map_matrix(cm) for cm in M.xmaps],
                        [_map_matrix(cm) for cm in M.swaps], grading=M.grading, name=M.name)


def _tuple_power_map(P: EquivModule, pos: int, exp: int) -> list:
    """Label map of multiplication by (variable at tuple slot pos)^exp on a P
    module, read off its built label maps."""
    powers = P.xmaps if exp == 1 else [_power_map(cm, exp) for cm in P.xmaps]
    return [powers[T[pos]][col] for col, (T, _) in enumerate(P.labels)]


def trace_character(M) -> ClassFunction:
    """The character of M as the trace of ``perm_matrix`` of a
    representative permutation of each cycle type: the oracle for
    ``character_of``, which counts fixed labels."""
    vals = {}
    for mu in partitions(M.cfg.N):
        rows = M.perm_matrix(representative_permutation(mu)).rows
        vals[mu] = sum(row.get(t, 0) for t, row in enumerate(rows))
    return ClassFunction(M.cfg.N, vals)


def check_equivariance(f: EquivMap) -> None:
    """Assert that the matrix of f commutes with every variable and every
    adjacent transposition."""
    if f.source.cfg.N != f.target.cfg.N:
        raise ValueError("truncation levels differ")
    source, target = matrix_module(f.source), matrix_module(f.target)
    for i in range(source.cfg.N):
        if (f.matrix @ source.xmul[i]) != (target.xmul[i] @ f.matrix):
            raise AssertionError(f"map does not commute with x_{i}")
    for j in range(source.cfg.N - 1):
        if (f.matrix @ source.coxeter[j]) != (target.coxeter[j] @ f.matrix):
            raise AssertionError(f"map does not commute with swap {j}")


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
        return _word_product(self.coxeter, self.dim, coxeter_word(g))


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


def regular_rep(n: int) -> SnRep:
    """Left regular representation on all permutations of [n]."""
    elems = sorted(itertools.permutations(range(n)))
    index = {g: i for i, g in enumerate(elems)}
    mats = [_map_matrix([index[_compose_swap(j, g)] for g in elems]) for j in range(max(n - 1, 0))]
    return SnRep(n, len(elems), tuple(mats))


# ---------------------------------------------------------------------------
# symmetric-group combinatorics


def _hook_lengths(lam):
    conj = conjugate(lam)
    for i, row in enumerate(lam):
        for j in range(row):
            yield row - j + conj[j] - i - 1


def conjugate(lam) -> Partition:
    lam = tuple(lam)
    if not lam:
        return ()
    out = [0] * lam[0]
    for row in lam:
        for j in range(row):
            out[j] += 1
    return tuple(out)


def specht_dimension(lam) -> int:
    """Dimension of the irreducible module labeled by lam (hook lengths)."""
    lam = _check_partition(lam)
    n = sum(lam)
    d = factorial(n)
    for h in _hook_lengths(lam):
        d, rem = divmod(d, h)
        assert rem == 0
    return d


def trivial_character(n: int) -> ClassFunction:
    return ClassFunction(n, {mu: 1 for mu in partitions(n)})


def regular_character(n: int) -> ClassFunction:
    vals = {mu: 0 for mu in partitions(n)}
    vals[(1,) * n if n else ()] = factorial(n)
    return ClassFunction(n, vals)


# ---------------------------------------------------------------------------
# permutations and monomials


def permute(g, m):
    """Relabel the variables of m by g: exponent of x_{g(i)} becomes m[i]."""
    out = [0] * len(m)
    for i, e in enumerate(m):
        out[g[i]] = e
    return tuple(out)


def cycle_type(g) -> Partition:
    """Cycle type of a permutation tuple, as a partition."""
    seen = [False] * len(g)
    cycles = []
    for i in range(len(g)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = g[j]
            length += 1
        cycles.append(length)
    return tuple(sorted(cycles, reverse=True))


def monomial_word(mono) -> list:
    """Variable word for a monomial: variable i repeated mono[i] times."""
    return [i for i, e in enumerate(mono) for _ in range(e)]


# ---------------------------------------------------------------------------
# the combinatorial category


def identity_morphism(n: int, s: int) -> CasMorphism:
    return CasMorphism.make(n, n, s, {(tuple(range(n)), (0,) * n): 1})


# ---------------------------------------------------------------------------
# module axioms and the label inclusion


def check_axioms(M: EquivModule) -> None:
    """Assert every structural identity of an equivariant module, exactly."""
    M = matrix_module(M)
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
            for col, row_entries in enumerate(columns(M.xmul[i])):
                for r in row_entries:
                    expect = list(M.grading[col])
                    expect[i] += 1
                    if tuple(expect) != M.grading[r]:
                        raise AssertionError("grading is not raised by one step")
        for j in range(N - 1):
            for col, row_entries in enumerate(columns(M.coxeter[j])):
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


# ---------------------------------------------------------------------------
# the generic Hom solvers, the module path of stabilization, and Ext by
# minimal free covers


def _mapping_solutions(profile: PQFamily, T: EquivModule) -> list:
    """Basis of the joint kernel of the source constraints inside T, as
    orbit sums, for a P or a Q source: the orbit solver of
    ``hom_mapping_property``, which takes only Q sources.

    The x-type constraints are partial injections on labels, so a solution
    must vanish on every label they move; the swap constraints make it
    constant on orbits of the residual symmetric group.
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


def _mapping_solutions_generic(profile: PQFamily, T: EquivModule) -> list:
    """The reference solver: elimination on the stacked constraint matrices."""
    kills, swaps = _source_constraints(profile, T.cfg)
    T = matrix_module(T)
    eye = SparseRationalMatrix.identity(T.dim)
    return joint_kernel([T.xmul[i].power(e) for i, e in kills]
                        + [T.coxeter[j] - eye for j in swaps], T.dim)


def map_from_generator_value(profile: PQFamily, source: EquivModule,
                             target: EquivModule, v: dict) -> EquivMap:
    """Equivariant extension of generator-image v to a full module map.

    The source must be the profile's module at the target's truncation; the
    column at a basis label (T, mono) is mono applied to the relabeling of v
    along any permutation sending (0..n-1) to T.
    """
    N = target.cfg.N
    xmul = matrix_module(target).xmul
    mat = SparseRationalMatrix(target.dim, source.dim)
    perm_cache: dict = {}
    for col, (tup, mono) in enumerate(source.labels):
        if tup not in perm_cache:
            rest = [p for p in range(N) if p not in tup]
            perm = tuple(list(tup) + rest)  # position k maps to perm[k]
            perm_cache[tup] = apply_columns(columns(target.perm_matrix(perm)), v)
        xmono = _word_product(xmul, target.dim, monomial_word(mono))
        for r, val in apply_columns(columns(xmono), perm_cache[tup]).items():
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
    plain_m, plain_t = matrix_module(M), matrix_module(T)
    eye_m, eye_t = SparseRationalMatrix.identity(dm), SparseRationalMatrix.identity(dt)
    blocks = [kron(transpose(a), eye_t) - kron(eye_m, b)
              for a, b in zip(plain_m.xmul + plain_m.coxeter, plain_t.xmul + plain_t.coxeter)]
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


def _label_meets(pushed, big_solutions) -> dict:
    """The meets that ``_orbit_relations`` reads, by label: {index of a big
    solution (None: none): {k: the number of labels of pushed[k] in it}}."""
    orbit_of = {t: b for b, vec in enumerate(big_solutions) for t in vec}
    meets: dict = {}
    for k, vec in enumerate(pushed):
        for t in vec:
            hits = meets.setdefault(orbit_of.get(t), {})
            hits[k] = hits.get(k, 0) + 1
    return meets


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
    if isinstance(small, EquivModule) and isinstance(big, EquivModule):
        columns = _orbit_relations(len(pushed), _label_meets(pushed, big_solutions),
                                   [len(vec) for vec in big_solutions])
    else:
        span = Subspace(big_solutions, big.dim)
        columns = [span.residue(w) for w in pushed]
    return _kept_combinations(solutions, columns)


def _family_orbits(profile: PQFamily, family: tuple, N: int):
    """``_mapping_solutions(profile, T)`` for T the P or Q module of
    family (kind, s, n) at N, the same list, read off T's label arithmetic
    with no module built, and the key of each orbit: (orbits, keys).

    Label (a, rank) of T has tuple U = injections(n, N)[a] and digits d_p at
    its free positions.  A kill (i, e) allows it when i is not free or
    d_i + e > s.  Two allowed labels share an orbit of the residual group
    Sym{m, ..., N-1} (m the source's tuple size) exactly when they agree on
    the key: the slot pattern (U[k] if U[k] < m, else None), the digits at
    free positions below m, the slot digits at positions >= m (P only) and
    the multiset of the other high digits, as a sorted tuple.  So each orbit
    is one low part, over the tuples of one pattern, with every arrangement
    of one multiset on each tuple's other high positions.
    """
    kind, s, n = family
    RingConfig(N, s)  # _build_family's ValueErrors, in its order
    tuples = injections(n, N)
    size = pq_dimension(kind, s, n, N) // len(tuples)  # labels per tuple
    digits = _position_digits(profile, s, N)
    m = profile.n
    by_pattern: dict = {}
    for a, U in enumerate(tuples):
        by_pattern.setdefault(tuple(t if t < m else None for t in U), []).append((a, U))
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

    orbits = []  # (labels, key)
    for pattern, members in by_pattern.items():
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
                    orbits.append(([off + r for off, table in offsets for r in table[multiset]],
                                   (pattern, low_ds, slot_ds, multiset)))
    orbits.sort(key=lambda orbit: orbit[0][0])
    return [dict.fromkeys(labels, ONE) for labels, _ in orbits], [key for _, key in orbits]


def _hom_keys(s: int, n: int, family: tuple, N: int):
    """The invariant maps from P(s, n, N) into T, the P or Q module of
    family at N, as orbit keys, and the n slot variables on them: (keys,
    xs).

    By Frobenius reciprocity these maps are the generator images, the
    vectors of T fixed by Sym{n, ..., N-1} (a P generator has no kill): the
    orbit sums of T's labels, one per key of ``_slot_patterns``.  x_pos, for
    pos < n, commutes with that group and sends an orbit onto an orbit label
    by label, so it acts on the orbit sums as the partial map xs[pos] on key
    indices: it raises the low digit at pos, and kills the key at digit s,
    or when pos is in a Q target's tuple (then it is no low position).
    """
    profile = PQFamily("P", s, n)
    keys: list = []
    xs: list = [[] for _ in range(n)]
    for pattern, _, _, low, lows, slots, multisets in _slot_patterns(
            profile, family, N, _position_digits(profile, s, N)):
        base = len(keys)
        keys += [(pattern, low_ds, slot_ds, multiset)
                 for low_ds in lows for slot_ds in slots for multiset in multisets]
        block = len(keys) - base
        for pos, cm in enumerate(xs):
            if pos not in low:
                cm += [None] * block
                continue
            # every low digit runs over 0..s, the first the slowest, so
            # raising the one at pos moves a key on by step places
            step = block // (s + 1) ** (low.index(pos) + 1)
            cm += [k + step if (k - base) // step % (s + 1) < s else None
                   for k in range(base, base + block)]
    return keys, xs


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
    M = matrix_module(M)
    radical = SpanBasis([c for x in M.xmul for c in columns(x)], M.dim)
    free = [t for t in range(M.dim) if t not in radical.free]
    pos = {f: t for t, f in enumerate(free)}

    def pi_matrix(mat: SparseRationalMatrix) -> SparseRationalMatrix:
        out = SparseRationalMatrix(len(free), mat.ncols)
        for j, col in enumerate(columns(mat)):
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
        sec = scale(acc, Fraction(1, len(walk)))
        if any(M.coxeter[j] @ sec != sec @ rep.coxeter[j] for j in range(N - 1)):
            raise AssemblyError("section is not equivariant")
    if pi_matrix(sec) != SparseRationalMatrix.identity(len(free)):
        raise AssemblyError("section does not split the reduction")
    return rep, sec


def _free_cover(M: EquivModule):
    """Minimal equivariant free cover: returns (F, d, rep) with d: F -> M
    surjective, F the free module on the radical fiber of M."""
    M = matrix_module(M)
    rep, sec = _quotient_by_radical(M)
    cfg = M.cfg
    ring = matrix_module(_build_family("P", cfg.s, 0, cfg.N))  # labels ((), mono) in rank order
    dimF = ring.dim * rep.dim
    # label (mono, f) sits at rank(mono) * dim V + f: F is the ring tensor V,
    # with the variables acting on the ring and a swap on both factors
    labels = [(mono, f) for _, mono in ring.labels for f in range(rep.dim)]
    eye = SparseRationalMatrix.identity(rep.dim)
    xmul = [kron(x, eye) for x in ring.xmul]
    coxeter = [kron(c, r) for c, r in zip(ring.coxeter, rep.coxeter)]
    F = MatrixModule(cfg, labels, xmul, coxeter, name=f"free_cover({M.name})")

    # the image of (mono, f) is x_i times the image of (mono - e_i, f), for
    # the last variable i in mono; that label comes earlier in the list
    sec_cols = columns(sec)
    x_cols = [columns(m) for m in M.xmul]
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
    K = MatrixModule(F.cfg, [("ker", t) for t in range(ker.dim)],
                     [restrict(ker, m) for m in F.xmul], [restrict(ker, m) for m in F.coxeter],
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
        images = [column(cover.matrix, f) for f in range(rep.dim)]
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
    T = matrix_module(T)
    eye = SparseRationalMatrix.identity(ncols)
    return joint_kernel([kron(transpose(rv), rt) - eye for rv, rt in zip(rep.coxeter, T.coxeter)],
                        ncols)


def _ext_by_free_covers(M: EquivModule, T: EquivModule, max_i: int) -> list:
    """The reference for ``ext_truncated``, on any source: resolve M by
    minimal free covers and take the cohomology of the invariant Hom complex
    into T, each degree solved by ``_hom_invariants_generic``.  A cover on
    the fiber V has the label (mono, f) at rank(mono) * dim V + f, so its
    actions are Kronecker products, and only the image of each generator of
    F_i in F_(i-1) is kept."""
    reps, gens, free_mods = _resolution(M, max_i + 2)
    T = matrix_module(T)

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
    diffs = [restrict(subs[level], induced_differential(level), subs[level - 1])
             for level in range(1, max_i + 2)]
    return _cohomology([sub.dim for sub in subs], diffs)
