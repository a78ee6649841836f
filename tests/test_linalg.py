import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equivar.equivariant import _map_matrix, build_P
from equivar.linalg import (
    AssemblyError,
    Echelon,
    SpanBasis,
    SparseRationalMatrix,
    Subspace,
    joint_kernel,
    kernel_of_vectors,
    matrix_rank,
    nullspace,
    rank_of_vectors,
)
from reference import (
    columns,
    contains,
    coords,
    from_entries,
    kron,
    matrix_module,
    restrict,
    scale,
    solve_columns,
    to_dense,
    transpose,
)


def dense_rank(dense):
    """Independent rank oracle: plain Gaussian elimination on dense rows."""
    rows = [list(map(Fraction, r)) for r in dense]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while col < ncols and rank < len(rows):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / lead
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def random_matrix(rng, m, n, density=0.5):
    mat = SparseRationalMatrix(m, n)
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                mat.set(i, j, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return mat


def test_matmul_identity_and_known_product():
    a = from_entries(2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1)])
    b = from_entries(2, 2, [(0, 1, 1), (1, 0, 1), (1, 1, 1)])
    c = a @ b
    assert to_dense(c) == [[1, 2], [0, 1]]
    eye = SparseRationalMatrix.identity(2)
    assert (a @ eye) == a and (eye @ a) == a


def test_add_sub_scale_transpose():
    a = from_entries(2, 3, [(0, 0, 2), (1, 2, -1)])
    b = scale(a, Fraction(1, 2))
    assert b.rows[0][0] == 1 and b.rows[1][2] == Fraction(-1, 2)
    assert (a - a).is_zero()
    assert transpose(a).rows[2][1] == -1
    assert (a + a) == scale(a, 2)


def test_rank_and_nullspace_against_dense_oracle():
    rng = random.Random(7)
    for trial in range(40):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        mat = random_matrix(rng, m, n)
        r = matrix_rank(mat)
        assert r == dense_rank(to_dense(mat))
        kernel = nullspace(mat)
        assert len(kernel) == n - r
        for v in kernel:
            assert mat.apply(v) == {}


def test_nullspace_free_column_form():
    mat = from_entries(1, 3, [(0, 0, 1), (0, 1, 2), (0, 2, 3)])
    kernel = nullspace(mat)
    assert len(kernel) == 2
    frees = []
    for v in kernel:
        ones = [k for k, val in v.items() if val == 1]
        frees.extend(ones)
    # each kernel vector has a defining unit coordinate not shared with others
    assert len(set(frees)) >= 2


def test_rank_of_vectors_and_kernel_of_vectors():
    v1 = {0: Fraction(1), 1: Fraction(2)}
    v2 = {0: Fraction(2), 1: Fraction(4)}
    v3 = {2: Fraction(1)}
    assert rank_of_vectors([v1, v2, v3], 3) == 2
    coeffs = kernel_of_vectors([v1, v2, v3])
    assert len(coeffs) == 1
    c = coeffs[0]
    combo = {}
    for t, val in c.items():
        for k, w in [v1, v2, v3][t].items():
            combo[k] = combo.get(k, 0) + val * w
    assert all(x == 0 for x in combo.values())


def test_span_basis_membership_and_coords():
    v1 = {0: Fraction(1), 2: Fraction(1)}
    v2 = {1: Fraction(1)}
    span = SpanBasis([v1, v2, {0: Fraction(2), 1: Fraction(2), 2: Fraction(2)}], 3)
    assert span.dim == 2
    w = {0: Fraction(3), 1: Fraction(-1), 2: Fraction(3)}
    coeffs = coords(span, w)
    assert len(coeffs) == 2
    assert not contains(span, {2: Fraction(1)})


def test_span_basis_residue_against_dense_oracle():
    # the residue is empty exactly on members of the span (a rank oracle
    # decides membership) and is linear; coords keeps its former reduction
    def former_coords(span, w):
        coeffs = [w.get(c, Fraction(0)) for c in span.free]
        residue = dict(w)
        for c, vec in zip(coeffs, span.basis):
            for k, v in vec.items():
                residue[k] = residue.get(k, 0) - c * v
        if any(residue.values()):
            raise ValueError("vector is not in the span")
        return coeffs

    def combine(n, terms):
        out = {k: sum(c * v.get(k, 0) for c, v in terms) for k in range(n)}
        return {k: v for k, v in out.items() if v}

    rng = random.Random(11)
    for trial in range(60):
        n = rng.randint(1, 6)
        family = random_matrix(rng, rng.randint(0, 4), n).rows
        span = SpanBasis(family, n)
        rank = dense_rank([[r.get(j, 0) for j in range(n)] for r in family])
        members = [combine(n, [(rng.randint(-2, 2), r) for r in family]) for _ in range(2)]
        for w in random_matrix(rng, 3, n).rows + members:
            inside = dense_rank([[r.get(j, 0) for j in range(n)] for r in family + [w]]) == rank
            assert (span.residue(w) == {}) == inside == contains(span, w)
            if inside:
                assert coords(span, w) == former_coords(span, w)
            else:
                with pytest.raises(ValueError):
                    coords(span, w)
        u, w = random_matrix(rng, 2, n).rows
        assert span.residue(combine(n, [(2, u), (-1, w)])) == \
            combine(n, [(2, span.residue(u)), (-1, span.residue(w))])


def test_solve_columns():
    a = from_entries(3, 2, [(0, 0, 2), (1, 1, 3), (2, 0, 1), (2, 1, 1)])
    y = {0: Fraction(4), 1: Fraction(6), 2: Fraction(4)}
    (x,) = solve_columns(a, [y])
    assert a.apply(x) == y
    with pytest.raises(ValueError):
        solve_columns(a, [{0: Fraction(1)}])  # inconsistent


def test_echelon_deterministic():
    rows = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1), 2: Fraction(1)}]
    e1, e2 = Echelon(3), Echelon(3)
    for r in rows:
        e1.add(dict(r))
    for r in rows:
        e2.add(dict(r))
    assert e1.kernel_basis() == e2.kernel_basis()


def test_power_and_vstack():
    n = from_entries(2, 2, [(0, 1, 1)])
    assert n.power(2).is_zero()
    stacked = SparseRationalMatrix.vstack([n, SparseRationalMatrix.identity(2)])
    assert stacked.nrows == 4 and matrix_rank(stacked) == 2


def test_kron_against_dense_oracle():
    rng = random.Random(11)
    for m, n, p, q in itertools.product(range(4), repeat=4):
        a = random_matrix(rng, m, n, 0.8)
        b = random_matrix(rng, p, q, 0.8)
        da, db = to_dense(a), to_dense(b)
        expected = [[da[i][j] * db[p][q] for j in range(a.ncols) for q in range(b.ncols)]
                    for i in range(a.nrows) for p in range(b.nrows)]
        got = kron(a, b)
        assert (got.nrows, got.ncols) == (a.nrows * b.nrows, a.ncols * b.ncols)
        assert to_dense(got) == expected
        assert all(v for row in got.rows for v in row.values())


def test_joint_kernel_against_dense_oracle():
    rng = random.Random(12)
    for trial in range(30):
        ncols = rng.randint(1, 6)
        blocks = [random_matrix(rng, rng.randint(1, 3), ncols, 0.4)
                  for _ in range(rng.randint(1, 3))]
        kernel = joint_kernel(blocks, ncols)
        stacked = [row for blk in blocks for row in to_dense(blk)]
        assert len(kernel) == ncols - dense_rank(stacked)
        for v in kernel:
            for blk in blocks:
                assert blk.apply(v) == {}
        assert kernel == nullspace(SparseRationalMatrix.vstack(blocks))


def test_joint_kernel_without_blocks_is_the_standard_basis():
    assert joint_kernel([], 3) == [{0: 1}, {1: 1}, {2: 1}]
    assert joint_kernel([], 0) == []
    with pytest.raises(ValueError):
        joint_kernel([SparseRationalMatrix(1, 2)], 3)


def test_subspace_restrict_and_coords():
    # the vectors of Q^3 fixed by swapping the first two coordinates
    swap = from_entries(3, 3, [(0, 1, 1), (1, 0, 1), (2, 2, 1)])
    sub = Subspace(nullspace(swap - SparseRationalMatrix.identity(3)), 3)
    assert sub.basis == [{0: 1, 1: 1}, {2: 1}] and sub.free == {0: 0, 2: 1}
    act = from_entries(3, 3, [(0, 1, 1), (1, 0, 1), (2, 2, 2)])
    assert to_dense(restrict(sub, act)) == [[1, 0], [0, 2]]
    # the label map sending labels 0 and 1 to 2 and killing 2
    assert to_dense(sub.restrict([2, 2, None])) == [[0, 0], [2, 0]]
    assert [coords(sub, v) for v in sub.basis] == [[1, 0], [0, 1]]
    assert coords(sub, {0: 3, 1: 3, 2: -1}) == [3, -1]


def test_subspace_check_fails_outside_the_subspace():
    sub = Subspace([{0: Fraction(1), 1: Fraction(1)}], 2)  # the line through (1, 1)
    stretch = from_entries(2, 2, [(0, 0, 1), (1, 1, 2)])
    with pytest.raises(AssemblyError):
        restrict(sub, stretch)
    for cm in ([0, None], [1, 1]):  # (1, 1) goes to (1, 0) and to (0, 2)
        with pytest.raises(AssemblyError):
            restrict(sub, _map_matrix(cm))
        with pytest.raises(AssemblyError):
            sub.restrict(cm)
    with pytest.raises(ValueError):
        coords(sub, {0: Fraction(1)})
    with pytest.raises(AssemblyError):  # no free row: not in free-column form
        Subspace([{0: Fraction(2)}], 1)
    # a map into or out of another ambient space is refused by its shape
    plane = Subspace([{0: 1}, {1: 1}], 3)
    with pytest.raises(ValueError, match="shape mismatch"):
        restrict(plane, from_entries(2, 3, [(0, 0, 1), (1, 1, 1)]))
    with pytest.raises(ValueError, match="shape mismatch"):
        restrict(plane, SparseRationalMatrix.identity(3), sub)
    with pytest.raises(ValueError, match="shape mismatch"):
        plane.restrict([0, 1])


@st.composite
def subspace_actions(draw):
    """n, dense small integer matrices (A, Y, C, W, E), A having n columns,
    and a partial label map on n labels: the subspace is ker A, and
    B @ Y @ C + W @ A (B its inclusion, Y and C cut to its dimension)
    preserves it."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(0, 3))

    def dense(rows, cols):
        return draw(st.lists(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    cm = draw(st.lists(st.none() | st.integers(0, n - 1), min_size=n, max_size=n))
    return n, dense(m, n), dense(n, n), dense(n, n), dense(n, m), dense(n, n), cm


def _zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def _inclusion(sub):
    """The matrix whose column k is sub's basis vector k."""
    return from_entries(
        sub.ambient_dim, sub.dim, [(r, k, v) for k, vec in enumerate(sub.basis)
                                   for r, v in vec.items()])


def _former_coords(sub, prod):
    """The former matrix ``coords``: the X with B @ X == prod, read off
    prod's free rows; AssemblyError when a column of prod leaves sub."""
    out = SparseRationalMatrix(sub.dim, prod.ncols)
    for t, r in enumerate(sub.free):
        for j, v in prod.rows[r].items():
            out.set(t, j, v)
    if _inclusion(sub) @ out != prod:
        raise AssemblyError("a vector leaves the subspace")
    return out


# ker A = span{(1, 1, 0), (0, 0, 1)}: labels 0 and 1 merge into 2, and the
# image stays inside; ker A = span{(1, 1)}: killing label 1 leaves it
@example((3, [[1, -1, 0]], _zeros(3, 3), _zeros(3, 3), _zeros(3, 1), _zeros(3, 3),
          [2, 2, None]))
@example((2, [[1, -1]], _zeros(2, 2), _zeros(2, 2), _zeros(2, 1), _zeros(2, 2), [0, None]))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(subspace_actions())
def test_subspace_restrict_matches_coords_of_the_product(case):
    # the oracle of the reference restrict is the former restrict,
    # coords(mat @ B), on int and Fraction entries; the rectangular input
    # maps ker A into ker A x Q, one row more.  Subspace.restrict of the
    # label map cm must agree with the reference restrict of its 0/1 matrix
    n, *dense, cm = case
    for wrap in (int, Fraction):
        A, Y, C, W, E = [from_entries(
            len(d), len(d[0]) if d else n, [(i, j, wrap(v)) for i, row in enumerate(d)
                                           for j, v in enumerate(row)]) for d in dense]
        sub = Subspace(nullspace(A), n)
        wide = Subspace(nullspace(SparseRationalMatrix(A.nrows, n + 1, A.rows)), n + 1)
        k = sub.dim
        B = _inclusion(sub)
        Y = SparseRationalMatrix(k, k, [{j: v for j, v in r.items() if j < k} for r in Y.rows[:k]])
        C = SparseRationalMatrix(k, n, C.rows[:k])
        for mat, inside in ((B @ Y @ C + W @ A, True), (B @ Y @ C + W @ A + E, False)):
            taller = SparseRationalMatrix.vstack([mat, SparseRationalMatrix(1, n, E.rows[:1])])
            for target, mat in ((sub, mat), (wide, taller)):
                try:
                    expected = _former_coords(target, mat @ B)
                except AssemblyError:
                    assert not inside
                    with pytest.raises(AssemblyError):
                        restrict(target, mat, sub)
                    continue
                assert restrict(target, mat, sub) == expected
        try:
            expected = restrict(sub, _map_matrix(cm))
        except AssemblyError:
            with pytest.raises(AssemblyError):
                sub.restrict(cm)
        else:
            assert sub.restrict(cm) == expected


def _all_ints(mat):
    return all(type(v) is int for row in mat.rows for v in row.values())


def test_integer_entries_stay_integers():
    a = from_entries(2, 3, [(0, 0, 2), (0, 2, -1), (1, 1, 3)])
    b = from_entries(3, 2, [(0, 1, 1), (2, 0, -4), (1, 1, 5)])
    P = matrix_module(build_P(1, 2, 3))
    built = [a, b, SparseRationalMatrix.identity(3), kron(a, b), a @ b, a + a,
             a - scale(a, 2), transpose(a), SparseRationalMatrix.vstack([a, transpose(b)]),
             _map_matrix([2, None, 0], 4), *P.xmul, *P.coxeter,
             Subspace([{0: 1, 1: 1}, {2: 1}], 3).restrict([2, 2, None])]
    for mat in built:
        assert not mat.is_zero() and _all_ints(mat)
    # a lead of 1 or -1 divides nothing; any other lead makes Fractions
    ech = Echelon(3)
    ech.add({0: 1, 1: 3})
    ech.add({0: 2, 1: 5, 2: -4})  # reduces to lead -1
    assert ech.pivots == {0: {0: 1, 1: 3}, 1: {1: 1, 2: 4}}
    assert all(type(v) is int for row in ech.pivots.values() for v in row.values())
    ech = Echelon(3)
    ech.add({1: 2, 2: 3})
    assert ech.pivots == {1: {1: 1, 2: Fraction(3, 2)}}
    assert all(type(v) is Fraction for v in ech.pivots[1].values())


@st.composite
def integer_systems(draw):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    dense = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                          min_size=m, max_size=m))
    x = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    return dense, x


def _eliminations(dense, x, wrap):
    """The elimination answers on dense's entries and y = dense @ x, each
    entry passed through wrap first."""
    m, n = len(dense), len(dense[0])
    A = from_entries(
        m, n, [(i, j, wrap(v)) for i, row in enumerate(dense) for j, v in enumerate(row)])
    y = {i: wrap(sum(a * b for a, b in zip(row, x))) for i, row in enumerate(dense)}
    y = {i: v for i, v in y.items() if v}
    try:
        solved = solve_columns(A, [y])
    except ValueError:  # rank-deficient
        solved = None
    return {"rank": matrix_rank(A), "nullspace": nullspace(A),
            "span": SpanBasis(A.rows, n).basis, "kernel": kernel_of_vectors(columns(A)),
            "solved": solved}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(integer_systems())
def test_int_and_fraction_entries_give_the_same_answers(system):
    # the int fast path against the same entries given as Fractions
    dense, x = system
    ints, fracs = _eliminations(dense, x, int), _eliminations(dense, x, Fraction)
    assert ints == fracs
    n = len(dense[0])
    for key in ("nullspace", "span", "kernel", "solved"):
        if ints[key] is None:
            continue
        as_mats = [SparseRationalMatrix(len(r[key]), n, [dict(v) for v in r[key]])
                   for r in (ints, fracs)]
        assert as_mats[0].to_triplets() == as_mats[1].to_triplets()
