"""Exact sparse linear algebra over the rationals.

Matrices are stored row-sparse as ``{column: Fraction}`` dicts with zero
entries absent.  All eliminations pick the leading column deterministically,
keep exact Fraction arithmetic throughout, and never touch floating point,
so ranks and nullities are exact integers and repeated runs are
byte-for-byte reproducible.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class AssemblyError(AssertionError):
    """An internally assembled object failed one of its exact checks."""


def vec_axpy(target: dict, coef: Fraction, source: dict) -> None:
    """target += coef * source, dropping entries that cancel."""
    if not coef:
        return
    for k, v in source.items():
        w = target.get(k, ZERO) + coef * v
        if w:
            target[k] = w
        else:
            target.pop(k, None)


def vec_scale(vec: dict, coef: Fraction) -> dict:
    if not coef:
        return {}
    return {k: coef * v for k, v in vec.items()}


def apply_columns(cols: list, vec: dict) -> dict:
    """A matrix times a column vector, given the matrix's ``columns()``: the
    cost is the nnz of the columns vec touches, not of the whole matrix."""
    out: dict = {}
    for j, w in vec.items():
        vec_axpy(out, w, cols[j])
    return out


class SparseRationalMatrix:
    """A nrows x ncols matrix over Q, row-sparse."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else [dict() for _ in range(nrows)]

    @classmethod
    def identity(cls, n: int) -> "SparseRationalMatrix":
        return cls(n, n, [{i: ONE} for i in range(n)])

    @classmethod
    def from_entries(cls, nrows, ncols, entries) -> "SparseRationalMatrix":
        """entries: iterable of (row, col, value)."""
        m = cls(nrows, ncols)
        for i, j, v in entries:
            m.add_to(i, j, Fraction(v))
        return m

    def set(self, i: int, j: int, v) -> None:
        if not isinstance(v, Fraction):
            v = Fraction(v)
        if v:
            self.rows[i][j] = v
        else:
            self.rows[i].pop(j, None)

    def add_to(self, i: int, j: int, v) -> None:
        w = self.rows[i].get(j, ZERO) + v
        if w:
            self.rows[i][j] = w
        else:
            self.rows[i].pop(j, None)

    def get(self, i: int, j: int) -> Fraction:
        return self.rows[i].get(j, ZERO)

    def copy(self) -> "SparseRationalMatrix":
        return SparseRationalMatrix(self.nrows, self.ncols, [dict(r) for r in self.rows])

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def is_zero(self) -> bool:
        return all(not r for r in self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseRationalMatrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.rows == other.rows

    def __matmul__(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.ncols} != {other.nrows}")
        out = SparseRationalMatrix(self.nrows, other.ncols)
        orows = other.rows
        for i, row in enumerate(self.rows):
            acc = out.rows[i]
            for k, v in row.items():
                vec_axpy(acc, v, orows[k])
        return out

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        out = self.copy()
        for i, row in enumerate(other.rows):
            vec_axpy(out.rows[i], ONE, row)
        return out

    def __sub__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        out = self.copy()
        for i, row in enumerate(other.rows):
            vec_axpy(out.rows[i], -ONE, row)
        return out

    def scale(self, coef) -> "SparseRationalMatrix":
        coef = Fraction(coef)
        return SparseRationalMatrix(self.nrows, self.ncols, [vec_scale(r, coef) for r in self.rows])

    def power(self, k: int) -> "SparseRationalMatrix":
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square matrix")
        out = SparseRationalMatrix.identity(self.nrows)
        for _ in range(k):
            out = out @ self
        return out

    def transpose(self) -> "SparseRationalMatrix":
        out = SparseRationalMatrix(self.ncols, self.nrows)
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                out.rows[j][i] = v
        return out

    @classmethod
    def vstack(cls, mats) -> "SparseRationalMatrix":
        mats = list(mats)
        if not mats:
            raise ValueError("empty stack")
        ncols = mats[0].ncols
        rows = []
        for m in mats:
            if m.ncols != ncols:
                raise ValueError("column count mismatch in vstack")
            rows.extend(dict(r) for r in m.rows)
        return cls(len(rows), ncols, rows)

    def apply(self, vec: dict) -> dict:
        """Matrix times a column vector given as {index: Fraction}."""
        out: dict = {}
        for i, row in enumerate(self.rows):
            s = ZERO
            if len(row) <= len(vec):
                for j, v in row.items():
                    w = vec.get(j)
                    if w is not None:
                        s += v * w
            else:
                for j, w in vec.items():
                    v = row.get(j)
                    if v is not None:
                        s += v * w
            if s:
                out[i] = s
        return out

    def column(self, j: int) -> dict:
        return {i: row[j] for i, row in enumerate(self.rows) if j in row}

    def columns(self) -> list:
        cols: list = [dict() for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                cols[j][i] = v
        return cols

    def to_dense(self) -> list:
        return [[self.rows[i].get(j, ZERO) for j in range(self.ncols)] for i in range(self.nrows)]

    def to_triplets(self) -> list:
        """Sorted (row, col, numerator, denominator) coordinate form."""
        out = []
        for i, row in enumerate(self.rows):
            for j in sorted(row):
                v = row[j]
                out.append((i, j, v.numerator, v.denominator))
        return out

    def __repr__(self):
        return f"SparseRationalMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


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


class Echelon:
    """Incremental row-echelon basis.

    Rows are reduced on insertion against existing pivots; the leading entry
    of a stored row is its minimal column and is normalized to 1.  Call
    ``back_substitute`` once all rows are in to reach fully reduced form.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict = {}  # pivot col -> row dict, leading coeff 1

    def reduce(self, row: dict) -> dict:
        """Reduce a (mutable) row against the stored pivots, leading-column-wise."""
        pivots = self.pivots
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                return row
            vec_axpy(row, -row[c], piv)
        return row

    def add(self, row: dict):
        """Insert a row; returns its pivot column, or None if dependent."""
        row = self.reduce(row)
        if not row:
            return None
        c = min(row)
        lead = row[c]
        if lead != ONE:
            inv = ONE / lead
            for k in row:
                row[k] *= inv
        self.pivots[c] = row
        return c

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def back_substitute(self) -> None:
        """Fully reduce every pivot row against all other pivots."""
        for c in sorted(self.pivots, reverse=True):
            row = self.pivots[c]
            for d in [d for d in row if d != c and d in self.pivots]:
                vec_axpy(row, -row[d], self.pivots[d])

    def kernel_basis(self) -> list:
        """Basis of the right kernel of the stacked rows (fully reduced first).

        Vector k (for free column f) has entry 1 at f, so the coordinates of
        any kernel element in this basis are just its values at free columns.
        """
        self.back_substitute()
        free = [j for j in range(self.ncols) if j not in self.pivots]
        vecs = [{f: ONE} for f in free]
        index_of_free = {f: t for t, f in enumerate(free)}
        for c, row in self.pivots.items():
            for j, v in row.items():
                if j != c:
                    vecs[index_of_free[j]][c] = -v
        return vecs


def matrix_rank(mat: SparseRationalMatrix) -> int:
    ech = Echelon(mat.ncols)
    for row in mat.rows:
        if row:
            ech.add(dict(row))
    return ech.rank


def nullspace(mat: SparseRationalMatrix) -> list:
    """Basis of {v : mat @ v = 0}, as dict-vectors in free-column form."""
    ech = Echelon(mat.ncols)
    for row in mat.rows:
        if row:
            ech.add(dict(row))
    return ech.kernel_basis()


def joint_kernel(blocks, ncols: int) -> list:
    """Basis of the vectors in Q^ncols that every block kills, in free-column
    form: the nullspace of the stacked blocks, the standard basis when there
    are none."""
    return nullspace(SparseRationalMatrix.vstack([SparseRationalMatrix(0, ncols), *blocks]))


def rank_of_vectors(vectors, ncols=None) -> int:
    """Rank of a finite family of dict-vectors."""
    vectors = list(vectors)
    if ncols is None:
        ncols = 1 + max((max(v) for v in vectors if v), default=-1)
    ech = Echelon(ncols)
    for v in vectors:
        if v:
            ech.add(dict(v))
    return ech.rank


def kernel_of_vectors(columns) -> list:
    """Kernel of the linear map sending basis vector t to columns[t].

    Returns coefficient vectors c (dicts over column positions) with
    sum_t c[t] * columns[t] = 0.
    """
    columns = list(columns)
    k = len(columns)
    rows: dict = {}
    for t, col in enumerate(columns):
        for i, v in col.items():
            rows.setdefault(i, {})[t] = v
    ech = Echelon(k)
    for i in sorted(rows):
        ech.add(rows[i])
    return ech.kernel_basis()


class SpanBasis:
    """Reduced basis of the span of a family of dict-vectors.

    After construction each basis vector has a distinct leading index with
    coefficient 1 and zeros at the other leading indices, so membership tests
    and coordinate extraction are a single sparse reduction.
    """

    def __init__(self, vectors, ambient_dim: int):
        self.ambient_dim = ambient_dim
        ech = Echelon(ambient_dim)
        for v in vectors:
            if v:
                ech.add(dict(v))
        ech.back_substitute()
        self.leads = sorted(ech.pivots)
        self.vectors = [ech.pivots[c] for c in self.leads]

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def residue(self, w: dict) -> dict:
        """w minus the member of the span that agrees with it at the leading
        indices: linear in w, empty exactly when w is in the span."""
        out = dict(w)
        for c, vec in zip(self.leads, self.vectors):
            if c in w:
                vec_axpy(out, -w[c], vec)
        return out

    def coords(self, w: dict) -> list:
        """Coordinates of w in this basis; raises ValueError if w is outside."""
        if self.residue(w):
            raise ValueError("vector is not in the span")
        return [w.get(c, ZERO) for c in self.leads]

    def contains(self, w: dict) -> bool:
        return not self.residue(w)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpanBasis):
            return NotImplemented
        return self.leads == other.leads and self.vectors == other.vectors


class Subspace:
    """The span of a kernel basis in free-column form (``nullspace``,
    ``joint_kernel``) inside Q^ambient_dim.

    ``B`` is the inclusion matrix, column k being basis vector k, and
    ``free[k]`` is the row where vector k has its defining 1 and every other
    vector vanishes, so a member's coordinates are its entries at those rows.
    """

    __slots__ = ("B", "free")

    def __init__(self, basis, ambient_dim: int):
        counts: dict = {}
        for v in basis:
            for k in v:
                counts[k] = counts.get(k, 0) + 1
        self.free = []
        for v in basis:
            cands = [k for k, val in v.items() if val == ONE and counts[k] == 1]
            if not cands:
                raise AssemblyError("kernel basis is not in free-column form")
            self.free.append(min(cands))
        self.B = SparseRationalMatrix(ambient_dim, len(basis))
        for col, v in enumerate(basis):
            for r, val in v.items():
                self.B.set(r, col, val)

    @property
    def dim(self) -> int:
        return self.B.ncols

    def coords(self, prod: SparseRationalMatrix) -> SparseRationalMatrix:
        """The matrix X with B @ X == prod, read off prod's free rows; raises
        AssemblyError when a column of prod leaves the subspace."""
        out = SparseRationalMatrix(self.dim, prod.ncols)
        for t, r in enumerate(self.free):
            for j, v in prod.rows[r].items():
                out.set(t, j, v)
        if (self.B @ out) != prod:
            raise AssemblyError("a vector leaves the subspace")
        return out

    def restrict(self, mat: SparseRationalMatrix) -> SparseRationalMatrix:
        """The action of mat on the subspace: the coordinates of mat @ B;
        raises AssemblyError when mat does not preserve the subspace."""
        return self.coords(mat @ self.B)


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
