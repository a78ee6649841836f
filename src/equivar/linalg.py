"""Exact sparse linear algebra over the rationals.

Matrices are stored row-sparse as ``{column: entry}`` dicts with zero
entries absent.  An entry is a Python ``int`` unless a division made it a
``Fraction``: a matrix stores an ``int`` or a ``Fraction`` as it is and
converts anything else with ``Fraction(v)``, and ``Echelon`` divides a row
by its leading entry only when that entry is not 1 or -1.  Label maps and
signs therefore stay on integer arithmetic, and ints and Fractions compare
and hash alike, so results are the same whichever type holds a value.  All eliminations pick the leading column
deterministically and never touch floating point, so ranks and nullities
are exact integers and repeated runs are byte-for-byte reproducible.
A span is one type, ``Subspace``, whose ``SpanBasis`` constructor brings
any spanning family to its reduced form; a label map restricts to it.
"""

from __future__ import annotations

from collections import Counter

ZERO = 0
ONE = 1


class AssemblyError(AssertionError):
    """An internally assembled object failed one of its exact checks."""


def _entry(v):
    """A matrix entry: an int or a Fraction as it is, anything else as a Fraction."""
    if isinstance(v, int):
        return v
    from fractions import Fraction
    return v if isinstance(v, Fraction) else Fraction(v)


def vec_axpy(target: dict, coef, source: dict) -> None:
    """target += coef * source, dropping entries that cancel."""
    if not coef:
        return
    for k, v in source.items():
        w = target.get(k, ZERO) + coef * v
        if w:
            target[k] = w
        else:
            target.pop(k, None)


class SparseRationalMatrix:
    """A nrows x ncols matrix over Q, row-sparse; each entry is an int or a
    Fraction (see the module docstring)."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else [dict() for _ in range(nrows)]

    @classmethod
    def identity(cls, n: int) -> "SparseRationalMatrix":
        return cls(n, n, [{i: ONE} for i in range(n)])

    def set(self, i: int, j: int, v) -> None:
        v = _entry(v)
        if v:
            self.rows[i][j] = v
        else:
            self.rows[i].pop(j, None)

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
        out = SparseRationalMatrix(self.nrows, self.ncols, [dict(r) for r in self.rows])
        for i, row in enumerate(other.rows):
            vec_axpy(out.rows[i], ONE, row)
        return out

    def __sub__(self, other):
        return self + SparseRationalMatrix(other.nrows, other.ncols,
                                           [{j: -v for j, v in r.items()} for r in other.rows])

    def power(self, k: int) -> "SparseRationalMatrix":
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square matrix")
        out = SparseRationalMatrix.identity(self.nrows)
        for _ in range(k):
            out = out @ self
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
        """Matrix times a column vector given as {index: entry}, row by row."""
        out = {}
        for i, row in enumerate(self.rows):
            w = sum(v * vec[j] for j, v in row.items() if j in vec)
            if w:
                out[i] = w
        return out

    def to_triplets(self) -> list:
        """Sorted (row, col, numerator, denominator) coordinate form."""
        out = []
        for i, row in enumerate(self.rows):
            for j in sorted(row):
                v = row[j]
                out.append((i, j, v.numerator, v.denominator))
        return out

    def __repr__(self):
        return f"SparseRationalMatrix({self.nrows}x{self.ncols}, nnz={sum(map(len, self.rows))})"


class Echelon:
    """Incremental row-echelon basis.

    Rows are reduced on insertion against existing pivots; the leading entry
    of a stored row is its minimal column and is normalized to 1.  Call
    ``back_substitute`` once all rows are in to reach fully reduced form.
    The constructor adds a copy of each nonempty row of ``rows``.
    """

    def __init__(self, ncols: int, rows=()):
        self.ncols = ncols
        self.pivots: dict = {}  # pivot col -> row dict, leading coeff 1
        for row in rows:
            if row:
                self.add(row.copy())

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
        if lead == -ONE:
            for k in row:
                row[k] = -row[k]
        elif lead != ONE:
            from fractions import Fraction
            inv = Fraction(lead.denominator, lead.numerator)
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
    return Echelon(mat.ncols, mat.rows).rank


def nullspace(mat: SparseRationalMatrix) -> list:
    """Basis of {v : mat @ v = 0}, as dict-vectors in free-column form."""
    return Echelon(mat.ncols, mat.rows).kernel_basis()


def joint_kernel(blocks, ncols: int) -> list:
    """Basis of the vectors in Q^ncols that every block kills, in free-column
    form: the nullspace of the stacked blocks, the standard basis when there
    are none."""
    return nullspace(SparseRationalMatrix.vstack([SparseRationalMatrix(0, ncols), *blocks]))


def rank_of_vectors(vectors, ncols: int) -> int:
    """Rank of a finite family of dict-vectors in Q^ncols."""
    return Echelon(ncols, vectors).rank


def kernel_of_vectors(columns) -> list:
    """Kernel of the linear map sending basis vector t to columns[t].

    Returns coefficient vectors c (dicts over column positions) with
    sum_t c[t] * columns[t] = 0.
    """
    columns = list(columns)
    rows: dict = {}
    for t, col in enumerate(columns):
        for i, v in col.items():
            rows.setdefault(i, {})[t] = v
    # popped, so that each transposed row is freed once Echelon has copied it
    return Echelon(len(columns), (rows.pop(i) for i in sorted(rows))).kernel_basis()


class Subspace:
    """A span inside Q^ambient_dim, its basis in reduced form: ``free``
    maps, in basis order, a row r to k when ``basis[k]`` is 1 at r and every
    other basis vector vanishes there, so a member's coordinates are its
    entries at the free rows.  A kernel basis from ``nullspace`` or
    ``joint_kernel`` is in this form as it comes, and so are indicators of
    disjoint label sets.  A map acts on it as a partial label map of the
    ambient labels, the form of every action the package builds, and
    ``restrict`` gives its matrix on the subspace."""

    __slots__ = ("ambient_dim", "basis", "free")

    def __init__(self, basis, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self.basis = basis
        counts = Counter(k for v in basis for k in v)
        self.free: dict = {}
        for t, v in enumerate(basis):
            cands = [k for k, val in v.items() if val == ONE and counts[k] == 1]
            if not cands:
                raise AssemblyError("basis is not in free-column form")
            self.free[min(cands)] = t

    @property
    def dim(self) -> int:
        return len(self.basis)

    def residue(self, w: dict) -> dict:
        """w minus the member of the span that agrees with it at the free
        rows: linear in w, empty exactly when w is in the span."""
        out = dict(w)
        for r, x in w.items():
            t = self.free.get(r)
            if t is not None:
                vec_axpy(out, -x, self.basis[t])
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.free == other.free and self.basis == other.basis

    def restrict(self, cm) -> SparseRationalMatrix:
        """The matrix on this subspace of the partial label map cm of its
        ambient space: cm[t] is the label that t goes to, or None where t is
        killed.  Column k holds the coordinates of the image of basis vector
        k, read off that vector's support alone; raises AssemblyError when
        an image leaves this subspace."""
        if len(cm) != self.ambient_dim:
            raise ValueError(f"shape mismatch: a label map of {len(cm)} labels "
                             f"on {self.ambient_dim} coordinates")
        out = SparseRationalMatrix(self.dim, self.dim)
        for k, v in enumerate(self.basis):
            image: dict = {}
            for t, x in v.items():
                u = cm[t]
                if u is not None:
                    w = image.get(u, ZERO) + x
                    if w:
                        image[u] = w
                    else:
                        del image[u]
            if self.residue(image):
                raise AssemblyError("a vector leaves the subspace")
            for r, x in image.items():
                t = self.free.get(r)
                if t is not None:
                    out.rows[t][k] = x
        return out


class SpanBasis(Subspace):
    """The reduced row-echelon basis of the span of any family of
    dict-vectors, as a ``Subspace``: each basis vector's free row is its
    leading index, and the basis is sorted by it."""

    def __init__(self, vectors, ambient_dim: int):
        ech = Echelon(ambient_dim, vectors)
        ech.back_substitute()
        super().__init__([ech.pivots[c] for c in sorted(ech.pivots)], ambient_dim)
