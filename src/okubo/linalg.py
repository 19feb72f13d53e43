"""Exact dense linear algebra on ``Scalar`` matrices over any of the
supported fields.

Gauss-Jordan with first-nonzero pivoting everywhere; all arithmetic stays in
the owning field, so ranks and echelon forms are exact.  Subspaces are always
stored in reduced row echelon form, which makes subspace equality structural.

Row reduction over small finite fields is routed through the integer-encoded
kernels in okubo._kernels; everything else runs the generic path on raw
scalar representations.  ``nullspace`` here is the one nullspace on
Scalars; the array backends have theirs in ``_encoded_lie``, and nothing
else in the package takes a kernel.  Its users are the idempotent
classifier and the derivations over Q and Q(w).
"""

from __future__ import annotations

from .errors import FieldMismatch, SingularMatrix


class Matrix:
    """Immutable dense matrix of Scalars over one field."""

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, m, n):
        z = field.zero
        return cls(field, [[z] * n for _ in range(m)])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def row(self, i):
        return self.rows[i]

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def __add__(self, other):
        return Matrix(
            self.field,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        return Matrix(
            self.field,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __neg__(self):
        return Matrix(self.field, [[-a for a in r] for r in self.rows])

    def __mul__(self, scalar):
        s = self.field.scalar(scalar)
        return Matrix(self.field, [[a * s for a in r] for r in self.rows])

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            if other.field != self.field:
                raise FieldMismatch("matrix product across fields")
            bt = other.transpose().rows
            zero = self.field.zero
            out = []
            for ra in self.rows:
                out.append(
                    [
                        sum((a * b for a, b in zip(ra, rb) if a and b), zero)
                        for rb in bt
                    ]
                )
            return Matrix(self.field, out)
        return NotImplemented

    def matvec(self, vec):
        zero = self.field.zero
        return tuple(
            sum((a * x for a, x in zip(r, vec) if a and x), zero) for r in self.rows
        )

    def transpose(self):
        return Matrix(self.field, list(zip(*self.rows))) if self.rows else self

    def to_vec(self):
        """Row-major flattening, used to treat linear maps as vectors."""
        return tuple(a for r in self.rows for a in r)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

    def __str__(self):
        return "\n".join("[" + ", ".join(str(a) for a in r) + "]" for r in self.rows)

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        field = self.field
        a = [list(r) for r in self.rows]
        n = len(a)
        det = field.one
        for c in range(n):
            piv = None
            for i in range(c, n):
                if a[i][c]:
                    piv = i
                    break
            if piv is None:
                return field.zero
            if piv != c:
                a[c], a[piv] = a[piv], a[c]
                det = -det
            det = det * a[c][c]
            inv = a[c][c].inverse()
            for i in range(c + 1, n):
                f = a[i][c]
                if f:
                    f = f * inv
                    for j in range(c, n):
                        if a[c][j]:
                            a[i][j] = a[i][j] - f * a[c][j]
        return det

    def inverse(self):
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        field = self.field
        ident = Matrix.identity(field, n)
        aug = Matrix(field, [r + ir for r, ir in zip(self.rows, ident.rows)])
        red, _, pivots = rref(aug)
        if list(pivots[:n]) != list(range(n)):
            raise SingularMatrix("matrix is not invertible")
        return Matrix(field, [r[n:] for r in red.rows])


def _rref_generic_reps(rows, field):
    """In-place RREF on a list of rep lists; returns pivot columns."""
    add, sub, mul, inv = field._add, field._sub, field._mul, field._inv
    zero = field.zero.rep
    one = field.one.rep
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if rows[i][c] != zero:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        if prow[c] != one:
            pinv = inv(prow[c])
            for j in range(c, n):
                if prow[j] != zero:
                    prow[j] = mul(pinv, prow[j])
        for i in range(m):
            if i != r:
                f = rows[i][c]
                if f != zero:
                    row = rows[i]
                    for j in range(c, n):
                        pj = prow[j]
                        if pj != zero:
                            row[j] = sub(row[j], mul(f, pj))
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def _rref_rows(rows_scalars, field):
    """RREF of raw scalar rows; returns (rows, rank, pivots).

    Dispatches to the encoded kernels for small finite fields.
    """
    m = len(rows_scalars)
    if m == 0:
        return [], 0, []
    from . import _kernels

    if _kernels.supports_field(field):
        arr = _kernels.encode_rows(field, rows_scalars)
        red, pivots = _kernels.rref_encoded(field, arr)
        out = _kernels.decode_rows(field, red)
        return out, len(pivots), list(pivots)
    from .fields import Scalar

    reps = [[s.rep for s in row] for row in rows_scalars]
    pivots = _rref_generic_reps(reps, field)
    out = [tuple(Scalar(field, rep) for rep in row) for row in reps]
    return out, len(pivots), pivots


def rref(matrix):
    """Reduced row echelon form: returns (Matrix, rank, pivot columns)."""
    rows, rank, pivots = _rref_rows([list(r) for r in matrix.rows], matrix.field)
    return Matrix(matrix.field, rows), rank, pivots


def nullspace(matrix):
    """The solution space of M v = 0, as a Subspace in RREF."""
    field = matrix.field
    n = matrix.ncols
    red, rank, pivots = rref(matrix)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    zero, one = field.zero, field.one
    for fc in free:
        v = [zero] * n
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red.rows[r][fc]
        basis.append(v)
    return Subspace.from_vectors(field, n, basis)


class Subspace:
    """A subspace of F^n stored by its RREF basis; equality is structural."""

    __slots__ = ("field", "ambient", "rows")

    def __init__(self, field, ambient, rref_rows):
        self.field = field
        self.ambient = ambient
        self.rows = tuple(tuple(r) for r in rref_rows)

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        vecs = [[field.scalar(x) for x in v] for v in vectors]
        if not vecs:
            return cls(field, ambient, [])
        rows, rank, _ = _rref_rows(vecs, field)
        return cls(field, ambient, [r for r in rows[:rank]])

    @property
    def dim(self):
        return len(self.rows)

    @property
    def basis(self):
        return self.rows

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient} over {self.field})"
