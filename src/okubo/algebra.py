"""Structure-constant algebras with quadratic forms.

An algebra is a basis, a rank-3 multiplication tensor c[i][j][k] (meaning
b_i * b_j = sum_k c[i][j][k] b_k), an optional quadratic form and an optional
grading by Z3 x Z3.  Quadratic forms are stored as values-on-basis plus the
polar bilinear matrix, so every characteristic, including 2, is representable:

    q(sum a_i b_i) = sum a_i^2 q(b_i) + sum_{i<j} a_i a_j B[i][j]

Every map made from the product is one contraction of the sparse tensor:
the multiplication matrices L_x and R_x (x contracted into the first or the
second slot), and ``product_tensor(phi, psi)``, the tensor of the pulled-back
product x.y = phi(x)*psi(y).  Basis products b_i*b_j are tensor rows.  So
automorphism and derivation checks, twists and commutative centers are built
without element products; ``multiply`` is the element path they are tested
against.

The symmetric-composition checker proves the three defining identities.
Polar associativity n(x*y, z) = n(x, y*z) is trilinear, so the 512 basis
triples prove it.  The nonlinear identities n(x*y) = n(x)n(y) and
(x*y)*x = n(x)y = x*(y*x) are quadratic in each variable (linear in y for
the second), so they are proved by certificates: their values on the basis
and on all sums of two basis vectors.  Randomized element trials of all
three identities stay as a second route.  Every check, the basis ones
included, runs on one batch layer (``identity_batch``): exact integer arrays
over Q and Q(w) (``_IntegerBatch``), integer-encoded arrays over fields with
lookup tables (``_kernels.supports_field``), and elements over larger finite
fields (``_ObjectBatch``, also the oracle the other two are tested against).
All of them draw the trial elements from the same random stream in the same
order, so their reports are identical.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _kernels, _zw
from .errors import AlgebraMismatch, CoordinateCount, NoForm
from .fields import RationalOmegaField, field_from_spec
from .linalg import Matrix, Subspace, nullspace


class QuadraticForm:
    """A quadratic form given by basis values and its polar matrix."""

    __slots__ = ("values", "polar", "pairs")

    def __init__(self, values, polar):
        self.values = tuple(values)
        self.polar = polar
        n = len(self.values)
        if polar.nrows != n or polar.ncols != n:
            raise ValueError("polar matrix size does not match value count")
        for i in range(n):
            for j in range(i + 1, n):
                if polar[i, j] != polar[j, i]:
                    raise ValueError("polar matrix must be symmetric")
            if polar[i, i] != self.values[i] + self.values[i]:
                raise ValueError(f"polar diagonal B[{i}][{i}] must equal 2*q(b_{i})")
        #: the triples (i, j, B[i][j]) with i < j and B[i][j] != 0
        self.pairs = tuple(
            (i, j, polar[i, j]) for i in range(n) for j in range(i + 1, n) if polar[i, j]
        )

    def evaluate(self, coords):
        acc = self.polar.field.zero
        for ci, v in zip(coords, self.values):
            if ci and v:
                acc = acc + ci * ci * v
        for i, j, b in self.pairs:
            if coords[i] and coords[j]:
                acc = acc + coords[i] * coords[j] * b
        return acc

    def polar_eval(self, x, y):
        field = self.polar.field
        acc = field.zero
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if yj and self.polar[i, j]:
                    acc = acc + xi * yj * self.polar[i, j]
        return acc


class AlgebraElement:
    """A coordinate vector over an algebra's basis."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        if len(coords) != algebra.dim:
            raise CoordinateCount(f"expected {algebra.dim} coordinates, got {len(coords)}")
        self.algebra = algebra
        self.coords = tuple(coords)

    def _check(self, other):
        if not isinstance(other, AlgebraElement) or other.algebra is not self.algebra:
            raise AlgebraMismatch("elements belong to different algebras")

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return AlgebraElement(self.algebra, [-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.algebra.multiply(self, other)
        s = self.algebra.field.scalar(other)
        return AlgebraElement(self.algebra, [a * s for a in self.coords])

    def __rmul__(self, other):
        if isinstance(other, AlgebraElement):
            return NotImplemented
        s = self.algebra.field.scalar(other)
        return AlgebraElement(self.algebra, [s * a for a in self.coords])

    def norm(self):
        return self.algebra.norm(self)

    def is_zero(self):
        return not any(self.coords)

    def __bool__(self):
        return any(map(bool, self.coords))

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and other.algebra is self.algebra
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def __str__(self):
        parts = []
        for c, label in zip(self.coords, self.algebra.labels):
            if c:
                parts.append(f"({c})*{label}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{self}>"


class StructureConstantAlgebra:
    """A finite-dimensional algebra given by its multiplication tensor."""

    def __init__(self, field, dim, labels, tensor, form=None, grading=None):
        self.field = field
        self.dim = dim
        self.labels = tuple(labels)
        if len(self.labels) != dim:
            raise ValueError("label count must equal dimension")
        self.tensor = tuple(
            tuple(tuple(tensor[i][j][k] for k in range(dim)) for j in range(dim))
            for i in range(dim)
        )
        self.form = form
        self.grading = tuple(grading) if grading is not None else None
        # sparse view: list of (i, j, k, coefficient)
        self.entries = [
            (i, j, k, self.tensor[i][j][k])
            for i in range(dim)
            for j in range(dim)
            for k in range(dim)
            if self.tensor[i][j][k]
        ]

    # -- element construction --

    def element(self, coords):
        return AlgebraElement(self, [self.field.scalar(c) for c in coords])

    def basis_element(self, i):
        coords = [self.field.zero] * self.dim
        coords[i] = self.field.one
        return AlgebraElement(self, coords)

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def zero(self):
        return AlgebraElement(self, [self.field.zero] * self.dim)

    def random_element(self, rng):
        return AlgebraElement(self, [self.field.random_scalar(rng) for _ in range(self.dim)])

    # -- multiplication and the form --

    def multiply(self, x, y):
        if x.algebra is not self or y.algebra is not self:
            raise AlgebraMismatch("elements belong to a different algebra")
        zero = self.field.zero
        out = [zero] * self.dim
        xc, yc = x.coords, y.coords
        for i, j, k, c in self.entries:
            xi = xc[i]
            if not xi:
                continue
            yj = yc[j]
            if not yj:
                continue
            out[k] = out[k] + c * xi * yj
        return AlgebraElement(self, out)

    def norm(self, x):
        if self.form is None:
            raise NoForm("algebra carries no quadratic form")
        return self.form.evaluate(x.coords)

    def norm_polar(self, x, y):
        if self.form is None:
            raise NoForm("algebra carries no quadratic form")
        return self.form.polar_eval(x.coords, y.coords)

    # -- the contraction layer: every map built from the product --

    def left_mult_matrix(self, x):
        """Matrix of y -> x*y: M[k][j] = sum_i x_i c_ijk."""
        return self._mult_matrix(x, left=True)

    def right_mult_matrix(self, x):
        """Matrix of y -> y*x: M[k][i] = sum_j x_j c_ijk."""
        return self._mult_matrix(x, left=False)

    def _mult_matrix(self, x, left):
        if x.algebra is not self:
            raise AlgebraMismatch("element belongs to a different algebra")
        xc = x.coords
        rows = [[self.field.zero] * self.dim for _ in range(self.dim)]
        for i, j, k, c in self.entries:
            a, col = (xc[i], j) if left else (xc[j], i)
            if a:
                rows[k][col] = rows[k][col] + a * c
        return Matrix(self.field, rows)

    def product_tensor(self, phi, psi):
        """Structure tensor of x.y = phi(x)*psi(y): T[i][j] = phi(b_i)*psi(b_j),
        that is, T[i][j][k] = sum_ab phi[a][i] psi[b][j] c_abk."""
        dim = self.dim
        zero = self.field.zero
        out = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
        phi_rows = [[(i, v) for i, v in enumerate(row) if v] for row in phi.rows]
        psi_rows = [[(j, v) for j, v in enumerate(row) if v] for row in psi.rows]
        for a, b, k, c in self.entries:
            for i, u in phi_rows[a]:
                uc = u * c
                row = out[i]
                for j, v in psi_rows[b]:
                    row[j][k] = row[j][k] + uc * v
        return tuple(tuple(map(tuple, row)) for row in out)

    def preserves_product(self, phi):
        """True iff the map with matrix ``phi`` has phi(b_i*b_j) =
        phi(b_i)*phi(b_j) on all basis pairs: phi applied to the tensor rows
        equals ``product_tensor(phi, phi)``."""
        pulled = self.product_tensor(phi, phi)
        return all(
            phi.matvec(self.tensor[i][j]) == pulled[i][j]
            for i in range(self.dim)
            for j in range(self.dim)
        )

    # -- verification --

    def check_grading(self):
        """True iff every nonzero tensor entry respects degree addition mod 3."""
        if self.grading is None:
            raise ValueError("algebra carries no grading")
        for i, j, k, _ in self.entries:
            gi, gj, gk = self.grading[i], self.grading[j], self.grading[k]
            if ((gi[0] + gj[0]) % 3, (gi[1] + gj[1]) % 3) != (gk[0] % 3, gk[1] % 3):
                return False
        return True

    def commutative_center(self):
        """Solution space of u*b_j = b_j*u for all j, as a Subspace: the
        nullspace of the rows c_ijk - c_jik (row (j, k), column i)."""
        t, dim = self.tensor, self.dim
        rows = [
            [t[i][j][k] - t[j][i][k] for i in range(dim)]
            for j in range(dim)
            for k in range(dim)
        ]
        return nullspace(Matrix(self.field, rows))

    def check_symmetric_composition(self, trials=200, seed=0):
        """Verify the symmetric-composition identities; see CompositionReport."""
        import random

        if self.form is None:
            raise NoForm("symmetric composition needs a quadratic form")
        rng = random.Random(seed)
        batch = identity_batch(self)
        checks = self._basis_checks(batch)
        checks.extend(self._composition_certificates(batch))

        # randomized element-level trials: a second route, drawn x, y, z in
        # turn from one stream, so every kind of batch sees the same elements
        X, Y, Z = batch.draw(rng, trials, 3)
        XY = batch.multiply(X, Y)
        holds = {
            "norm_multiplicative": batch.norm_multiplicative(X, Y, XY),
            "xyx_identity": batch.xyx_identity(X, Y, XY),
            "polar_associative": batch.equal(
                batch.polar(XY, Z), batch.polar(X, batch.multiply(Y, Z))
            ),
        }
        for name, ok in holds.items():
            checks.append(IdentityCheck.of(f"{name}_random", ok,
                                           lambda r: batch.coords_text(X, r)))

        return CompositionReport(seed=seed, trials=trials, checks=checks)

    def _basis_checks(self, batch):
        """Polar associativity on the 512 basis triples, a complete proof since
        it is trilinear, and the multiplicativity and flip identities on the
        64 basis pairs; the products b_i*b_j are read as tensor rows."""
        dim, labels = self.dim, self.labels
        B = batch.rows(self.basis())
        P = batch.rows([AlgebraElement(self, self.tensor[i][j])
                        for i in range(dim) for j in range(dim)])
        i, j, k = (a.ravel() for a in np.indices((dim, dim, dim)))
        ok = batch.equal(
            batch.polar(batch.take(P, i * dim + j), batch.take(B, k)),
            batch.polar(batch.take(B, i), batch.take(P, j * dim + k)),
        )
        checks = [IdentityCheck.of("polar_associative_basis", ok,
                                   lambda r: (labels[i[r]], labels[j[r]], labels[k[r]]))]

        row, col = (a.ravel() for a in np.indices((dim, dim)))
        X, Y, XY = batch.take(B, row), batch.take(B, col), batch.take(P, row * dim + col)

        def pair(r):
            return labels[row[r]], labels[col[r]]

        checks.append(IdentityCheck.of("norm_multiplicative_basis",
                                       batch.norm_multiplicative(X, Y, XY), pair))
        checks.append(IdentityCheck.of("xyx_identity_basis", batch.xyx_identity(X, Y, XY), pair))
        return checks

    def _composition_certificates(self, batch):
        """Complete checks of n(x*y) = n(x)n(y), quadratic in x and y (36 * 36
        cases), and (x*y)*x = n(x)y = x*(y*x), quadratic in x and linear in y
        (36 * 8 cases); see ``_Batch.certificate_cases``."""
        X, Y, label = batch.certificate_cases()
        xyx = batch.xyx_identity(X, Y, batch.multiply(X, Y))
        checks = [IdentityCheck.of("xyx_identity_certificate", xyx, label)]
        X, Y, label = batch.certificate_cases(y_quadratic=True)
        nm = batch.norm_multiplicative(X, Y, batch.multiply(X, Y))
        checks.append(IdentityCheck.of("norm_multiplicative_certificate", nm, label))
        return checks

    # -- serialization --

    def to_json_dict(self):
        data = {
            "field": self.field.spec_string(),
            "dim": self.dim,
            "labels": list(self.labels),
            "entries": [[i, j, k, str(c)] for i, j, k, c in self.entries],
        }
        if self.form is not None:
            data["form"] = {
                "values": [str(v) for v in self.form.values],
                "polar": [[str(x) for x in row] for row in self.form.polar.rows],
            }
        if self.grading is not None:
            data["grading"] = [list(g) for g in self.grading]
        return data

    def to_json(self, indent=None):
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data):
        field = field_from_spec(data["field"])
        dim = data["dim"]
        zero = field.zero
        tensor = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j, k, c in data["entries"]:
            tensor[i][j][k] = field.parse(c)
        form = None
        if "form" in data:
            values = [field.parse(v) for v in data["form"]["values"]]
            polar = Matrix(field, [[field.parse(x) for x in row] for row in data["form"]["polar"]])
            form = QuadraticForm(values, polar)
        grading = None
        if "grading" in data:
            grading = [tuple(g) for g in data["grading"]]
        return cls(field, dim, data["labels"], tensor, form=form, grading=grading)

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))

    def same_tensor_as(self, other):
        """Entrywise tensor equality (labels and field must already agree)."""
        return self.tensor == other.tensor

    def __repr__(self):
        return f"StructureConstantAlgebra(dim {self.dim} over {self.field})"


def identity_batch(algebra):
    """Exact integer arrays over Q and Q(w), encoded arrays when the field has
    lookup tables, elements otherwise."""
    if algebra.field.characteristic == 0:
        return _IntegerBatch(algebra)
    if _kernels.supports_field(algebra.field):
        return _EncodedBatch(algebra)
    return _ObjectBatch(algebra)


class _Batch:
    """Row-wise identity arithmetic on a batch of elements of one algebra.

    Subclasses hold a batch in their own format and supply the primitives;
    ``equal`` and the identities return one bool per row.
    """

    def __init__(self, algebra):
        self.algebra = algebra

    @functools.cached_property
    def _certificate_points(self):
        """S = {e_i} + {e_i + e_j : i < j} as rows, basis first, and names."""
        alg = self.algebra
        basis = alg.basis()
        pairs = [(i, j) for i in range(alg.dim) for j in range(i + 1, alg.dim)]
        points = basis + [basis[i] + basis[j] for i, j in pairs]
        names = list(alg.labels) + [f"{alg.labels[i]}+{alg.labels[j]}" for i, j in pairs]
        return self.rows(points), names

    def certificate_cases(self, y_quadratic=False):
        """Rows X, Y and ``label(r)``, the names of row r's x and y: x runs
        over S, y over the basis (over S if quadratic in y).  A quadratic map
        Q vanishes iff it vanishes on S, since Q(e_i) and Q(e_i + e_j) -
        Q(e_i) - Q(e_j) are its coefficients, in every characteristic.
        """
        P, names = self._certificate_points
        ny = len(names) if y_quadratic else self.algebra.dim
        xs, ys = np.divmod(np.arange(len(names) * ny), ny)
        return self.take(P, xs), self.take(P, ys), lambda r: (names[xs[r]], names[ys[r]])

    def draw(self, rng, count, arity):
        """``arity`` batches of ``count`` random elements, drawn in turn from
        one stream: x, y, z of the first trial, then of the second, ..."""
        rand = self.algebra.random_element
        draws = [[rand(rng) for _ in range(arity)] for _ in range(count)]
        return tuple(self.rows([t[n] for t in draws]) for n in range(arity))

    def norm_multiplicative(self, X, Y, XY):
        """n(x*y) = n(x)n(y) on each row, given XY = X*Y."""
        return self.equal(self.norm(XY), self.times(self.norm(X), self.norm(Y)))

    def xyx_identity(self, X, Y, XY):
        """(x*y)*x = n(x)y = x*(y*x) on each row, given XY = X*Y."""
        nxy = self.scale(Y, self.norm(X))
        left = self.equal(self.multiply(XY, X), nxy)
        return left & self.equal(self.multiply(X, self.multiply(Y, X)), nxy)

    def alternative_laws(self, X, Y):
        """x*(x*y) = (x*x)*y and (y*x)*x = y*(x*x) on each row."""
        XX = self.multiply(X, X)
        left = self.equal(self.multiply(X, self.multiply(X, Y)), self.multiply(XX, Y))
        return left & self.equal(self.multiply(self.multiply(Y, X), X), self.multiply(Y, XX))


class _ObjectBatch(_Batch):
    """Lists of AlgebraElements and Scalars: exact arithmetic over any field."""

    def rows(self, elements):
        return list(elements)

    def take(self, batch, index):
        return [batch[i] for i in index]

    def multiply(self, X, Y):
        return [self.algebra.multiply(x, y) for x, y in zip(X, Y)]

    def norm(self, X):
        return [self.algebra.norm(x) for x in X]

    def polar(self, X, Y):
        return [self.algebra.norm_polar(x, y) for x, y in zip(X, Y)]

    def scale(self, X, s):
        return [x * c for x, c in zip(X, s)]

    def times(self, a, b):
        return [u * v for u, v in zip(a, b)]

    def equal(self, A, B):
        return np.array([u == v for u, v in zip(A, B)], dtype=bool)

    def coords_text(self, X, r):
        return tuple(map(str, X[r].coords))


class _EncodedBatch(_Batch):
    """Integer-encoded arrays: coordinate rows (N, dim) and scalars (N,),
    computed through the field's lookup tables in ``_kernels``."""

    def __init__(self, algebra):
        super().__init__(algebra)
        self.field = algebra.field
        self.tables = _kernels.tables_for(algebra.field)

    def rows(self, elements):
        return _kernels.encode_rows(self.field, [x.coords for x in elements])

    def take(self, batch, index):
        return batch[index]

    def draw(self, rng, count, arity):
        # a finite field's random_scalar is one randrange(q) whose value is
        # the encoded element, so these are the elements _ObjectBatch draws
        dim = self.algebra.dim
        draws = _kernels.random_coord_batch(self.field, rng, arity * count, dim)
        draws = draws.reshape(count, arity, dim)
        return tuple(draws[:, n] for n in range(arity))

    def multiply(self, X, Y):
        return _kernels.batch_multiply(self.field, self.algebra.entries, X, Y)

    def norm(self, X):
        return _kernels.batch_quadratic_form(self.field, self.algebra.form, X)

    def polar(self, X, Y):
        return _kernels.batch_polar_form(self.field, self.algebra.form, X, Y)

    def scale(self, X, s):
        return self.tables.mul[s[:, None], X]

    def times(self, a, b):
        return self.tables.mul[a, b]

    def equal(self, A, B):
        same = A == B
        return same.all(axis=1) if same.ndim == 2 else same

    def coords_text(self, X, r):
        return tuple(str(self.tables.elements[c]) for c in X[r])


class _IntegerBatch(_Batch):
    """Exact arrays over Q and Q(w) with no gcd anywhere.

    A batch is a triple (a, b, d): the numerators a + b*w (w^2 = -1 - w) as
    numpy object arrays of Python ints, of shape (N, dim) for coordinate rows
    or (N,) for scalars, and one positive integer denominator per row in d.
    Q is the case b = 0.  Python ints never overflow, so nothing is
    truncated.  The tensor and the form are each scaled once by their common
    denominator; rows are compared by cross-multiplying with the
    denominators.  The Z[w] arithmetic is ``_zw``'s, which the derivation
    analysis and the sl3 model share.
    """

    def __init__(self, algebra):
        super().__init__(algebra)
        self.field = algebra.field
        coeffs = {(i, j, k): c for i, j, k, c in algebra.entries}
        self.tensor_den = _zw.common_denominator(coeffs.values())
        # the entries grouped by (i, j), so each column x_i y_j is formed once
        self.products = {}
        for (i, j, k), c in _zw.numerators(coeffs, self.tensor_den).items():
            self.products.setdefault((i, j), []).append((k, c))

    @functools.cached_property
    def _form_terms(self):
        """(den, quadratic terms, polar terms): the numerators over den of the
        coefficients of n(x) (pairs i <= j) and of n(x, y) (all pairs)."""
        form, dim = self.algebra.form, self.algebra.dim
        polar = {(i, j): form.polar[i, j] for i in range(dim) for j in range(dim)}
        quad = {(i, j): form.values[i] if i == j else c for (i, j), c in polar.items() if i <= j}
        den = _zw.common_denominator([*quad.values(), *polar.values()])
        return den, _zw.numerators(quad, den), _zw.numerators(polar, den)

    def draw(self, rng, count, arity):
        """The elements ``_Batch.draw`` draws, from the same randrange calls in
        the same order, without building Scalars: a coordinate of Q is
        numerator then denominator, one of Q(w) is denominator, then a, then
        b.  The rows equal ``rows`` of those elements up to the reduction of
        each coordinate."""
        rand, dim = rng.randrange, self.algebra.dim

        def omega_coordinate():
            d = rand(1, 8)
            return rand(-9, 10), rand(-9, 10), d

        def rational_coordinate():
            return rand(-9, 10), 0, rand(1, 8)

        coordinate = (omega_coordinate if isinstance(self.field, RationalOmegaField)
                      else rational_coordinate)
        draws = [coordinate() for _ in range(count * arity * dim)]
        draws = np.array(draws, dtype=np.int64).reshape(count, arity, dim, 3)
        a, b, d = draws.transpose(3, 1, 0, 2)  # each (arity, count, dim)
        den = np.lcm.reduce(d, axis=2)
        a, b = a * (den[..., None] // d), b * (den[..., None] // d)
        return tuple((a[n].astype(object), b[n].astype(object), den[n].astype(object))
                     for n in range(arity))

    def rows(self, elements):
        reps = [[_zw.rep(c) for c in x.coords] for x in elements]
        dens = [math.lcm(*(d for *_, d in row)) for row in reps]
        scaled = [[(a * (m // d), b * (m // d)) for a, b, d in row] for row, m in zip(reps, dens)]
        ab = np.array(scaled, dtype=object).reshape(len(reps), self.algebra.dim, 2)
        return ab[..., 0], ab[..., 1], np.array(dens, dtype=object)

    def take(self, batch, index):
        return tuple(part[index] for part in batch)

    def multiply(self, X, Y):
        (xa, xb, xd), (ya, yb, yd) = X, Y
        za, zb = np.zeros(xa.shape, dtype=object), np.zeros(xa.shape, dtype=object)
        for (i, j), terms in self.products.items():
            pa, pb = _zw.mul(xa[:, i], xb[:, i], ya[:, j], yb[:, j])
            for k, (ca, cb) in terms:
                ta, tb = _zw.mul(pa, pb, ca, cb)
                za[:, k] += ta
                zb[:, k] += tb
        return za, zb, xd * yd * self.tensor_den

    def norm(self, X):
        den, quad, _ = self._form_terms
        xa, xb, xd = X
        return (*self._form_sum(quad, xa, xb, xa, xb), xd * xd * den)

    def polar(self, X, Y):
        den, _, polar = self._form_terms
        (xa, xb, xd), (ya, yb, yd) = X, Y
        return (*self._form_sum(polar, xa, xb, ya, yb), xd * yd * den)

    @staticmethod
    def _form_sum(terms, xa, xb, ya, yb):
        """Numerators of sum c_ij x_i y_j over the scaled terms."""
        na, nb = np.zeros(len(xa), dtype=object), np.zeros(len(xa), dtype=object)
        for (i, j), (ca, cb) in terms.items():
            pa, pb = _zw.mul(xa[:, i], xb[:, i], ya[:, j], yb[:, j])
            ta, tb = _zw.mul(pa, pb, ca, cb)
            na += ta
            nb += tb
        return na, nb

    def scale(self, X, s):
        (xa, xb, xd), (sa, sb, sd) = X, s
        return (*_zw.mul(xa, xb, sa[:, None], sb[:, None]), xd * sd)

    def times(self, s, t):
        (sa, sb, sd), (ta, tb, td) = s, t
        return (*_zw.mul(sa, sb, ta, tb), sd * td)

    def equal(self, A, B):
        (aa, ab, ad), (ba, bb, bd) = A, B
        if aa.ndim == 2:
            ad, bd = ad[:, None], bd[:, None]
        same = (aa * bd == ba * ad) & (ab * bd == bb * ad)
        return same.all(axis=1) if same.ndim == 2 else same

    def coords_text(self, X, r):
        a, b, d = X
        field = self.field
        text = []
        for u, v in zip(a[r], b[r]):
            s = field.from_int(u)
            if v:  # only Q(w) rows have a w-part
                s = s + field.omega * v
            text.append(str(s / d[r]))
        return tuple(text)


@dataclass(eq=False)
class IdentityCheck:
    """One identity checked row by row: ``verdicts`` holds one bool per case
    and ``failures`` the witnesses of the first three failed cases."""

    name: str
    verdicts: np.ndarray
    failures: list

    @classmethod
    def of(cls, name, verdicts, witness):
        """The check with these verdicts; ``witness(r)`` names case r."""
        return cls(name, verdicts, [witness(r) for r in np.flatnonzero(~verdicts)[:3]])

    @property
    def cases(self):
        return self.verdicts.size

    @property
    def passed(self):
        return not self.failures

    def summary(self):
        return {
            "name": self.name,
            "cases": self.cases,
            "passed": self.passed,
            "witnesses": [list(map(str, w)) for w in self.failures],
        }


@dataclass
class CompositionReport:
    seed: int
    trials: int
    checks: list = dc_field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def summary(self):
        return {
            "seed": self.seed,
            "trials": self.trials,
            "passed": self.passed,
            "checks": [c.summary() for c in self.checks],
        }
