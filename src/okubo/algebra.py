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
included, runs on one ``IdentityBatch`` on the field's exact array backend
(``_encoded_lie.arrays_for``): the product, the norm and its polar form are
each one ``bilinear`` map of the backend, and the trial elements come from
its ``random``, which draws the elements of the field's ``random_scalar``
coordinate by coordinate, from the same randrange calls in the same order.
The element path in the tests (``scalar_reference.ObjectBatch``, with its
``random_element``) is the oracle the reports are compared with.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _encoded_lie
from .errors import AlgebraMismatch, CoordinateCount, NoForm
from .fields import field_from_spec
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
        batch = IdentityBatch(self)
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
            batch.polar(P[i * dim + j], B[k]),
            batch.polar(B[i], P[j * dim + k]),
        )
        checks = [IdentityCheck.of("polar_associative_basis", ok,
                                   lambda r: (labels[i[r]], labels[j[r]], labels[k[r]]))]

        row, col = (a.ravel() for a in np.indices((dim, dim)))
        X, Y, XY = B[row], B[col], P[row * dim + col]

        def pair(r):
            return labels[row[r]], labels[col[r]]

        checks.append(IdentityCheck.of("norm_multiplicative_basis",
                                       batch.norm_multiplicative(X, Y, XY), pair))
        checks.append(IdentityCheck.of("xyx_identity_basis", batch.xyx_identity(X, Y, XY), pair))
        return checks

    def _composition_certificates(self, batch):
        """Complete checks of n(x*y) = n(x)n(y), quadratic in x and y (36 * 36
        cases), and (x*y)*x = n(x)y = x*(y*x), quadratic in x and linear in y
        (36 * 8 cases); see ``IdentityBatch.certificate_cases``."""
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

    def __repr__(self):
        return f"StructureConstantAlgebra(dim {self.dim} over {self.field})"


class IdentityBatch:
    """Row-wise identity arithmetic on batches of elements of one algebra, on
    the field's exact array backend ``ar`` (``_encoded_lie.arrays_for``).

    A batch is an (N, dim) array of coordinate rows, a batch of scalars an
    (N, 1) array.  The product, the norm and its polar form are each one
    ``ar.bilinear`` map, of the structure tensor and of the (dim, dim, 1)
    tensors of the form; ``equal`` and the identities return one bool per
    row.
    """

    def __init__(self, algebra):
        self.algebra = algebra
        self.ar = ar = _encoded_lie.arrays_for(algebra.field)
        self.multiply = ar.bilinear(_encoded_lie.tensor_of(ar, algebra))

    @functools.cached_property
    def _forms(self):
        """The bilinear maps of n(x) = sum_(i <= j) Q[i][j] x_i x_j, with
        Q[i][i] = n(b_i) and Q[i][j] = n(b_i, b_j) above the diagonal, and of
        the polar form n(x, y)."""
        form, dim, zero = self.algebra.form, self.algebra.dim, self.algebra.field.zero
        Q = [[[form.values[i] if i == j else form.polar[i, j] if i < j else zero]
              for j in range(dim)] for i in range(dim)]
        polar = [[[form.polar[i, j]] for j in range(dim)] for i in range(dim)]
        return self.ar.bilinear(self.ar.array(Q)), self.ar.bilinear(self.ar.array(polar))

    def norm(self, X):
        return self._forms[0](X, X)

    def polar(self, X, Y):
        return self._forms[1](X, Y)

    def rows(self, elements):
        return self.ar.array([x.coords for x in elements])

    def times(self, a, b):
        """Elementwise products of batches, broadcast: scalars times scalars,
        or rows times scalars."""
        return self.ar.mul(a, b)

    def equal(self, A, B):
        return self.ar.equal(A, B).all(axis=1)

    def coords_text(self, X, r):
        return tuple(map(str, self.ar.decode(X[r])))

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
        return P[xs], P[ys], lambda r: (names[xs[r]], names[ys[r]])

    def draw(self, rng, count, arity):
        """``arity`` batches of ``count`` random elements, drawn in turn from
        one stream: x, y, z of the first trial, then of the second, ...; the
        elements of ``random_scalar`` drawn coordinate by coordinate, from
        the same randrange calls."""
        draws = self.ar.random(rng, (count, arity, self.algebra.dim))
        return tuple(draws[:, n] for n in range(arity))

    def norm_multiplicative(self, X, Y, XY):
        """n(x*y) = n(x)n(y) on each row, given XY = X*Y."""
        return self.equal(self.norm(XY), self.times(self.norm(X), self.norm(Y)))

    def xyx_identity(self, X, Y, XY):
        """(x*y)*x = n(x)y = x*(y*x) on each row, given XY = X*Y."""
        nxy = self.times(Y, self.norm(X))
        left = self.equal(self.multiply(XY, X), nxy)
        return left & self.equal(self.multiply(X, self.multiply(Y, X)), nxy)

    def alternative_laws(self, X, Y):
        """x*(x*y) = (x*x)*y and (y*x)*x = y*(x*x) on each row."""
        XX = self.multiply(X, X)
        left = self.equal(self.multiply(X, self.multiply(X, Y)), self.multiply(XX, Y))
        return left & self.equal(self.multiply(self.multiply(Y, X), X), self.multiply(Y, XX))


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
