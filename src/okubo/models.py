"""The split Okubo algebra via its three models, and the maps between them.

Model 1 (any field): the combinatorial multiplication table on the eight
basis vectors x(i,j), i,j in {-1,0,1}, (i,j) != (0,0).  The product of
x(i,j) and x(k,l) is 0 when (i+k, j+l) = (0,0) mod 3, and otherwise
(+/-)x(i+k, j+l) with the sign decided by il - jk mod 3 (0 -> +, 1 -> zero,
2 -> -).  The norm is hyperbolic: each x(i,j) is isotropic and pairs to 1
with x(-i,-j).

Model 2 (characteristic != 3, needs a cube root of unity w): trace-zero
3x3 matrices with

    u * v = w uv - w^2 vu - ((w - w^2)/3) tr(uv) 1,    n(u) = sr(u),

where sr is the degree-2 coefficient of the characteristic polynomial.  On
the basis w^(ij)/(w - w^2) x^i y^j built from the Pauli pair x, y the
structure constants coincide with model 1 exactly.

Model 3 (characteristic 3): the span of the eight nonconstant monomials in
F[x,y] = F[X,Y]/(X^3-1, Y^3-1) under the product x^i y^j <> x^k y^l =
(1 - (il - jk)) x^(i+k) y^(j+l), split into its constant part (the polar
form) and its nonconstant part (the product).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import _encoded_lie
from .algebra import AlgebraElement, QuadraticForm, StructureConstantAlgebra
from .errors import BadCharacteristic, NoCubeRoot
from .fields import cube_root_of_unity
from .linalg import CoordinateSolver, Matrix

#: basis order fixed by the multiplication table ("row order")
OKUBO_INDICES = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (-1, 1), (1, -1))
OKUBO_LABELS = tuple(f"x({i},{j})" for i, j in OKUBO_INDICES)
#: dual pairs of the hyperbolic norm: x(i,j) pairs with x(-i,-j)
OKUBO_PAIRS = ((0, 1), (2, 3), (4, 5), (6, 7))

_POSITION = {ij: n for n, ij in enumerate(OKUBO_INDICES)}


def _signed_index(i, j):
    """Map exponents mod 3 into the {-1, 0, 1} labelling."""
    i %= 3
    j %= 3
    return (i if i < 2 else i - 3, j if j < 2 else j - 3)


def okubo_product_rule(a, b):
    """Structure constant of basis product a*b: (target index, sign) or None."""
    i, j = OKUBO_INDICES[a]
    k, l = OKUBO_INDICES[b]
    target = _signed_index(i + k, j + l)
    if target == (0, 0):
        return None
    delta = (i * l - j * k) % 3
    if delta == 1:
        return None
    return _POSITION[target], 1 if delta == 0 else -1


def build_split_okubo(field):
    """The split Okubo algebra over any field, with norm and Z3xZ3 grading."""
    zero, one = field.zero, field.one
    dim = 8
    tensor = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            rule = okubo_product_rule(a, b)
            if rule is not None:
                k, sign = rule
                tensor[a][b][k] = one if sign == 1 else -one
    polar_rows = [[zero] * dim for _ in range(dim)]
    for a, b in OKUBO_PAIRS:
        polar_rows[a][b] = one
        polar_rows[b][a] = one
    form = QuadraticForm([zero] * dim, Matrix(field, polar_rows))
    grading = [(i % 3, j % 3) for i, j in OKUBO_INDICES]
    return StructureConstantAlgebra(
        field, dim, OKUBO_LABELS, tensor, form=form, grading=grading
    )


# ---------------------------------------------------------------------------
# model 2: trace-zero 3x3 matrices (characteristic != 3)
# ---------------------------------------------------------------------------


def pauli_matrices(field):
    """The order-3 Pauli pair: x = diag(1, w, w^2), y the 3-cycle matrix."""
    w = cube_root_of_unity(field)
    if w is None:
        raise NoCubeRoot(f"{field} has no primitive cube root of unity")
    zero, one = field.zero, field.one
    x = Matrix(field, [[one, zero, zero], [zero, w, zero], [zero, zero, w * w]])
    y = Matrix(field, [[zero, zero, one], [one, zero, zero], [zero, one, zero]])
    return x, y, w


def _matrix_power_mod3(m, e, field):
    e %= 3
    if e == 0:
        return Matrix.identity(field, 3)
    if e == 1:
        return m
    return m @ m


class Sl3Model:
    """The trace-zero matrix model, with the label basis frozen to model 1.

    The 64 products of basis matrices, their coordinates, the norms and
    polar values of the basis and the 64 checks of (u*v)*u = sr(u)v are
    computed as stacked arrays (``_products_on_arrays``) on the field's
    exact array backend (``_encoded_lie.arrays_for``: lookup tables,
    coordinates mod p beyond them, or Z[w] numerators over Q and Q(w)).  The
    tests compare them with the same formulas and ``coords_of`` on
    ``Matrix`` objects.
    """

    def __init__(self, field):
        if field.characteristic == 3:
            raise BadCharacteristic("the matrix model needs characteristic != 3")
        x, y, omega = pauli_matrices(field)
        self.field = field
        self.omega = omega
        scale = (omega - omega * omega).inverse()
        basis = []
        for i, j in OKUBO_INDICES:
            coef = (omega ** ((i * j) % 3)) * scale
            basis.append(coef * (_matrix_power_mod3(x, i, field) @ _matrix_power_mod3(y, j, field)))
        self.basis_matrices = basis
        self._solver = CoordinateSolver(field, [m.to_vec() for m in basis])
        self._trace_coef = (omega - omega * omega) * field.from_int(3).inverse()
        ar = _encoded_lie.arrays_for(field)
        self.algebra = self._algebra_from(*self._products_on_arrays(ar))

    def coords_of(self, m):
        """Coordinates of a trace-zero matrix in the frozen basis."""
        coords = self._solver.solve(m.to_vec())
        if coords is None:
            raise ValueError("matrix is not in the span of the model basis")
        return coords

    def matrix_of(self, coords):
        if isinstance(coords, AlgebraElement):
            coords = coords.coords
        acc = Matrix.zeros(self.field, 3, 3)
        for c, m in zip(coords, self.basis_matrices):
            if c:
                acc = acc + c * m
        return acc

    def _products_on_arrays(self, ar):
        """(tensor, norms, polar matrix) of the basis on the array backend
        ``ar``, each a few stacked products, after the 64 checks of
        (u*v)*u = sr(u)v, which run on the products before their coordinates
        are read.

        Coordinates: the RREF of [B | I] is [R | T] with R = T B, so a vector
        v of the span has the coordinates v[pivots] T; each is checked by
        recombination.
        """
        field, basis = self.field, self.basis_matrices
        n, side = len(basis), basis[0].nrows
        B = ar.array([m.rows for m in basis])
        products, traces = self._star_on_arrays(ar, B[:, None], B[None])
        norms = _sr_on_arrays(ar, B)
        lhs, _ = self._star_on_arrays(ar, products, B[:, None])
        if not ar.equal(lhs, ar.mul(norms[:, None, None, None], B[None])).all():
            raise AssertionError("(u*v)*u = sr(u)v fails on the model basis")
        unit = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
        red, pivots = ar.rref(ar.array([list(m.to_vec()) + u for m, u in zip(basis, unit)]))
        V = products.reshape(n * n, side * side)
        coords = ar.matmul(V[:, list(pivots)], red[:, side * side:])
        if not ar.equal(ar.matmul(coords, B.reshape(n, side * side)), V).all():
            raise ValueError("matrix is not in the span of the model basis")
        # the polar form sr(a, b) = tr(a) tr(b) - tr(ab)
        tr = _trace_on_arrays(ar, B)
        polar = ar.sub(ar.mul(tr[:, None], tr[None]), traces)
        return ar.decode(coords.reshape(n, n, n)), ar.decode(norms), ar.decode(polar)

    def _star_on_arrays(self, ar, X, Y):
        """The model product w XY - w^2 YX - ((w-w^2)/3) tr(XY) 1 on stacks of
        3x3 arrays, broadcast, and the traces tr(XY)."""
        w = self.omega
        XY, YX = ar.matmul(X, Y), ar.matmul(Y, X)
        tr = _trace_on_arrays(ar, XY)
        scalar = ar.mul(ar.array(self._trace_coef), tr)
        ident = ar.array(Matrix.identity(self.field, 3).rows)
        out = ar.sub(ar.mul(ar.array(w), XY), ar.mul(ar.array(w * w), YX))
        return ar.sub(out, ar.mul(scalar[..., None, None], ident)), tr

    def _algebra_from(self, tensor, values, polar):
        grading = [(i % 3, j % 3) for i, j in OKUBO_INDICES]
        return StructureConstantAlgebra(
            self.field, len(values), OKUBO_LABELS, tensor,
            form=QuadraticForm(values, Matrix(self.field, polar)), grading=grading,
        )


def _trace_on_arrays(ar, M):
    """The traces of a stack (..., 3, 3) of arrays."""
    return ar.add(ar.add(M[..., 0, 0], M[..., 1, 1]), M[..., 2, 2])


def _sr_on_arrays(ar, M):
    """The norm sr of a stack (..., 3, 3) of arrays: the sum of the principal
    2x2 minors."""
    def minor(p, q):
        return ar.sub(ar.mul(M[..., p, p], M[..., q, q]), ar.mul(M[..., p, q], M[..., q, p]))

    return ar.add(ar.add(minor(0, 1), minor(0, 2)), minor(1, 2))


def build_sl3_model(field):
    """The matrix model over a characteristic != 3 field containing omega."""
    return Sl3Model(field)


@dataclass
class ModelIsomorphismReport:
    model: str
    field_spec: str
    products_checked: int = 0
    product_mismatches: list = dc_field(default_factory=list)
    polar_checked: int = 0
    polar_mismatches: list = dc_field(default_factory=list)
    norms_checked: int = 0
    norm_mismatches: list = dc_field(default_factory=list)
    grading_ok: bool = True

    @property
    def passed(self):
        return (
            not self.product_mismatches
            and not self.polar_mismatches
            and not self.norm_mismatches
            and self.grading_ok
        )

    def summary(self):
        return {
            "model": self.model,
            "field": self.field_spec,
            "products_checked": self.products_checked,
            "product_mismatches": self.product_mismatches,
            "polar_checked": self.polar_checked,
            "polar_mismatches": self.polar_mismatches,
            "norms_checked": self.norms_checked,
            "norm_mismatches": self.norm_mismatches,
            "grading_ok": self.grading_ok,
            "passed": self.passed,
        }


def _compare_with_split(model_algebra, split, model_name):
    report = ModelIsomorphismReport(model=model_name, field_spec=split.field.spec_string())
    dim = split.dim
    for a in range(dim):
        for b in range(dim):
            report.products_checked += 1
            if model_algebra.tensor[a][b] != split.tensor[a][b]:
                report.product_mismatches.append(
                    [split.labels[a], split.labels[b]]
                )
            report.polar_checked += 1
            if model_algebra.form.polar[a, b] != split.form.polar[a, b]:
                report.polar_mismatches.append([split.labels[a], split.labels[b]])
    for a in range(dim):
        report.norms_checked += 1
        if model_algebra.form.values[a] != split.form.values[a]:
            report.norm_mismatches.append([split.labels[a]])
    report.grading_ok = (
        model_algebra.grading == split.grading and model_algebra.check_grading()
    )
    return report


def model_isomorphism_char_not3(field):
    """Build the matrix model and verify it transports model 1 exactly.

    Returns (model, report): the label map is the identity because the model
    basis is frozen to the labels, so transport equals tensor/form equality.
    """
    model = build_sl3_model(field)
    split = build_split_okubo(field)
    report = _compare_with_split(model.algebra, split, "sl3")
    return model, report


# ---------------------------------------------------------------------------
# model 3: truncated polynomials (characteristic 3)
# ---------------------------------------------------------------------------


class TruncatedPoly:
    """An element of F[x,y] = F[X,Y]/(X^3-1, Y^3-1), nine coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(tuple(row) for row in coeffs)  # coeffs[i][j] of x^i y^j

    @classmethod
    def zero(cls, field):
        z = field.zero
        return cls(field, [[z] * 3 for _ in range(3)])

    @classmethod
    def one(cls, field):
        p = cls.zero(field)
        rows = [list(r) for r in p.coeffs]
        rows[0][0] = field.one
        return cls(field, rows)

    @classmethod
    def monomial(cls, field, i, j, coef=None):
        rows = [[field.zero] * 3 for _ in range(3)]
        rows[i % 3][j % 3] = coef if coef is not None else field.one
        return cls(field, rows)

    def coefficient(self, i, j):
        return self.coeffs[i % 3][j % 3]

    def __add__(self, other):
        return TruncatedPoly(
            self.field,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.coeffs, other.coeffs)],
        )

    def __sub__(self, other):
        return TruncatedPoly(
            self.field,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.coeffs, other.coeffs)],
        )

    def __neg__(self):
        return TruncatedPoly(self.field, [[-a for a in r] for r in self.coeffs])

    def scale(self, s):
        return TruncatedPoly(self.field, [[s * a for a in r] for r in self.coeffs])

    def __mul__(self, other):
        """The commutative truncated product (x^3 = y^3 = 1)."""
        out = [[self.field.zero] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                a = self.coeffs[i][j]
                if not a:
                    continue
                for k in range(3):
                    for l in range(3):
                        b = other.coeffs[k][l]
                        if b:
                            out[(i + k) % 3][(j + l) % 3] = (
                                out[(i + k) % 3][(j + l) % 3] + a * b
                            )
        return TruncatedPoly(self.field, out)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __str__(self):
        parts = []
        for i in range(3):
            for j in range(3):
                c = self.coeffs[i][j]
                if c:
                    mono = f"x^{i}y^{j}" if (i or j) else "1"
                    parts.append(f"({c})*{mono}")
        return " + ".join(parts) if parts else "0"


def _require_char3(field):
    if field.characteristic != 3:
        raise BadCharacteristic(
            f"operation is defined here only in characteristic 3, not over {field}"
        )


def diamond_truncated(f, g):
    """The monomial rule x^i y^j <> x^k y^l = (1 - (il - jk)) x^(i+k) y^(j+l)."""
    _require_char3(f.field)
    field = f.field
    out = [[field.zero] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            a = f.coeffs[i][j]
            if not a:
                continue
            for k in range(3):
                for l in range(3):
                    b = g.coeffs[k][l]
                    if not b:
                        continue
                    coef = field.from_int(1 - (i * l - j * k))
                    if coef:
                        out[(i + k) % 3][(j + l) % 3] = (
                            out[(i + k) % 3][(j + l) % 3] + coef * a * b
                        )
    return TruncatedPoly(field, out)


#: monomial exponents (mod 3) matching the label order of OKUBO_INDICES
CHAR3_MONOMIALS = tuple((i % 3, j % 3) for i, j in OKUBO_INDICES)


class Char3Model:
    """The truncated-polynomial model and its match with model 1."""

    def __init__(self, field):
        _require_char3(field)
        self.field = field
        self.monomials = [
            TruncatedPoly.monomial(field, i, j) for i, j in CHAR3_MONOMIALS
        ]
        dim = 8
        tensor = []
        polar_rows = []
        for a in range(dim):
            trow = []
            prow = []
            for b in range(dim):
                d = diamond_truncated(self.monomials[a], self.monomials[b])
                scalar, coords = self._split(d)
                trow.append(coords)
                prow.append(scalar)
            tensor.append(trow)
            polar_rows.append(prow)
        half_inv = field.from_int(2).inverse()
        values = [polar_rows[i][i] * half_inv for i in range(dim)]
        polar = Matrix(field, polar_rows)
        grading = [(i % 3, j % 3) for i, j in OKUBO_INDICES]
        self.algebra = StructureConstantAlgebra(
            field, dim, OKUBO_LABELS, tensor,
            form=QuadraticForm(values, polar), grading=grading,
        )

    def _split(self, poly):
        """Split a truncated polynomial into (constant coefficient, model coords)."""
        scalar = poly.coefficient(0, 0)
        coords = [poly.coefficient(i, j) for i, j in CHAR3_MONOMIALS]
        return scalar, coords


def build_char3_model(field):
    """Build model 3 and verify it coincides with model 1 exactly."""
    model = Char3Model(field)
    split = build_split_okubo(field)
    report = _compare_with_split(model.algebra, split, "truncated")
    return model, report


def distinguished_idempotent(algebra):
    """The sum of all eight basis vectors; an idempotent only in characteristic 3."""
    _require_char3(algebra.field)
    e = algebra.element([algebra.field.one] * algebra.dim)
    if algebra.multiply(e, e) != e:
        raise AssertionError("distinguished element failed to be idempotent")
    return e
