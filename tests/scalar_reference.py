"""The reference for the array pipeline: the Leibniz system, the derivation
analysis, the MeatAxe and the sl3 model products on ``Scalar`` matrices, with the
characteristic polynomial, the sl3 norm and product on ``Matrix`` objects,
the truncated-polynomial product by partial derivatives, the irreducible
polynomials of degree <= 4, the identity checks on elements
(``ObjectBatch``) and the table matrix product one step of the contraction
at a time (``batch_matmul_reference``) that the tests compare the package
with.

The package runs all of these on exact arrays (``okubo._encoded_lie``, one
code path for three backends); the tests compare every stage with the
functions here, which share no arithmetic with the arrays beyond the
``Scalar`` field operations.  The test-only paper checks built on them live
here too: the Block bracket of the commutator algebra, the bracket of the
inner derivations, the grading of Der(O) in characteristic 3 and the
para-Hurwitz algebra of a unital algebra, with helpers on ``Matrix``
objects and polynomials that only the tests use.

Subspaces are ``linalg.Subspace`` objects; the operations on them that only
this module needs (sums, intersections, membership, coordinates and the
spin of a vector under maps) are functions below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from okubo import _kernels, polys
from okubo.algebra import IdentityBatch, StructureConstantAlgebra
from okubo.errors import BadCharacteristic, Inconclusive, InfiniteField, NotClosed, OkuboError
from okubo.liealg import DerivationAnalysis
from okubo.linalg import Matrix, Subspace, nullspace, rref
from okubo.models import TruncatedPoly

# ---------------------------------------------------------------------------
# helpers on Matrix objects, polynomials and algebras
# ---------------------------------------------------------------------------


class AmbientMismatch(OkuboError):
    pass


def from_rows(field, rows):
    """A Matrix from rows of ints or Scalars."""
    return Matrix(field, [[field.scalar(x) for x in row] for row in rows])


def from_vec(field, vec, nrows, ncols):
    """The nrows x ncols Matrix with row-major entries vec."""
    return Matrix(field, [vec[i * ncols:(i + 1) * ncols] for i in range(nrows)])


def trace(matrix):
    acc = matrix.field.zero
    for i in range(min(matrix.nrows, matrix.ncols)):
        acc = acc + matrix.rows[i][i]
    return acc


def is_zero(x):
    """Is a Matrix, or a TruncatedPoly, zero?"""
    return all(not a for r in (x.rows if isinstance(x, Matrix) else x.coeffs) for a in r)


def poly_mul(a, b, field):
    """The product of coefficient lists (constant term first), trimmed."""
    out = [field.zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return polys.trim(out)


def solve(matrix, rhs):
    """One solution of M x = b, or None when the system is inconsistent."""
    field = matrix.field
    aug = Matrix(field, [list(row) + [b] for row, b in zip(matrix.rows, rhs)])
    red, rank, pivots = rref(aug)
    n = matrix.ncols
    if n in pivots:
        return None
    x = [field.zero] * n
    for r, pc in enumerate(pivots):
        x[pc] = red.rows[r][n]
    return tuple(x)


def factor_into_irreducibles(poly, field):
    """``polys.factor`` of a polynomial with Scalar coefficients."""
    return polys.factor(poly, polys.Coefficients(field))


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


def zero_space(field, ambient):
    return Subspace(field, ambient, [])


def full_space(field, ambient):
    return Subspace(field, ambient, Matrix.identity(field, ambient).rows)


def _check(u, v):
    if u.ambient != v.ambient or u.field != v.field:
        raise AmbientMismatch(
            f"ambient {u.ambient} over {u.field} vs {v.ambient} over {v.field}"
        )


def sum_with(u, v):
    _check(u, v)
    return Subspace.from_vectors(u.field, u.ambient, list(u.rows) + list(v.rows))


def intersect(u, v):
    _check(u, v)
    if not u.rows or not v.rows:
        return zero_space(u.field, u.ambient)
    r = u.dim
    # columns are the basis vectors of U and -V; kernel entries (a, b)
    # satisfy sum a_i u_i = sum b_j v_j, an element of the intersection
    cols = [list(row) for row in u.rows] + [[-x for x in row] for row in v.rows]
    ker = nullspace(Matrix(u.field, cols).transpose())
    vecs = []
    zero = u.field.zero
    for kv in ker.basis:
        vec = [zero] * u.ambient
        for ai, urow in zip(kv[:r], u.rows):
            if ai:
                for j, x in enumerate(urow):
                    if x:
                        vec[j] = vec[j] + ai * x
        vecs.append(vec)
    return Subspace.from_vectors(u.field, u.ambient, vecs)


def coordinates_of(u, vec):
    """Coefficients of vec in the RREF basis of u, or None if not in the span."""
    residual = list(vec)
    coords = []
    for row in u.rows:
        pc = next(j for j, x in enumerate(row) if x)
        c = residual[pc]
        coords.append(c)
        if c:
            for j, x in enumerate(row):
                if x:
                    residual[j] = residual[j] - c * x
    if any(residual):
        return None
    return tuple(coords)


def contains_vector(u, vec):
    return coordinates_of(u, vec) is not None


def contains(u, v):
    _check(u, v)
    return all(contains_vector(u, x) for x in v.rows)


class EchelonAccumulator:
    """Incremental echelon basis, for spinning vectors under linear maps."""

    def __init__(self, field, ambient):
        self.field = field
        self.ambient = ambient
        self.rows = []  # (pivot index, row of Scalars), pivot-normalized

    @property
    def dim(self):
        return len(self.rows)

    def insert(self, vec):
        """Reduce vec against the basis; keep the residual if nonzero.

        Returns True when the vector enlarged the span.
        """
        v = list(vec)
        for pc, row in self.rows:
            c = v[pc]
            if c:
                for j, x in enumerate(row):
                    if x:
                        v[j] = v[j] - c * x
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return False
        inv = v[piv].inverse()
        self.rows.append((piv, [x * inv for x in v]))
        self.rows.sort(key=lambda t: t[0])
        return True

    def to_subspace(self):
        return Subspace.from_vectors(self.field, self.ambient, [r for _, r in self.rows])


def spin(field, ambient, seeds, operators):
    """Smallest subspace containing the seeds and closed under the operators."""
    acc = EchelonAccumulator(field, ambient)
    queue = []
    for s in seeds:
        if acc.insert(s):
            queue.append(s)
    while queue and acc.dim < ambient:
        v = queue.pop()
        for op in operators:
            w = op.matvec(v)
            if acc.insert(w):
                queue.append(w)
    return acc.to_subspace()


# ---------------------------------------------------------------------------
# derivations and Lie algebras
# ---------------------------------------------------------------------------


def leibniz_system(algebra):
    """The Leibniz conditions as a (dim^3) x (dim^2) Matrix, built entry by
    entry from the tensor; unknown 8r+c is the (r, c) entry of the
    derivation matrix, and D(b_j) is column j."""
    field = algebra.field
    dim = algebra.dim
    zero = field.zero
    nrows = dim * dim * dim
    rows = [[zero] * (dim * dim) for _ in range(nrows)]
    for i, j, k, c in algebra.entries:
        # d(b_i * b_j) term: equation (i, j, m) uses D[m][k]
        for m in range(dim):
            r = (i * dim + j) * dim + m
            rows[r][m * dim + k] = rows[r][m * dim + k] + c
        # d(b_i) * b_j term: the entry is c = c[r0][j][m] with r0 = i, m = k
        # it appears in equation (i2, j, k) at unknown D[i][i2] for every i2
        for i2 in range(dim):
            r = (i2 * dim + j) * dim + k
            rows[r][i * dim + i2] = rows[r][i * dim + i2] - c
        # b_i * d(b_j) term: the entry is c = c[i][r0][m] with r0 = j, m = k
        for j2 in range(dim):
            r = (i * dim + j2) * dim + k
            rows[r][j * dim + j2] = rows[r][j * dim + j2] - c
    return Matrix(field, rows)


def derivations(algebra):
    """The derivation space, the nullspace of the distinct nonzero rows of
    ``leibniz_system`` by ``linalg``'s RREF."""
    field = algebra.field
    system = leibniz_system(algebra)
    distinct = {tuple(s.rep for s in row): row for row in system.rows}
    distinct.pop((field.zero.rep,) * system.ncols, None)
    # one row is kept when all are zero, so that the width stays known
    return nullspace(Matrix(field, list(distinct.values()) or system.rows[:1]))


def leibniz_holds(algebra, dmat):
    """Does the map satisfy d(b_i*b_j) = d(b_i)*b_j + b_i*d(b_j) on all basis
    pairs?  The right side is ``product_tensor(D, I) + product_tensor(I, D)``."""
    ident = Matrix.identity(algebra.field, algebra.dim)
    left = algebra.product_tensor(dmat, ident)
    right = algebra.product_tensor(ident, dmat)
    return all(
        dmat.matvec(algebra.tensor[i][j])
        == tuple(a + b for a, b in zip(left[i][j], right[i][j]))
        for i in range(algebra.dim)
        for j in range(algebra.dim)
    )


def ad_star(algebra, u):
    """The inner derivation v -> u*v - v*u as a matrix."""
    return algebra.left_mult_matrix(u) - algebra.right_mult_matrix(u)


def inner_derivation_span(algebra):
    """Span of the inner derivations ad*_u, u over the basis.

    Each generator is verified against the Leibniz system.
    """
    vecs = []
    for i in range(algebra.dim):
        m = ad_star(algebra, algebra.basis_element(i))
        if not leibniz_holds(algebra, m):
            raise AssertionError(f"ad*_{algebra.labels[i]} is not a derivation")
        vecs.append(m.to_vec())
    return Subspace.from_vectors(algebra.field, algebra.dim**2, vecs)


class LieAlgebra(StructureConstantAlgebra):
    """A Lie algebra by structure constants, optionally backed by matrices.

    The bracket is ``multiply`` and ad b_i is ``left_mult_matrix(b_i)``.
    Construction verifies [x,x] = 0 and antisymmetry on the basis and the
    Jacobi identity on all basis triples.
    """

    def __init__(self, field, dim, tensor, maps=None):
        super().__init__(field, dim, [f"x{i}" for i in range(dim)], tensor)
        self.maps = list(maps) if maps is not None else None
        self._validate()

    def _validate(self):
        dim = self.dim
        zero = self.field.zero
        for i in range(dim):
            if any(self.tensor[i][i][k] for k in range(dim)):
                raise ValueError("bracket [x,x] != 0 on basis")
            for j in range(dim):
                for k in range(dim):
                    if self.tensor[i][j][k] != -self.tensor[j][i][k]:
                        raise ValueError("bracket tensor is not antisymmetric")
        for i in range(dim):
            for j in range(i + 1, dim):
                for k in range(j + 1, dim):
                    acc = [zero] * dim
                    for m in range(dim):
                        for t, coefs in (
                            (k, self.tensor[i][j]),
                            (i, self.tensor[j][k]),
                            (j, self.tensor[k][i]),
                        ):
                            c = coefs[m]
                            if c:
                                for n in range(dim):
                                    cc = self.tensor[m][t][n]
                                    if cc:
                                        acc[n] = acc[n] + c * cc
                    if any(acc):
                        raise ValueError("Jacobi identity fails on basis triple")


def lie_close(subspace):
    """Lie algebra on a commutator-closed subspace of flattened maps.

    Raises NotClosed when a commutator escapes the subspace.
    """
    field = subspace.field
    n = subspace.dim
    side = round(subspace.ambient**0.5)
    mats = [from_vec(field, row, side, side) for row in subspace.basis]
    tensor = []
    for a in range(n):
        row = []
        for b in range(n):
            k = mats[a] @ mats[b] - mats[b] @ mats[a]
            coords = coordinates_of(subspace, k.to_vec())
            if coords is None:
                raise NotClosed("subspace of maps is not closed under commutator")
            row.append(list(coords))
        tensor.append(row)
    return LieAlgebra(field, n, tensor, maps=mats)


def derived_subalgebra(lie):
    """The span of all pairwise brackets, as a Lie algebra in its own basis."""
    field = lie.field
    vecs = [lie.tensor[i][j] for i in range(lie.dim) for j in range(i + 1, lie.dim)]
    span = Subspace.from_vectors(field, lie.dim, vecs)
    basis = list(span.basis)
    n = len(basis)
    tensor = []
    for a in range(n):
        row = []
        for b in range(n):
            w = lie.multiply(lie.element(basis[a]), lie.element(basis[b])).coords
            coords = coordinates_of(span, w)
            if coords is None:
                raise NotClosed("derived span not closed; bracket tensor inconsistent")
            row.append(list(coords))
        tensor.append(row)
    maps = None
    if lie.maps is not None:
        maps = []
        for b in basis:
            acc = Matrix.zeros(field, lie.maps[0].nrows, lie.maps[0].ncols)
            for c, m in zip(b, lie.maps):
                if c:
                    acc = acc + c * m
            maps.append(acc)
    return LieAlgebra(field, n, tensor, maps=maps)


def killing_form(lie):
    """K[i][j] = trace(ad b_i o ad b_j)."""
    ads = [lie.left_mult_matrix(b) for b in lie.basis()]
    return Matrix(lie.field, [[trace(ads[i] @ ads[j]) for j in range(lie.dim)]
                              for i in range(lie.dim)])


def killing_rank(lie):
    _, rank, _ = rref(killing_form(lie))
    return rank


def center_of(lie):
    """Elements commuting with the whole algebra, in the algebra's own coordinates."""
    rows = [[lie.tensor[i][j][k] for i in range(lie.dim)]
            for j in range(lie.dim) for k in range(lie.dim)]
    if not rows:
        return full_space(lie.field, lie.dim)
    return nullspace(Matrix(lie.field, rows))


def _poly_apply_matrix(poly, m):
    field = m.field
    acc = Matrix.zeros(field, m.nrows, m.ncols)
    p = Matrix.identity(field, m.nrows)
    for c in poly:
        if c:
            acc = acc + p * c
        p = p @ m
    return acc


def _random_enveloping_element(gens, field, rng):
    """A random element of the enveloping algebra: sums of short products."""
    n = gens[0].nrows
    acc = Matrix.zeros(field, n, n)
    for _ in range(rng.randrange(2, 5)):
        term = gens[rng.randrange(len(gens))]
        for _ in range(rng.randrange(0, 3)):
            term = term @ gens[rng.randrange(len(gens))]
        coef = field.random_scalar(rng)
        if not coef:
            coef = field.one
        acc = acc + term * coef
    return acc


def is_simple_finite(lie, seed=0, max_trials=20):
    """Simplicity of a ``LieAlgebra`` over a finite field: a proper derived
    subalgebra or a nonzero center disproves it; otherwise Norton's
    criterion on the adjoint module, with the factors of the characteristic
    polynomial of random elements of the enveloping algebra of the ad maps.
    """
    field = lie.field
    if field.cardinality is None:
        raise InfiniteField("simplicity test requires a finite base field")
    if lie.dim == 0:
        return False
    if derived_subalgebra(lie).dim != lie.dim:
        return False
    if center_of(lie).dim != 0:
        return False
    gens = [lie.left_mult_matrix(b) for b in lie.basis()]
    gens_t = [g.transpose() for g in gens]
    n = lie.dim
    rng = random.Random(seed)
    for _ in range(max_trials):
        theta = _random_enveloping_element(gens, field, rng)
        for f in factor_into_irreducibles(charpoly(theta), field):
            ker = nullspace(_poly_apply_matrix(f, theta))
            if ker.dim == 0:
                continue
            if spin(field, n, [ker.basis[0]], gens).dim != n:
                return False
            if ker.dim == polys.degree(f):
                ker_t = nullspace(_poly_apply_matrix(f, theta.transpose()))
                return spin(field, n, [ker_t.basis[0]], gens_t).dim == n
    raise Inconclusive(
        f"no irreducible factor of minimal nullity in {max_trials} trials"
    )


def analyze_derivations(algebra, seed=0, max_trials=20):
    """The derivation profile that ``liealg.analyze_derivations`` reports,
    on Scalar matrices."""
    field = algebra.field
    der = derivations(algebra)
    inner = inner_derivation_span(algebra)
    derived = derived_subalgebra(lie_close(der))
    derived_span = Subspace.from_vectors(
        field, algebra.dim**2, [m.to_vec() for m in derived.maps]
    )
    notes = []
    simple = None
    if field.cardinality is None:
        notes.append("simplicity certificate restricted to finite fields")
    else:
        try:
            simple = is_simple_finite(derived, seed=seed, max_trials=max_trials)
        except Inconclusive as exc:
            notes.append(str(exc))
    grading_dims = None
    if field.characteristic == 3 and algebra.grading is not None:
        grading_dims = _grading_on(algebra, der).dims
    return DerivationAnalysis(
        field_spec=field.spec_string(),
        dim_der=der.dim,
        dim_inner=inner.dim,
        inner_equals_der=inner == der,
        dim_derived=derived.dim,
        derived_equals_inner=derived_span == inner,
        killing_rank_derived=killing_rank(derived),
        center_dim_derived=center_of(derived).dim,
        derived_simple=simple,
        grading_dims=grading_dims,
        seed=seed,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# the commutator algebra of (O, *), the Block bracket and the grading
# ---------------------------------------------------------------------------


def minus_algebra(algebra):
    """The commutator algebra u*v - v*u of a structure-constant algebra."""
    dim = algebra.dim
    tensor = [
        [[algebra.tensor[i][j][k] - algebra.tensor[j][i][k] for k in range(dim)]
         for j in range(dim)]
        for i in range(dim)
    ]
    return LieAlgebra(algebra.field, dim, tensor)


def verify_block_bracket(algebra):
    """Check [x^i y^j, x^k y^l]* = (il - jk) x^(i+k) y^(j+l) on all basis pairs.

    Uses the grading degrees as monomial exponents; characteristic 3 only.
    """
    if algebra.field.characteristic != 3:
        raise BadCharacteristic("the Block bracket identity lives in characteristic 3")
    if algebra.grading is None:
        raise ValueError("algebra carries no grading")
    field = algebra.field
    minus = minus_algebra(algebra)
    degree_to_index = {d: i for i, d in enumerate(algebra.grading)}
    mismatches = []
    for a in range(algebra.dim):
        i, j = algebra.grading[a]
        for b in range(algebra.dim):
            k, l = algebra.grading[b]
            delta = field.from_int(i * l - j * k)
            target = ((i + k) % 3, (j + l) % 3)
            expected = [field.zero] * algebra.dim
            if target != (0, 0) and delta:
                expected[degree_to_index[target]] = delta
            got = [minus.tensor[a][b][m] for m in range(algebra.dim)]
            if got != expected:
                mismatches.append((algebra.labels[a], algebra.labels[b]))
    return mismatches


def inner_bracket_matches_minus(algebra):
    """Check [ad*_u, ad*_v] = ad*_{[u,v]*} on all basis pairs.

    This is the coordinate form of the isomorphism between the span of the
    inner derivations and the commutator algebra.
    """
    dim = algebra.dim
    ads = [ad_star(algebra, u) for u in algebra.basis()]
    for a in range(dim):
        for b in range(dim):
            lhs = ads[a] @ ads[b] - ads[b] @ ads[a]
            uv = algebra.element(algebra.tensor[a][b]) - algebra.element(algebra.tensor[b][a])
            if lhs != ad_star(algebra, uv):
                return False
    return True


@dataclass
class DerGradingReport:
    dims: dict
    total: int
    der_dim: int
    components_fill_der: bool
    ad_cube_in_degree_zero: bool

    @property
    def passed(self):
        return (
            self.total == self.der_dim
            and self.components_fill_der
            and self.ad_cube_in_degree_zero
        )

    def summary(self):
        return {
            "dims": {f"({g[0]},{g[1]})": d for g, d in sorted(self.dims.items())},
            "total": self.total,
            "der_dim": self.der_dim,
            "components_fill_der": self.components_fill_der,
            "ad_cube_in_degree_zero": self.ad_cube_in_degree_zero,
            "passed": self.passed,
        }


def _homogeneous_map_subspace(algebra, g):
    """Maps D with D(O_h) <= O_(h+g), as a coordinate subspace of maps."""
    field = algebra.field
    dim = algebra.dim
    degree_to_index = {d: i for i, d in enumerate(algebra.grading)}
    vecs = []
    for j in range(dim):
        h = algebra.grading[j]
        r = degree_to_index.get(((h[0] + g[0]) % 3, (h[1] + g[1]) % 3))
        if r is None:
            continue  # image must vanish on this column
        v = [field.zero] * (dim * dim)
        v[r * dim + j] = field.one
        vecs.append(v)
    return Subspace.from_vectors(field, dim * dim, vecs)


def grading_on_derivations(algebra):
    """Dimensions of the Z3xZ3-homogeneous components of the derivation algebra."""
    if algebra.field.characteristic != 3:
        raise BadCharacteristic("the graded derivation analysis is characteristic 3")
    if algebra.grading is None:
        raise ValueError("algebra carries no grading")
    return _grading_on(algebra, derivations(algebra))


def _grading_on(algebra, der):
    """``grading_on_derivations`` given the derivation space ``der``."""
    dims = {}
    acc = zero_space(algebra.field, algebra.dim**2)
    for g in ((gi, gj) for gi in range(3) for gj in range(3)):
        comp = intersect(der, _homogeneous_map_subspace(algebra, g))
        if comp.dim:
            dims[g] = comp.dim
            acc = sum_with(acc, comp)
    zero_part = _homogeneous_map_subspace(algebra, (0, 0))
    ad_cube_ok = True
    for i in range(algebra.dim):
        a = ad_star(algebra, algebra.basis_element(i))
        vec = (a @ a @ a).to_vec()
        if not (contains_vector(zero_part, vec) and contains_vector(der, vec)):
            ad_cube_ok = False
    return DerGradingReport(
        dims=dims,
        total=sum(dims.values()),
        der_dim=der.dim,
        components_fill_der=acc == der,
        ad_cube_in_degree_zero=ad_cube_ok,
    )


# ---------------------------------------------------------------------------
# the unit and the para-Hurwitz algebra of a unital algebra
# ---------------------------------------------------------------------------


def unit_of(algebra):
    """The two-sided unit of a unital algebra, or None."""
    field = algebra.field
    dim = algebra.dim
    rows = []
    rhs = []
    one, zero = field.one, field.zero
    for j in range(dim):
        for k in range(dim):
            rows.append([algebra.tensor[i][j][k] for i in range(dim)])
            rhs.append(one if j == k else zero)
    u = solve(Matrix(field, rows), rhs)
    if u is None:
        return None
    cand = algebra.element(u)
    if algebra.right_mult_matrix(cand) != Matrix.identity(field, dim):
        return None
    return cand


def para_hurwitz_of(algebra):
    """The para-Hurwitz algebra x.y = conj(x) conj(y) of a unital algebra,
    with conj(x) = n(1, x) 1 - x."""
    unit = unit_of(algebra)
    if unit is None:
        raise ValueError("para-Hurwitz construction needs a unital algebra")
    # column j of C is conj(b_j) = n(1, b_j) 1 - b_j
    polar = [algebra.norm_polar(unit, b) for b in algebra.basis()]
    conj = Matrix(
        algebra.field,
        [[u * p for p in polar] for u in unit.coords],
    ) - Matrix.identity(algebra.field, algebra.dim)
    return StructureConstantAlgebra(
        algebra.field, algebra.dim, algebra.labels, algebra.product_tensor(conj, conj),
        form=algebra.form, grading=None,
    )


# ---------------------------------------------------------------------------
# the sl3 matrix model
# ---------------------------------------------------------------------------


def sl3_products(model):
    """(tensor, norms, polar matrix) of the basis of an ``Sl3Model``, from
    ``star`` and ``coords_of`` on Matrix objects, after checking
    (u*v)*u = sr(u)v on all basis pairs."""
    basis = model.basis_matrices
    for a in basis:
        for b in basis:
            if star(model, star(model, a, b), a) != sr_form(a) * b:
                raise AssertionError("(u*v)*u = sr(u)v fails on the model basis")
    tensor = [[list(model.coords_of(star(model, a, b))) for b in basis] for a in basis]
    values = [sr_form(m) for m in basis]
    polar = [[sr_polar(a, b) for b in basis] for a in basis]
    return tensor, values, polar


def sr_form(a):
    """Sum of the principal 2x2 minors of a 3x3 matrix."""
    m = a.rows
    return (
        (m[0][0] * m[1][1] - m[0][1] * m[1][0])
        + (m[0][0] * m[2][2] - m[0][2] * m[2][0])
        + (m[1][1] * m[2][2] - m[1][2] * m[2][1])
    )


def sr_polar(a, b):
    """Polar form of sr: tr(a)tr(b) - tr(ab), valid in every characteristic."""
    return trace(a) * trace(b) - trace(a @ b)


def star(model, a, b):
    """The product of an ``Sl3Model`` on two 3x3 matrices:
    w ab - w^2 ba - ((w-w^2)/3) tr(ab) 1."""
    w = model.omega
    ab = a @ b
    ba = b @ a
    scalar = model._trace_coef * trace(ab)
    return w * ab - (w * w) * ba - scalar * Matrix.identity(model.field, 3)


def charpoly(matrix):
    """Coefficients of det(xI - A), constant term first (Berkowitz, division-free)."""
    n = matrix.nrows
    if n != matrix.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    field = matrix.field
    zero, one = field.zero, field.one
    if n == 0:
        return [one]
    a = matrix.rows
    coeffs = [one, -a[0][0]]  # highest degree first
    for r in range(2, n + 1):
        rr = a[r - 1][: r - 1]
        ss = [a[i][r - 1] for i in range(r - 1)]
        col = [one, -a[r - 1][r - 1]]
        v = list(ss)
        for _ in range(r - 1):
            col.append(-sum((x * y for x, y in zip(rr, v) if x and y), zero))
            v = [
                sum((a[i][j] * v[j] for j in range(r - 1) if a[i][j] and v[j]), zero)
                for i in range(r - 1)
            ]
        # multiply the (r+1) x r Toeplitz matrix built from col into coeffs
        new = []
        for i in range(r + 1):
            acc = zero
            for j in range(r):
                if 0 <= i - j < len(col):
                    acc = acc + col[i - j] * coeffs[j]
            new.append(acc)
        coeffs = new
    coeffs.reverse()
    return coeffs


# ---------------------------------------------------------------------------
# the truncated-polynomial model and the irreducible polynomials
# ---------------------------------------------------------------------------


def partial(f, axis):
    """The formal d/dx (axis 0) or d/dy (axis 1) of a ``TruncatedPoly``; well
    defined on the quotient only in characteristic 3."""
    out = [[f.field.zero] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            e = (i, j)[axis]
            if e and f.coeffs[i][j]:
                out[i - (axis == 0)][j - (axis == 1)] = f.coeffs[i][j] * e
    return TruncatedPoly(f.field, out)


def diamond_via_partials(f, g):
    """``models.diamond_truncated`` via f g - (f_x g_y - g_x f_y) x y."""
    if f.field.characteristic != 3:
        raise BadCharacteristic("the truncated product is characteristic 3 only")
    jac = partial(f, 0) * partial(g, 1) - partial(g, 0) * partial(f, 1)
    return f * g - jac * TruncatedPoly.monomial(f.field, 1, 1)


def to_poly(model, element):
    """The truncated polynomial of an element of a ``Char3Model``."""
    acc = TruncatedPoly.zero(model.field)
    for c, m in zip(element.coords, model.monomials):
        if c:
            acc = acc + m.scale(c)
    return acc


def decompose(model, poly):
    """(c, element) with poly = c*1 + the element's truncated polynomial."""
    scalar, coords = model._split(poly)
    return scalar, model.algebra.element(coords)


def irreducible_polys(field, deg):
    """All monic irreducible polynomials of degree <= 4, in enumeration order."""
    for cand in polys._monic_polys(field, deg):
        if polys.is_irreducible(cand, field):
            yield cand


# ---------------------------------------------------------------------------
# the identity checks on elements, and the table matrix product
# ---------------------------------------------------------------------------


def _objects(values):
    """A 1-d numpy object array of the values, indexable like the batches."""
    values = list(values)
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


class ObjectBatch(IdentityBatch):
    """``IdentityBatch`` on AlgebraElements and Scalars in object arrays:
    exact arithmetic over any field through ``multiply``, ``norm`` and
    ``norm_polar`` of the algebra, with the elements drawn by
    ``random_element``.  It keeps the case layout and the identities of
    ``IdentityBatch``, so a report made with it in place of the arrays must
    be the same, witnesses included."""

    def __init__(self, algebra):
        self.algebra = algebra

    def rows(self, elements):
        return _objects(elements)

    def draw(self, rng, count, arity):
        rand = self.algebra.random_element
        draws = [[rand(rng) for _ in range(arity)] for _ in range(count)]
        return tuple(self.rows([t[n] for t in draws]) for n in range(arity))

    def multiply(self, X, Y):
        return _objects(self.algebra.multiply(x, y) for x, y in zip(X, Y))

    def norm(self, X):
        return _objects(self.algebra.norm(x) for x in X)

    def polar(self, X, Y):
        return _objects(self.algebra.norm_polar(x, y) for x, y in zip(X, Y))

    def times(self, a, b):
        return _objects(u * v for u, v in zip(a, b))

    def equal(self, A, B):
        return np.array([u == v for u, v in zip(A, B)], dtype=bool)

    def coords_text(self, X, r):
        return tuple(map(str, X[r].coords))


def batch_matmul_reference(field, A, B):
    """Encoded products A @ B of broadcast stacks, one table addition per
    step of the contraction."""
    t = _kernels.tables_for(field)
    A, B = np.asarray(A), np.asarray(B)
    shape = np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (A.shape[-2], B.shape[-1])
    out = np.zeros(shape, dtype=np.int64)
    for s in range(A.shape[-1]):
        out = t.add[out, t.mul[A[..., :, s, None], B[..., None, s, :]]]
    return out
