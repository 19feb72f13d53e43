"""Derivation algebras and Lie-algebra analysis.

The derivation space of a structure-constant algebra is the nullspace of the
Leibniz system d(b_i b_j) = d(b_i) b_j + b_i d(b_j): for an 8-dimensional
algebra that is one exact row reduction of a 512 x 64 system.  On top of
that live the usual tools: inner derivations, Lie closure, derived
subalgebras, Killing forms, centers, and a MeatAxe-style simplicity
certificate for finite fields (Norton's criterion on the adjoint module,
Las Vegas with a fixed retry budget).

A ``LieAlgebra`` is a structure-constant algebra whose product is the
bracket, so ad b_i is its ``left_mult_matrix(b_i)``.  Leibniz checks read
both sides from the tensor: D(b_i*b_j) is D applied to a tensor row, and
D(b_i)*b_j + b_i*D(b_j) is ``product_tensor(D, I) + product_tensor(I, D)``.

The derivation analysis runs on exact arrays (``_encoded_lie``), on the
backend ``_encoded_lie.arrays_for`` picks from the field: table-encoded
integer arrays over fields with lookup tables (``_kernels.supports_field``),
and Z[w] numerators over one denominator over Q and Q(w).  There
``analyze_derivations`` holds maps as (n, 8, 8) stacks and
``is_simple_finite`` accepts an ``_encoded_lie.EncodedLie``.  The Leibniz
system is an encoded array over fields with tables, reduced by
``_kernels.rref_encoded``, and a ``Matrix`` otherwise, reduced by
``linalg``'s exact RREF; only its distinct nonzero rows are reduced, which
keeps the row space.  The ``Scalar`` functions here
(``inner_derivation_span``, ``lie_close``, ``LieAlgebra`` and the rest) are
the path over fields beyond the tables, and the reference the tests compare
both backends with.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _encoded_lie, _kernels, polys
from .algebra import StructureConstantAlgebra
from .errors import BadCharacteristic, Inconclusive, InfiniteField, NotClosed, SingularMatrix
from .linalg import Matrix, Subspace, nullspace, rref, spin


def _vec_to_map(field, vec, dim):
    return Matrix.from_vec(field, vec, dim, dim)


def leibniz_system(algebra):
    """The Leibniz conditions as a (dim^3) x (dim^2) system: an encoded
    integer array over fields with lookup tables, else a Matrix.

    Unknown 8r+c is the (r, c) entry of the derivation matrix; D(b_j) is
    column j.
    """
    if _kernels.supports_field(algebra.field):
        return _encoded_lie.leibniz_system(algebra)
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
    """The full derivation space as a Subspace of flattened dim x dim maps.

    Only the distinct nonzero rows of the Leibniz system are reduced (216 of
    the 512 for the Okubo algebra): dropping a zero or repeated row keeps
    the row space, hence the nullspace.
    """
    field = algebra.field
    system = leibniz_system(algebra)
    if isinstance(system, Matrix):
        distinct = {tuple(s.rep for s in row): row for row in system.rows}
        distinct.pop((field.zero.rep,) * system.ncols, None)
        # one row is kept when all are zero, so that the width stays known
        return nullspace(Matrix(field, list(distinct.values()) or system.rows[:1]))
    basis = _kernels.nullspace_encoded(field, _distinct_nonzero_rows(system))
    return Subspace(field, algebra.dim**2, _kernels.decode_rows(field, basis))


def _distinct_nonzero_rows(system):
    """The first occurrence of each distinct nonzero row of an encoded array."""
    width = system.shape[1] * system.itemsize
    raw = system.tobytes()
    first = {}
    for r in np.flatnonzero(system.any(axis=1)).tolist():
        first.setdefault(raw[r * width:(r + 1) * width], r)
    return system[list(first.values())]


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

    def __repr__(self):
        return f"LieAlgebra(dim {self.dim} over {self.field})"


def lie_close(subspace):
    """Lie algebra on a commutator-closed subspace of flattened maps.

    Raises NotClosed when a commutator escapes the subspace.
    """
    field = subspace.field
    n = subspace.dim
    side = _int_sqrt(subspace.ambient)
    mats = [_vec_to_map(field, row, side) for row in subspace.basis]
    tensor = []
    for a in range(n):
        row = []
        for b in range(n):
            k = mats[a] @ mats[b] - mats[b] @ mats[a]
            coords = subspace.coordinates_of(k.to_vec())
            if coords is None:
                raise NotClosed("subspace of maps is not closed under commutator")
            row.append(list(coords))
        tensor.append(row)
    return LieAlgebra(field, n, tensor, maps=mats)


def _int_sqrt(n):
    r = int(round(n**0.5))
    if r * r != n:
        raise ValueError(f"{n} is not a perfect square")
    return r


def derived_subalgebra(lie):
    """The span of all pairwise brackets, as a Lie algebra in its own basis."""
    field = lie.field
    vecs = []
    for i in range(lie.dim):
        for j in range(i + 1, lie.dim):
            vecs.append(lie.tensor[i][j])
    span = Subspace.from_vectors(field, lie.dim, vecs)
    basis = list(span.basis)
    n = len(basis)
    tensor = []
    for a in range(n):
        row = []
        for b in range(n):
            w = lie.multiply(lie.element(basis[a]), lie.element(basis[b])).coords
            coords = span.coordinates_of(w)
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
    rows = []
    for i in range(lie.dim):
        rows.append([(ads[i] @ ads[j]).trace() for j in range(lie.dim)])
    return Matrix(lie.field, rows)


def killing_rank(lie):
    _, rank, _ = rref(killing_form(lie))
    return rank


def center_of(lie):
    """Elements commuting with the whole algebra, in the algebra's own coordinates."""
    field = lie.field
    rows = []
    for j in range(lie.dim):
        for k in range(lie.dim):
            rows.append([lie.tensor[i][j][k] for i in range(lie.dim)])
    if not rows:
        return Subspace.full(field, lie.dim)
    return nullspace(Matrix(field, rows))


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
    """Simplicity over a finite field.

    Quick certificates first: a proper derived subalgebra or a nonzero center
    disproves simplicity outright.  Otherwise the adjoint module is tested
    for irreducibility MeatAxe-style: pick a random element of the enveloping
    algebra of the ad maps, factor its characteristic polynomial, and apply
    Norton's criterion on an irreducible factor of minimal nullity.  The
    random stream is deterministic in ``seed``; Inconclusive is raised when
    the retry budget runs out without a proof either way.  ``lie`` is a
    LieAlgebra, or an ``_encoded_lie.EncodedLie``, whose test draws the same
    stream.
    """
    field = lie.field
    if field.cardinality is None:
        raise InfiniteField("simplicity test requires a finite base field")
    if lie.dim == 0:
        return False
    if isinstance(lie, _encoded_lie.EncodedLie):
        return _encoded_lie.is_simple(lie, seed, max_trials)
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
        charpoly = theta.charpoly()
        for f in polys.factor_into_irreducibles(charpoly, field):
            ker = nullspace(_poly_apply_matrix(f, theta))
            if ker.dim == 0:
                continue
            v = ker.basis[0]
            if spin(field, n, [v], gens).dim != n:
                return False
            if ker.dim == polys.degree(f):
                ker_t = nullspace(_poly_apply_matrix(f, theta.transpose()))
                w = ker_t.basis[0]
                if spin(field, n, [w], gens_t).dim != n:
                    return False
                return True
    raise Inconclusive(
        f"no irreducible factor of minimal nullity in {max_trials} trials"
    )


# ---------------------------------------------------------------------------
# the commutator algebra of (O, *) and the Block bracket
# ---------------------------------------------------------------------------


def minus_algebra(algebra):
    """The commutator algebra u*v - v*u of a structure-constant algebra."""
    field = algebra.field
    dim = algebra.dim
    tensor = [
        [
            [algebra.tensor[i][j][k] - algebra.tensor[j][i][k] for k in range(dim)]
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    return LieAlgebra(field, dim, tensor)


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
    basis = algebra.basis()
    ads = [ad_star(algebra, u) for u in basis]
    for a in range(dim):
        for b in range(dim):
            lhs = ads[a] @ ads[b] - ads[b] @ ads[a]
            uv = algebra.element(algebra.tensor[a][b]) - algebra.element(algebra.tensor[b][a])
            rhs = ad_star(algebra, uv)
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# the grading on the derivation algebra (characteristic 3)
# ---------------------------------------------------------------------------


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
    zero, one = field.zero, field.one
    vecs = []
    for j in range(dim):
        h = algebra.grading[j]
        target = ((h[0] + g[0]) % 3, (h[1] + g[1]) % 3)
        r = degree_to_index.get(target)
        if r is None:
            continue  # image must vanish on this column
        v = [zero] * (dim * dim)
        v[r * dim + j] = one
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
    parts = []
    for gi in range(3):
        for gj in range(3):
            comp = der.intersect(_homogeneous_map_subspace(algebra, (gi, gj)))
            if comp.dim:
                dims[(gi, gj)] = comp.dim
                parts.append(comp)
    total = sum(dims.values())
    acc = Subspace.zero(algebra.field, algebra.dim**2)
    for p in parts:
        acc = acc.sum_with(p)
    fill = acc == der
    zero_part = _homogeneous_map_subspace(algebra, (0, 0))
    ad_cube_ok = True
    for i in range(algebra.dim):
        a = ad_star(algebra, algebra.basis_element(i))
        cube = a @ a @ a
        vec = cube.to_vec()
        if not (zero_part.contains_vector(vec) and der.contains_vector(vec)):
            ad_cube_ok = False
    return DerGradingReport(
        dims=dims,
        total=total,
        der_dim=der.dim,
        components_fill_der=fill,
        ad_cube_in_degree_zero=ad_cube_ok,
    )


# ---------------------------------------------------------------------------
# automorphisms of the matrix model by conjugation
# ---------------------------------------------------------------------------


def conjugation_automorphism(model, g):
    """The map u -> g u g^-1 on the matrix model, in basis coordinates.

    Verified to transport the product (an automorphism) and to preserve the
    norm and its polar form (an isometry).
    """
    field = model.field
    if g.det() == field.zero:
        raise SingularMatrix("conjugating matrix must be invertible")
    ginv = g.inverse()
    algebra = model.algebra
    cols = []
    for j in range(algebra.dim):
        m = g @ model.basis_matrices[j] @ ginv
        cols.append(model.coords_of(m))
    phi = Matrix(field, list(zip(*cols)))
    if not algebra.preserves_product(phi):
        raise AssertionError("conjugation failed to be an automorphism")
    images = [algebra.element(phi.col(j)) for j in range(algebra.dim)]
    for i in range(algebra.dim):
        if algebra.norm(images[i]) != algebra.form.values[i]:
            raise AssertionError("conjugation failed to be an isometry")
        for j in range(i + 1, algebra.dim):
            if algebra.norm_polar(images[i], images[j]) != algebra.form.polar[i, j]:
                raise AssertionError("conjugation failed to preserve the polar form")
    return phi


@dataclass
class DerivationAnalysis:
    """The full derivation profile reported by the CLI."""

    field_spec: str
    dim_der: int
    dim_inner: int
    inner_equals_der: bool
    dim_derived: int
    derived_equals_inner: bool
    killing_rank_derived: int
    center_dim_derived: int
    derived_simple: bool | None
    grading_dims: dict | None = None
    seed: int = 0
    notes: list = dc_field(default_factory=list)

    def summary(self):
        """Report keys match the CLI contract: killing_rank, center_dim and
        simple describe the derived subalgebra [Der, Der]."""
        out = {
            "field": self.field_spec,
            "dim_der": self.dim_der,
            "dim_inner": self.dim_inner,
            "inner_equals_der": self.inner_equals_der,
            "dim_derived": self.dim_derived,
            "derived_equals_inner": self.derived_equals_inner,
            "killing_rank": self.killing_rank_derived,
            "center_dim": self.center_dim_derived,
            "simple": self.derived_simple,
            "seed": self.seed,
            "notes": self.notes,
        }
        if self.grading_dims is not None:
            out["grading_dims"] = {
                f"({g[0]},{g[1]})": d for g, d in sorted(self.grading_dims.items())
            }
        return out


def _simplicity(derived, seed, max_trials, notes):
    """``is_simple_finite`` of the derived algebra, or None with a note."""
    if derived.field.cardinality is None:
        notes.append("simplicity certificate restricted to finite fields")
        return None
    try:
        return is_simple_finite(derived, seed=seed, max_trials=max_trials)
    except Inconclusive as exc:
        notes.append(str(exc))
        return None


def analyze_derivations(algebra, seed=0, max_trials=20):
    """Compute the derivation profile of an algebra (drives the CLI report)."""
    field = algebra.field
    der = derivations(algebra)
    ar = _encoded_lie.arrays_for(field)
    if ar is not None:
        return _array_analysis(algebra, ar, der, seed, max_trials)
    inner = inner_derivation_span(algebra)
    der_lie = lie_close(der)
    derived = derived_subalgebra(der_lie)
    derived_span = Subspace.from_vectors(
        field, algebra.dim**2, [m.to_vec() for m in derived.maps]
    )
    notes = []
    simple = _simplicity(derived, seed, max_trials, notes)
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


def _array_analysis(algebra, ar, der, seed, max_trials):
    """``analyze_derivations`` on the exact array backend ``ar``, given the
    derivation space ``der``."""
    field = algebra.field
    D = ar.array(der.basis).reshape(der.dim, algebra.dim**2)
    C = _encoded_lie.tensor_of(ar, algebra)
    inner = _encoded_lie.inner_span(ar, algebra, C)
    derived = _encoded_lie.derived(_encoded_lie.lie_close(ar, D))
    derived_span = _encoded_lie.span(ar, derived.maps.reshape(derived.dim, algebra.dim**2))
    notes = []
    simple = _simplicity(derived, seed, max_trials, notes)
    grading_dims = None
    if field.characteristic == 3 and algebra.grading is not None:
        grading_dims = _encoded_lie.grading(ar, algebra, C, D)["dims"]
    return DerivationAnalysis(
        field_spec=field.spec_string(),
        dim_der=der.dim,
        dim_inner=len(inner),
        inner_equals_der=_encoded_lie.same(ar, inner, D),
        dim_derived=derived.dim,
        derived_equals_inner=_encoded_lie.same(ar, derived_span, inner),
        killing_rank_derived=_encoded_lie.killing_rank(derived),
        center_dim_derived=_encoded_lie.center_dim(derived),
        derived_simple=simple,
        grading_dims=grading_dims,
        seed=seed,
        notes=notes,
    )
