"""Derivation algebras and Lie-algebra analysis.

The derivation space of a structure-constant algebra is the nullspace of the
Leibniz system d(b_i b_j) = d(b_i) b_j + b_i d(b_j): for an 8-dimensional
algebra that is one exact row reduction of a 512 x 64 system.  The Leibniz
system is an encoded array over fields with lookup tables
(``_kernels.supports_field``), reduced by ``_kernels.rref_encoded``, and a
``Matrix`` otherwise, reduced by ``linalg``'s exact RREF; only its distinct
nonzero rows are reduced, which keeps the row space.

The analysis on top of it runs on exact arrays (``_encoded_lie``), on the
backend ``_encoded_lie.arrays_for`` picks from the field: table-encoded
integer arrays over fields with lookup tables, coordinates mod p over every
other finite field, and Z[w] numerators over one denominator over Q and
Q(w).  It computes inner derivations, the Lie algebra on Der, its derived
subalgebra, the Killing rank and the center, and over finite fields a
MeatAxe-style simplicity certificate (Norton's criterion on the adjoint
module, Las Vegas with a fixed retry budget).  The tests compare every stage
with a reference on ``Scalar`` matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _encoded_lie, _kernels
from .errors import Inconclusive, InfiniteField, SingularMatrix
from .linalg import Matrix, Subspace, nullspace


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


def is_simple_finite(lie, seed=0, max_trials=20):
    """Is the ``_encoded_lie.EncodedLie`` simple?  Over a finite field only.

    The MeatAxe (``_encoded_lie.is_simple``) draws a random stream that is
    deterministic in ``seed``; Inconclusive is raised when the retry budget
    runs out without a proof either way.
    """
    if lie.field.cardinality is None:
        raise InfiniteField("simplicity test requires a finite base field")
    if lie.dim == 0:
        return False
    return _encoded_lie.is_simple(lie, seed, max_trials)


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
