"""Derivation algebras and Lie-algebra analysis.

The derivation space of a structure-constant algebra is the nullspace of the
Leibniz system d(b_i b_j) = d(b_i) b_j + b_i d(b_j): for an 8-dimensional
algebra that is one exact row reduction of a 512 x 64 system.  Over the
finite fields it is built from the tensor and reduced on the field's exact
array backend (``ar.rref``), over Q and Q(w) as ``Scalar`` rows reduced by
``linalg``; only its distinct nonzero rows are reduced, which keeps the row
space.

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

from . import _encoded_lie
from .errors import Inconclusive, InfiniteField, SingularMatrix
from .linalg import Matrix, Subspace, nullspace


def leibniz_system(ar, algebra):
    """The Leibniz conditions as a (dim^3, dim^2) array on the backend ``ar``.

    Row (i, j, k) is the b_k coordinate of D(b_i b_j) - D(b_i) b_j -
    b_i D(b_j), and unknown r dim + s is the entry D[r][s] of the derivation
    matrix, whose column s is D(b_s).  Each of the three terms puts every
    nonzero entry c_ijk into dim cells, and no two entries share a cell
    within one term, so a term is a gather of the entries; the terms are
    summed on the cells any of them reaches, and the rest is zero.
    """
    n, entries = algebra.dim, algebra.entries
    i, j, k = np.array([e[:3] for e in entries], dtype=np.int64).reshape(-1, 3).T
    padded = ar.array([algebra.field.zero] + [c for *_, c in entries])
    m = np.arange(n)[:, None]
    cells = np.stack([  # row dim^2 + column, per term, m and entry
        ((i * n + j) * n + m) * n * n + m * n + k,  # D(b_i * b_j): D[m][k] c_ijk
        ((m * n + j) * n + k) * n * n + i * n + m,  # D(b_m) * b_j: D[i][m]
        ((i * n + m) * n + k) * n * n + j * n + m,  # b_i * D(b_m): D[j][m]
    ])
    reached, where = np.unique(cells, return_inverse=True)
    terms = []
    for at in where.reshape(cells.shape):
        index = np.zeros(len(reached), dtype=np.int64)
        index[at] = np.arange(1, len(i) + 1)
        terms.append(padded[index])
    values = ar.sub(ar.sub(terms[0], terms[1]), terms[2])
    index = np.zeros(n**5, dtype=np.int64)
    index[reached] = np.arange(1, len(reached) + 1)
    return ar.concatenate([padded[:1], values])[index].reshape(n**3, n * n)


def derivations(algebra):
    """The full derivation space as a Subspace of flattened dim x dim maps:
    the nullspace of the Leibniz system, on the field's array backend.

    Only the distinct nonzero rows of the Leibniz system are reduced (216 of
    the 512 for the Okubo algebra): dropping a zero or repeated row keeps
    the row space, hence the nullspace.  Over Q and Q(w) the system is
    still built as Scalar rows and reduced by ``linalg``; ROADMAP item 7
    says why it waits for ROADMAP item 1.
    """
    field, dim = algebra.field, algebra.dim
    if field.characteristic == 0:
        rows = [[field.zero] * (dim * dim) for _ in range(dim**3)]
        for i, j, k, c in algebra.entries:  # the three terms of leibniz_system
            for m in range(dim):
                rows[(i * dim + j) * dim + m][m * dim + k] += c
                rows[(m * dim + j) * dim + k][i * dim + m] -= c
                rows[(i * dim + m) * dim + k][j * dim + m] -= c
        distinct = {tuple(s.rep for s in row): row for row in rows}
        distinct.pop((field.zero.rep,) * dim * dim, None)
        return nullspace(Matrix(field, list(distinct.values()) or rows[:1]))
    ar = _encoded_lie.arrays_for(algebra.field)
    system = _distinct_nonzero_rows(ar, leibniz_system(ar, algebra))
    basis = _encoded_lie.nullspace(ar, system)
    return Subspace(algebra.field, algebra.dim**2, ar.decode(basis))


def _distinct_nonzero_rows(ar, system):
    """The first occurrence of each distinct nonzero row of a 2-d array,
    compared by its numpy parts (the one array on the tables), which
    represent one value one way within an array."""
    nonzero = system[ar.nonzero(system).any(axis=1)]
    keys = zip(*map(_row_keys, getattr(nonzero, "parts", (nonzero,))))
    first = {key: r for r, key in reversed(list(enumerate(keys)))}
    return nonzero[sorted(first.values())]


def _row_keys(part):
    """A hashable key per row of a 2-d numpy array: its bytes, or its
    Python ints in an object array."""
    if part.dtype == object:
        return map(tuple, part.tolist())
    part = np.ascontiguousarray(part)
    return part.view(np.dtype((np.void, part.shape[1] * part.itemsize))).ravel().tolist()


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
