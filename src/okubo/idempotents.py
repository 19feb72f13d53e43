"""Idempotents: census, the order-3 automorphism tau, the unital twist, and
the characteristic-3 classification.

A nonzero idempotent f of a symmetric composition algebra has n(f) = 1 and
induces

* an order-3 automorphism tau(x) = f*(f*x) whose fixed space is the
  centralizer of f; since tau = L_f^2, tau^3 = L_f^6, so one check of
  tau^3 = I also checks L_f^6 = I, and
* a unital composition algebra (the twist) with product x.y = (f*x)*(y*f)
  and unit f, whose tensor is the pull-back of the product by (L_f, R_f);
  the product is recovered as the pull-back of the twist by (R_f, L_f).
  These contractions, the unit check and the norm on the basis pairs run on
  the field's exact arrays (``_encoded_lie.mult_stacks`` and
  ``pulled_tensor``: lookup tables, mod-p arrays or Z[w] numerators); the
  alternative laws are proved by a complete certificate and sampled by
  random trials on the same batch layer as ``verify``.

Each idempotent is verified in one pass: ``tau_map`` and
``classify_idempotent`` share one check of the whole tau contract.

In characteristic 3 the pair (dim of the centralizer, rank of the norm on
it) takes exactly three values, giving the quaternionic / quadratic /
singular trichotomy; anything else is reported as an anomaly, never forced
into a bucket.  The exhaustive census runs through the integer-encoded
split-grid scan and is cross-checked by a second, brute-force pass over the
algebra's serialized tensor.  The raw full-field census checks n(f) = 1 and,
away from characteristic 3, the minimal-polynomial degree of every
idempotent, in batches on the encoded coordinates (``minpoly_degrees``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _encoded_lie, _kernels
from .algebra import IdentityBatch, StructureConstantAlgebra
from .errors import (
    BadCharacteristic,
    BudgetExceeded,
    ClassificationAnomaly,
    InfiniteField,
    NotIdempotent,
)
from .fields import cube_root_of_unity
from .linalg import Matrix, nullspace
from .models import build_sl3_model


def is_idempotent(algebra, f):
    return bool(f) and algebra.multiply(f, f) == f


def _require_idempotent(algebra, f):
    if not is_idempotent(algebra, f):
        raise NotIdempotent(f"{f} is not a nonzero idempotent")


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def check_census_budget(field, dim, budget):
    """Raise unless an exhaustive census of the q^dim candidates over a
    finite field fits the candidate budget."""
    if field.cardinality is None:
        raise InfiniteField("the census needs a finite field")
    candidates = field.cardinality**dim
    if candidates > budget:
        raise BudgetExceeded(
            f"{candidates} candidates exceed the census budget {budget}"
        )


def idempotent_codes(algebra, budget=10**8):
    """Census codes of all nonzero v with v*v = v, in increasing order.

    Every candidate is tested; the scan does not assume n(v) = 1, which the
    census reports check instead.
    """
    check_census_budget(algebra.field, algebra.dim, budget)
    return _kernels.census_codes(algebra.field, algebra.entries, algebra.dim)


def _decode(algebra, codes):
    coords = _kernels.census_digits(algebra.field, codes, algebra.dim)
    return [algebra.element(c) for c in _kernels.decode_rows(algebra.field, coords)]


def find_idempotents_slice_search(algebra, count, seed=0, free=3, max_slices=20000):
    """Distinct idempotents found by brute-forcing random affine slices.

    Each slice fixes all but ``free`` coordinates at random values and scans
    the q^free completions with the batched kernel.
    """
    field = algebra.field
    if field.cardinality is None:
        raise InfiniteField("slice search needs a finite field")
    q = field.cardinality
    dim = algebra.dim
    rng = random.Random(seed)
    multiply = IdentityBatch(algebra).multiply
    found = {}
    for _ in range(max_slices):
        if len(found) >= count:
            break
        positions = rng.sample(range(dim), free)
        base = [rng.randrange(q) for _ in range(dim)]
        n_batch = q**free
        batch = np.tile(np.array(base, dtype=np.int64), (n_batch, 1))
        for r in range(n_batch):
            x = r
            for p in positions:
                batch[r, p] = x % q
                x //= q
        prod = multiply(batch, batch)
        hits = np.nonzero((prod == batch).all(axis=1) & batch.any(axis=1))[0]
        for r in hits.tolist():
            el = algebra.element(_kernels.decode_coords(field, batch[r]))
            found[el.coords] = el
    return list(found.values())[:count]


# ---------------------------------------------------------------------------
# tau and the centralizer
# ---------------------------------------------------------------------------


def _centralizer(algebra, f, lf):
    """Solution space of x*f = f*x, given L_f."""
    return nullspace(algebra.right_mult_matrix(f) - lf)


def fixed_space(matrix):
    """Fixed vectors of a linear map."""
    return nullspace(matrix - Matrix.identity(matrix.field, matrix.nrows))


def _verified_tau(algebra, f):
    """(tau, centralizer of f) for an idempotent f, with the whole contract
    checked: tau^3 = L_f^6 = I, tau != I, tau f = f, tau is an automorphism
    on all basis pairs, and fix(tau) equals the centralizer."""
    _require_idempotent(algebra, f)
    lf = algebra.left_mult_matrix(f)
    tau = lf @ lf
    ident = Matrix.identity(algebra.field, algebra.dim)
    if tau @ tau @ tau != ident:
        raise AssertionError("tau^3 = L_f^6 is not the identity")
    if tau == ident:
        raise AssertionError("tau is the identity; f would be in the commutative center")
    if tau.matvec(f.coords) != f.coords:
        raise AssertionError("tau does not fix f")
    if not algebra.preserves_product(tau):
        raise AssertionError("tau is not an automorphism of the product")
    cent = _centralizer(algebra, f, lf)
    if fixed_space(tau) != cent:
        raise AssertionError("fixed space of tau differs from the centralizer")
    return tau, cent


def tau_map(algebra, f):
    """The map x -> f*(f*x) for an idempotent f, with its contract verified:
    order 3, not the identity, fixing f, an automorphism of the product, and
    fixed space equal to the centralizer of f.  Since tau = L_f^2, tau^3 is
    L_f^6, so the order-3 check also checks L_f^6 = I.
    """
    return _verified_tau(algebra, f)[0]


# ---------------------------------------------------------------------------
# the unital twist and para-Hurwitz algebras
# ---------------------------------------------------------------------------


def petersson_twist(algebra, f):
    """The unital composition algebra with product x.y = (f*x)*(y*f).

    Keeps the norm of the input algebra; f is verified to be a two-sided
    unit of the result.
    """
    ar, _, T, _, _ = _twist(algebra, f)
    return _twisted_algebra(algebra, ar, T)


def _twist(algebra, f):
    """(ar, C, T, L_f, R_f) on the field's exact array backend ``ar``: the
    algebra's tensor C, the twisted tensor T = ``pulled_tensor(C, L_f, R_f)``
    and the maps it is built from, with f checked to be a two-sided unit of
    T (its L and R there are the identity)."""
    _require_idempotent(algebra, f)
    ar = _encoded_lie.arrays_for(algebra.field)
    C = _encoded_lie.tensor_of(ar, algebra)
    F = ar.array([f.coords])
    L, R = _encoded_lie.mult_stacks(ar, C, F)
    lf, rf = L[0], R[0]
    T = _encoded_lie.pulled_tensor(ar, C, lf, rf)
    ident = ar.array(Matrix.identity(algebra.field, algebra.dim).rows)
    if not all(_encoded_lie.same(ar, m[0], ident) for m in _encoded_lie.mult_stacks(ar, T, F)):
        raise AssertionError("twist unit is not two-sided")
    return ar, C, T, lf, rf


def _twisted_algebra(algebra, ar, T):
    return StructureConstantAlgebra(algebra.field, algebra.dim, algebra.labels, ar.decode(T),
                                    form=algebra.form, grading=None)


@dataclass
class TwistReport:
    field_spec: str
    idempotent: list
    unit_ok: bool
    norm_multiplicative_basis_ok: bool
    recovery_ok: bool
    alternative_trials: int
    alternative_ok: bool
    alternative_certificate_ok: bool
    seed: int

    @property
    def passed(self):
        return (
            self.unit_ok
            and self.norm_multiplicative_basis_ok
            and self.recovery_ok
            and self.alternative_ok
            and self.alternative_certificate_ok
        )

    def summary(self):
        return {
            "field": self.field_spec,
            "idempotent": self.idempotent,
            "unit_ok": self.unit_ok,
            "norm_multiplicative_basis_ok": self.norm_multiplicative_basis_ok,
            "recovery_ok": self.recovery_ok,
            "alternative_trials": self.alternative_trials,
            "alternative_ok": self.alternative_ok,
            "alternative_certificate_ok": self.alternative_certificate_ok,
            "seed": self.seed,
            "passed": self.passed,
        }


def _alternative_laws(batch, trials, seed):
    """(certificate_ok, trials_ok) for x.(x.y) = (x.x).y and (y.x).x = y.(x.x)
    on the ``IdentityBatch`` of the twist, laws which are quadratic in x and
    linear in y: 288 certificate cases, then the random pairs, drawn x, y in
    turn, as a second route."""
    certificate_ok = bool(batch.alternative_laws(*batch.certificate_cases()[:2]).all())
    X, Y = batch.draw(random.Random(seed), trials, 2)
    return certificate_ok, bool(batch.alternative_laws(X, Y).all())


def twist_report(algebra, f, trials=500, seed=0):
    """Full verification that the twist at f is a unital composition algebra:
    two-sided unit, multiplicative norm on all basis pairs, the alternative
    laws by a complete certificate and on random pairs, and the recovery
    identity x*y = (x*f).(f*y).  Basis products of either algebra are read
    from its tensor; the unit, norm and recovery checks run on the field's
    exact arrays, the alternative laws on the batch layer of ``verify``.
    """
    ar, C, T, lf, rf = _twist(algebra, f)
    dim = algebra.dim
    batch = IdentityBatch(_twisted_algebra(algebra, ar, T))
    values = ar.array(algebra.form.values)
    # n(b_i.b_j) = n(b_i) n(b_j), with the products b_i.b_j read as tensor rows
    want = ar.mul(values[:, None], values[None, :]).reshape(dim * dim, 1)
    norm_ok = bool(batch.equal(batch.norm(T.reshape(dim * dim, dim)), want).all())
    # (b_i*f).(f*b_j) = b_i*b_j on all basis pairs
    recovery_ok = _encoded_lie.same(ar, _encoded_lie.pulled_tensor(ar, T, rf, lf), C)
    certificate_ok, alt_ok = _alternative_laws(batch, trials, seed)
    return TwistReport(
        field_spec=algebra.field.spec_string(),
        idempotent=[str(c) for c in f.coords],
        unit_ok=True,  # _twist already raised otherwise
        norm_multiplicative_basis_ok=norm_ok,
        recovery_ok=recovery_ok,
        alternative_trials=trials,
        alternative_ok=alt_ok,
        alternative_certificate_ok=certificate_ok,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# the rank of the norm on a subspace
# ---------------------------------------------------------------------------


def norm_rank_on(subspace, algebra):
    """Rank of the algebra's form on a subspace: dim V - dim V' with
    V' = {v in V : q(v) = 0 and B(v, V) = 0}, the zero set of q on the polar
    radical R = {r in V : B(r, V) = 0}.

    Let r_1..r_m be a basis of R.  Since B vanishes on R x R,
    q(sum c_i r_i) = sum c_i^2 q(r_i).  In odd characteristic
    q(r) = B(r, r)/2 = 0 on R, so V' = R; each q(r_i) is checked to vanish.
    In characteristic 2 every field here is finite, hence perfect: each
    q(r_i) has a square root s_i, and q(sum c_i r_i) = (sum c_i s_i)^2.  So
    V' is the kernel of the linear functional c -> sum c_i s_i on R: all of
    R if every q(r_i) = 0, a hyperplane of R otherwise.
    """
    form = algebra.form
    field = algebra.field
    basis = list(subspace.basis)
    d = len(basis)
    if d == 0:
        return 0
    gram = Matrix(
        field, [[form.polar_eval(a, b) for b in basis] for a in basis]
    )
    rad_coords = nullspace(gram)
    # q on the radical basis, in ambient coordinates
    zero = field.zero
    q_values = []
    for rc in rad_coords.basis:
        vec = [zero] * subspace.ambient
        for c, row in zip(rc, basis):
            if c:
                for j, x in enumerate(row):
                    if x:
                        vec[j] = vec[j] + c * x
        q_values.append(form.evaluate(vec))
    vprime_dim = len(q_values)
    if any(q_values):
        if field.characteristic != 2:
            raise AssertionError("quadratic form fails to vanish on the polar radical")
        vprime_dim -= 1
    return d - vprime_dim


# ---------------------------------------------------------------------------
# classification (characteristic 3)
# ---------------------------------------------------------------------------

QUATERNIONIC = "quaternionic"
QUADRATIC = "quadratic"
SINGULAR = "singular"

_CLASS_BY_SIGNATURE = {
    (6, 4): QUATERNIONIC,
    (4, 2): QUADRATIC,
    (4, 1): SINGULAR,
}


@dataclass
class IdempotentReport:
    element: object
    norm_value: object
    centralizer_dim: int
    tau_fixed_dim: int
    norm_rank: int
    type_tag: str

    def summary(self):
        return {
            "element": [str(c) for c in self.element.coords],
            "norm": str(self.norm_value),
            "centralizer_dim": self.centralizer_dim,
            "tau_fixed_dim": self.tau_fixed_dim,
            "norm_rank": self.norm_rank,
            "type": self.type_tag,
        }


def classify_idempotent(algebra, f):
    """Assign the characteristic-3 type from (centralizer dim, norm rank),
    after one verified tau/centralizer pass.

    Raises ClassificationAnomaly for any pair outside the three known cases.
    """
    if algebra.field.characteristic != 3:
        raise BadCharacteristic("the idempotent taxonomy is characteristic 3 only")
    _, cent = _verified_tau(algebra, f)
    rank = norm_rank_on(cent, algebra)
    tag = _CLASS_BY_SIGNATURE.get((cent.dim, rank))
    if tag is None:
        raise ClassificationAnomaly([str(c) for c in f.coords], cent.dim, rank)
    return IdempotentReport(
        element=f,
        norm_value=algebra.norm(f),
        centralizer_dim=cent.dim,
        tau_fixed_dim=cent.dim,  # fix(tau) was checked equal to the centralizer
        norm_rank=rank,
        type_tag=tag,
    )


def minpoly_degrees(model, X):
    """The minimal-polynomial degree of sum_i f_i B_i over the model's basis
    matrices B_i, for each encoded coordinate row f of X, in one batch.  The
    rows are taken to be idempotents, unchecked."""
    ar = _encoded_lie.arrays_for(model.field)
    basis = ar.array([m.to_vec() for m in model.basis_matrices])
    return _kernels.batch_minpoly_degrees(model.field, ar.matmul(X, basis).reshape(-1, 3, 3))


# ---------------------------------------------------------------------------
# the raw full-field census
# ---------------------------------------------------------------------------


def full_field_census(algebra, budget=10**8):
    """Raw census over any finite field: the number of nonzero idempotents,
    whether each has n(f) = 1, and, when the matrix model exists (char != 3
    with a cube root of unity), the minimal-polynomial degrees of the
    idempotents as 3x3 matrices, each of which must be at most 2.

    Runs batched on the encoded census codes; returns (results, passed).
    """
    field = algebra.field
    codes = idempotent_codes(algebra, budget=budget)
    X = _kernels.census_digits(field, codes, algebra.dim)
    norms_ok = bool((IdentityBatch(algebra).norm(X) == field.element_index(field.one)).all())
    results = {
        "field": field.spec_string(),
        "total": int(codes.size),
        "all_norms_one": norms_ok,
    }
    passed = norms_ok
    if field.characteristic != 3 and cube_root_of_unity(field) is not None:
        degrees = minpoly_degrees(build_sl3_model(field), X)
        deg_ok = bool((degrees <= 2).all())
        results["minpoly_degrees"] = sorted(set(degrees.tolist()))
        results["minpoly_at_most_2"] = deg_ok
        passed = passed and deg_ok
    return results, passed


# ---------------------------------------------------------------------------
# the census summary
# ---------------------------------------------------------------------------


@dataclass
class CensusSummary:
    field_spec: str
    total: int
    by_type: dict
    quaternionic_witness: list | None
    quaternionic_is_distinguished: bool
    anomalies: list
    all_norms_one: bool
    dual_pass_consistent: bool
    reports: list = dc_field(default_factory=list, repr=False)

    @property
    def passed(self):
        return (
            self.by_type.get(QUATERNIONIC, 0) == 1
            and self.quaternionic_is_distinguished
            and not self.anomalies
            and self.all_norms_one
            and self.dual_pass_consistent
        )

    def summary(self):
        return {
            "field": self.field_spec,
            "total": self.total,
            "by_type": dict(self.by_type),
            "quaternionic_witness": self.quaternionic_witness,
            "quaternionic_is_distinguished": self.quaternionic_is_distinguished,
            "anomalies": self.anomalies,
            "all_norms_one": self.all_norms_one,
            "dual_pass_consistent": self.dual_pass_consistent,
            "passed": self.passed,
        }


def _dual_pass_codes(algebra):
    """Re-run the census over the serialized-and-reread tensor with the
    brute-force reference kernel, so that the two passes share neither the
    tensor object nor the scan algorithm."""
    reread = StructureConstantAlgebra.from_json(algebra.to_json())
    return _kernels.census_codes_reference(reread.field, reread.entries, reread.dim)


def census_summary(algebra, budget=10**8):
    """Exhaustive census with classification over a finite characteristic-3 field."""
    if algebra.field.characteristic != 3:
        raise BadCharacteristic("the classified census is characteristic 3 only")
    codes = idempotent_codes(algebra, budget=budget)
    dual_ok = bool(np.array_equal(codes, _dual_pass_codes(algebra)))
    idems = _decode(algebra, codes)
    by_type = {QUATERNIONIC: 0, QUADRATIC: 0, SINGULAR: 0}
    anomalies = []
    reports = []
    witness = None
    all_norms_one = True
    one = algebra.field.one
    for f in idems:
        rep = None
        try:
            rep = classify_idempotent(algebra, f)
        except ClassificationAnomaly as exc:
            anomalies.append(
                {
                    "element": exc.coords,
                    "centralizer_dim": exc.centralizer_dim,
                    "norm_rank": exc.norm_rank,
                }
            )
        except NotIdempotent:
            # a scan fault, which the dual pass reports as well
            anomalies.append(
                {"element": [str(c) for c in f.coords], "not_idempotent": True}
            )
        # a classified idempotent's report carries n(f); an anomaly's does not
        norm = rep.norm_value if rep is not None else algebra.norm(f)
        all_norms_one = all_norms_one and norm == one
        if rep is None:
            continue
        reports.append(rep)
        by_type[rep.type_tag] += 1
        if rep.type_tag == QUATERNIONIC:
            witness = [str(c) for c in f.coords]
    e = algebra.element([one] * algebra.dim)
    q_is_e = (
        by_type[QUATERNIONIC] == 1
        and witness == [str(c) for c in e.coords]
    )
    return CensusSummary(
        field_spec=algebra.field.spec_string(),
        total=len(idems),
        by_type=by_type,
        quaternionic_witness=witness,
        quaternionic_is_distinguished=q_is_e,
        anomalies=anomalies,
        all_norms_one=all_norms_one,
        dual_pass_consistent=dual_ok,
        reports=reports,
    )
