"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  All arithmetic is exact, so every comparison below is
equality of canonical forms; the randomized trials use fixed seeds.
"""

import time

import pytest

from okubo.algebra import StructureConstantAlgebra
from okubo.fields import GF, field_from_spec
from okubo.idempotents import (
    QUADRATIC,
    QUATERNIONIC,
    SINGULAR,
    census_summary,
    classify_idempotent,
    find_idempotents_slice_search,
    fixed_space,
    petersson_twist,
    tau_map,
    twist_report,
)
from okubo.liealg import conjugation_automorphism, derivations
from okubo.linalg import Matrix, Subspace
from okubo.models import (
    TruncatedPoly,
    build_char3_model,
    build_sl3_model,
    build_split_okubo,
    diamond_truncated,
    distinguished_idempotent,
    model_isomorphism_char_not3,
)
from scalar_reference import (
    center_of,
    centralizer,
    derived_subalgebra,
    diamond_via_partials,
    enumerate_idempotents,
    full_space,
    grading_on_derivations,
    inner_derivation_span,
    intersect,
    is_simple_finite,
    killing_form,
    lie_close,
    minpoly_check_char_not3,
    verify_block_bracket,
)

CRITERION_FIELDS = ["gf(2)", "gf(3)", "gf(5)", "gf(7)", "gf(3^2;t^2+1)", "q(w)"]


def _report(n, label, t0):
    print(f"ACCEPTANCE CRITERION {n}: PASS - {label} ({time.perf_counter() - t0:.2f}s)")


@pytest.fixture(scope="module")
def gf3_algebra():
    return build_split_okubo(GF(3))


@pytest.fixture(scope="module")
def gf3_census(gf3_algebra):
    return enumerate_idempotents(gf3_algebra)


@pytest.fixture(scope="module")
def gf3_taus(gf3_algebra, gf3_census):
    """tau for every census idempotent; tau_map verifies the full contract
    (order 3, not identity, automorphism of the product, fixed space equal
    to the centralizer)."""
    return [(f, tau_map(gf3_algebra, f)) for f in gf3_census]


def test_criterion_1_symmetric_composition_axioms():
    t0 = time.perf_counter()
    for spec in CRITERION_FIELDS:
        algebra = build_split_okubo(field_from_spec(spec))
        report = algebra.check_symmetric_composition(trials=200, seed=0)
        assert report.passed, (spec, report.summary())
        by_name = {c.name: c for c in report.checks}
        assert by_name["polar_associative_basis"].cases == 8**3
        assert by_name["norm_multiplicative_basis"].cases == 8**2
        assert by_name["xyx_identity_basis"].cases == 8**2
        for c in report.checks:
            if c.name.endswith("_random"):
                assert c.cases == 200
    _report(1, f"symmetric-composition axioms over {', '.join(CRITERION_FIELDS)}", t0)


def test_criterion_2_model_isomorphisms():
    t0 = time.perf_counter()
    for spec in ("gf(7)", "q(w)"):
        _, report = model_isomorphism_char_not3(field_from_spec(spec))
        assert report.passed, report.summary()
        assert report.products_checked == 64
        assert report.polar_checked == 64
        assert report.norms_checked == 8
    for spec in ("gf(3)", "gf(3^2;t^2+1)"):
        _, report = build_char3_model(field_from_spec(spec))
        assert report.passed, report.summary()
        assert report.products_checked == 64
        assert report.polar_checked == 64
        assert report.norms_checked == 8
    gf3 = GF(3)
    monomials = [TruncatedPoly.monomial(gf3, i, j) for i in range(3) for j in range(3)]
    pairs = 0
    for f in monomials:
        for g in monomials:
            assert diamond_truncated(f, g) == diamond_via_partials(f, g)
            pairs += 1
    assert pairs == 81
    _report(2, "model isomorphisms exact over gf(7), q(w), gf(3), gf(9); 81 partial-derivative pairs", t0)


def test_criterion_3_derivation_dimensions():
    t0 = time.perf_counter()
    for spec in ("gf(5)", "gf(7)", "q(w)"):
        algebra = build_split_okubo(field_from_spec(spec))
        der = derivations(algebra)
        inner = inner_derivation_span(algebra)
        assert der.dim == 8, spec
        assert der == inner, spec
    for spec in ("gf(3)", "gf(3^2;t^2+1)"):
        algebra = build_split_okubo(field_from_spec(spec))
        der = derivations(algebra)
        inner = inner_derivation_span(algebra)
        assert der.dim == 10, spec
        assert inner.dim == 8, spec
        derived = derived_subalgebra(lie_close(der))
        derived_span = Subspace.from_vectors(
            algebra.field, 64, [m.to_vec() for m in derived.maps]
        )
        assert derived_span == inner, spec
    _report(3, "dim Der = 8 (= inner) off char 3; = 10 with derived = inner = 8 in char 3", t0)


def test_criterion_4_characteristic_3_pathology(gf3_algebra):
    t0 = time.perf_counter()
    der = derivations(gf3_algebra)
    lie = lie_close(der)
    derived = derived_subalgebra(lie)
    assert center_of(derived).dim == 0
    kf = killing_form(derived)
    assert kf.nrows == 8 and kf.ncols == 8
    for i in range(8):
        for j in range(8):
            assert not kf[i, j]
    assert is_simple_finite(derived, seed=0, max_trials=20) is True
    assert is_simple_finite(lie, seed=0, max_trials=20) is False
    grading = grading_on_derivations(gf3_algebra)
    assert grading.dims[(0, 0)] == 2
    for degree, dim in grading.dims.items():
        if degree != (0, 0):
            assert dim == 1
    assert grading.total == 10
    assert grading.passed
    _report(4, "[Der,Der]: center 0, Killing = 0, simple; Der not simple; grading 2+8x1", t0)


def test_criterion_5_block_bracket(gf3_algebra):
    t0 = time.perf_counter()
    assert verify_block_bracket(gf3_algebra) == []
    _report(5, "Block bracket (il-jk) x^(i+k) y^(j+l) on all 64 monomial pairs", t0)


def test_criterion_6_idempotent_census_gf3(gf3_algebra, gf3_census):
    t0 = time.perf_counter()
    assert GF(3).cardinality**8 - 1 == 6560  # scanned candidates (zero skipped)
    summary = census_summary(gf3_algebra)
    assert summary.total == len(gf3_census) == 81
    assert summary.by_type[QUATERNIONIC] == 1
    assert summary.quaternionic_is_distinguished
    e = distinguished_idempotent(gf3_algebra)
    assert summary.quaternionic_witness == [str(c) for c in e.coords]
    for i in (0, 2, 4, 6):
        pair = gf3_algebra.basis_element(i) + gf3_algebra.basis_element(i + 1)
        assert classify_idempotent(gf3_algebra, pair).type_tag == QUADRATIC
    witness = gf3_algebra.element([-1, 0, -1, 0, 0, -1, 1, 1])
    assert classify_idempotent(gf3_algebra, witness).type_tag == SINGULAR
    one = gf3_algebra.field.one
    for f in gf3_census:
        assert gf3_algebra.norm(f) == one
    assert summary.anomalies == []
    assert summary.all_norms_one
    assert summary.by_type[QUADRATIC] + summary.by_type[SINGULAR] + 1 == 81
    _report(6, "exhaustive census of 6560 vectors: 81 idempotents, unique quaternionic = e, 0 anomalies", t0)


def test_criterion_7_tau_and_twist_suite(gf3_algebra, gf3_taus):
    t0 = time.perf_counter()
    ident = Matrix.identity(gf3_algebra.field, 8)
    for f, tau in gf3_taus:
        # tau_map already certified: tau^3 = id != tau, automorphism of *,
        # fixed(tau) = centralizer(f), and (L_f)^6 = id; re-assert the
        # headline identities here
        assert tau @ tau @ tau == ident and tau != ident
        lf = gf3_algebra.left_mult_matrix(f)
        assert lf @ lf @ lf @ lf @ lf @ lf == ident
        assert fixed_space(tau) == centralizer(gf3_algebra, f)
        twisted = petersson_twist(gf3_algebra, f)  # verifies the two-sided unit
        # tau is an automorphism of the twisted product as well
        images = [twisted.element(tau.col(j)) for j in range(8)]
        for i in range(8):
            for j in range(8):
                lhs = tau.matvec(twisted.tensor[i][j])
                rhs = twisted.multiply(images[i], images[j]).coords
                assert tuple(lhs) == tuple(rhs)
        report = twist_report(gf3_algebra, f, trials=500, seed=0)
        assert report.passed, report.summary()
    _report(7, f"tau + twist suite for all {len(gf3_taus)} census idempotents (500 random pairs each)", t0)


def test_criterion_8_char_not3_automorphisms_and_idempotents():
    t0 = time.perf_counter()
    import random

    gf7 = GF(7)
    model = build_sl3_model(gf7)
    rng = random.Random(0)
    produced = 0
    while produced < 50:
        g = Matrix(gf7, [[gf7.random_scalar(rng) for _ in range(3)] for _ in range(3)])
        if g.det() == gf7.zero:
            continue
        conjugation_automorphism(model, g)  # raises unless automorphism + isometry
        produced += 1
    found = find_idempotents_slice_search(model.algebra, 20, seed=0)
    assert len(found) == 20
    for f in found:
        assert minpoly_check_char_not3(model, f) <= 2
    _report(8, "50 verified conjugation automorphisms; 20 idempotents with minpoly degree <= 2", t0)


def test_criterion_9_distinguished_idempotent_fixed(gf3_algebra, gf3_taus):
    # necessity: every constructed automorphism fixes e; the "precisely F e"
    # statement over the whole automorphism group is not desk-reproducible,
    # but the constructed subset already cuts the common fixed space down to
    # the line spanned by e, which is the strongest checkable form here
    t0 = time.perf_counter()
    e = distinguished_idempotent(gf3_algebra)
    common = full_space(gf3_algebra.field, 8)
    for _, tau in gf3_taus:
        assert gf3_algebra.element(tau.matvec(e.coords)) == e
        common = intersect(common, fixed_space(tau))
    assert common == Subspace.from_vectors(gf3_algebra.field, 8, [e.coords])
    _report(9, f"all {len(gf3_taus)} tau maps fix e; their common fixed space is exactly span(e)", t0)


def test_criterion_10_fault_injection(gf3_algebra):
    t0 = time.perf_counter()
    gf3 = gf3_algebra.field
    detected = 0
    for which in (0, 13, 27):
        i, j, k, c = gf3_algebra.entries[which]
        tensor = [
            [[gf3_algebra.tensor[a][b][d] for d in range(8)] for b in range(8)]
            for a in range(8)
        ]
        tensor[i][j][k] = -c
        mutant = StructureConstantAlgebra(
            gf3, 8, gf3_algebra.labels, tensor,
            form=gf3_algebra.form, grading=gf3_algebra.grading,
        )
        report = mutant.check_symmetric_composition(trials=200, seed=0)
        if not report.passed:
            detected += 1
    assert detected == 3
    _report(10, "3 single-sign tensor mutants, all caught by the criterion-1 suite", t0)
