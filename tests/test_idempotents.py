import itertools
import random
from unittest import mock

import numpy as np
import pytest

from okubo import _encoded_lie, _kernels, idempotents
from okubo.algebra import IdentityBatch, StructureConstantAlgebra
from okubo.errors import (
    BadCharacteristic,
    BudgetExceeded,
    InfiniteField,
    NotIdempotent,
)
from okubo.fields import GF, field_from_spec, rationals
from okubo.idempotents import (
    QUADRATIC,
    QUATERNIONIC,
    SINGULAR,
    _alternative_laws,
    census_summary,
    classify_idempotent,
    find_idempotents_slice_search,
    fixed_space,
    full_field_census,
    idempotent_codes,
    is_idempotent,
    minpoly_degrees,
    norm_rank_on,
    petersson_twist,
    tau_map,
    twist_report,
)
from okubo.linalg import Matrix, Subspace
from scalar_reference import (
    ObjectBatch,
    centralizer,
    contains_vector,
    enumerate_idempotents,
    from_rows,
    full_space,
    minpoly_check_char_not3,
    para_hurwitz_of,
    unit_of,
    zero_space,
)
from okubo.models import build_sl3_model, build_split_okubo, distinguished_idempotent

# frozen census facts for GF(3), derived by two independent brute-force passes
GF3_TOTAL = 81
GF3_BY_TYPE = {QUATERNIONIC: 1, QUADRATIC: 72, SINGULAR: 8}

SINGULAR_WITNESS = [-1, 0, -1, 0, 0, -1, 1, 1]


class TestCensus:
    def test_total_and_membership(self, okubo_gf3, census_gf3):
        assert len(census_gf3) == GF3_TOTAL
        e = distinguished_idempotent(okubo_gf3)
        assert e in census_gf3
        for i in (0, 2, 4, 6):
            pair = okubo_gf3.basis_element(i) + okubo_gf3.basis_element(i + 1)
            assert pair in census_gf3
        assert okubo_gf3.element(SINGULAR_WITNESS) in census_gf3

    def test_all_are_idempotent_and_norm_one(self, okubo_gf3, census_gf3, gf3):
        for f in census_gf3:
            assert is_idempotent(okubo_gf3, f)
            assert okubo_gf3.norm(f) == gf3.one

    def test_budget(self, okubo_gf3):
        with pytest.raises(BudgetExceeded):
            enumerate_idempotents(okubo_gf3, budget=100)

    def test_infinite_field(self):
        algebra = build_split_okubo(rationals())
        with pytest.raises(InfiniteField):
            enumerate_idempotents(algebra)

    def test_enumeration_is_lexicographic(self, gf3, census_gf3):
        keys = [tuple(gf3.element_index(c) for c in f.coords) for f in census_gf3]
        assert keys == sorted(keys)


class TestTau:
    def test_hand_derived_value(self, okubo_gf3):
        # f = x(1,1) + x(-1,-1); both pairing terms vanish and
        # x(1,0)*f = -x(0,-1), so tau(x(1,0)) = x(0,-1)
        f = okubo_gf3.basis_element(4) + okubo_gf3.basis_element(5)
        tau = tau_map(okubo_gf3, f)
        image = okubo_gf3.element(tau.matvec(okubo_gf3.basis_element(0).coords))
        assert image == okubo_gf3.basis_element(3)

    def test_fixes_f(self, okubo_gf3):
        e = distinguished_idempotent(okubo_gf3)
        tau = tau_map(okubo_gf3, e)
        assert okubo_gf3.element(tau.matvec(e.coords)) == e

    def test_simplified_formula(self, okubo_gf3, gf3, census_gf3):
        # tau(x) = n(f,x) f - x*f
        rng = random.Random(67)
        for f in rng.sample(census_gf3, 12):
            tau = tau_map(okubo_gf3, f)
            cols = []
            for j in range(8):
                bj = okubo_gf3.basis_element(j)
                expect = f * okubo_gf3.norm_polar(f, bj) - okubo_gf3.multiply(bj, f)
                cols.append(expect.coords)
            assert tau == Matrix(gf3, list(zip(*cols)))

    def test_fixed_space_is_centralizer(self, okubo_gf3, census_gf3):
        rng = random.Random(68)
        for f in rng.sample(census_gf3, 8):
            assert fixed_space(tau_map(okubo_gf3, f)) == centralizer(okubo_gf3, f)

    def test_rejects_non_idempotent(self, okubo_gf3):
        with pytest.raises(NotIdempotent):
            tau_map(okubo_gf3, okubo_gf3.zero())
        with pytest.raises(NotIdempotent):
            tau_map(okubo_gf3, okubo_gf3.basis_element(0))


def small_algebra(field, dim, products):
    """An algebra on e = b_0, u = b_1, ... with the given basis products
    {(i, j): coordinates of b_i*b_j}; every other product is 0."""
    zero = [field.zero] * dim
    tensor = [
        [[field.scalar(c) for c in products.get((i, j), zero)] for j in range(dim)]
        for i in range(dim)
    ]
    return StructureConstantAlgebra(field, dim, [f"b{i}" for i in range(dim)], tensor)


class TestTauContract:
    """Each algebra breaks one clause of the tau contract at the idempotent
    e = b_0.  The clause tau f = f cannot break: f*(f*f) = f*f = f for every
    idempotent f, so no algebra here violates it alone."""

    @pytest.mark.parametrize(
        "p, dim, products, message",
        [
            # L_e = (1): tau = I
            (3, 1, {(0, 0): [1]}, "tau is the identity"),
            # L_e = diag(1, 2) over gf(5): tau^3 = diag(1, 4)
            (5, 2, {(0, 0): [1, 0], (0, 1): [0, 2]}, "tau\\^3 = L_f\\^6"),
            # L_e = diag(1, 3) over gf(7): tau = diag(1, 2) has order 3 but
            # tau(u*u) = 2u while tau(u)*tau(u) = 4u
            (7, 2, {(0, 0): [1, 0], (0, 1): [0, 3], (1, 1): [0, 1]}, "automorphism"),
            # e*u = u*e = 3u: tau = diag(1, 2) is an automorphism fixing only
            # the line of e, while u commutes with e
            (7, 2, {(0, 0): [1, 0], (0, 1): [0, 3], (1, 0): [0, 3]}, "centralizer"),
        ],
    )
    def test_each_clause_raises(self, p, dim, products, message):
        algebra = small_algebra(GF(p), dim, products)
        e = algebra.basis_element(0)
        with pytest.raises(AssertionError, match=message):
            tau_map(algebra, e)
        # the classifier runs the same contract check
        if p == 3:
            with pytest.raises(AssertionError, match=message):
                classify_idempotent(algebra, e)


class TestCentralizer:
    def test_dim_of_e(self, okubo_gf3):
        e = distinguished_idempotent(okubo_gf3)
        assert centralizer(okubo_gf3, e).dim == 6

    def test_dim_of_pair_gf3(self, okubo_gf3):
        f = okubo_gf3.basis_element(4) + okubo_gf3.basis_element(5)
        assert centralizer(okubo_gf3, f).dim == 4

    def test_pair_gf7_dim4_nonsingular(self, okubo_gf7):
        # outside characteristic 3 the fixed subalgebra is a 4-dimensional
        # composition subalgebra, so the restricted norm is nonsingular
        f = okubo_gf7.basis_element(4) + okubo_gf7.basis_element(5)
        cent = centralizer(okubo_gf7, f)
        assert cent.dim == 4
        assert norm_rank_on(cent, okubo_gf7) == 4


class TestNormRank:
    def test_full_space(self, okubo_gf3, gf3):
        assert norm_rank_on(full_space(gf3, 8), okubo_gf3) == 8

    def test_centralizer_of_e(self, okubo_gf3):
        e = distinguished_idempotent(okubo_gf3)
        assert norm_rank_on(centralizer(okubo_gf3, e), okubo_gf3) == 4

    def test_isotropic_line(self, okubo_gf3, gf3):
        line = Subspace.from_vectors(gf3, 8, [okubo_gf3.basis_element(0).coords])
        assert norm_rank_on(line, okubo_gf3) == 0

    def test_zero_subspace(self, okubo_gf3, gf3):
        assert norm_rank_on(zero_space(gf3, 8), okubo_gf3) == 0

    def test_char2_exhaustive_branch(self, gf2):
        algebra = build_split_okubo(gf2)
        assert norm_rank_on(full_space(gf2, 8), algebra) == 8
        line = Subspace.from_vectors(gf2, 8, [algebra.basis_element(0).coords])
        assert norm_rank_on(line, algebra) == 0
        # a hyperbolic plane keeps rank 2 even in characteristic 2
        plane = Subspace.from_vectors(
            gf2, 8,
            [algebra.basis_element(0).coords, algebra.basis_element(1).coords],
        )
        assert norm_rank_on(plane, algebra) == 2

    @pytest.mark.parametrize(
        "spec, max_dim, cases", [("gf(2)", 5, 300), ("gf(2^2;t^2+t+1)", 3, 150)]
    )
    def test_char2_closed_form_matches_scan(self, spec, max_dim, cases):
        field = field_from_spec(spec)
        algebra = build_split_okubo(field)
        rng = random.Random(7)
        ranks = set()
        for _ in range(cases):
            vecs = [[field.random_scalar(rng) for _ in range(8)]
                    for _ in range(rng.randint(1, max_dim))]
            space = Subspace.from_vectors(field, 8, vecs)
            rank = norm_rank_on(space, algebra)
            assert rank == _norm_rank_by_scan(space, algebra)
            ranks.add(rank)
        # B alternates in characteristic 2, so its rank is even; an odd rank
        # means q is nonzero on the polar radical, the hyperplane case
        assert any(r % 2 for r in ranks) and any(r and not r % 2 for r in ranks)


def _norm_rank_by_scan(space, algebra):
    """dim V - dim V' with V' = {v in V : q(v) = 0 and B(v, V) = 0}, found by
    trying every v in V; V' is checked to be a subspace on the way."""
    field, form = algebra.field, algebra.form
    basis = list(space.basis)
    zeros = []
    for coefs in itertools.product(list(field.elements()), repeat=len(basis)):
        v = [sum((c * row[j] for c, row in zip(coefs, basis)), field.zero) for j in range(8)]
        if not form.evaluate(v) and not any(form.polar_eval(v, b) for b in basis):
            zeros.append(v)
    vprime = Subspace.from_vectors(field, 8, zeros)
    assert len(zeros) == field.cardinality**vprime.dim
    return len(basis) - vprime.dim


class TestTwist:
    def test_unit_examples(self, okubo_gf3):
        e = distinguished_idempotent(okubo_gf3)
        twisted = petersson_twist(okubo_gf3, e)
        x10 = twisted.basis_element(0)
        assert twisted.multiply(twisted.element(e.coords), x10) == x10
        u = unit_of(twisted)
        assert u is not None and u.coords == e.coords

    def test_report_passes(self, okubo_gf3):
        e = distinguished_idempotent(okubo_gf3)
        report = twist_report(okubo_gf3, e, trials=500, seed=0)
        assert report.passed

    def test_quadratic_idempotent_twist(self, okubo_gf3):
        f = okubo_gf3.basis_element(0) + okubo_gf3.basis_element(1)
        assert twist_report(okubo_gf3, f, trials=200, seed=1).passed

    def test_char_not3_twist(self, okubo_gf7):
        f = okubo_gf7.basis_element(0) + okubo_gf7.basis_element(1)
        assert twist_report(okubo_gf7, f, trials=200, seed=2).passed

    def test_qw_twist_generic_path(self, okubo_qw):
        f = okubo_qw.basis_element(0) + okubo_qw.basis_element(1)
        assert twist_report(okubo_qw, f, trials=25, seed=3).passed

    def test_rejects_non_idempotent(self, okubo_gf3):
        with pytest.raises(NotIdempotent):
            petersson_twist(okubo_gf3, okubo_gf3.basis_element(0))

    def test_report_carries_certificate(self, okubo_gf3):
        e = distinguished_idempotent(okubo_gf3)
        report = twist_report(okubo_gf3, e, trials=20, seed=0)
        assert report.summary()["alternative_certificate_ok"] is True
        report.alternative_certificate_ok = False
        assert not report.passed and report.summary()["passed"] is False


TWIST_CASES = [("gf(3)", "1,1,1,1,1,1,1,1"), ("gf(3^2;t^2+1)", "1,1,1,1,1,1,1,1"),
               ("gf(2^2;t^2+t+1)", "1,1,0,0,0,0,0,0"), ("gf(257)", "1,1,0,0,0,0,0,0"),
               ("q(w)", "1,1,0,0,0,0,0,0")]


def twist_case(spec, idempotent):
    field = field_from_spec(spec)
    algebra = build_split_okubo(field)
    return algebra, algebra.element([field.parse(c) for c in idempotent.split(",")])


def one_entry_changed(ar, field, T, position=(0, 0, 0)):
    """The array T with one added to the entry at ``position``."""
    delta = [[[field.zero] * 8 for _ in range(8)] for _ in range(8)]
    i, j, k = position
    delta[i][j][k] = field.one
    return ar.add(T, ar.array(delta))


class TestTwistOnArrays:
    @pytest.mark.parametrize("spec, idempotent", TWIST_CASES)
    def test_twist_matches_object_path(self, spec, idempotent):
        algebra, f = twist_case(spec, idempotent)
        lf, rf = algebra.left_mult_matrix(f), algebra.right_mult_matrix(f)
        ar, _, _, alf, arf = idempotents._twist(algebra, f)
        assert ar.decode(alf) == [list(row) for row in lf.rows]
        assert ar.decode(arf) == [list(row) for row in rf.rows]
        assert petersson_twist(algebra, f).tensor == algebra.product_tensor(lf, rf)
        assert twist_report(algebra, f, trials=20, seed=0).passed

    @pytest.mark.parametrize("spec, idempotent", TWIST_CASES)
    def test_one_entry_changed_fails_recovery_norm_and_certificate(self, spec, idempotent,
                                                                     monkeypatch):
        # the entry is one whose change breaks n(b_i . b_j) = n(b_i) n(b_j),
        # as the form's own evaluation on the changed rows says
        algebra, f = twist_case(spec, idempotent)
        ar, C, T, lf, rf = idempotents._twist(algebra, f)
        values = algebra.form.values
        for k in range(8):
            changed = one_entry_changed(ar, algebra.field, T, (0, 0, k))
            rows = ar.decode(changed)
            if not all(algebra.form.evaluate(rows[i][j]) == values[i] * values[j]
                       for i in range(8) for j in range(8)):
                break
        else:
            pytest.fail("no entry (0, 0, k) whose change breaks the norm")
        monkeypatch.setattr(idempotents, "_twist", lambda *_: (ar, C, changed, lf, rf))
        report = twist_report(algebra, f, trials=20, seed=0)
        assert not report.recovery_ok
        assert not report.norm_multiplicative_basis_ok
        assert not report.alternative_certificate_ok
        assert not report.passed

    @pytest.mark.parametrize("spec, idempotent", TWIST_CASES)
    def test_unit_check_catches_one_entry_changed(self, spec, idempotent, monkeypatch):
        algebra, f = twist_case(spec, idempotent)
        real = _encoded_lie.pulled_tensor

        def mutated(ar, C, phi, psi):
            return one_entry_changed(ar, algebra.field, real(ar, C, phi, psi))

        monkeypatch.setattr(_encoded_lie, "pulled_tensor", mutated)
        with pytest.raises(AssertionError, match="twist unit is not two-sided"):
            twist_report(algebra, f, trials=20, seed=0)


def twist_mutant(twisted):
    """The twist with its first nonzero structure constant negated."""
    tensor = [[list(row) for row in plane] for plane in twisted.tensor]
    i, j, k, c = twisted.entries[0]
    tensor[i][j][k] = -c
    return StructureConstantAlgebra(
        twisted.field, twisted.dim, twisted.labels, tensor, form=twisted.form
    )


class TestTwistAlternativeLaws:
    @pytest.fixture(scope="class")
    def twists(self, okubo_gf3):
        twisted = petersson_twist(okubo_gf3, distinguished_idempotent(okubo_gf3))
        return {"twist": twisted, "mutant": twist_mutant(twisted)}

    @pytest.mark.parametrize("which", ["twist", "mutant"])
    def test_batches_agree_per_trial(self, twists, which):
        twisted = twists[which]
        encoded, objects = IdentityBatch(twisted), ObjectBatch(twisted)
        X, Y = encoded.draw(random.Random(5), 60, 2)
        U, V = objects.draw(random.Random(5), 60, 2)
        assert _kernels.decode_rows(twisted.field, X) == [u.coords for u in U]
        assert _kernels.decode_rows(twisted.field, Y) == [v.coords for v in V]
        verdicts = encoded.alternative_laws(X, Y)
        assert np.array_equal(verdicts, objects.alternative_laws(U, V))
        if which == "twist":
            assert verdicts.all()
        else:
            assert 0 < verdicts.sum() < len(verdicts)

    @pytest.mark.parametrize("which", ["twist", "mutant"])
    def test_certificate_cases_agree_per_case(self, twists, which):
        twisted = twists[which]
        encoded, objects = IdentityBatch(twisted), ObjectBatch(twisted)
        X, Y, label = encoded.certificate_cases()
        U, V, same_label = objects.certificate_cases()
        assert len(X) == len(U) == 36 * 8
        assert [label(r) for r in range(len(X))] == [same_label(r) for r in range(len(U))]
        assert np.array_equal(encoded.alternative_laws(X, Y), objects.alternative_laws(U, V))

    @pytest.mark.parametrize("which", ["twist", "mutant"])
    def test_integer_batch_agrees_over_qw(self, qw, which):
        # the twist at an idempotent of the q(w) algebra; its random trials
        # draw coordinates with denominators and w-parts
        algebra = build_split_okubo(qw)
        twisted = petersson_twist(algebra, algebra.element([1, 1, 0, 0, 0, 0, 0, 0]))
        if which == "mutant":
            twisted = twist_mutant(twisted)
        integer, objects = IdentityBatch(twisted), ObjectBatch(twisted)
        X, Y, label = integer.certificate_cases()
        U, V, same_label = objects.certificate_cases()
        assert [label(r) for r in range(len(U))] == [same_label(r) for r in range(len(U))]
        certificate = integer.alternative_laws(X, Y)
        assert np.array_equal(certificate, objects.alternative_laws(U, V))
        X, Y = integer.draw(random.Random(5), 30, 2)
        U, V = objects.draw(random.Random(5), 30, 2)
        assert [integer.coords_text(X, r) for r in range(30)] == [
            objects.coords_text(U, r) for r in range(30)
        ]
        verdicts = integer.alternative_laws(X, Y)
        assert np.array_equal(verdicts, objects.alternative_laws(U, V))
        assert certificate.all() == verdicts.all() == (which == "twist")

    def test_certificate_catches_mutant(self, twists):
        assert _alternative_laws(IdentityBatch(twists["twist"]), 1, 0) == (True, True)
        certificate_ok, _ = _alternative_laws(IdentityBatch(twists["mutant"]), 1, 0)
        assert certificate_ok is False
        # the same on the mod-p arrays that serve the fields beyond the tables
        with mock.patch.object(_kernels, "supports_field", return_value=False):
            assert type(IdentityBatch(twists["mutant"]).ar).__name__ == "ModArrays"
            assert _alternative_laws(IdentityBatch(twists["mutant"]), 1, 0)[0] is False


class TestParaHurwitz:
    def test_unit_in_commutative_center(self, okubo_gf3):
        e = distinguished_idempotent(okubo_gf3)
        twisted = petersson_twist(okubo_gf3, e)
        para = para_hurwitz_of(twisted)
        center = para.commutative_center()
        assert contains_vector(center, e.coords)
        assert center.dim >= 1

    def test_unit_squared(self, okubo_gf3):
        e = distinguished_idempotent(okubo_gf3)
        para = para_hurwitz_of(petersson_twist(okubo_gf3, e))
        one = para.element(e.coords)
        assert para.multiply(one, one) == one

    def test_not_isomorphic_to_okubo(self, okubo_gf3):
        # the commutative centers have different dimensions (0 vs >= 1)
        e = distinguished_idempotent(okubo_gf3)
        para = para_hurwitz_of(petersson_twist(okubo_gf3, e))
        assert okubo_gf3.commutative_center().dim == 0
        assert para.commutative_center().dim >= 1

    def test_needs_unit(self, okubo_gf3):
        with pytest.raises(ValueError):
            para_hurwitz_of(okubo_gf3)  # the Okubo product has no unit


class TestClassification:
    def test_e_quaternionic(self, okubo_gf3):
        e = distinguished_idempotent(okubo_gf3)
        report = classify_idempotent(okubo_gf3, e)
        assert report.type_tag == QUATERNIONIC
        assert report.centralizer_dim == 6 == report.tau_fixed_dim
        assert report.norm_rank == 4

    def test_pair_quadratic(self, okubo_gf3):
        f = okubo_gf3.basis_element(2) + okubo_gf3.basis_element(3)
        report = classify_idempotent(okubo_gf3, f)
        assert report.type_tag == QUADRATIC
        assert (report.centralizer_dim, report.norm_rank) == (4, 2)

    def test_singular_witness(self, okubo_gf3):
        report = classify_idempotent(okubo_gf3, okubo_gf3.element(SINGULAR_WITNESS))
        assert report.type_tag == SINGULAR
        assert (report.centralizer_dim, report.norm_rank) == (4, 1)

    def test_char_not3_rejected(self, okubo_gf7):
        f = okubo_gf7.basis_element(0) + okubo_gf7.basis_element(1)
        with pytest.raises(BadCharacteristic):
            classify_idempotent(okubo_gf7, f)

    def test_tau_contract_off_char3(self, okubo_gf7, sl3_gf7, gf7):
        f = okubo_gf7.basis_element(0) + okubo_gf7.basis_element(1)
        tau = tau_map(okubo_gf7, f)
        assert fixed_space(tau) == centralizer(okubo_gf7, f)
        assert minpoly_check_char_not3(sl3_gf7, sl3_gf7.algebra.element(f.coords)) == 2
        assert okubo_gf7.norm(f) == gf7.one


GF3_SIGNATURES = {(6, 4): QUATERNIONIC, (4, 2): QUADRATIC, (4, 1): SINGULAR}


def reference_summary(algebra, f, type_tag):
    """An idempotent report assembled from the public building blocks."""
    cent = centralizer(algebra, f)
    rank = norm_rank_on(cent, algebra)
    return {
        "element": [str(c) for c in f.coords],
        "norm": str(algebra.norm(f)),
        "centralizer_dim": cent.dim,
        "tau_fixed_dim": fixed_space(tau_map(algebra, f)).dim,
        "norm_rank": rank,
        "type": type_tag(cent.dim, rank),
    }


def test_classify_matches_public_reference(okubo_gf3, census_gf3):
    by_type = {QUATERNIONIC: 0, QUADRATIC: 0, SINGULAR: 0}
    for f in census_gf3:
        summary = classify_idempotent(okubo_gf3, f).summary()
        assert summary == reference_summary(
            okubo_gf3, f, lambda dim, rank: GF3_SIGNATURES[(dim, rank)]
        )
        by_type[summary["type"]] += 1
    assert by_type == GF3_BY_TYPE


def test_tau_off_char3_matches_public_reference(okubo_gf7, sl3_gf7):
    sample = find_idempotents_slice_search(okubo_gf7, 6, seed=11)
    assert len(sample) == 6
    X = _kernels.encode_rows(okubo_gf7.field, [f.coords for f in sample])
    for f, degree in zip(sample, minpoly_degrees(sl3_gf7, X).tolist()):
        cent = centralizer(okubo_gf7, f)
        assert fixed_space(tau_map(okubo_gf7, f)) == cent
        assert (cent.dim, norm_rank_on(cent, okubo_gf7)) == (4, 4)
        assert degree == minpoly_check_char_not3(sl3_gf7, sl3_gf7.algebra.element(f.coords))


class TestCensusSummary:
    def test_counts_and_witness(self, okubo_gf3):
        summary = census_summary(okubo_gf3)
        assert summary.total == GF3_TOTAL
        assert summary.by_type == GF3_BY_TYPE
        assert summary.quaternionic_witness == ["1"] * 8
        assert summary.quaternionic_is_distinguished
        assert summary.anomalies == []
        assert summary.all_norms_one
        assert summary.dual_pass_consistent
        assert summary.passed

    def test_char_not3_rejected(self, okubo_gf7):
        with pytest.raises(BadCharacteristic):
            census_summary(okubo_gf7)


class TestFullFieldCensus:
    @pytest.mark.parametrize("spec, sample", [("gf(2^2;t^2+t+1)", None), ("gf(7)", 200)])
    def test_batched_checks_match_object_path(self, spec, sample):
        field = field_from_spec(spec)
        algebra = build_split_okubo(field)
        model = build_sl3_model(field)
        codes = idempotent_codes(algebra)
        if sample is not None:
            codes = np.array(sorted(random.Random(5).sample(codes.tolist(), sample)))
        X = _kernels.census_digits(field, codes, algebra.dim)
        norms = IdentityBatch(algebra).norm(X)[:, 0]
        degrees = minpoly_degrees(model, X)
        rows = _kernels.decode_rows(field, X)
        assert len(rows) == (sample or 336)
        for row, n, d in zip(rows, norms.tolist(), degrees.tolist()):
            assert field.element_from_index(n) == algebra.norm(algebra.element(row))
            assert d == minpoly_check_char_not3(model, model.algebra.element(row))

    def test_mutated_tensor_fails_all_norms_one(self, gf3, okubo_gf3):
        # x(1,0)*x(1,0) = -x(-1,0) instead of x(-1,0): the mutated algebra
        # still has nonzero idempotents, and some have n(f) != 1
        tensor = [[list(row) for row in plane] for plane in okubo_gf3.tensor]
        tensor[0][0][1] = -gf3.one
        mutated = StructureConstantAlgebra(
            gf3, 8, okubo_gf3.labels, tensor, form=okubo_gf3.form
        )
        results, passed = full_field_census(mutated)
        assert results["all_norms_one"] is False and not passed
        idems = enumerate_idempotents(mutated)
        assert len(idems) == results["total"] > 0
        assert any(mutated.norm(f) != gf3.one for f in idems)


class TestMinpolyAndSliceSearch:
    def test_canonical_idempotent(self, sl3_gf7, gf7):
        w = sl3_gf7.omega
        scale = (w - w * w).inverse()
        mat = scale * from_rows(gf7, [[2, 0, 0], [0, -1, 0], [0, 0, -1]])
        f = sl3_gf7.algebra.element(sl3_gf7.coords_of(mat))
        assert is_idempotent(sl3_gf7.algebra, f)
        assert minpoly_check_char_not3(sl3_gf7, f) == 2

    def test_pairs_have_degree_2(self, sl3_gf7):
        for i in (0, 2, 4, 6):
            f = sl3_gf7.algebra.basis_element(i) + sl3_gf7.algebra.basis_element(i + 1)
            assert minpoly_check_char_not3(sl3_gf7, f) == 2

    def test_char3_rejected(self, gf3, okubo_gf3):
        model = None
        with pytest.raises(BadCharacteristic):
            # fabricate the call through a small stand-in with char 3
            class Fake:
                field = gf3
                algebra = okubo_gf3

            minpoly_check_char_not3(Fake(), okubo_gf3.element([1] * 8))

    def test_slice_search_finds_distinct_idempotents(self, sl3_gf7):
        found = find_idempotents_slice_search(sl3_gf7.algebra, 20, seed=0)
        assert len(found) == 20
        assert len({f.coords for f in found}) == 20
        for f in found:
            assert is_idempotent(sl3_gf7.algebra, f)

    def test_slice_search_deterministic(self, sl3_gf7):
        a = find_idempotents_slice_search(sl3_gf7.algebra, 5, seed=9)
        b = find_idempotents_slice_search(sl3_gf7.algebra, 5, seed=9)
        assert [f.coords for f in a] == [f.coords for f in b]


def test_classification_invariant_under_tau_automorphisms(okubo_gf3, census_gf3):
    # a tau of one idempotent maps any idempotent to an idempotent with the
    # same (centralizer dim, norm rank) signature
    rng = random.Random(73)
    taus = [tau_map(okubo_gf3, f) for f in rng.sample(census_gf3, 4)]
    for g in rng.sample(census_gf3, 10):
        rep = classify_idempotent(okubo_gf3, g)
        for tau in taus:
            image = okubo_gf3.element(tau.matvec(g.coords))
            assert is_idempotent(okubo_gf3, image)
            irep = classify_idempotent(okubo_gf3, image)
            assert (irep.centralizer_dim, irep.norm_rank) == (
                rep.centralizer_dim,
                rep.norm_rank,
            )
            assert irep.type_tag == rep.type_tag


def test_sixth_power_of_left_multiplication(okubo_gf3, census_gf3, gf3):
    rng = random.Random(71)
    ident = Matrix.identity(gf3, 8)
    for f in rng.sample(census_gf3, 10):
        lf = okubo_gf3.left_mult_matrix(f)
        p = ident
        for _ in range(6):
            p = p @ lf
        assert p == ident
