import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okubo import _encoded_lie
from okubo import algebra as algebra_module
from okubo._encoded_lie import ModArrays, TableArrays
from okubo._zw import ZwArrays
from okubo.algebra import IdentityBatch, QuadraticForm, StructureConstantAlgebra
from okubo.errors import AlgebraMismatch, NoForm
from okubo.fields import field_from_spec
from okubo.linalg import Matrix
from okubo.models import OKUBO_LABELS, build_split_okubo
from scalar_reference import ObjectBatch, from_rows


def mutated_okubo(field, which=0, value=None):
    """The split algebra with one nonzero structure constant negated, or set
    to ``value``."""
    base = build_split_okubo(field)
    i, j, k, c = base.entries[which]
    return with_entry(base, (i, j, k), -c if value is None else value)


def with_entry(base, position, value):
    """A copy of ``base`` with the tensor entry at (i, j, k) set to value."""
    i, j, k = position
    tensor = [
        [[base.tensor[a][b][d] for d in range(8)] for b in range(8)] for a in range(8)
    ]
    tensor[i][j][k] = value
    return StructureConstantAlgebra(
        base.field, 8, base.labels, tensor, form=base.form, grading=base.grading
    )


def okubo_or_bumped(field, which):
    """The split algebra, or with entry ``which`` raised by one, which changes
    it in every characteristic (negation does not in characteristic 2)."""
    if which is None:
        return build_split_okubo(field)
    c = build_split_okubo(field).entries[which][3]
    return mutated_okubo(field, which, value=c + field.one)


def object_path_report(algebra, trials, seed):
    """The composition report computed on elements, over any field."""
    with mock.patch.object(algebra_module, "IdentityBatch", ObjectBatch):
        return algebra.check_symmetric_composition(trials=trials, seed=seed)


def summary_text(report):
    return json.dumps(report.summary(), sort_keys=True)


def assert_same_rows(report, oracle):
    """Identical per-row verdicts of every check, and identical report text,
    witnesses included."""
    assert [c.name for c in report.checks] == [c.name for c in oracle.checks]
    for check, same in zip(report.checks, oracle.checks):
        assert np.array_equal(check.verdicts, same.verdicts), check.name
    assert summary_text(report) == summary_text(oracle)


class TestMultiply:
    def test_table_samples(self, okubo_gf3):
        b = okubo_gf3.basis()
        assert okubo_gf3.multiply(b[0], b[0]) == b[1]          # x(1,0)*x(1,0) = x(-1,0)
        assert not okubo_gf3.multiply(b[0], b[1])        # x(1,0)*x(-1,0) = 0
        assert okubo_gf3.multiply(b[0], b[5]) == -b[3]         # x(1,0)*x(-1,-1) = -x(0,-1)

    def test_bilinear_randomized(self, okubo_gf7, gf7):
        rng = random.Random(41)
        for _ in range(100):
            x = okubo_gf7.random_element(rng)
            x2 = okubo_gf7.random_element(rng)
            y = okubo_gf7.random_element(rng)
            a = gf7.random_scalar(rng)
            b = gf7.random_scalar(rng)
            lhs = okubo_gf7.multiply(x * a + x2 * b, y)
            rhs = okubo_gf7.multiply(x, y) * a + okubo_gf7.multiply(x2, y) * b
            assert lhs == rhs
            lhs = okubo_gf7.multiply(y, x * a + x2 * b)
            rhs = okubo_gf7.multiply(y, x) * a + okubo_gf7.multiply(y, x2) * b
            assert lhs == rhs

    def test_mismatch(self, okubo_gf3, okubo_gf7):
        with pytest.raises(AlgebraMismatch):
            okubo_gf3.multiply(okubo_gf3.basis_element(0), okubo_gf7.basis_element(0))


class TestNorm:
    def test_basis_isotropic(self, okubo_gf3):
        for i in range(8):
            assert not okubo_gf3.norm(okubo_gf3.basis_element(i))

    def test_dual_pairing(self, okubo_gf3, gf3):
        b = okubo_gf3.basis()
        assert okubo_gf3.norm_polar(b[0], b[1]) == gf3.one
        assert not okubo_gf3.norm_polar(b[0], b[2])

    def test_norm_of_e_gf3(self, okubo_gf3, gf3):
        # independent oracle: q(sum of basis) = sum over the four dual pairs
        # of 1*1*B = 4, and 4 = 1 mod 3
        e = okubo_gf3.element([1] * 8)
        expected = (4 % 3)
        assert okubo_gf3.norm(e) == gf3.scalar(expected)

    @pytest.mark.parametrize("spec", ["gf(2)", "gf(3)", "gf(7)", "gf(2^2;t^2+t+1)", "q(w)"])
    def test_polar_is_polarization(self, spec):
        field = field_from_spec(spec)
        algebra = build_split_okubo(field)
        rng = random.Random(43)
        for _ in range(100):
            x = algebra.random_element(rng)
            y = algebra.random_element(rng)
            assert algebra.norm_polar(x, y) == algebra.norm(x + y) - algebra.norm(x) - algebra.norm(y)

    @pytest.mark.parametrize("spec", ["gf(2)", "gf(7)", "q(w)"])
    def test_evaluate_is_the_defining_sum(self, spec):
        # random forms with zero and nonzero values and polar entries
        field = field_from_spec(spec)
        rng = random.Random(47)
        for _ in range(20):
            values = [field.random_scalar(rng) if rng.random() < 0.5 else field.zero
                      for _ in range(6)]
            polar = [[values[i] + values[i] if i == j else None for j in range(6)]
                     for i in range(6)]
            for i in range(6):
                for j in range(i + 1, 6):
                    c = field.random_scalar(rng) if rng.random() < 0.5 else field.zero
                    polar[i][j] = polar[j][i] = c
            form = QuadraticForm(values, Matrix(field, polar))
            for _ in range(10):
                a = [field.random_scalar(rng) if rng.random() < 0.7 else field.zero
                     for _ in range(6)]
                want = field.zero
                for i in range(6):
                    want = want + a[i] * a[i] * values[i]
                    for j in range(i + 1, 6):
                        want = want + a[i] * a[j] * polar[i][j]
                assert form.evaluate(a) == want

    def test_no_form_error(self, gf3, okubo_gf3):
        bare = StructureConstantAlgebra(
            gf3, 8, OKUBO_LABELS,
            [[list(okubo_gf3.tensor[i][j]) for j in range(8)] for i in range(8)],
        )
        with pytest.raises(NoForm):
            bare.norm(bare.basis_element(0))


class TestSymmetricComposition:
    @pytest.mark.parametrize("spec", ["gf(3)", "q(w)"])
    def test_passes(self, spec):
        algebra = build_split_okubo(field_from_spec(spec))
        report = algebra.check_symmetric_composition(trials=100, seed=0)
        assert report.passed

    def test_mutation_detected_with_witness(self, gf3):
        # basis products of isotropic vectors collapse the nonlinear identities
        # to 0 = 0, so the flip surfaces in the random-element trials
        bad = mutated_okubo(gf3, which=0)
        report = bad.check_symmetric_composition(trials=50, seed=0)
        assert not report.passed
        xyx = next(c for c in report.checks if c.name == "xyx_identity_random")
        assert not xyx.passed and xyx.failures

    @pytest.mark.parametrize("which", [None, 0, 13])
    @pytest.mark.parametrize(
        "spec", ["gf(2)", "gf(2^2;t^2+t+1)", "gf(7)", "gf(3^2;t^2+1)", "gf(257)", "gf(17^2;t^2+3)"])
    def test_encoded_path_matches_object_path(self, spec, which):
        # same draws from the same stream, so the random checks (witnesses
        # included) and the certificates agree byte for byte, on the tables
        # and on the mod-p arrays beyond them
        algebra = okubo_or_bumped(field_from_spec(spec), which)
        encoded = algebra.check_symmetric_composition(trials=40, seed=3)
        assert summary_text(encoded) == summary_text(object_path_report(algebra, 40, 3))
        if which is not None:
            assert not encoded.passed

    @given(
        spec=st.sampled_from(["gf(2)", "gf(3)", "gf(2^2;t^2+t+1)", "gf(7)", "gf(3^2;t^2+1)"]),
        which=st.one_of(st.none(), st.integers(0, 31)),
        seed=st.integers(0, 10**6),
        trials=st.integers(1, 60),
    )
    @settings(max_examples=20, deadline=None)
    def test_encoded_path_matches_object_path_property(self, spec, which, seed, trials):
        algebra = okubo_or_bumped(field_from_spec(spec), which)
        encoded = algebra.check_symmetric_composition(trials=trials, seed=seed)
        objects = object_path_report(algebra, trials, seed)
        assert summary_text(encoded) == summary_text(objects)

    @pytest.mark.parametrize("spec", ["gf(2)", "gf(3)", "gf(5)", "gf(7)", "gf(3^2;t^2+1)", "q(w)"])
    def test_certificates_pass(self, spec):
        algebra = build_split_okubo(field_from_spec(spec))
        report = algebra.check_symmetric_composition(trials=1, seed=0)
        by_name = {c.name: c for c in report.checks}
        assert by_name["xyx_identity_certificate"].cases == 36 * 8
        assert by_name["norm_multiplicative_certificate"].cases == 36 * 36
        assert by_name["xyx_identity_certificate"].passed
        assert by_name["norm_multiplicative_certificate"].passed

    def test_every_single_entry_gf3_mutant_caught_without_random_checks(self, gf3, okubo_gf3):
        # each of the 32 nonzero entries set to each of its two other values,
        # and a one put at 55 zero positions drawn with a fixed seed
        mutants = [
            ((i, j, k), v) for i, j, k, c in okubo_gf3.entries for v in gf3.elements() if v != c
        ]
        zeros = [
            (i, j, k) for i in range(8) for j in range(8) for k in range(8)
            if not okubo_gf3.tensor[i][j][k]
        ]
        mutants += [(pos, gf3.one) for pos in random.Random(0).sample(zeros, 55)]
        assert len(mutants) == 119
        for position, value in mutants:
            report = with_entry(okubo_gf3, position, value).check_symmetric_composition(
                trials=1, seed=0
            )
            certificates = [c for c in report.checks if c.name.endswith("_certificate")]
            assert any(c.failures for c in certificates), (position, value)

    def test_exhaustive_triples_counted(self, okubo_gf3):
        report = okubo_gf3.check_symmetric_composition(trials=10, seed=0)
        by_name = {c.name: c for c in report.checks}
        assert by_name["polar_associative_basis"].cases == 512
        assert by_name["norm_multiplicative_basis"].cases == 64
        assert by_name["xyx_identity_basis"].cases == 64


#: the new values of the q(w) mutants' entry, beside negation (None)
QW_MUTANT_VALUES = {"neg": None, "w": "w", "half": "1/2"}


def zw_scalar(field, a, b, d):
    """(a + b*w)/d as a Scalar of Q(w), from Python ints."""
    return (field.from_int(a) + field.omega * b) / d


class TestIntegerBatch:
    @pytest.mark.parametrize(
        "spec, kind",
        [("q", ZwArrays), ("q(w)", ZwArrays), ("gf(2)", TableArrays),
         ("gf(3)", TableArrays), ("gf(3^2;t^2+1)", TableArrays),
         ("gf(257)", ModArrays)],
    )
    def test_identity_batch_backend(self, spec, kind):
        # one batch class; the field picks only the array backend under it
        assert type(IdentityBatch(build_split_okubo(field_from_spec(spec))).ar) is kind

    @pytest.mark.parametrize("spec", ["q", "q(w)"])
    def test_draw_matches_random_elements(self, spec):
        # the Scalar-free draw gives the values of random_element's Scalars,
        # from the same randrange calls, so the stream ends where it would
        algebra = build_split_okubo(field_from_spec(spec))
        batch = IdentityBatch(algebra)
        for seed in range(4):
            rng, ref = random.Random(seed), random.Random(seed)
            X, Y = batch.draw(rng, 25, 2)
            elements = [[algebra.random_element(ref) for _ in range(2)] for _ in range(25)]
            for n, rows in enumerate((X, Y)):
                want = batch.rows([pair[n] for pair in elements])
                assert batch.equal(rows, want).all()
                for r in range(25):
                    assert batch.coords_text(rows, r) == tuple(map(str, elements[r][n].coords))
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("spec", ["q", "q(w)"])
    def test_algebra_matches_object_path(self, spec):
        algebra = build_split_okubo(field_from_spec(spec))
        report = algebra.check_symmetric_composition(trials=40, seed=3)
        assert report.passed
        assert_same_rows(report, object_path_report(algebra, 40, 3))

    @pytest.mark.parametrize("kind", sorted(QW_MUTANT_VALUES))
    def test_every_qw_mutant_matches_object_path_and_is_caught(self, qw, okubo_qw, kind):
        # each of the 32 nonzero entries negated, set to w or set to 1/2, so
        # that the w-parts and the denominators are exercised
        text = QW_MUTANT_VALUES[kind]
        value = None if text is None else qw.parse(text)
        assert len(okubo_qw.entries) == 32
        for which in range(32):
            algebra = mutated_okubo(qw, which, value)
            report = algebra.check_symmetric_composition(trials=3, seed=which)
            certificates = [c for c in report.checks if c.name.endswith("_certificate")]
            assert any(c.failures for c in certificates), which
            assert_same_rows(report, object_path_report(algebra, 3, which))

    @given(
        spec=st.sampled_from(["q", "q(w)"]),
        which=st.one_of(st.none(), st.integers(0, 31)),
        seed=st.integers(0, 10**6),
        trials=st.integers(1, 60),
    )
    @settings(max_examples=12, deadline=None)
    def test_matches_object_path_property(self, spec, which, seed, trials):
        algebra = okubo_or_bumped(field_from_spec(spec), which)
        report = algebra.check_symmetric_composition(trials=trials, seed=seed)
        assert_same_rows(report, object_path_report(algebra, trials, seed))

    def test_exact_beyond_int64(self, okubo_qw, qw):
        # numerators near 10^30 over a denominator of 7: their products pass
        # 2^63 many times over, so any int64 step would change the results
        rng = random.Random(11)

        def big_element():
            return okubo_qw.element([
                zw_scalar(qw, rng.randrange(10**30, 2 * 10**30),
                          rng.randrange(-2 * 10**30, -10**30), 7)
                for _ in range(8)
            ])

        xs = [big_element() for _ in range(6)]
        ys = [big_element() for _ in range(6)]
        batch = IdentityBatch(okubo_qw)
        X, Y = batch.rows(xs), batch.rows(ys)
        assert X.den == 7 and abs(X.a).min() >= 10**30
        assert X.a.dtype == object

        def scalars(values):
            return [s for [s] in batch.ar.decode(values)]

        XY = batch.multiply(X, Y)
        assert [batch.coords_text(XY, r) for r in range(6)] == [
            tuple(map(str, okubo_qw.multiply(x, y).coords)) for x, y in zip(xs, ys)
        ]
        assert max(abs(v) for v in XY.a.ravel()) > 2**63
        assert scalars(batch.norm(X)) == [okubo_qw.norm(x) for x in xs]
        assert scalars(batch.polar(X, Y)) == [okubo_qw.norm_polar(x, y) for x, y in zip(xs, ys)]
        objects = ObjectBatch(okubo_qw)
        U, V = objects.rows(xs), objects.rows(ys)
        for check in ("norm_multiplicative", "xyx_identity"):
            verdicts = getattr(batch, check)(X, Y, XY)
            assert verdicts.all()
            assert np.array_equal(
                verdicts, getattr(objects, check)(U, V, objects.multiply(U, V))
            )
        # one unit in the last place of one numerator is a different element
        a = XY.a.copy()
        a[4, 5] += 1
        changed = type(XY)(a, XY.b, XY.den)
        assert list(batch.equal(XY, changed)) == [True] * 4 + [False, True]


def contraction_algebra(case):
    """The split algebra over a field, or the gf(3) one with entry 0 negated."""
    if case == "mutant":
        return mutated_okubo(field_from_spec("gf(3)"), which=0)
    return build_split_okubo(field_from_spec(case))


def random_matrix(field, rng, n=8):
    return Matrix(field, [[field.random_scalar(rng) for _ in range(n)] for _ in range(n)])


CONTRACTION_CASES = ["gf(3)", "gf(3^2;t^2+1)", "q(w)", "mutant"]


class TestContractionLayer:
    """The tensor contractions against the element path, ``multiply``."""

    @pytest.mark.parametrize("case", CONTRACTION_CASES)
    def test_mult_matrices_match_multiply(self, case):
        algebra = contraction_algebra(case)
        rng = random.Random(3)
        basis = algebra.basis()
        for x in basis + [algebra.random_element(rng) for _ in range(3)]:
            left, right = algebra.left_mult_matrix(x), algebra.right_mult_matrix(x)
            for j, b in enumerate(basis):
                assert left.col(j) == algebra.multiply(x, b).coords
                assert right.col(j) == algebra.multiply(b, x).coords

    @pytest.mark.parametrize("case", CONTRACTION_CASES)
    def test_product_tensor_matches_multiply(self, case):
        algebra = contraction_algebra(case)
        rng = random.Random(5)
        for _ in range(2):
            phi, psi = random_matrix(algebra.field, rng), random_matrix(algebra.field, rng)
            pulled = algebra.product_tensor(phi, psi)
            for i in range(8):
                x = algebra.element(phi.col(i))
                for j in range(8):
                    y = algebra.element(psi.col(j))
                    assert pulled[i][j] == algebra.multiply(x, y).coords

    @pytest.mark.parametrize("case", ["gf(3)", "gf(3^2;t^2+1)", "gf(257)", "q(w)", "mutant"])
    def test_array_contractions_match_object_path(self, case):
        # the L/R stacks and the pulled-back tensor on the field's array
        # backend (tables, mod-p arrays, Z[w]) against the Scalar contractions
        algebra = contraction_algebra(case)
        ar = _encoded_lie.arrays_for(algebra.field)
        C = _encoded_lie.tensor_of(ar, algebra)
        rng = random.Random(7)
        xs = algebra.basis() + [algebra.random_element(rng) for _ in range(3)]
        L, R = _encoded_lie.mult_stacks(ar, C, ar.array([x.coords for x in xs]))
        assert ar.decode(L) == [list(map(list, algebra.left_mult_matrix(x).rows)) for x in xs]
        assert ar.decode(R) == [list(map(list, algebra.right_mult_matrix(x).rows)) for x in xs]
        for _ in range(2):
            phi, psi = random_matrix(algebra.field, rng), random_matrix(algebra.field, rng)
            pulled = _encoded_lie.pulled_tensor(ar, C, ar.array(phi.rows), ar.array(psi.rows))
            expect = algebra.product_tensor(phi, psi)
            assert ar.decode(pulled) == [[list(cell) for cell in row] for row in expect]

    def test_mult_matrix_rejects_foreign_element(self, okubo_gf3, okubo_gf7):
        with pytest.raises(AlgebraMismatch):
            okubo_gf3.left_mult_matrix(okubo_gf7.basis_element(0))

    def test_preserves_product_accepts_automorphisms(self, okubo_gf3, sl3_gf7, gf7):
        from okubo.liealg import conjugation_automorphism
        from okubo.models import distinguished_idempotent

        lf = okubo_gf3.left_mult_matrix(distinguished_idempotent(okubo_gf3))
        assert okubo_gf3.preserves_product(lf @ lf)  # tau = L_e^2
        g = from_rows(gf7, [[1, 2, 0], [0, 1, 3], [4, 0, 1]])
        assert g.det() != gf7.zero
        phi = conjugation_automorphism(sl3_gf7, g)
        assert sl3_gf7.algebra.preserves_product(phi)

    def test_preserves_product_rejects_non_automorphisms(self, okubo_gf7, gf7):
        assert not okubo_gf7.preserves_product(Matrix.identity(gf7, 8) * 2)
        rng = random.Random(11)
        phi = random_matrix(gf7, rng)
        while phi.det() == gf7.zero:
            phi = random_matrix(gf7, rng)
        assert not okubo_gf7.preserves_product(phi)


class TestCenterAndGrading:
    @pytest.mark.parametrize("spec", ["gf(3)", "gf(7)"])
    def test_commutative_center_trivial(self, spec):
        algebra = build_split_okubo(field_from_spec(spec))
        assert algebra.commutative_center().dim == 0

    def test_grading_holds(self, okubo_gf3):
        assert okubo_gf3.check_grading()

    def test_grading_swap_fails(self, gf3, okubo_gf3):
        swapped = list(okubo_gf3.grading)
        swapped[0], swapped[2] = swapped[2], swapped[0]
        alg = StructureConstantAlgebra(
            gf3, 8, okubo_gf3.labels,
            [[list(okubo_gf3.tensor[i][j]) for j in range(8)] for i in range(8)],
            form=okubo_gf3.form, grading=swapped,
        )
        assert not alg.check_grading()

    def test_trivial_grading_ok(self, gf3, okubo_gf3):
        alg = StructureConstantAlgebra(
            gf3, 8, okubo_gf3.labels,
            [[list(okubo_gf3.tensor[i][j]) for j in range(8)] for i in range(8)],
            form=okubo_gf3.form, grading=[(0, 0)] * 8,
        )
        assert alg.check_grading()


class TestQuadraticFormValidation:
    def test_diagonal_consistency_enforced(self, gf5):
        values = [gf5.one, gf5.zero]
        polar = from_rows(gf5, [[1, 0], [0, 0]])  # B[0][0] must be 2
        with pytest.raises(ValueError):
            QuadraticForm(values, polar)
        ok = from_rows(gf5, [[2, 0], [0, 0]])
        QuadraticForm(values, ok)

    def test_char2_forces_zero_diagonal(self, gf2):
        values = [gf2.one]
        with pytest.raises(ValueError):
            QuadraticForm(values, from_rows(gf2, [[1]]))
        QuadraticForm(values, from_rows(gf2, [[0]]))

    def test_symmetry_enforced(self, gf5):
        polar = from_rows(gf5, [[0, 1], [2, 0]])
        with pytest.raises(ValueError):
            QuadraticForm([gf5.zero, gf5.zero], polar)


class TestSerialization:
    @pytest.mark.parametrize("spec", ["gf(3)", "gf(7)", "q(w)", "gf(3^2;t^2+1)"])
    def test_round_trip(self, spec):
        algebra = build_split_okubo(field_from_spec(spec))
        back = StructureConstantAlgebra.from_json(algebra.to_json())
        assert back.field == algebra.field
        assert back.labels == algebra.labels
        assert back.tensor == algebra.tensor
        assert back.form.values == algebra.form.values
        assert back.form.polar == algebra.form.polar
        assert back.grading == algebra.grading

    def test_only_nonzero_entries_listed(self, okubo_gf3):
        data = okubo_gf3.to_json_dict()
        assert len(data["entries"]) == 32
        for i, j, k, c in data["entries"]:
            assert c != "0"
