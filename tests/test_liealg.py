import random
from unittest import mock

import numpy as np
import pytest

from okubo import _encoded_lie, _kernels, liealg
from okubo.errors import BadCharacteristic, InfiniteField, NotClosed, SingularMatrix
from okubo.fields import GF, field_from_spec, rationals_omega
from okubo.liealg import (
    LieAlgebra,
    ad_star,
    analyze_derivations,
    center_of,
    conjugation_automorphism,
    derivations,
    derived_subalgebra,
    grading_on_derivations,
    inner_bracket_matches_minus,
    inner_derivation_span,
    is_simple_finite,
    killing_form,
    killing_rank,
    leibniz_holds,
    leibniz_system,
    lie_close,
    minus_algebra,
    verify_block_bracket,
)
from okubo.linalg import Matrix, Subspace
from okubo.models import build_sl3_model, build_split_okubo
from test_algebra import mutated_okubo, with_entry


def abelian_algebra(field):
    return lie_close(Subspace.from_vectors(field, 4, [
        Matrix.from_rows(field, [[1, 0], [0, 0]]).to_vec(),
        Matrix.from_rows(field, [[0, 0], [0, 1]]).to_vec(),
    ]))


class TestDerivationDimensions:
    @pytest.mark.parametrize("spec,expected", [
        ("gf(5)", 8), ("gf(7)", 8), ("q(w)", 8), ("gf(3)", 10), ("gf(3^2;t^2+1)", 10),
    ])
    def test_dims(self, spec, expected):
        algebra = build_split_okubo(field_from_spec(spec))
        assert derivations(algebra).dim == expected

    @pytest.mark.parametrize("spec", ["gf(5)", "gf(7)", "q(w)"])
    def test_inner_equals_der_char_not3(self, spec):
        algebra = build_split_okubo(field_from_spec(spec))
        assert inner_derivation_span(algebra) == derivations(algebra)

    @pytest.mark.parametrize("spec", ["gf(3)", "gf(3^2;t^2+1)"])
    def test_inner_proper_ideal_char3(self, spec):
        algebra = build_split_okubo(field_from_spec(spec))
        der = derivations(algebra)
        inner = inner_derivation_span(algebra)
        assert inner.dim == 8
        assert der.contains(inner)
        assert not inner.contains(der)
        derived = derived_subalgebra(lie_close(der))
        dspan = Subspace.from_vectors(
            algebra.field, 64, [m.to_vec() for m in derived.maps]
        )
        assert dspan == inner

    def test_char2_dimensions_reported(self):
        # no asserted expected value here: the dimension is recorded as data
        for spec in ("gf(2)", "gf(2^2;t^2+t+1)"):
            algebra = build_split_okubo(field_from_spec(spec))
            der = derivations(algebra)
            inner = inner_derivation_span(algebra)
            assert der.contains(inner)
            assert isinstance(der.dim, int)


class TestDerivationProperties:
    def test_leibniz_on_random_pairs(self, okubo_gf3, gf3):
        der = derivations(okubo_gf3)
        rng = random.Random(51)
        mats = [Matrix.from_vec(gf3, row, 8, 8) for row in der.basis]
        for _ in range(25):
            coeffs = [gf3.random_scalar(rng) for _ in mats]
            d = Matrix.zeros(gf3, 8, 8)
            for c, m in zip(coeffs, mats):
                if c:
                    d = d + c * m
            x = okubo_gf3.random_element(rng)
            y = okubo_gf3.random_element(rng)
            lhs = okubo_gf3.element(d.matvec(okubo_gf3.multiply(x, y).coords))
            rhs = okubo_gf3.multiply(okubo_gf3.element(d.matvec(x.coords)), y) + \
                okubo_gf3.multiply(x, okubo_gf3.element(d.matvec(y.coords)))
            assert lhs == rhs

    def test_basis_members_satisfy_leibniz(self, okubo_gf3, gf3):
        for row in derivations(okubo_gf3).basis:
            assert leibniz_holds(okubo_gf3, Matrix.from_vec(gf3, row, 8, 8))

    def test_leibniz_rejects_non_derivations(self, okubo_gf3, gf3):
        assert not leibniz_holds(okubo_gf3, Matrix.identity(gf3, 8))
        d = Matrix.from_vec(gf3, derivations(okubo_gf3).basis[0], 8, 8)
        bump = Matrix.from_vec(gf3, [gf3.one] + [gf3.zero] * 63, 8, 8)
        assert not leibniz_holds(okubo_gf3, d + bump)

    def test_commutator_closed(self, okubo_gf3):
        lie_close(derivations(okubo_gf3))  # raises NotClosed on failure

    def test_infinitesimal_isometry(self, okubo_gf7, gf7):
        der = derivations(okubo_gf7)
        rng = random.Random(53)
        for row in der.basis:
            d = Matrix.from_vec(gf7, row, 8, 8)
            for _ in range(25):
                x = okubo_gf7.random_element(rng)
                y = okubo_gf7.random_element(rng)
                dx = okubo_gf7.element(d.matvec(x.coords))
                dy = okubo_gf7.element(d.matvec(y.coords))
                s = okubo_gf7.norm_polar(dx, y) + okubo_gf7.norm_polar(x, dy)
                assert not s


class TestLieAlgebraStructure:
    def test_construction_validates_jacobi(self, gf3):
        # sl2-like tensor with one constant broken
        z, o = gf3.zero, gf3.one
        tensor = [[[z] * 3 for _ in range(3)] for _ in range(3)]
        # [e,f]=h, [h,e]=2e, [h,f]=-2f (valid over gf3)
        tensor[0][1][2] = o
        tensor[1][0][2] = -o
        tensor[2][0][0] = gf3.from_int(2)
        tensor[0][2][0] = -gf3.from_int(2)
        tensor[2][1][1] = -gf3.from_int(2)
        tensor[1][2][1] = gf3.from_int(2)
        LieAlgebra(gf3, 3, tensor)
        bad = [[list(r) for r in row] for row in tensor]
        bad[2][0][0] = o  # breaks Jacobi
        bad[0][2][0] = -o
        with pytest.raises(ValueError):
            LieAlgebra(gf3, 3, bad)

    def test_ad_is_left_multiplication_by_basis(self, okubo_gf3):
        lie = minus_algebra(okubo_gf3)
        for i, b in enumerate(lie.basis()):
            ad = lie.left_mult_matrix(b)
            assert all(ad.col(j) == lie.tensor[i][j] for j in range(lie.dim))

    def test_lie_close_not_closed(self, gf3):
        e12 = Matrix.from_rows(gf3, [[0, 1], [0, 0]])
        e21 = Matrix.from_rows(gf3, [[0, 0], [1, 0]])
        with pytest.raises(NotClosed):
            lie_close(Subspace.from_vectors(gf3, 4, [e12.to_vec(), e21.to_vec()]))

    def test_derived_of_abelian_is_zero(self, gf3):
        assert derived_subalgebra(abelian_algebra(gf3)).dim == 0

    def test_derived_gf5_is_full(self):
        algebra = build_split_okubo(GF(5))
        lie = lie_close(derivations(algebra))
        assert derived_subalgebra(lie).dim == 8


class TestKilling:
    def test_derived_gf3_killing_zero(self, okubo_gf3):
        derived = derived_subalgebra(lie_close(derivations(okubo_gf3)))
        k = killing_form(derived)
        assert k.nrows == 8 and k.is_zero()

    def test_qw_killing_rank8(self, okubo_qw):
        lie = lie_close(derivations(okubo_qw))
        assert killing_rank(lie) == 8

    def test_abelian_killing_zero(self, gf3):
        assert killing_form(abelian_algebra(gf3)).is_zero()

    def test_symmetric_and_invariant(self, okubo_gf3, gf3):
        derived = derived_subalgebra(lie_close(derivations(okubo_gf3)))
        k = killing_form(derived)
        assert k == k.transpose()
        rng = random.Random(59)
        n = derived.dim
        for _ in range(20):
            x = [gf3.random_scalar(rng) for _ in range(n)]
            y = [gf3.random_scalar(rng) for _ in range(n)]
            z = [gf3.random_scalar(rng) for _ in range(n)]
            xy = derived.multiply(derived.element(x), derived.element(y)).coords
            yz = derived.multiply(derived.element(y), derived.element(z)).coords
            lhs = sum((a * b for a, b in zip(k.matvec(z), xy)), gf3.zero)
            rhs = sum((a * b for a, b in zip(k.matvec(yz), x)), gf3.zero)
            assert lhs == rhs


class TestSimplicity:
    def test_derived_gf3_simple(self, okubo_gf3):
        derived = derived_subalgebra(lie_close(derivations(okubo_gf3)))
        assert center_of(derived).dim == 0
        assert is_simple_finite(derived, seed=0, max_trials=20) is True

    def test_der_gf3_not_simple(self, okubo_gf3):
        lie = lie_close(derivations(okubo_gf3))
        assert is_simple_finite(lie, seed=0) is False

    def test_abelian_not_simple(self, gf3):
        assert is_simple_finite(abelian_algebra(gf3)) is False

    def test_infinite_field_rejected(self, okubo_qw):
        lie = lie_close(derivations(okubo_qw))
        with pytest.raises(InfiniteField):
            is_simple_finite(lie)

    def test_sl2_gf7_simple(self, gf7):
        z = gf7.zero
        tensor = [[[z] * 3 for _ in range(3)] for _ in range(3)]
        tensor[0][1][2] = gf7.one
        tensor[1][0][2] = -gf7.one
        tensor[2][0][0] = gf7.from_int(2)
        tensor[0][2][0] = -gf7.from_int(2)
        tensor[2][1][1] = -gf7.from_int(2)
        tensor[1][2][1] = gf7.from_int(2)
        sl2 = LieAlgebra(gf7, 3, tensor)
        assert is_simple_finite(sl2, seed=0) is True


class TestMinusAlgebra:
    def test_block_bracket_gf3(self, okubo_gf3):
        assert verify_block_bracket(okubo_gf3) == []

    def test_block_bracket_char_not3(self, okubo_gf7):
        with pytest.raises(BadCharacteristic):
            verify_block_bracket(okubo_gf7)

    def test_inner_bracket_coordinate_identity(self, okubo_gf3):
        assert inner_bracket_matches_minus(okubo_gf3)

    def test_minus_is_lie(self, okubo_gf3):
        minus = minus_algebra(okubo_gf3)  # constructor checks Jacobi
        assert minus.dim == 8

    def test_minus_algebra_simple(self, okubo_gf3, okubo_gf7):
        # the commutator algebra is simple: over GF(3) it realizes the
        # derived derivation algebra, over GF(7) the special linear algebra
        m3 = minus_algebra(okubo_gf3)
        assert is_simple_finite(m3, seed=0, max_trials=20) is True
        assert killing_form(m3).is_zero()
        m7 = minus_algebra(okubo_gf7)
        assert is_simple_finite(m7, seed=0, max_trials=20) is True

    def test_negation_transports_sl3_bracket(self):
        qw = rationals_omega()
        model = build_sl3_model(qw)
        minus = minus_algebra(model.algebra)
        for a in range(8):
            for b in range(8):
                u = model.basis_matrices[a]
                v = model.basis_matrices[b]
                phi_of_bracket = -(u @ v - v @ u)
                got = model.coords_of(phi_of_bracket)
                assert tuple(got) == tuple(minus.tensor[a][b])


class TestGradingOnDerivations:
    def test_dims(self, okubo_gf3):
        report = grading_on_derivations(okubo_gf3)
        assert report.dims[(0, 0)] == 2
        for g, d in report.dims.items():
            if g != (0, 0):
                assert d == 1
        assert report.total == 10 == report.der_dim
        assert report.passed

    def test_char_not3_rejected(self, okubo_gf7):
        with pytest.raises(BadCharacteristic):
            grading_on_derivations(okubo_gf7)


class TestConjugation:
    def test_identity(self, sl3_gf7, gf7):
        phi = conjugation_automorphism(sl3_gf7, Matrix.identity(gf7, 3))
        assert phi == Matrix.identity(gf7, 8)

    def test_scalar_matrix_acts_trivially(self, sl3_gf7, gf7):
        lam = Matrix.identity(gf7, 3) * gf7.scalar(4)
        assert conjugation_automorphism(sl3_gf7, lam) == Matrix.identity(gf7, 8)

    def test_singular_rejected(self, sl3_gf7, gf7):
        with pytest.raises(SingularMatrix):
            conjugation_automorphism(sl3_gf7, Matrix.zeros(gf7, 3, 3))

    def test_random_conjugations_verified(self, sl3_gf7, gf7):
        rng = random.Random(61)
        produced = 0
        while produced < 10:
            g = Matrix(gf7, [[gf7.random_scalar(rng) for _ in range(3)] for _ in range(3)])
            if g.det() == gf7.zero:
                continue
            conjugation_automorphism(sl3_gf7, g)  # raises on any failure
            produced += 1


def test_analysis_summary_gf3(okubo_gf3):
    analysis = analyze_derivations(okubo_gf3, seed=0)
    s = analysis.summary()
    assert s["dim_der"] == 10
    assert s["dim_inner"] == 8
    assert s["derived_equals_inner"] is True
    assert s["killing_rank"] == 0
    assert s["center_dim"] == 0
    assert s["simple"] is True
    assert s["grading_dims"]["(0,0)"] == 2


# ---------------------------------------------------------------------------
# the encoded layer against the Scalar functions
# ---------------------------------------------------------------------------

TABLE_FIELDS = ["gf(2)", "gf(2^2;t^2+t+1)", "gf(3)", "gf(5)", "gf(7)", "gf(3^2;t^2+1)"]


def scalar_path():
    """Send every dispatch on lookup tables to the Scalar functions."""
    return mock.patch.object(_kernels, "supports_field", lambda field: False)


def encoded(field, rows):
    return _kernels.encode_rows(field, rows).reshape(len(rows), -1)


@pytest.fixture(scope="module", params=TABLE_FIELDS)
def both_paths(request):
    """The Okubo algebra over a field with tables, with every stage of the
    derivation analysis on the Scalar path and on the encoded path."""
    field = field_from_spec(request.param)
    algebra = build_split_okubo(field)
    with scalar_path():
        system = leibniz_system(algebra)
        der = derivations(algebra)
    der_lie = lie_close(der)
    scalar = {"system": system, "der": der, "inner": inner_derivation_span(algebra),
              "der_lie": der_lie, "derived": derived_subalgebra(der_lie)}
    D = _kernels.nullspace_encoded(field, leibniz_system(algebra))
    enc_der_lie = _encoded_lie.lie_close(field, D)
    enc = {"system": leibniz_system(algebra), "der": D,
           "inner": _encoded_lie.inner_span(algebra, _encoded_lie.encoded_tensor(algebra)),
           "der_lie": enc_der_lie, "derived": _encoded_lie.derived(enc_der_lie)}
    return algebra, scalar, enc


class TestEncodedLayer:
    def test_leibniz_system_and_derivation_space(self, both_paths):
        algebra, scalar, enc = both_paths
        field = algebra.field
        assert isinstance(scalar["system"], Matrix)
        assert np.array_equal(enc["system"], encoded(field, scalar["system"].rows))
        assert np.array_equal(enc["der"], encoded(field, scalar["der"].basis))
        assert derivations(algebra) == scalar["der"]

    def test_inner_span(self, both_paths):
        algebra, scalar, enc = both_paths
        assert np.array_equal(enc["inner"], encoded(algebra.field, scalar["inner"].basis))

    def test_lie_close_bracket_tensor(self, both_paths):
        algebra, scalar, enc = both_paths
        lie, n = scalar["der_lie"], scalar["der_lie"].dim
        flat = [c for row in lie.tensor for coords in row for c in coords]
        assert enc["der_lie"].tensor.shape == (n, n, n)
        assert np.array_equal(enc["der_lie"].tensor.reshape(1, -1), encoded(algebra.field, [flat]))
        maps = [m.to_vec() for m in lie.maps]
        assert np.array_equal(enc["der_lie"].maps.reshape(n, -1), encoded(algebra.field, maps))

    def test_derived_span_killing_rank_and_center(self, both_paths):
        algebra, scalar, enc = both_paths
        field, derived = algebra.field, scalar["derived"]
        span = Subspace.from_vectors(field, 64, [m.to_vec() for m in derived.maps])
        enc_derived = enc["derived"]
        enc_span = _kernels.span_encoded(field, enc_derived.maps.reshape(enc_derived.dim, -1))
        assert np.array_equal(enc_span, encoded(field, span.basis))
        for lie, enc_lie in ((derived, enc["derived"]), (scalar["der_lie"], enc["der_lie"])):
            assert _encoded_lie.killing_rank(enc_lie) == killing_rank(lie)
            assert _encoded_lie.center_dim(enc_lie) == center_of(lie).dim

    @pytest.mark.parametrize("spec", ["gf(3)", "gf(3^2;t^2+1)"])
    def test_grading(self, spec):
        algebra = build_split_okubo(field_from_spec(spec))
        with scalar_path():
            want = grading_on_derivations(algebra).summary()
        D = _kernels.nullspace_encoded(algebra.field, leibniz_system(algebra))
        got = liealg.DerGradingReport(**_encoded_lie.grading(algebra, D)).summary()
        assert got == want and got["passed"]

    def test_simplicity_at_seeds_0_to_19(self, both_paths):
        _, scalar, enc = both_paths
        for seed in range(20):
            for lie, enc_lie in ((scalar["derived"], enc["derived"]),
                                 (scalar["der_lie"], enc["der_lie"])):
                assert is_simple_finite(enc_lie, seed=seed) == is_simple_finite(lie, seed=seed)

    def test_analysis_report(self, both_paths):
        algebra, _, _ = both_paths
        for seed in (0, 9):
            with scalar_path():
                want = analyze_derivations(algebra, seed=seed).summary()
            assert analyze_derivations(algebra, seed=seed).summary() == want


def analysis_outcome(algebra):
    """The derivation report, or the check that raised."""
    try:
        return analyze_derivations(algebra).summary()
    except (AssertionError, NotClosed, ValueError) as exc:
        return type(exc).__name__, str(exc)


class TestEncodedFaultInjection:
    @pytest.mark.parametrize("spec", ["gf(3)", "gf(7)", "gf(3^2;t^2+1)"])
    def test_one_entry_mutants_caught(self, spec):
        """Each nonzero entry negated, and a one at 8 zero positions: on the
        encoded path the derivation space changes or a check fails, and the
        outcome is the Scalar path's."""
        field = field_from_spec(spec)
        base = build_split_okubo(field)
        der = derivations(base)
        zeros = [(i, j, k) for i in range(8) for j in range(8) for k in range(8)
                 if not base.tensor[i][j][k]]
        mutants = [mutated_okubo(field, w) for w in range(len(base.entries))]
        mutants += [with_entry(base, p, field.one) for p in random.Random(0).sample(zeros, 8)]
        for mutant in mutants:
            outcome = analysis_outcome(mutant)
            assert isinstance(outcome, tuple) or derivations(mutant) != der
            with scalar_path():
                assert analysis_outcome(mutant) == outcome
                scalar_der = derivations(mutant)
            assert derivations(mutant) == scalar_der

    @pytest.mark.parametrize("spec", ["gf(2)", "gf(3)", "gf(7)", "gf(3^2;t^2+1)"])
    def test_corrupted_commutator_not_closed(self, spec, monkeypatch):
        field = field_from_spec(spec)
        D = _kernels.nullspace_encoded(field, leibniz_system(build_split_okubo(field)))
        _encoded_lie.lie_close(field, D)
        commutators = _encoded_lie.commutators
        t = _kernels.tables_for(field)
        for position in (0, 27, 63):
            def corrupted(field, maps, position=position):
                out = commutators(field, maps).copy()
                out[1, position] = t.add[out[1, position], 1]
                return out

            monkeypatch.setattr(_encoded_lie, "commutators", corrupted)
            with pytest.raises(NotClosed):
                _encoded_lie.lie_close(field, D)

    def test_jacobi_violation_rejected(self, gf3):
        z, o, two = 0, 1, 2  # encoded gf(3)
        tensor = np.zeros((3, 3, 3), dtype=np.int64)
        # [e,f]=h, [h,e]=2e, [h,f]=-2f, as in test_construction_validates_jacobi
        tensor[0, 1, 2], tensor[1, 0, 2] = o, two
        tensor[2, 0, 0], tensor[0, 2, 0] = two, o
        tensor[2, 1, 1], tensor[1, 2, 1] = o, two
        _encoded_lie.EncodedLie(gf3, tensor)
        bad = tensor.copy()
        bad[2, 0, 0], bad[0, 2, 0] = o, two  # breaks Jacobi, keeps antisymmetry
        with pytest.raises(ValueError, match="Jacobi"):
            _encoded_lie.EncodedLie(gf3, bad)
        bad = tensor.copy()
        bad[0, 1, 2] = z
        with pytest.raises(ValueError, match="antisymmetric"):
            _encoded_lie.EncodedLie(gf3, bad)

    @pytest.mark.parametrize("spec", ["gf(3)", "gf(7)"])
    def test_bracket_tensor_of_der_with_broken_jacobi(self, spec):
        field = field_from_spec(spec)
        t = _kernels.tables_for(field)
        D = _kernels.nullspace_encoded(field, leibniz_system(build_split_okubo(field)))
        tensor = _encoded_lie.lie_close(field, D).tensor.copy()
        tensor[0, 1, 2] = t.add[tensor[0, 1, 2], 1]
        tensor[1, 0, 2] = t.neg[tensor[0, 1, 2]]
        with pytest.raises(ValueError, match="Jacobi"):
            _encoded_lie.EncodedLie(field, tensor)
