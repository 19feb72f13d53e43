import functools
import random

import pytest

import scalar_reference as ref
from okubo import _encoded_lie, liealg
from okubo.algebra import StructureConstantAlgebra
from okubo.errors import BadCharacteristic, InfiniteField, NotClosed, SingularMatrix
from okubo.fields import GF, field_from_spec, rationals_omega
from okubo.liealg import (
    analyze_derivations,
    conjugation_automorphism,
    derivations,
    leibniz_system,
)
from okubo.linalg import Matrix, Subspace, nullspace
from okubo.models import build_sl3_model, build_split_okubo
from scalar_reference import (
    LieAlgebra,
    center_of,
    charpoly,
    contains,
    derived_subalgebra,
    from_rows,
    from_vec,
    grading_on_derivations,
    inner_bracket_matches_minus,
    inner_derivation_span,
    is_simple_finite,
    is_zero,
    killing_form,
    killing_rank,
    leibniz_holds,
    lie_close,
    minus_algebra,
    random_element,
    verify_block_bracket,
)
from test_algebra import QW_MUTANT_VALUES, mutated_okubo, with_entry

# Up to test_analysis_summary_gf3 the tests check the paper's facts, on the
# Scalar reference (``scalar_reference``) apart from the package's
# conjugation_automorphism and report; the classes after it check the
# package's array pipeline against the reference, on every backend.


def abelian_algebra(field):
    return lie_close(Subspace.from_vectors(field, 4, [
        from_rows(field, [[1, 0], [0, 0]]).to_vec(),
        from_rows(field, [[0, 0], [0, 1]]).to_vec(),
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
        assert contains(der, inner)
        assert not contains(inner, der)
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
            assert contains(der, inner)
            assert isinstance(der.dim, int)


class TestDerivationProperties:
    def test_leibniz_on_random_pairs(self, okubo_gf3, gf3):
        der = derivations(okubo_gf3)
        rng = random.Random(51)
        mats = [from_vec(gf3, row, 8, 8) for row in der.basis]
        for _ in range(25):
            coeffs = [gf3.random_scalar(rng) for _ in mats]
            d = Matrix.zeros(gf3, 8, 8)
            for c, m in zip(coeffs, mats):
                if c:
                    d = d + c * m
            x = random_element(okubo_gf3, rng)
            y = random_element(okubo_gf3, rng)
            lhs = okubo_gf3.element(d.matvec(okubo_gf3.multiply(x, y).coords))
            rhs = okubo_gf3.multiply(okubo_gf3.element(d.matvec(x.coords)), y) + \
                okubo_gf3.multiply(x, okubo_gf3.element(d.matvec(y.coords)))
            assert lhs == rhs

    def test_basis_members_satisfy_leibniz(self, okubo_gf3, gf3):
        for row in derivations(okubo_gf3).basis:
            assert leibniz_holds(okubo_gf3, from_vec(gf3, row, 8, 8))

    def test_leibniz_rejects_non_derivations(self, okubo_gf3, gf3):
        assert not leibniz_holds(okubo_gf3, Matrix.identity(gf3, 8))
        d = from_vec(gf3, derivations(okubo_gf3).basis[0], 8, 8)
        bump = from_vec(gf3, [gf3.one] + [gf3.zero] * 63, 8, 8)
        assert not leibniz_holds(okubo_gf3, d + bump)

    def test_commutator_closed(self, okubo_gf3):
        lie_close(derivations(okubo_gf3))  # raises NotClosed on failure

    def test_infinitesimal_isometry(self, okubo_gf7, gf7):
        der = derivations(okubo_gf7)
        rng = random.Random(53)
        for row in der.basis:
            d = from_vec(gf7, row, 8, 8)
            for _ in range(25):
                x = random_element(okubo_gf7, rng)
                y = random_element(okubo_gf7, rng)
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
        e12 = from_rows(gf3, [[0, 1], [0, 0]])
        e21 = from_rows(gf3, [[0, 0], [1, 0]])
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
        assert k.nrows == 8 and is_zero(k)

    def test_qw_killing_rank8(self, okubo_qw):
        lie = lie_close(derivations(okubo_qw))
        assert killing_rank(lie) == 8

    def test_abelian_killing_zero(self, gf3):
        assert is_zero(killing_form(abelian_algebra(gf3)))

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
        assert is_zero(killing_form(m3))
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
# the array pipeline against the Scalar reference
# ---------------------------------------------------------------------------

TABLE_FIELDS = ["gf(2)", "gf(2^2;t^2+t+1)", "gf(3)", "gf(5)", "gf(7)", "gf(3^2;t^2+1)"]
#: finite fields beyond the lookup tables, on coordinates mod p
MOD_FIELDS = ["gf(257)", "gf(17^2;t^2+3)"]
FINITE_FIELDS = TABLE_FIELDS + MOD_FIELDS
#: the fields of all three array backends
ARRAY_FIELDS = FINITE_FIELDS + ["q", "q(w)"]


def as_array(ar, rows):
    """Rows of Scalars as a 2-d array of the backend ``ar``."""
    return ar.array(rows).reshape(len(rows), -1)


def scalar_tensor(field, entries, n):
    """An (n, n, n) nested list of Scalars with the given integer entries."""
    t = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), c in entries.items():
        t[i][j][k] = field.from_int(c)
    return t


@functools.lru_cache(maxsize=None)
def both_paths(spec):
    """The Okubo algebra over a field, its array backend, and every stage of
    the derivation analysis in the reference and on the arrays."""
    field = field_from_spec(spec)
    algebra = build_split_okubo(field)
    ar = _encoded_lie.arrays_for(field)
    der = derivations(algebra)
    der_lie = lie_close(der)
    scalar = {"inner": inner_derivation_span(algebra), "der_lie": der_lie,
              "derived": derived_subalgebra(der_lie)}
    D = as_array(ar, der.basis)
    arr_der_lie = _encoded_lie.lie_close(ar, D)
    arrays = {"der": D,
              "inner": _encoded_lie.inner_span(ar, algebra, _encoded_lie.tensor_of(ar, algebra)),
              "der_lie": arr_der_lie, "derived": _encoded_lie.derived(arr_der_lie)}
    return algebra, ar, scalar, arrays


class TestEncodedLayer:
    @pytest.mark.parametrize("spec", ARRAY_FIELDS)
    def test_leibniz_system_and_derivation_space(self, spec):
        algebra, ar, _, arrays = both_paths(spec)
        system = ref.leibniz_system(algebra)
        # the distinct nonzero rows span what all 512 rows span
        assert derivations(algebra) == ref.derivations(algebra) == nullspace(system)
        built = leibniz_system(ar, algebra)
        assert _encoded_lie.same(ar, built, as_array(ar, system.rows))
        assert _encoded_lie.same(ar, _encoded_lie.nullspace(ar, built), arrays["der"])

    @pytest.mark.parametrize("spec", ARRAY_FIELDS)
    def test_inner_span(self, spec):
        _, ar, scalar, arrays = both_paths(spec)
        assert _encoded_lie.same(ar, arrays["inner"], as_array(ar, scalar["inner"].basis))

    @pytest.mark.parametrize("spec", ARRAY_FIELDS)
    def test_lie_close_bracket_tensor(self, spec):
        _, ar, scalar, arrays = both_paths(spec)
        lie, n = scalar["der_lie"], scalar["der_lie"].dim
        assert arrays["der_lie"].tensor.shape == (n, n, n)
        assert _encoded_lie.same(ar, arrays["der_lie"].tensor, ar.array(lie.tensor))
        maps = [m.to_vec() for m in lie.maps]
        assert _encoded_lie.same(ar, arrays["der_lie"].maps.reshape(n, -1), as_array(ar, maps))

    @pytest.mark.parametrize("spec", ARRAY_FIELDS)
    def test_derived_span_killing_rank_and_center(self, spec):
        algebra, ar, scalar, arrays = both_paths(spec)
        field, derived = algebra.field, scalar["derived"]
        span = Subspace.from_vectors(field, 64, [m.to_vec() for m in derived.maps])
        arr_derived = arrays["derived"]
        arr_span = _encoded_lie.span(ar, arr_derived.maps.reshape(arr_derived.dim, -1))
        assert _encoded_lie.same(ar, arr_span, as_array(ar, span.basis))
        assert _encoded_lie.same(ar, arr_derived.tensor, ar.array(derived.tensor))
        for lie, arr_lie in ((derived, arrays["derived"]), (scalar["der_lie"], arrays["der_lie"])):
            assert _encoded_lie.killing_rank(arr_lie) == killing_rank(lie)
            assert _encoded_lie.center_dim(arr_lie) == center_of(lie).dim

    @pytest.mark.parametrize("spec", ["gf(3)", "gf(3^2;t^2+1)"])
    def test_grading(self, spec):
        algebra = build_split_okubo(field_from_spec(spec))
        want = grading_on_derivations(algebra).summary()
        ar = _encoded_lie.arrays_for(algebra.field)
        D = _encoded_lie.nullspace(ar, leibniz_system(ar, algebra))
        C = _encoded_lie.tensor_of(ar, algebra)
        got = ref.DerGradingReport(**_encoded_lie.grading(ar, algebra, C, D)).summary()
        assert got == want and got["passed"]

    @pytest.mark.parametrize("spec", FINITE_FIELDS)
    def test_simplicity_at_seeds_0_to_19(self, spec):
        _, _, scalar, arrays = both_paths(spec)
        for seed in range(20):
            for lie, arr_lie in ((scalar["derived"], arrays["derived"]),
                                 (scalar["der_lie"], arrays["der_lie"])):
                assert liealg.is_simple_finite(arr_lie, seed=seed) == \
                    is_simple_finite(lie, seed=seed)

    @pytest.mark.parametrize("spec", ["q", "q(w)"])
    def test_simplicity_rejects_characteristic_0(self, spec):
        _, _, scalar, arrays = both_paths(spec)
        with pytest.raises(InfiniteField):
            is_simple_finite(scalar["derived"])
        with pytest.raises(InfiniteField):
            liealg.is_simple_finite(arrays["derived"])

    @pytest.mark.parametrize("spec", ["gf(3)", "gf(257)", "q", "q(w)"])
    def test_algebra_without_derivations(self, spec):
        """b*b = b has no derivation but 0: the empty spans and the empty Lie
        algebras of the array path give the reference's report."""
        field = field_from_spec(spec)
        algebra = StructureConstantAlgebra(field, 1, ["b"], [[[field.one]]])
        want = ref.analyze_derivations(algebra).summary()
        assert want["dim_der"] == 0
        assert analyze_derivations(algebra).summary() == want

    @pytest.mark.parametrize("spec", ARRAY_FIELDS)
    def test_analysis_report(self, spec):
        algebra, _, _, _ = both_paths(spec)
        for seed in (0, 9):
            want = ref.analyze_derivations(algebra, seed=seed).summary()
            assert analyze_derivations(algebra, seed=seed).summary() == want


class TestEncodedLie:
    """The behaviours the reference's LieAlgebra tests check, on arrays."""

    @pytest.mark.parametrize("spec", ["gf(3)", "gf(257)", "gf(17^2;t^2+3)", "q(w)"])
    def test_ad_is_the_bracket(self, spec):
        """Column b of ad x_a is [x_a, x_b], on the commutator algebra of O."""
        field = field_from_spec(spec)
        ar = _encoded_lie.arrays_for(field)
        C = _encoded_lie.tensor_of(ar, build_split_okubo(field))
        lie = _encoded_lie.EncodedLie(ar, ar.sub(C, C.transpose(1, 0, 2)))
        unit = as_array(ar, Matrix.identity(field, 8).rows)
        for a in range(8):
            assert _encoded_lie.same(ar, ar.matmul(lie.ads[a], unit).T, lie.tensor[a])

    @pytest.mark.parametrize("spec", ["gf(3)", "gf(257)"])
    def test_lie_close_not_closed(self, spec):
        field = field_from_spec(spec)
        ar = _encoded_lie.arrays_for(field)
        e12 = from_rows(field, [[0, 1], [0, 0]])
        e21 = from_rows(field, [[0, 0], [1, 0]])
        with pytest.raises(NotClosed):
            _encoded_lie.lie_close(ar, as_array(ar, [e12.to_vec(), e21.to_vec()]))

    @pytest.mark.parametrize("spec", ["gf(3)", "gf(257)", "q"])
    def test_abelian(self, spec):
        """The diagonal 2x2 maps: derived algebra 0, Killing rank 0, center
        everything, and (over a finite field) not simple."""
        field = field_from_spec(spec)
        ar = _encoded_lie.arrays_for(field)
        maps = [from_rows(field, m).to_vec() for m in ([[1, 0], [0, 0]], [[0, 0], [0, 1]])]
        lie = _encoded_lie.lie_close(ar, as_array(ar, maps))
        assert _encoded_lie.derived(lie).dim == 0
        assert _encoded_lie.killing_rank(lie) == 0
        assert _encoded_lie.center_dim(lie) == 2
        if field.cardinality is not None:
            assert liealg.is_simple_finite(lie) is False

    @pytest.mark.parametrize("spec", ["gf(7)", "gf(257)", "gf(17^2;t^2+3)"])
    def test_sl2_simple(self, spec):
        field = field_from_spec(spec)
        ar = _encoded_lie.arrays_for(field)
        sl2 = _encoded_lie.EncodedLie(ar, ar.array(scalar_tensor(field, SL2, 3)))
        assert liealg.is_simple_finite(sl2, seed=0) is True

    @pytest.mark.parametrize("spec", ["gf(3)", "gf(7)", "gf(257)"])
    def test_commutator_algebra_simple(self, spec):
        """The commutator algebra of O, as in TestMinusAlgebra."""
        field = field_from_spec(spec)
        ar = _encoded_lie.arrays_for(field)
        C = _encoded_lie.tensor_of(ar, build_split_okubo(field))
        lie = _encoded_lie.EncodedLie(ar, ar.sub(C, C.transpose(1, 0, 2)))
        assert liealg.is_simple_finite(lie, seed=0) is True
        assert _encoded_lie.killing_rank(lie) == (0 if field.characteristic == 3 else 8)


    @pytest.mark.parametrize("spec", ["gf(7)", "gf(3^2;t^2+1)"] + MOD_FIELDS)
    def test_charpoly_is_matrix_charpoly(self, spec):
        field = field_from_spec(spec)
        ar = _encoded_lie.arrays_for(field)
        rng = random.Random(17)
        for n in (1, 3, 8):
            rows = [[field.random_scalar(rng) for _ in range(n)] for _ in range(n)]
            got = _encoded_lie.charpoly(ar, as_array(ar, rows))
            assert ar.decode(ar.from_entries(got)) == charpoly(Matrix(field, rows))

    @pytest.mark.parametrize("spec", ["gf(7)"] + MOD_FIELDS)
    def test_perfect_centerless_nonsimple_rejected(self, spec):
        """sl2 acting on k^2 (a semidirect product) is perfect and has no
        center, so only the MeatAxe can tell that it is not simple: the
        abelian ideal k^2 is a submodule that a kernel vector outside it
        does not show, but its dual does."""
        field = field_from_spec(spec)
        ar = _encoded_lie.arrays_for(field)
        tensor = scalar_tensor(field, SL2_ON_PLANE, 5)
        lie = _encoded_lie.EncodedLie(ar, ar.array(tensor))
        oracle = LieAlgebra(field, 5, tensor)
        for seed in range(20):
            assert liealg.is_simple_finite(lie, seed=seed) is False
            assert is_simple_finite(oracle, seed=seed) is False


def analysis_outcome(algebra, analyze=analyze_derivations):
    """The derivation report, or the check that raised."""
    try:
        return analyze(algebra).summary()
    except (AssertionError, NotClosed, ValueError) as exc:
        return type(exc).__name__, str(exc)


#: sl2: [e,f] = h, [h,e] = 2e, [h,f] = -2f, as in test_construction_validates_jacobi
SL2 = {(0, 1, 2): 1, (1, 0, 2): -1, (2, 0, 0): 2, (0, 2, 0): -2, (2, 1, 1): -2, (1, 2, 1): 2}
#: sl2 = <e, f, h> acting on the plane <v1, v2> (basis 3, 4): e v2 = v1,
#: f v1 = v2, h v1 = v1, h v2 = -v2, and [v1, v2] = 0
SL2_ON_PLANE = {**SL2, (0, 4, 3): 1, (4, 0, 3): -1, (1, 3, 4): 1, (3, 1, 4): -1,
                (2, 3, 3): 1, (3, 2, 3): -1, (2, 4, 4): -1, (4, 2, 4): 1}


class TestEncodedFaultInjection:
    @pytest.mark.parametrize("spec", ["gf(3)", "gf(7)", "gf(3^2;t^2+1)"] + MOD_FIELDS)
    def test_one_entry_mutants_caught(self, spec):
        """Each nonzero entry negated, and a one at 8 zero positions: on the
        array path the derivation space changes or a check fails, and the
        outcome is the reference's."""
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
            assert analysis_outcome(mutant, ref.analyze_derivations) == outcome
            assert derivations(mutant) == ref.derivations(mutant)

    @pytest.mark.parametrize("kind", sorted(QW_MUTANT_VALUES))
    def test_every_qw_mutant_matches_scalar_path(self, qw, kind):
        """The 96 single-entry q(w) mutants of test_algebra (each nonzero
        entry negated, set to w or set to 1/2): the report on Z[w] arrays,
        and with it every check the CLI derives from it, or the check that
        raised, is the reference's."""
        text = QW_MUTANT_VALUES[kind]
        value = None if text is None else qw.parse(text)
        base = analysis_outcome(build_split_okubo(qw))
        for which in range(32):
            mutant = mutated_okubo(qw, which, value)
            outcome = analysis_outcome(mutant)
            assert outcome != base, which
            assert analysis_outcome(mutant, ref.analyze_derivations) == outcome, which

    @pytest.mark.parametrize("spec", ["gf(2)", "gf(3)", "gf(7)", "gf(3^2;t^2+1)", "q", "q(w)"]
                             + MOD_FIELDS)
    def test_corrupted_commutator_not_closed(self, spec, monkeypatch):
        field = field_from_spec(spec)
        ar = _encoded_lie.arrays_for(field)
        D = as_array(ar, derivations(build_split_okubo(field)).basis)
        _encoded_lie.lie_close(ar, D)
        commutators = _encoded_lie.commutators
        for position in (0, 27, 63):
            bump = [[field.zero] * 64 for _ in range(len(D) ** 2)]
            bump[1][position] = field.one

            def corrupted(ar, maps, bump=as_array(ar, bump)):
                return ar.add(commutators(ar, maps), bump)

            monkeypatch.setattr(_encoded_lie, "commutators", corrupted)
            with pytest.raises(NotClosed):
                _encoded_lie.lie_close(ar, D)

    def test_jacobi_violation_rejected(self):
        for spec in ["gf(3)", "q"] + MOD_FIELDS:
            field = field_from_spec(spec)
            ar = _encoded_lie.arrays_for(field)
            _encoded_lie.EncodedLie(ar, ar.array(scalar_tensor(field, SL2, 3)))
            bad = {**SL2, (2, 0, 0): 1, (0, 2, 0): -1}  # breaks Jacobi, keeps antisymmetry
            with pytest.raises(ValueError, match="Jacobi"):
                _encoded_lie.EncodedLie(ar, ar.array(scalar_tensor(field, bad, 3)))
            bad = {**SL2, (0, 1, 2): 0}
            with pytest.raises(ValueError, match="antisymmetric"):
                _encoded_lie.EncodedLie(ar, ar.array(scalar_tensor(field, bad, 3)))
            bad = {**SL2, (0, 0, 1): 1}
            with pytest.raises(ValueError, match=r"\[x,x\]"):
                _encoded_lie.EncodedLie(ar, ar.array(scalar_tensor(field, bad, 3)))

    @pytest.mark.parametrize("spec", ["gf(3)", "gf(7)", "q(w)", "gf(257)"])
    def test_bracket_tensor_of_der_with_broken_jacobi(self, spec):
        field = field_from_spec(spec)
        ar = _encoded_lie.arrays_for(field)
        D = as_array(ar, derivations(build_split_okubo(field)).basis)
        tensor = _encoded_lie.lie_close(ar, D).tensor
        n = tensor.shape[0]
        bump = ar.array(scalar_tensor(field, {(0, 1, 2): 1, (1, 0, 2): -1}, n))
        with pytest.raises(ValueError, match="Jacobi"):
            _encoded_lie.EncodedLie(ar, ar.add(tensor, bump))
