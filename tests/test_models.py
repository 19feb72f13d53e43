import random

import pytest

from okubo import _encoded_lie, models
from okubo.errors import BadCharacteristic, NoCubeRoot
from okubo.fields import field_from_spec, rationals_omega
from okubo.linalg import Matrix
from okubo.models import (
    CHAR3_MONOMIALS,
    OKUBO_INDICES,
    OKUBO_LABELS,
    TruncatedPoly,
    build_char3_model,
    build_sl3_model,
    build_split_okubo,
    diamond_truncated,
    distinguished_idempotent,
    model_isomorphism_char_not3,
    okubo_product_rule,
    pauli_matrices,
)
from scalar_reference import (
    charpoly,
    decompose,
    diamond_via_partials,
    from_rows,
    is_zero,
    sl3_products,
    sr_form,
    sr_polar,
    star,
    to_poly,
    trace,
)
from test_algebra import with_entry

# The full multiplication table, transcribed row by row as an independent
# oracle for the combinatorial product rule: TABLE[a][b] is (index, sign)
# with basis order x(1,0), x(-1,0), x(0,1), x(0,-1), x(1,1), x(-1,-1),
# x(-1,1), x(1,-1); None means the product is zero.
TABLE = [
    [(1, 1), None, None, (7, -1), None, (3, -1), None, (5, -1)],
    [None, (0, 1), (6, -1), None, (2, -1), None, (4, -1), None],
    [(4, -1), None, (3, 1), None, (7, -1), None, None, (0, -1)],
    [None, (5, -1), None, (2, 1), None, (6, -1), (1, -1), None],
    [(6, -1), None, None, (0, -1), (5, 1), None, (3, -1), None],
    [None, (7, -1), (1, -1), None, None, (4, 1), None, (2, -1)],
    [(2, -1), None, (5, -1), None, None, (0, -1), (7, 1), None],
    [None, (3, -1), None, (4, -1), (1, -1), None, None, (6, 1)],
]


def test_product_rule_matches_table_transcription():
    for a in range(8):
        for b in range(8):
            assert okubo_product_rule(a, b) == TABLE[a][b], (a, b)


@pytest.mark.parametrize("spec", ["gf(3)", "gf(5)", "q", "q(w)"])
def test_split_okubo_tensor_matches_table(spec):
    field = field_from_spec(spec)
    algebra = build_split_okubo(field)
    for a in range(8):
        for b in range(8):
            expected = [field.zero] * 8
            if TABLE[a][b] is not None:
                k, s = TABLE[a][b]
                expected[k] = field.from_int(s)
            assert list(algebra.tensor[a][b]) == expected


def test_split_okubo_form_is_hyperbolic(gf2):
    algebra = build_split_okubo(gf2)
    from okubo.linalg import rref

    _, rank, _ = rref(algebra.form.polar)
    assert rank == 8
    assert all(not v for v in algebra.form.values)


class TestSrForm:
    def test_identity(self, gf7):
        assert sr_form(Matrix.identity(gf7, 3)) == gf7.scalar(3)

    def test_diag(self, qq):
        d = from_rows(qq, [[1, 0, 0], [0, -1, 0], [0, 0, 0]])
        assert sr_form(d) == qq.from_int(-1)

    def test_polar_by_expansion(self, gf7):
        rng = random.Random(100)
        for _ in range(100):
            a = Matrix(gf7, [[gf7.random_scalar(rng) for _ in range(3)] for _ in range(3)])
            b = Matrix(gf7, [[gf7.random_scalar(rng) for _ in range(3)] for _ in range(3)])
            assert sr_polar(a, b) == sr_form(a + b) - sr_form(a) - sr_form(b)

    def test_charpoly_coefficient(self, gf7):
        # sr is the degree-1 coefficient of det(x I - a)
        rng = random.Random(101)
        for _ in range(20):
            a = Matrix(gf7, [[gf7.random_scalar(rng) for _ in range(3)] for _ in range(3)])
            assert charpoly(a)[1] == sr_form(a)


class TestPauli:
    @pytest.mark.parametrize("spec", ["gf(7)", "q(w)", "gf(2^2;t^2+t+1)"])
    def test_relations(self, spec):
        field = field_from_spec(spec)
        x, y, w = pauli_matrices(field)
        ident = Matrix.identity(field, 3)
        assert x @ x @ x == ident
        assert y @ y @ y == ident
        assert x @ y == w * (y @ x)

    def test_no_cube_root(self, gf5):
        with pytest.raises(NoCubeRoot):
            pauli_matrices(gf5)


class TestSl3Model:
    def test_char3_rejected(self, gf3):
        with pytest.raises(BadCharacteristic):
            build_sl3_model(gf3)

    def test_basis_traceless(self, sl3_gf7, gf7):
        for m in sl3_gf7.basis_matrices:
            assert trace(m) == gf7.zero

    def test_xyx_on_all_basis_pairs(self, sl3_gf7):
        # (u*v)*u = sr(u) v, checked here explicitly on all 64 pairs
        for u in sl3_gf7.basis_matrices:
            su = sr_form(u)
            for v in sl3_gf7.basis_matrices:
                assert star(sl3_gf7, star(sl3_gf7, u, v), u) == su * v

    def test_star_traceless(self, sl3_gf7, gf7):
        rng = random.Random(5)
        for _ in range(50):
            a = sl3_gf7.matrix_of(sl3_gf7.algebra.random_element(rng))
            b = sl3_gf7.matrix_of(sl3_gf7.algebra.random_element(rng))
            assert trace(star(sl3_gf7, a, b)) == gf7.zero

    def test_norm_multiplicative_qw(self):
        qw = rationals_omega()
        model = build_sl3_model(qw)
        algebra = model.algebra
        rng = random.Random(6)
        for _ in range(100):
            x = algebra.random_element(rng)
            y = algebra.random_element(rng)
            assert algebra.norm(algebra.multiply(x, y)) == algebra.norm(x) * algebra.norm(y)

    def test_coords_round_trip(self, sl3_gf7):
        rng = random.Random(7)
        for _ in range(20):
            el = sl3_gf7.algebra.random_element(rng)
            assert sl3_gf7.coords_of(sl3_gf7.matrix_of(el)) == el.coords

    def test_omega_choice_deterministic(self, sl3_gf7, gf7):
        assert sl3_gf7.omega == gf7.scalar(2)


@pytest.mark.parametrize("spec", ["gf(7)", "q(w)", "gf(2^2;t^2+t+1)"])
def test_model_isomorphism_char_not3(spec):
    field = field_from_spec(spec)
    _, report = model_isomorphism_char_not3(field)
    assert report.passed, report.summary()
    assert report.products_checked == 64
    assert report.polar_checked == 64
    assert report.norms_checked == 8


class TestDiamond:
    def test_x_diamond_y_vanishes(self, gf3):
        x = TruncatedPoly.monomial(gf3, 1, 0)
        y = TruncatedPoly.monomial(gf3, 0, 1)
        assert is_zero(diamond_truncated(x, y))

    def test_x_diamond_x(self, gf3):
        x = TruncatedPoly.monomial(gf3, 1, 0)
        assert diamond_truncated(x, x) == TruncatedPoly.monomial(gf3, 2, 0)

    def test_one_is_left_unit_on_monomials(self, gf3):
        one = TruncatedPoly.one(gf3)
        for i in range(3):
            for j in range(3):
                m = TruncatedPoly.monomial(gf3, i, j)
                assert diamond_truncated(one, m) == m

    def test_char_3_required(self, gf5):
        one = TruncatedPoly.one(gf5)
        with pytest.raises(BadCharacteristic):
            diamond_truncated(one, one)

    def test_partials_formula_all_81_pairs(self, gf3):
        monos = [TruncatedPoly.monomial(gf3, i, j) for i in range(3) for j in range(3)]
        for f in monos:
            for g in monos:
                assert diamond_truncated(f, g) == diamond_via_partials(f, g)

    def test_partials_formula_random_elements(self, gf3):
        rng = random.Random(8)
        for _ in range(50):
            f = TruncatedPoly(gf3, [[gf3.random_scalar(rng) for _ in range(3)] for _ in range(3)])
            g = TruncatedPoly(gf3, [[gf3.random_scalar(rng) for _ in range(3)] for _ in range(3)])
            assert diamond_truncated(f, g) == diamond_via_partials(f, g)

    def test_symmetrization_recovers_product(self, gf3):
        # fg = (1/2)(f<>g + g<>f), with 1/2 = 2 in characteristic 3
        half = gf3.from_int(2)
        rng = random.Random(9)
        for _ in range(50):
            f = TruncatedPoly(gf3, [[gf3.random_scalar(rng) for _ in range(3)] for _ in range(3)])
            g = TruncatedPoly(gf3, [[gf3.random_scalar(rng) for _ in range(3)] for _ in range(3)])
            s = diamond_truncated(f, g) + diamond_truncated(g, f)
            assert f * g == s.scale(half)

    def test_one_diamond_one(self, gf3):
        one = TruncatedPoly.one(gf3)
        assert diamond_truncated(one, one) == one


class TestChar3Model:
    @pytest.mark.parametrize("spec", ["gf(3)", "gf(3^2;t^2+1)"])
    def test_matches_split_okubo(self, spec):
        field = field_from_spec(spec)
        _, report = build_char3_model(field)
        assert report.passed, report.summary()
        assert report.products_checked == 64
        assert report.polar_checked == 64
        assert report.norms_checked == 8

    def test_char_not3_rejected(self, gf7):
        with pytest.raises(BadCharacteristic):
            build_char3_model(gf7)

    def test_decomposition_matches_polar(self, gf3):
        model, _ = build_char3_model(gf3)
        algebra = model.algebra
        rng = random.Random(10)
        for _ in range(50):
            u = algebra.random_element(rng)
            v = algebra.random_element(rng)
            d = diamond_truncated(to_poly(model, u), to_poly(model, v))
            scalar, part = decompose(model, d)
            assert scalar == algebra.norm_polar(u, v)
            assert part == algebra.multiply(u, v)

    def test_nilradical_power_is_one_plus_e(self, gf3):
        one = TruncatedPoly.one(gf3)
        x = TruncatedPoly.monomial(gf3, 1, 0)
        y = TruncatedPoly.monomial(gf3, 0, 1)
        xm1, ym1 = x - one, y - one
        prod = xm1 * xm1 * ym1 * ym1
        e = TruncatedPoly.zero(gf3)
        for i in range(3):
            for j in range(3):
                if (i, j) != (0, 0):
                    e = e + TruncatedPoly.monomial(gf3, i, j)
        assert prod == one + e


class TestDistinguishedIdempotent:
    def test_idempotent_gf3(self, okubo_gf3, gf3):
        e = distinguished_idempotent(okubo_gf3)
        assert okubo_gf3.multiply(e, e) == e
        assert okubo_gf3.norm(e) == gf3.one
        assert e.coords == tuple([gf3.one] * 8)

    def test_idempotent_gf9(self, gf9):
        algebra = build_split_okubo(gf9)
        e = distinguished_idempotent(algebra)
        assert algebra.multiply(e, e) == e

    def test_refused_outside_char3(self, gf5):
        algebra = build_split_okubo(gf5)
        with pytest.raises(BadCharacteristic):
            distinguished_idempotent(algebra)
        # over GF(5) the table expansion gives e*e = -2e = 3e != e
        e = algebra.element([1] * 8)
        assert algebra.multiply(e, e) == e * gf5.scalar(3)
        assert algebra.multiply(e, e) != e


@pytest.mark.parametrize("spec", ["gf(7)", "q(w)", "gf(3)", "gf(3^2;t^2+1)"])
def test_integrality_of_all_models(spec):
    # every transported tensor has structure constants in {-1, 0, 1}
    field = field_from_spec(spec)
    algebras = [build_split_okubo(field)]
    if field.characteristic == 3:
        model, _ = build_char3_model(field)
        algebras.append(model.algebra)
    else:
        model, _ = model_isomorphism_char_not3(field)
        algebras.append(model.algebra)
    allowed = {field.zero, field.one, -field.one}
    for algebra in algebras:
        for _, _, _, c in algebra.entries:
            assert c in allowed


def test_grading_degrees_match_labels(okubo_gf3):
    assert okubo_gf3.grading == tuple((i % 3, j % 3) for i, j in OKUBO_INDICES)
    assert CHAR3_MONOMIALS == okubo_gf3.grading
    assert len(OKUBO_LABELS) == 8


# ---------------------------------------------------------------------------
# the sl3 model on exact arrays against the Matrix path
# ---------------------------------------------------------------------------

#: every backend: Z[w] numerators, lookup tables, and coordinates mod p
#: (gf(271) and gf(17^2;t^2+3) lie beyond the tables)
SL3_FIELDS = ["q(w)", "gf(7)", "gf(13)", "gf(2^2;t^2+t+1)", "gf(271)", "gf(17^2;t^2+3)"]


@pytest.mark.parametrize("spec", SL3_FIELDS)
def test_array_model_matches_matrix_path(spec):
    """The model on arrays equals ``sl3_products`` on Matrix objects:
    tensor, norms, polar matrix and the report against model 1."""
    field = field_from_spec(spec)
    model, report = model_isomorphism_char_not3(field)
    oracle = model._algebra_from(*sl3_products(model))
    oracle_report = models._compare_with_split(oracle, build_split_okubo(field), "sl3")
    assert model.algebra.tensor == oracle.tensor
    assert model.algebra.form.values == oracle.form.values
    assert model.algebra.form.polar == oracle.form.polar
    assert report.summary() == oracle_report.summary()
    assert report.passed


def test_mod_arrays_beyond_the_tables():
    # 271 = 1 mod 3 is a prime above the table limit
    field = field_from_spec("gf(271)")
    assert type(_encoded_lie.arrays_for(field)) is _encoded_lie.ModArrays
    _, report = model_isomorphism_char_not3(field)
    assert report.passed and report.products_checked == 64


@pytest.mark.parametrize("spec", ["q(w)", "gf(7)", "gf(271)"])
@pytest.mark.parametrize("which", [0, 3, 6])
def test_perturbed_basis_matrix_fails_xyx_on_arrays(spec, which):
    """(u*v)*u = sr(u)v holds for all trace-zero u and v, so the change
    gives one basis matrix a trace."""
    field = field_from_spec(spec)
    model = build_sl3_model(field)
    ar = _encoded_lie.arrays_for(field)
    model._products_on_arrays(ar)
    bump = Matrix.identity(field, 3)
    model.basis_matrices[which] = model.basis_matrices[which] + bump
    with pytest.raises(AssertionError, match="fails on the model basis"):
        model._products_on_arrays(ar)


@pytest.mark.parametrize("spec", ["q(w)", "gf(7)", "gf(271)"])
def test_split_mutant_gives_product_mismatches(spec, monkeypatch):
    field = field_from_spec(spec)
    base = build_split_okubo(field)
    i, j, k, c = base.entries[5]
    mutant = with_entry(base, (i, j, k), -c)
    monkeypatch.setattr(models, "build_split_okubo", lambda field: mutant)
    _, report = model_isomorphism_char_not3(field)
    assert report.product_mismatches == [[base.labels[i], base.labels[j]]]
    assert not report.passed
