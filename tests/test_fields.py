import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okubo.errors import (
    BadFieldSpec,
    DivisionByZero,
    FieldMismatch,
    InfiniteField,
    NotPrime,
    ReducibleModulus,
)
from okubo.fields import (
    GF,
    cube_root_of_unity,
    enumerate_scalars,
    field_from_spec,
    rationals,
    rationals_omega,
)


class TestConstruction:
    def test_prime_fields(self):
        g3 = GF(3)
        assert g3.characteristic == 3 and g3.cardinality == 3
        g7 = GF(7)
        assert g7.characteristic == 7 and g7.cardinality == 7

    def test_extension_gf9(self):
        g9 = GF(3, (1, 0, 1))  # t^2 + 1
        assert g9.characteristic == 3 and g9.cardinality == 9
        # independent oracle: t^2+1 has no root mod 3
        assert all((x * x + 1) % 3 != 0 for x in range(3))

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            GF(4)
        with pytest.raises(NotPrime):
            GF(1)

    def test_reducible_modulus(self):
        with pytest.raises(ReducibleModulus):
            GF(3, (2, 0, 1))  # t^2 - 1 = (t-1)(t+1)
        with pytest.raises(ReducibleModulus):
            GF(2, (1, 1, 1, 1, 1, 1))  # degree 5 out of range
        # degree-4 with no roots but a quadratic factor: (t^2+t+1)^2 over GF(2)
        with pytest.raises(ReducibleModulus):
            GF(2, (1, 0, 1, 0, 1))

    def test_degree4_irreducible(self):
        f = GF(2, (1, 1, 0, 0, 1))  # t^4 + t + 1
        assert f.cardinality == 16

    def test_spec_strings(self):
        assert field_from_spec("gf(3)") is GF(3)
        assert field_from_spec("q").spec_string() == "q"
        assert field_from_spec("q(w)").spec_string() == "q(w)"
        g9 = field_from_spec("gf(3^2;t^2+1)")
        assert g9.cardinality == 9
        # spec strings round trip
        for f in (GF(3), g9, rationals(), rationals_omega()):
            assert field_from_spec(f.spec_string()) == f
        with pytest.raises(BadFieldSpec):
            field_from_spec("gf(3^3;t^2+1)")  # degree mismatch
        with pytest.raises(BadFieldSpec):
            field_from_spec("zzz")


class TestScalarOps:
    def test_gf3_add(self, gf3):
        assert gf3.scalar(2) + gf3.scalar(2) == gf3.scalar(1)

    def test_omega_cube(self, qw):
        w = qw.omega
        assert w * (w * w) == qw.one

    def test_gf7_inverse(self, gf7):
        assert gf7.scalar(2).inverse() == gf7.scalar(4)

    def test_division_by_zero(self, gf3, qw):
        for f in (gf3, qw):
            with pytest.raises(DivisionByZero):
                f.zero.inverse()
            with pytest.raises(DivisionByZero):
                f.one / f.zero

    def test_field_mismatch(self, gf3, gf7):
        with pytest.raises(FieldMismatch):
            gf3.one + gf7.one

    def test_pow(self, gf7, qw):
        assert gf7.scalar(3) ** 6 == gf7.one
        assert gf7.scalar(3) ** -1 == gf7.scalar(3).inverse()
        assert qw.omega**3 == qw.one
        assert qw.omega**0 == qw.one

    def test_int_coercion(self, gf5):
        assert 2 * gf5.scalar(3) == gf5.one
        assert gf5.scalar(3) - 3 == gf5.zero


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("gf(7)", "2"),
        ("q(w)", "w"),
        ("gf(2^2;t^2+t+1)", "t"),
    ],
)
def test_cube_root_present(spec, expected):
    f = field_from_spec(spec)
    w = cube_root_of_unity(f)
    assert w is not None and str(w) == expected
    assert w**3 == f.one and w != f.one
    assert w * w + w + f.one == f.zero


@pytest.mark.parametrize("spec", ["gf(3^2;t^2+1)", "gf(2^4;t^4+t+1)", "gf(17^2;t^2+3)",
                                  "gf(5^4;t^4+t^2+2t+2)", "gf(7^3;t^3+t+1)"])
def test_extension_inverse_is_the_power_q_minus_2(spec):
    # the extended Euclidean inverse against a^(q-2), by repeated squaring
    field = field_from_spec(spec)
    for a in field.elements():
        if a:
            assert a.inverse() == a ** (field.cardinality - 2)
            assert a * a.inverse() == field.one


@pytest.mark.parametrize("spec", ["gf(3)", "gf(5)", "q", "gf(3^2;t^2+1)", "gf(2)"])
def test_cube_root_absent(spec):
    assert cube_root_of_unity(field_from_spec(spec)) is None


class TestEnumeration:
    def test_gf3_order(self, gf3):
        assert [str(s) for s in enumerate_scalars(gf3)] == ["0", "1", "2"]

    def test_gf2(self, gf2):
        assert [str(s) for s in enumerate_scalars(gf2)] == ["0", "1"]

    def test_gf9_count_and_dedupe(self, gf9):
        els = list(enumerate_scalars(gf9))
        assert len(els) == 9
        assert len(set(els)) == 9

    def test_element_index_round_trip(self, gf9, gf4):
        for f in (gf9, gf4):
            for i, s in enumerate(enumerate_scalars(f)):
                assert f.element_index(s) == i
                assert f.element_from_index(i) == s

    def test_infinite(self, qq, qw):
        for f in (qq, qw):
            with pytest.raises(InfiniteField):
                list(enumerate_scalars(f))


def _field_list():
    return [
        GF(2),
        GF(3),
        GF(5),
        GF(7),
        GF(3, (1, 0, 1)),
        GF(2, (1, 1, 1)),
        rationals(),
        rationals_omega(),
    ]


@pytest.mark.parametrize("field", _field_list(), ids=lambda f: f.spec_string())
def test_field_axioms_randomized(field):
    rng = random.Random(2024)
    for _ in range(1000):
        a = field.random_scalar(rng)
        b = field.random_scalar(rng)
        c = field.random_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + field.zero == a
        assert a * field.one == a
        if a:
            assert a * a.inverse() == field.one


@pytest.mark.parametrize("field", _field_list(), ids=lambda f: f.spec_string())
def test_parse_print_round_trip_random(field):
    rng = random.Random(7)
    for _ in range(200):
        s = field.random_scalar(rng)
        assert field.parse(str(s)) == s


@given(st.integers(min_value=-(10**6), max_value=10**6))
def test_gf7_round_trip_hypothesis(n):
    f = GF(7)
    s = f.from_int(n)
    assert f.parse(str(s)) == s
    assert 0 <= s.rep < 7


@given(
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
)
@settings(max_examples=200)
def test_qw_round_trip_hypothesis(a, b):
    f = rationals_omega()
    s = f.from_fractions(a, b)
    assert f.parse(str(s)) == s


def test_canonical_equality_is_structural(qq, qw):
    # same value built two ways must have identical representations
    a = (qq.from_int(2) / qq.from_int(4)).rep
    b = (qq.from_int(1) / qq.from_int(2)).rep
    assert a == b
    x = (qw.from_int(2) * qw.omega / qw.from_int(4)).rep
    y = (qw.omega / qw.from_int(2)).rep
    assert x == y
