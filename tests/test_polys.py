import itertools
import random

import pytest

from okubo import polys
from okubo.fields import GF, field_from_spec
from scalar_reference import factor_into_irreducibles, irreducible_polys, poly_mul


def P(field, ints):
    return [field.from_int(c) for c in ints]


def encode(field, poly):
    return [field.element_index(c) for c in poly]


def assert_encoded_factors(poly, field, factors):
    """``factor`` on the encoded coefficients gives the encoded factors, in
    the same order."""
    assert polys.factor(encode(field, poly), polys.EncodedCoefficients(field)) == \
        [encode(field, f) for f in factors]


def factor_by_trial_division(poly, field):
    """The reference factorization: monic irreducible factors (with
    multiplicity, sorted) of a degree <= 8 polynomial, by trial division
    with the irreducibles of degree 1..4.  Whatever remains has no factor of
    degree <= 4 and degree <= 8 < 2*5, hence is irreducible."""
    factors = []
    rest = polys.monic(poly)
    for d in range(1, 5):
        if polys.degree(rest) < 2 * d:
            break
        for irr in irreducible_polys(field, d):
            while polys.degree(rest) >= d:
                q, rem = polys.poly_divmod(rest, irr, field)
                if rem:
                    break
                factors.append(irr)
                rest = q
            if polys.degree(rest) < 2 * d:
                break
    if polys.degree(rest) >= 1:
        factors.append(rest)
    return sorted(factors, key=polys._factor_key)


class TestIrreducibility:
    def test_known_quadratics_gf3(self, gf3):
        assert polys.is_irreducible(P(gf3, [1, 0, 1]), gf3)  # t^2+1
        assert not polys.is_irreducible(P(gf3, [2, 0, 1]), gf3)  # (t-1)(t+1)

    def test_degree4(self, gf2):
        assert polys.is_irreducible(P(gf2, [1, 1, 0, 0, 1]), gf2)  # t^4+t+1
        # (t^2+t+1)^2 has no roots but factors
        assert not polys.is_irreducible(P(gf2, [1, 0, 1, 0, 1]), gf2)

    def test_linear_always(self, gf5):
        assert polys.is_irreducible(P(gf5, [3, 1]), gf5)

    def test_constant_never(self, gf5):
        assert not polys.is_irreducible(P(gf5, [3]), gf5)

    def test_counts_gf3(self, gf3):
        # (q^2 - q)/2 monic irreducible quadratics
        assert len(list(irreducible_polys(gf3, 2))) == 3
        assert len(list(irreducible_polys(gf3, 3))) == 8


class TestFactorization:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_random_products_reassemble(self, p):
        field = GF(p)
        rng = random.Random(p)
        irreds = {
            d: list(irreducible_polys(field, d)) for d in (1, 2, 3, 4)
        }
        for _ in range(25):
            chosen = []
            total = 0
            while total < 7:
                d = rng.choice([1, 1, 2, 2, 3, 4])
                if total + d > 8:
                    break
                chosen.append(rng.choice(irreds[d]))
                total += d
            prod = [field.one]
            for f in chosen:
                prod = poly_mul(prod, f, field)
            factors = factor_into_irreducibles(prod, field)
            key = lambda f: tuple(str(c) for c in f)
            assert sorted(map(key, factors)) == sorted(map(key, chosen))

    def test_irreducible_octic_detected(self, gf3):
        # x^8 + x^4 + x^3 + x + 1-like candidates: build one by sieving
        rng = random.Random(0)
        for _ in range(200):
            coeffs = [gf3.from_int(rng.randrange(3)) for _ in range(8)] + [gf3.one]
            factors = factor_into_irreducibles(coeffs, gf3)
            assert sum(polys.degree(f) for f in factors) == 8
            if len(factors) == 1:
                # found an irreducible octic; no factor of degree <= 4 divides it
                for d in (1, 2):
                    for g in irreducible_polys(gf3, d):
                        _, rem = polys.poly_divmod(coeffs, g, gf3)
                        assert rem
                return
        pytest.fail("no irreducible degree-8 polynomial found in 200 samples")

    @pytest.mark.parametrize("spec", ["gf(2)", "gf(3)", "gf(2^2;t^2+t+1)"])
    def test_matches_trial_division_on_every_small_monic(self, spec):
        field = field_from_spec(spec)
        for deg in range(5):
            for tail in itertools.product(list(field.elements()), repeat=deg):
                f = list(tail) + [field.one]
                want = factor_by_trial_division(f, field)
                assert factor_into_irreducibles(f, field) == want
                assert_encoded_factors(f, field, want)

    @pytest.mark.parametrize("spec", ["gf(7)", "gf(3^2;t^2+1)"])
    def test_seeded_octic_products(self, spec):
        field = field_from_spec(spec)
        rng = random.Random(8)
        irreds = {d: list(irreducible_polys(field, d)) for d in (1, 2, 3)}
        for trial in range(30):
            chosen, total = [], 0
            while total < 8:
                d = rng.choice([d for d in (1, 2, 3) if total + d <= 8])
                chosen.append(rng.choice(irreds[d][:3]))  # few choices, so repeats
                total += d
            prod = [field.one]
            for f in chosen:
                prod = poly_mul(prod, f, field)
            factors = factor_into_irreducibles(prod, field)
            assert factors == sorted(chosen, key=polys._factor_key)
            assert_encoded_factors(prod, field, factors)
            if trial < 5:
                assert factors == factor_by_trial_division(prod, field)

    @pytest.mark.parametrize("spec,ints,power", [
        ("gf(2)", [1, 1], 8),  # (x+1)^8: a p-th power, derivative 0
        ("gf(3)", [2, 1, 1], 3),  # (x^2+x+2)^3
        ("gf(3^2;t^2+1)", [1, 1], 6),  # (x+1)^6
    ])
    def test_powers(self, spec, ints, power):
        field = field_from_spec(spec)
        g = P(field, ints)
        prod = [field.one]
        for _ in range(power):
            prod = poly_mul(prod, g, field)
        assert factor_into_irreducibles(prod, field) == [g] * power
        assert_encoded_factors(prod, field, [g] * power)

    def test_degree_cap(self, gf3):
        with pytest.raises(ValueError):
            factor_into_irreducibles([gf3.one] * 10, gf3)
        with pytest.raises(ValueError):
            polys.factor([1] * 10, polys.EncodedCoefficients(gf3))


def test_divmod_and_eval(gf7):
    rng = random.Random(3)
    for _ in range(50):
        a = [gf7.random_scalar(rng) for _ in range(rng.randrange(1, 8))]
        b = [gf7.random_scalar(rng) for _ in range(rng.randrange(1, 5))]
        a, b = polys.trim(a), polys.trim(b)
        if not b:
            continue
        q, r = polys.poly_divmod(a, b, gf7)
        recomposed = poly_mul(q, b, gf7)
        if r:
            recomposed = polys.trim(
                [
                    (recomposed[i] if i < len(recomposed) else gf7.zero)
                    + (r[i] if i < len(r) else gf7.zero)
                    for i in range(max(len(recomposed), len(r)))
                ]
            )
        assert recomposed == a
        assert polys.degree(r) < polys.degree(b) or not r
        x = gf7.random_scalar(rng)
        qx, rx, bx, ax = (polys.poly_eval(p, x) for p in (q, r, b, a))
        assert qx * bx + rx == ax
