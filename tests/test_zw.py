"""The array backends without lookup tables against Scalar arithmetic: Z[w]
numerators over Q and Q(w), and coordinates mod p over the finite fields
beyond the tables."""

import random

import numpy as np
import pytest

from okubo import _encoded_lie
from okubo._encoded_lie import ModArrays, TableArrays
from okubo._zw import ZwArrays
from okubo.fields import field_from_spec
from okubo.linalg import Matrix, rref

SPECS = ["q", "q(w)"]
#: finite fields beyond the tables: a prime, and extensions of degree 2 and 4
MOD_SPECS = ["gf(257)", "gf(17^2;t^2+3)", "gf(5^4;t^4+t^2+2t+2)"]


def random_scalar(field, rng, big=False):
    """A random element, sometimes zero; ``big`` draws numerators past 2^63."""
    if rng.random() < 0.3:
        return field.zero
    s = field.random_scalar(rng)
    return s * field.from_int(3**45) if big else s


def random_rows(field, rng, m, n, big=False):
    return [[random_scalar(field, rng, big) for _ in range(n)] for _ in range(m)]


@pytest.mark.parametrize("spec, kind", [
    ("q", ZwArrays), ("q(w)", ZwArrays), ("gf(2)", TableArrays), ("gf(3)", TableArrays),
    ("gf(3^2;t^2+1)", TableArrays), ("gf(3^4;t^4+t+2)", TableArrays), ("gf(251)", TableArrays),
    ("gf(257)", ModArrays), ("gf(271)", ModArrays), ("gf(17^2;t^2+3)", ModArrays),
    ("gf(5^4;t^4+t^2+2t+2)", ModArrays),
])
def test_backend_choice(spec, kind):
    assert type(_encoded_lie.arrays_for(field_from_spec(spec))) is kind


@pytest.mark.parametrize("spec", SPECS + MOD_SPECS)
@pytest.mark.parametrize("big", [False, True])
def test_arithmetic_matches_scalars(spec, big):
    field = field_from_spec(spec)
    ar = _encoded_lie.arrays_for(field)
    rng = random.Random(11)
    for _ in range(10):
        A, B = random_rows(field, rng, 3, 4, big), random_rows(field, rng, 4, 2, big)
        C = random_rows(field, rng, 3, 4, big)
        x, y, z = ar.array(A), ar.array(B), ar.array(C)
        assert ar.decode(x) == A
        assert ar.decode(ar.matmul(x, y)) == [list(r) for r in (Matrix(field, A) @ Matrix(field, B)).rows]
        assert ar.decode(ar.add(x, z)) == [[a + c for a, c in zip(r, s)] for r, s in zip(A, C)]
        assert ar.decode(ar.sub(x, z)) == [[a - c for a, c in zip(r, s)] for r, s in zip(A, C)]
        assert ar.decode(ar.mul(x, z)) == [[a * c for a, c in zip(r, s)] for r, s in zip(A, C)]
        assert ar.decode(ar.neg(x)) == [[-a for a in r] for r in A]
        assert ar.nonzero(x).tolist() == [[bool(a) for a in r] for r in A]
        assert ar.equal(x, z).tolist() == [[a == c for a, c in zip(r, s)] for r, s in zip(A, C)]


@pytest.mark.parametrize("spec", SPECS)
def test_rref_is_linalg_rref_in_one_representation(spec):
    """The RREF and pivots equal ``linalg.rref``'s; rows rescaled by nonzero
    scalars give the same numerators and denominator."""
    field = field_from_spec(spec)
    ar = ZwArrays(field)
    rng = random.Random(12)
    for _ in range(40):
        m, n = rng.randrange(1, 6), rng.randrange(1, 7)
        rows = random_rows(field, rng, m, n, big=rng.random() < 0.3)
        if rng.random() < 0.5 and m > 1:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1 % m])]  # a dependent row
        red, pivots = ar.rref(ar.array(rows))
        want, rank, want_pivots = rref(Matrix(field, rows))
        assert pivots == tuple(want_pivots)
        assert ar.decode(red) == [list(r) for r in want.rows]
        scaled = [[c * s for c in row] for row in rows
                  for s in [random_scalar(field, rng) or field.one]]
        again, _ = ar.rref(ar.array(scaled))
        assert again.den == red.den
        assert np.array_equal(again.a, red.a) and np.array_equal(again.b, red.b)


@pytest.mark.parametrize("spec", MOD_SPECS)
def test_mod_rref_is_linalg_rref(spec):
    """The RREF and pivots of ``ModArrays.rref`` equal ``linalg.rref``'s, on
    random, rank-deficient and all-zero matrices."""
    field = field_from_spec(spec)
    ar = ModArrays(field)
    rng = random.Random(13)
    cases = [[[field.zero] * 4 for _ in range(3)]]
    for _ in range(40):
        m, n = rng.randrange(1, 6), rng.randrange(1, 7)
        rows = random_rows(field, rng, m, n)
        if rng.random() < 0.5 and m > 1:
            scale = field.random_scalar(rng)
            rows[-1] = [a + scale * b for a, b in zip(rows[0], rows[1 % m])]
        cases.append(rows)
    for rows in cases:
        red, pivots = ar.rref(ar.array(rows))
        want, rank, want_pivots = rref(Matrix(field, rows))
        assert pivots == tuple(want_pivots)
        assert ar.decode(red) == [list(r) for r in want.rows]
