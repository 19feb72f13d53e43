"""The Z[w] array backend against Scalar arithmetic over Q and Q(w)."""

import random

import numpy as np
import pytest

from okubo import _encoded_lie
from okubo._zw import ZwArrays
from okubo.fields import field_from_spec
from okubo.linalg import Matrix, rref

SPECS = ["q", "q(w)"]


def random_scalar(field, rng, big=False):
    """A random element, sometimes zero; ``big`` draws numerators past 2^63."""
    if rng.random() < 0.3:
        return field.zero
    s = field.random_scalar(rng)
    return s * field.from_int(3**45) if big else s


def random_rows(field, rng, m, n, big=False):
    return [[random_scalar(field, rng, big) for _ in range(n)] for _ in range(m)]


@pytest.mark.parametrize("spec, kind", [
    ("q", ZwArrays), ("q(w)", ZwArrays), ("gf(3)", _encoded_lie.TableArrays),
    ("gf(3^2;t^2+1)", _encoded_lie.TableArrays), ("gf(271)", type(None)),
])
def test_backend_choice(spec, kind):
    assert type(_encoded_lie.arrays_for(field_from_spec(spec))) is kind


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("big", [False, True])
def test_arithmetic_matches_scalars(spec, big):
    field = field_from_spec(spec)
    ar = ZwArrays(field)
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
