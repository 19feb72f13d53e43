"""The array backends without lookup tables against Scalar arithmetic: Z[w]
numerators over Q and Q(w), and coordinates mod p over the finite fields
beyond the tables."""

import math
import random

import numpy as np
import pytest

from okubo import _encoded_lie, _zw
from okubo._encoded_lie import ModArrays, TableArrays
from okubo._zw import ZwArray, ZwArrays
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


# ---------------------------------------------------------------------------
# the int64 rule of ZwArrays: operations near 2^31 and 2^62 against Scalar
# arithmetic on Python ints, with a plain int64 computation shown to wrap
# ---------------------------------------------------------------------------

QW = field_from_spec("q(w)")


def near(rng, shape, size, dtype=np.int64):
    """Numerators with |v| in (size - 2^20, size), of random signs."""
    v = [rng.choice((-1, 1)) * (size - rng.randrange(1, 2**20)) for _ in range(math.prod(shape))]
    return np.array(v, dtype=np.int64).reshape(shape).astype(dtype)


def big(rng, shape, size, den=1, dtype=np.int64):
    return ZwArray(near(rng, shape, size, dtype), near(rng, shape, size, dtype), den)


def wraps(fn, *parts):
    """Does fn on these int64 arrays differ from fn on their Python ints?"""
    plain = [np.asarray(r) for r in fn(*parts)]
    exact = fn(*(p.astype(object) for p in parts))
    return any((p != e).any() for p, e in zip(plain, exact))


def elementwise(op, xs, ys):
    return [[op(x, y) for x, y in zip(r, s)] for r, s in zip(xs, ys)]


def product(xs, ys):
    return [[sum((x * y for x, y in zip(row, col)), QW.zero) for col in zip(*ys)] for row in xs]


def test_mul_and_matmul_near_2_31_promote_where_int64_would_wrap():
    ar, rng = ZwArrays(QW), random.Random(1)
    x, y = big(rng, (3, 4), 2**31), big(rng, (3, 4), 2**31, den=5)
    assert wraps(_zw.mul, x.a, x.b, y.a, y.b)
    got = ar.mul(x, y)
    assert got.a.dtype == object
    assert ar.decode(got) == elementwise(lambda s, t: s * t, ar.decode(x), ar.decode(y))
    z = big(rng, (4, 2), 2**31, den=7)
    assert wraps(lambda a, b: (a @ b,), x.a, z.a)
    got = ar.matmul(x, z)
    assert got.a.dtype == object
    assert ar.decode(got) == product(ar.decode(x), ar.decode(z))


def test_below_the_bound_stays_int64_and_exact():
    # 3 * (2^29)^2 < 2^62 for mul; 8 K (2^28)^2 < 2^62 for K = 4
    ar, rng = ZwArrays(QW), random.Random(2)
    x, y = big(rng, (3, 4), 2**29), big(rng, (3, 4), 2**29, den=3)
    got = ar.mul(x, y)
    assert got.a.dtype == np.int64 and got.b.dtype == np.int64
    assert ar.decode(got) == elementwise(lambda s, t: s * t, ar.decode(x), ar.decode(y))
    x, z = big(rng, (3, 4), 2**28), big(rng, (4, 2), 2**28)
    got = ar.matmul(x, z)
    assert got.a.dtype == np.int64
    assert ar.decode(got) == product(ar.decode(x), ar.decode(z))


@pytest.mark.parametrize("dtypes", [(np.int64, np.int64), (np.int64, object), (object, np.int64)])
def test_add_sub_equal_near_2_62(dtypes):
    # over denominators 2 and 3 the numerators are scaled by 3 and 2: past
    # 2^63 in int64; mixed int64 and object operands give the same values
    ar, rng = ZwArrays(QW), random.Random(3)
    x, y = big(rng, (2, 3), 2**62, 2, dtypes[0]), big(rng, (2, 3), 2**62, 3, dtypes[1])
    if dtypes == (np.int64, np.int64):
        assert wraps(lambda a, b: (3 * a + 2 * b,), x.a, y.a)
    X, Y = ar.decode(x), ar.decode(y)
    assert ar.decode(ar.add(x, y)) == elementwise(lambda s, t: s + t, X, Y)
    assert ar.decode(ar.sub(x, y)) == elementwise(lambda s, t: s - t, X, Y)
    assert not ar.equal(x, y).any()
    # the same values over another denominator, with numerators past 2^63
    same = ZwArray(x.a.astype(object) * 3, x.b.astype(object) * 3, 6)
    assert ar.equal(x, same).all() and ar.equal(same, x).all()
    assert ar.decode(ar.concatenate([x, same, y])) == X + X + Y


def test_rref_near_2_31_promotes_where_elimination_would_wrap():
    ar, rng = ZwArrays(QW), random.Random(4)
    x = big(rng, (3, 5), 2**31)
    def step(a, b):  # the first elimination step, p row_i - row_i[c] row_r
        u = _zw.mul(a[0, 0], b[0, 0], a[1:], b[1:])
        v = _zw.mul(a[1:, :1], b[1:, :1], a[0], b[0])
        return [s - t for s, t in zip(u, v)]

    assert wraps(step, x.a, x.b)
    red, pivots = ar.rref(x)
    want, _, want_pivots = rref(Matrix(QW, ar.decode(x)))
    assert pivots == tuple(want_pivots) and ar.decode(red) == [list(r) for r in want.rows]
    mixed = ZwArray(x.a, x.b.astype(object), x.den)
    assert ar.decode(ar.rref(mixed)[0]) == ar.decode(red)


def test_bilinear_blocks_near_2_31_and_empty():
    # one block of rows near 2^31 (on Python ints) between blocks on int64;
    # an empty batch and a tensor with K = 0
    ar, rng = ZwArrays(QW), random.Random(5)
    T = ar.array([[[QW.from_int(rng.randrange(-2, 3)) for _ in range(2)] for _ in range(3)]
                  for _ in range(3)])
    rows = 2 * _zw.BLOCK + 3
    X, Y = big(rng, (rows, 3), 2**20), big(rng, (rows, 3), 2**20, den=2)
    X.a[_zw.BLOCK:_zw.BLOCK + 5] = Y.b[_zw.BLOCK:_zw.BLOCK + 5] = near(rng, (5, 3), 2**31)
    got = ar.bilinear(T)(X, Y)
    assert got.a.dtype == object
    Xs, Ys, Ts = ar.decode(X), ar.decode(Y), ar.decode(T)
    want = [[sum((x[i] * y[j] * Ts[i][j][k] for i in range(3) for j in range(3)), QW.zero)
             for k in range(2)] for x, y in zip(Xs, Ys)]
    assert ar.decode(got) == want
    assert ar.bilinear(T)(X[:0], Y[:0]).shape == (0, 2)
    assert ar.bilinear(T[:, :, :0])(X, Y).shape == (rows, 0)
    assert ar.decode(ar.matmul(X[:2, :0], Y[:0, :3])) == [[QW.zero] * 3] * 2


# ---------------------------------------------------------------------------
# the int64 rule of ModArrays: products on int64 when k max(K, 1) (p-1)^2 < 2^63
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p, K, machine", [
    (2**31 - 1, 2, True),  # 2 (p-1)^2 = 2^63 - 2^34 + 8
    (2**31 - 1, 3, False),
    (2**32 + 15, 1, False),  # (p-1)^2 > 2^63 already
])
def test_mod_products_at_the_int64_bound(p, K, machine):
    field = field_from_spec(f"gf({p})")
    ar = ModArrays(field)
    rng = random.Random(K)
    A = np.array([[p - rng.randrange(1, 2**10) for _ in range(K)] for _ in range(3)], dtype=object)
    B = np.array([[p - rng.randrange(1, 2**10) for _ in range(2)] for _ in range(K)], dtype=object)
    assert wraps(lambda a, b: (a @ b,), A.astype(np.int64), B.astype(np.int64)) is not machine
    x, y = _encoded_lie.ModArray([A]), _encoded_lie.ModArray([B])
    for got, want in [(ar.matmul(x, y), (A @ B) % p), (ar.mul(x[:, :1], y[:1]), (A[:, :1] * B[:1]) % p)]:
        assert got.parts[0].tolist() == want.tolist()
    assert ar.matmul(x, y).parts[0].dtype == (np.int64 if machine else object)
    rows = [[field.from_int(int(c)) for c in row] for row in A]
    cols = [[field.from_int(int(c)) for c in row] for row in B]
    assert ar.decode(ar.matmul(x, y)) == [list(r) for r in (Matrix(field, rows) @ Matrix(field, cols)).rows]
