import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okubo import _encoded_lie, _kernels
from okubo.algebra import IdentityBatch, StructureConstantAlgebra
from okubo.fields import GF, field_from_spec
from okubo.idempotents import petersson_twist
from okubo.linalg import Matrix, _rref_generic_reps, rref
from okubo.models import build_split_okubo
from scalar_reference import ObjectBatch, minpoly


FIELDS = ["gf(3)", "gf(7)", "gf(2^2;t^2+t+1)", "gf(3^2;t^2+1)"]


@pytest.mark.parametrize("spec", FIELDS)
def test_tables_match_scalar_arithmetic(spec):
    field = field_from_spec(spec)
    t = _kernels.tables_for(field)
    els = t.elements
    rng = random.Random(1)
    for _ in range(200):
        i, j = rng.randrange(t.q), rng.randrange(t.q)
        assert els[t.add[i, j]] == els[i] + els[j]
        assert els[t.mul[i, j]] == els[i] * els[j]
        assert els[t.neg[i]] == -els[i]
        if i:
            assert els[t.inv[i]] == els[i].inverse()


@pytest.mark.parametrize("spec", FIELDS)
def test_rref_implementations_agree(spec):
    # the encoded kernel against the generic row reduction on scalar reps
    field = field_from_spec(spec)
    t = _kernels.tables_for(field)
    rng = random.Random(2)
    for _ in range(20):
        m, n = rng.randrange(1, 7), rng.randrange(1, 8)
        arr = np.array(
            [[rng.randrange(t.q) for _ in range(n)] for _ in range(m)], dtype=np.int64
        )
        red, piv = _kernels.rref_encoded(field, arr)
        reps = [[t.elements[c].rep for c in row] for row in arr.tolist()]
        pivots = _rref_generic_reps(reps, field)
        assert list(piv) == pivots
        decoded = [[s.rep for s in row] for row in _kernels.decode_rows(field, red)]
        assert decoded == reps


@pytest.mark.parametrize("spec", ["gf(2)", "gf(3)", "gf(2^2;t^2+t+1)", "gf(5)", "gf(7)"])
def test_census_implementations_agree(spec):
    # the split-grid kernel against the brute-force reference.  A hi row
    # holds q^4 candidates and the Okubo tensor has q^3 hi keys and q^3 lo
    # keys, so chunks below q^4 cut the rows into pieces, q^4 - 1 builds the
    # key table in blocks of a few rows, and q^3 - 1 cuts each of its rows
    field = field_from_spec(spec)
    algebra = build_split_okubo(field)
    q = field.cardinality
    reference = _kernels.census_codes_reference(field, algebra.entries, algebra.dim)
    assert reference.dtype == np.int64
    assert np.array_equal(
        reference,
        _kernels.census_codes_reference(field, algebra.entries, algebra.dim, chunk=q**5 + 1),
    )
    chunks = [1 << 20, q**4 - 1]
    if q < 7:
        chunks += [2 * q**4 + 1, q**4 // 3 + 1, q**3 - 1]
    for chunk in chunks:
        codes = _kernels.census_codes(field, algebra.entries, algebra.dim, chunk=chunk)
        assert codes.dtype == np.int64
        assert np.array_equal(codes, reference), chunk


def okubo_mutants(algebra):
    """The Okubo tensor with each of its entries zeroed in turn, and with
    each entry in which coordinate 0 occurs, as a factor or as the image
    coordinate, negated in turn."""
    entries = algebra.entries
    for n in range(len(entries)):
        yield entries[:n] + entries[n + 1:]
    for n, (i, j, k, c) in enumerate(entries):
        if 0 in (i, j, k):
            yield entries[:n] + [(i, j, k, -c)] + entries[n + 1:]


@pytest.mark.parametrize("spec", ["gf(3)", "gf(5)"])
def test_census_kernels_agree_on_okubo_mutants(spec):
    algebra = build_split_okubo(field_from_spec(spec))
    mutants = list(okubo_mutants(algebra))
    assert len(mutants) == 32 + 11
    changed = 0
    for entries in mutants:
        codes = _kernels.census_codes(algebra.field, entries, 8)
        assert np.array_equal(codes, _kernels.census_codes_reference(algebra.field, entries, 8))
        changed += not np.array_equal(codes, _kernels.census_codes(algebra.field, algebra.entries, 8))
    assert changed > len(mutants) // 2


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_census_kernels_agree_on_random_tensors(data):
    spec = data.draw(st.sampled_from(["gf(2)", "gf(3)", "gf(2^2;t^2+t+1)"]))
    field = field_from_spec(spec)
    q = field.cardinality
    dim = data.draw(st.integers(1, 6))
    index = st.integers(0, dim - 1)
    raw = data.draw(
        st.lists(st.tuples(index, index, index, st.integers(1, q - 1)),
                 max_size=3 * dim, unique_by=lambda e: e[:3])
    )
    entries = [(i, j, k, field.element_from_index(c)) for i, j, k, c in raw]
    chunk = data.draw(st.integers(q, q**dim))
    codes = _kernels.census_codes(field, entries, dim, chunk=chunk)
    assert np.array_equal(codes, _kernels.census_codes_reference(field, entries, dim))


@pytest.mark.parametrize("spec, dim", [("gf(17)", 3), ("gf(251)", 2)])
def test_census_kernels_past_one_byte_indices(spec, dim):
    # for q >= 17 a flat index x q + y exceeds 255, so the scans' tables are
    # uint16: both scans against a loop over every candidate on Python ints
    field = field_from_spec(spec)
    q = field.cardinality
    assert np.min_scalar_type(q * q - 1) == np.uint16
    rng = random.Random(q)
    raw = {(i, i, i): 1 for i in range(dim)}
    raw.update({(rng.randrange(dim), rng.randrange(dim), rng.randrange(dim)): rng.randrange(1, q)
                for _ in range(2 * dim)})
    add, mul, _ = _kernels.tables_for(field).lists
    expected = []
    for code in range(1, q**dim):
        v = [code // q ** (dim - 1 - d) % q for d in range(dim)]
        w = [0] * dim
        for (i, j, k), c in raw.items():
            w[k] = add[w[k]][mul[c][mul[v[i]][v[j]]]]
        if w == v:
            expected.append(code)
    assert expected
    entries = [(i, j, k, field.element_from_index(c)) for (i, j, k), c in raw.items()]
    for scan in (_kernels.census_codes, _kernels.census_codes_reference):
        assert scan(field, entries, dim).tolist() == expected
        assert scan(field, entries, dim, chunk=q + 1).tolist() == expected


def test_census_chunking_consistent(gf3, okubo_gf3):
    full = _kernels.census_codes(gf3, okubo_gf3.entries, 8)
    small = _kernels.census_codes(gf3, okubo_gf3.entries, 8, chunk=77)
    assert np.array_equal(full, small)


def test_census_codes_are_sorted_lexicographically(gf3, okubo_gf3):
    codes = _kernels.census_codes(gf3, okubo_gf3.entries, 8)
    assert (np.diff(codes) > 0).all()
    coords = _kernels.decode_rows(gf3, _kernels.census_digits(gf3, codes, 8))
    keys = [tuple(gf3.element_index(c) for c in row) for row in coords]
    assert keys == sorted(keys)


def test_batch_multiply_matches_object_path(gf7, okubo_gf7):
    batch = IdentityBatch(okubo_gf7)
    X, Y = batch.draw(random.Random(3), 50, 2)
    Z = _kernels.batch_multiply(gf7, tensor_digits(okubo_gf7), X, Y)
    polar = batch.polar(X, Y)
    assert polar.shape == (50, 1)
    for r in range(50):
        x = okubo_gf7.element(_kernels.decode_coords(gf7, X[r]))
        y = okubo_gf7.element(_kernels.decode_coords(gf7, Y[r]))
        expect = okubo_gf7.multiply(x, y)
        got = okubo_gf7.element(_kernels.decode_coords(gf7, Z[r]))
        assert got == expect
        assert gf7.element_from_index(int(polar[r, 0])) == okubo_gf7.norm_polar(x, y)


def tensor_digits(algebra):
    """The algebra's tensor as ``batch_multiply`` reads it."""
    ar = _encoded_lie.arrays_for(algebra.field)
    return _kernels.bilinear_digits(algebra.field, _encoded_lie.tensor_of(ar, algebra))


def random_tensor_algebra(field, seed):
    """An algebra whose 512 structure constants are random field elements,
    most of them outside the prime field."""
    rng = random.Random(seed)
    tensor = [[[field.random_scalar(rng) for _ in range(8)] for _ in range(8)] for _ in range(8)]
    return StructureConstantAlgebra(field, 8, [str(i) for i in range(8)], tensor)


def twisted_at(algebra):
    """The twist at the all-ones idempotent in characteristic 3 (its tensor
    has 272 nonzero entries), at b_0 + b_1 elsewhere."""
    field = algebra.field
    ones = [field.one] * 8 if field.characteristic == 3 else [field.one] * 2 + [field.zero] * 6
    return petersson_twist(algebra, algebra.element(ones))


@pytest.mark.parametrize("which", ["okubo", "twisted", "random"])
@pytest.mark.parametrize(
    "spec", ["gf(3)", "gf(7)", "gf(3^2;t^2+1)", "gf(3^4;t^4+t+2)", "gf(13^2;t^2+2)"])
def test_batch_multiply_matches_object_batch(spec, which):
    algebra = build_split_okubo(field_from_spec(spec))
    if which == "twisted":
        algebra = twisted_at(algebra)
    elif which == "random":
        algebra = random_tensor_algebra(algebra.field, seed=len(spec))
    encoded, objects = IdentityBatch(algebra), ObjectBatch(algebra)
    X, Y = encoded.draw(random.Random(4), 60, 2)
    U, V = objects.draw(random.Random(4), 60, 2)
    P, _ = encoded._certificate_points
    Q, _ = objects._certificate_points
    for (A, B), (S, T) in [((X, Y), (U, V)), ((P, P[::-1]), (Q, Q[::-1]))]:
        Z = _kernels.batch_multiply(algebra.field, tensor_digits(algebra), A, B)
        assert _kernels.decode_rows(algebra.field, Z) == [z.coords for z in objects.multiply(S, T)]


def dense_tensor(field, dim, value):
    """The digits of the (dim, dim, dim) tensor with every entry ``value``."""
    return _kernels.bilinear_digits(field, np.full((dim, dim, dim), value))


@pytest.mark.parametrize("x, y", [(250, 1), (250, 250), (1, 250)])
def test_batch_multiply_exact_at_the_float32_bound(x, y):
    # gf(251) has the largest k (p-1)^2 of the fields with tables.  With every
    # coefficient p - 1 and every product x_i y_j = p - 1 (x = p - 1 and
    # y = 1, or the reverse), each of the 64 terms of a coordinate is
    # (p-1)^2 in the float32 sum, which reaches 64 * 250^2 = 4000000; the
    # exact value is 64 (p-1) x y mod p.
    field = GF(251)
    X, Y = np.full((3, 8), x), np.full((3, 8), y)
    Z = _kernels.batch_multiply(field, dense_tensor(field, 8, 250), X, Y)
    assert (Z == 64 * 250 * x * y % 251).all()
    algebra = StructureConstantAlgebra(field, 8, [str(i) for i in range(8)],
                                       [[[field.from_int(250)] * 8] * 8] * 8)
    u, v = algebra.element([x] * 8), algebra.element([y] * 8)
    assert _kernels.decode_coords(field, Z[0]) == algebra.multiply(u, v).coords


@pytest.mark.parametrize("seed", [None, 9])
def test_batch_multiply_exact_beyond_one_float32_slice(seed):
    # in dimension 17 over gf(251) the 289 digit columns exceed the 268 whose
    # sum float32 holds exactly, so the product is taken in two slices.  With
    # every coefficient and product 249, the one sum would be the odd
    # 289 * 249^2 > 2^24, which float32 cannot hold
    field = GF(251)
    if seed is None:
        X, Y = np.full((2, 17), 249), np.ones((2, 17), dtype=np.int64)
    else:
        rng = random.Random(seed)
        X, Y = (np.array([[rng.randrange(251) for _ in range(17)] for _ in range(5)])
                for _ in range(2))
    Z = _kernels.batch_multiply(field, dense_tensor(field, 17, 249), X, Y)
    expect = [249 * sum(x) * sum(y) % 251 for x, y in zip(X.tolist(), Y.tolist())]
    assert Z.tolist() == [[e] * 17 for e in expect]


@pytest.mark.parametrize("spec", ["gf(7)", "gf(2^2;t^2+t+1)"])
def test_batch_minpoly_degrees_match_object_path(spec):
    field = field_from_spec(spec)
    q = field.cardinality
    rng = random.Random(6)
    mats = [[[rng.randrange(q) for _ in range(3)] for _ in range(3)] for _ in range(40)]
    # diag(a, a, b): degree 1 when a = b, else 2
    mats += [[[a, 0, 0], [0, a, 0], [0, 0, b]] for a in range(q) for b in range(q)]
    mats.append([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    degrees = _kernels.batch_minpoly_degrees(field, np.array(mats, dtype=np.int64))
    assert set(degrees.tolist()) == {1, 2, 3}
    for m, d in zip(mats, degrees.tolist()):
        obj = Matrix(field, [[field.element_from_index(c) for c in row] for row in m])
        assert d == len(minpoly(obj)) - 1


def test_rref_dispatch_matches_between_finite_and_generic(gf9):
    # the public rref must give the same answer whichever path it takes
    rng = random.Random(4)
    m = Matrix(gf9, [[gf9.random_scalar(rng) for _ in range(6)] for _ in range(5)])
    red_fast, rank_fast, piv_fast = rref(m)
    reps = [[s.rep for s in row] for row in m.rows]
    piv_gen = _rref_generic_reps(reps, gf9)
    assert piv_fast == piv_gen and rank_fast == len(piv_gen)
    assert [[s.rep for s in row] for row in red_fast.rows] == reps


def test_supports_field_limits(qq):
    assert not _kernels.supports_field(qq)
    assert _kernels.supports_field(GF(251))
