import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okubo import _kernels
from okubo.fields import GF, field_from_spec
from okubo.linalg import Matrix, _rref_generic_reps, rref
from okubo.models import build_split_okubo


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


@pytest.mark.parametrize("spec", ["gf(2)", "gf(3)", "gf(2^2;t^2+t+1)", "gf(5)"])
def test_census_implementations_agree(spec):
    # the split-grid kernel against the brute-force reference; a hi row holds
    # q^4 candidates, so the smaller chunks cut rows into pieces
    field = field_from_spec(spec)
    algebra = build_split_okubo(field)
    q = field.cardinality
    reference = _kernels.census_codes_reference(field, algebra.entries, algebra.dim)
    assert np.array_equal(
        reference,
        _kernels.census_codes_reference(field, algebra.entries, algebra.dim, chunk=1000),
    )
    for chunk in (1 << 20, 2 * q**4 + 1, q**4 - 1, q**4 // 3 + 1):
        codes = _kernels.census_codes(field, algebra.entries, algebra.dim, chunk=chunk)
        assert codes.dtype == np.int64
        assert np.array_equal(codes, reference), chunk


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_census_kernels_agree_on_random_tensors(data):
    spec = data.draw(st.sampled_from(["gf(2)", "gf(3)", "gf(2^2;t^2+t+1)"]))
    field = field_from_spec(spec)
    q = field.cardinality
    dim = data.draw(st.integers(3, 6))
    index = st.integers(0, dim - 1)
    raw = data.draw(
        st.lists(st.tuples(index, index, index, st.integers(1, q - 1)),
                 max_size=3 * dim, unique_by=lambda e: e[:3])
    )
    entries = [(i, j, k, field.element_from_index(c)) for i, j, k, c in raw]
    chunk = data.draw(st.integers(q, q**dim))
    codes = _kernels.census_codes(field, entries, dim, chunk=chunk)
    assert np.array_equal(codes, _kernels.census_codes_reference(field, entries, dim))


def test_census_chunking_consistent(gf3, okubo_gf3):
    full = _kernels.census_codes(gf3, okubo_gf3.entries, 8)
    small = _kernels.census_codes(gf3, okubo_gf3.entries, 8, chunk=77)
    assert np.array_equal(full, small)


def test_census_codes_are_sorted_lexicographically(gf3, okubo_gf3):
    codes = _kernels.census_codes(gf3, okubo_gf3.entries, 8)
    assert (np.diff(codes) > 0).all()
    coords = _kernels.decode_census(gf3, codes, 8)
    keys = [tuple(gf3.element_index(c) for c in row) for row in coords]
    assert keys == sorted(keys)


def test_batch_multiply_matches_object_path(gf7, okubo_gf7):
    rng = random.Random(3)
    X = _kernels.random_coord_batch(gf7, rng, 50, 8)
    Y = _kernels.random_coord_batch(gf7, rng, 50, 8)
    Z = _kernels.batch_multiply(gf7, okubo_gf7.entries, X, Y)
    polar = _kernels.batch_polar_form(gf7, okubo_gf7.form, X, Y)
    for r in range(50):
        x = okubo_gf7.element(_kernels.decode_coords(gf7, X[r]))
        y = okubo_gf7.element(_kernels.decode_coords(gf7, Y[r]))
        expect = okubo_gf7.multiply(x, y)
        got = okubo_gf7.element(_kernels.decode_coords(gf7, Z[r]))
        assert got == expect
        assert gf7.element_from_index(int(polar[r])) == okubo_gf7.norm_polar(x, y)


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
        assert d == len(obj.minpoly()) - 1


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
