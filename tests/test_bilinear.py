"""The two operations the identity batch takes from each exact array backend,
``random`` and ``bilinear``, and the table matrix product under both, against
the element path: ``random_element``, ``multiply``, ``norm`` and
``norm_polar`` of the algebra (through ``scalar_reference.ObjectBatch``) and
the table product one contraction step at a time."""

import random

import numpy as np
import pytest

from okubo import _encoded_lie, _kernels
from okubo.algebra import IdentityBatch
from okubo.fields import field_from_spec
from okubo.idempotents import petersson_twist
from okubo.models import build_split_okubo
from scalar_reference import ObjectBatch, batch_matmul_reference, random_element
from test_algebra import okubo_or_bumped

#: tables (a prime, extensions), mod-p arrays (a prime, an extension), Z[w]
FIELDS = ["gf(2)", "gf(3)", "gf(3^2;t^2+1)", "gf(251)", "gf(257)", "gf(17^2;t^2+3)",
          "q", "q(w)"]


def algebra_case(spec, case):
    """The split algebra, its twist at an idempotent (all-ones in
    characteristic 3, b_0 + b_1 elsewhere), or the split algebra with one
    entry raised by one."""
    field = field_from_spec(spec)
    if case == "mutant":
        return okubo_or_bumped(field, 13)
    algebra = build_split_okubo(field)
    if case == "twisted":
        ones = [1] * 8 if field.characteristic == 3 else [1, 1] + [0] * 6
        algebra = petersson_twist(algebra, algebra.element(ones))
    return algebra


def decoded(batch, values):
    """The Scalars of a batch of rows (N, dim) or of scalars (N, 1)."""
    return [tuple(row) for row in batch.ar.decode(values)]


@pytest.mark.parametrize("case", ["split", "twisted", "mutant"])
@pytest.mark.parametrize("spec", FIELDS)
def test_bilinear_matches_object_path(spec, case):
    # multiply, norm and polar are one bilinear map each; on random pairs
    # and on all pairs of certificate points they give the element path's
    algebra = algebra_case(spec, case)
    batch, objects = IdentityBatch(algebra), ObjectBatch(algebra)
    X, Y = batch.draw(random.Random(6), 25, 2)
    U, V = objects.draw(random.Random(6), 25, 2)
    P, _ = batch._certificate_points
    Q, _ = objects._certificate_points
    i, j = np.divmod(np.arange(len(Q) ** 2), len(Q))
    for (A, B), (S, T) in [((X, Y), (U, V)), ((P[i], P[j]), (Q[i], Q[j]))]:
        assert decoded(batch, batch.multiply(A, B)) == [z.coords for z in objects.multiply(S, T)]
        assert decoded(batch, batch.norm(A)) == [(n,) for n in objects.norm(S)]
        assert decoded(batch, batch.polar(A, B)) == [(n,) for n in objects.polar(S, T)]


@pytest.mark.parametrize("spec", FIELDS + ["gf(2^4;t^4+t+1)", "gf(5^4;t^4+t^2+2t+2)"])
def test_random_draws_the_elements_of_random_element(spec):
    # the same randrange calls in the same order: the same elements, and the
    # stream left where random_element leaves it
    algebra = build_split_okubo(field_from_spec(spec))
    ar = _encoded_lie.arrays_for(algebra.field)
    for seed in range(3):
        rng, ref = random.Random(seed), random.Random(seed)
        drawn = ar.decode(ar.random(rng, (4, 3, 8)))
        want = [[list(random_element(algebra, ref).coords) for _ in range(3)] for _ in range(4)]
        assert drawn == want
        assert rng.random() == ref.random()


@pytest.mark.parametrize("q", [2, 3, 4, 7, 8, 9, 16, 25, 251, 256, 257, 2**32 - 5, 2**32 + 15])
def test_bulk_draws_are_randrange(q):
    # the words of one getrandbits call give randrange(q)'s draws, and the
    # generator ends where the calls leave it; past 32 bits one call a draw
    for seed in range(5):
        for n in (0, 1, 7, 3000):
            rng, ref = random.Random(seed), random.Random(seed)
            got = _encoded_lie._draw_indices(rng, q, (n,)).tolist()
            assert got == [ref.randrange(q) for _ in range(n)]
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("spec", ["gf(3)", "gf(257)", "q(w)"])
def test_bilinear_of_zero_tensor_and_empty_batches(spec):
    algebra = build_split_okubo(field_from_spec(spec))
    ar = _encoded_lie.arrays_for(algebra.field)
    zero = [[[algebra.field.zero] * 3 for _ in range(8)] for _ in range(8)]
    X = ar.random(random.Random(1), (5, 8))
    Z = ar.bilinear(ar.array(zero))(X, X)
    assert Z.shape == (5, 3) and not ar.nonzero(Z).any()
    multiply = ar.bilinear(_encoded_lie.tensor_of(ar, algebra))
    assert multiply(X[:0], X[:0]).shape == (0, 8)


def tables_element(field, digit):
    """The index of the element whose every digit is ``digit``."""
    t = _kernels.tables_for(field)
    return int(digit * t.powers.sum())


@pytest.mark.parametrize("spec", ["gf(251)", "gf(2^4;t^4+t+1)", "gf(3^4;t^4+t+2)"])
def test_batch_matmul_matches_reference(spec):
    field = field_from_spec(spec)
    q, p = field.cardinality, field.characteristic
    rng = np.random.default_rng(len(spec))
    cases = [
        (rng.integers(0, q, (5, 3, 7)), rng.integers(0, q, (7, 4))),  # broadcast B
        (rng.integers(0, q, (2, 1, 3, 6)), rng.integers(0, q, (4, 6, 2))),  # both axes
        (rng.integers(0, q, (3, 300)), rng.integers(0, q, (300, 5))),  # K past a slice
        (np.full((2, 300), p - 1), np.full((300, 3), p - 1)),
        (np.full((2, 300), tables_element(field, p - 1)),
         np.full((300, 3), tables_element(field, p - 1))),
    ]
    for A, B in cases:
        got = _kernels.batch_matmul(field, A, B)
        assert got.dtype == np.int64
        assert np.array_equal(got, batch_matmul_reference(field, A, B))


def test_batch_matmul_slices_past_the_float32_bound():
    # over gf(251) a slice holds (2^24 - 1) // 250^2 = 268 products; 301
    # products 249^2 sum to the odd 18662301 > 2^24, which float32 rounds
    field = field_from_spec("gf(251)")
    A, B = np.full((1, 301), 249), np.full((301, 1), 249)
    assert int(np.float32(301 * 249**2)) != 301 * 249**2
    assert _kernels.batch_matmul(field, A, B).item() == 301 * 249**2 % 251


@pytest.mark.parametrize("spec", ["gf(2)", "gf(3^2;t^2+1)", "gf(251)"])
def test_batch_matmul_empty(spec):
    # an empty contraction is the zero matrix; an empty stack stays empty
    field = field_from_spec(spec)
    for A, B, shape in [(np.zeros((2, 3, 0), np.int64), np.zeros((0, 4), np.int64), (2, 3, 4)),
                        (np.zeros((0, 3, 5), np.int64), np.ones((5, 2), np.int64), (0, 3, 2)),
                        (np.ones((3, 5), np.int64), np.ones((5, 0), np.int64), (3, 0))]:
        got = _kernels.batch_matmul(field, A, B)
        assert got.shape == shape and not got.any()
        assert np.array_equal(got, batch_matmul_reference(field, A, B))
