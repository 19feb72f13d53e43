"""Integer-encoded kernels for finite-field hot loops.

Elements of a finite field with q elements are encoded by their enumeration
index 0..q-1 and all arithmetic goes through q x q lookup tables, so the
same kernels serve GF(p) and GF(p^k) alike.

* Row reduction is one vectorized numpy loop over the columns; the tests
  compare it with the generic row reduction on scalar representations in
  ``linalg``.  Spans, nullspaces and coordinates built on it return the
  canonical RREF bases that ``linalg.Subspace`` stores.
* ``batch_matmul`` multiplies stacks of encoded matrices with numpy's
  broadcasting, and ``batch_multiply`` evaluates the bilinear map of an
  encoded tensor (``bilinear_digits``) on rows: a product of algebra
  elements, a polar or a quadratic form.  Both are one exact float32
  matrix product over the GF(p) digits of the elements
  (``_digit_product``).  They form every product of ``TableArrays``: the
  derivation analysis, the sl3 model, the twist and the identity checks
  (``_encoded_lie``, ``algebra.IdentityBatch``).
* The idempotent census has two scans that differ by algorithm, not by
  backend.  The main pass runs ``census_codes``, a split-grid scan that
  tabulates half-vector parts of v*v once and filters the grid of candidates
  coordinate by coordinate.  The census's dual pass runs
  ``census_codes_reference`` over the tensor re-read from JSON: a
  brute-force scan that forms the whole image of every candidate.  Both test
  every one of the q^dim candidates against v*v = v.  Neither solves for a
  coordinate from n(v) = 1, although every nonzero idempotent satisfies it:
  the census reports check n(e) = 1, and a scan that assumed it would make
  that check pass by construction.
* ``batch_minpoly_degrees`` gives the minimal-polynomial degrees of
  stacks of 3x3 matrices for the full-field census.
"""

from __future__ import annotations

import functools

import numpy as np

#: largest field size for which lookup tables are built
TABLE_MAX_Q = 256


def supports_field(field):
    q = field.cardinality
    return q is not None and q <= TABLE_MAX_Q


class FieldTables:
    """Lookup tables for one finite field, plus encode/decode helpers."""

    def __init__(self, field):
        q = field.cardinality
        els = list(field.elements())
        self.field = field
        self.q = q
        self.elements = els
        add = np.empty((q, q), dtype=np.int64)
        mul = np.empty((q, q), dtype=np.int64)
        for i, a in enumerate(els):
            for j, b in enumerate(els):
                add[i, j] = field.element_index(a + b)
                mul[i, j] = field.element_index(a * b)
        neg = np.empty(q, dtype=np.int64)
        inv = np.zeros(q, dtype=np.int64)
        for i, a in enumerate(els):
            neg[i] = field.element_index(-a)
            if a:
                inv[i] = field.element_index(a.inverse())
        self.add = add
        self.mul = mul
        self.neg = neg
        self.inv = inv
        #: q = p^k; digits[e, s] is coordinate s of the element with index e
        self.p = field.characteristic
        self.k = getattr(field, "degree", 1)
        digits = np.arange(q)[:, None] // self.p ** np.arange(self.k) % self.p
        self.digits = digits.astype(np.float32)
        #: powers[s] is the index of t^s
        self.powers = self.p ** np.arange(self.k)

    @functools.cached_property
    def product_digits(self):
        """(q * q, k) float32: row a * q + b holds the digits of a * b."""
        return self.digits[self.mul.ravel()]

    @functools.cached_property
    def lists(self):
        """(add, mul, neg) as nested Python lists, for loops over a few
        scalars, where indexing a list is faster than indexing an array."""
        return self.add.tolist(), self.mul.tolist(), self.neg.tolist()


@functools.lru_cache(maxsize=None)
def tables_for(field):
    return FieldTables(field)


def encode_rows(field, rows):
    return np.array(
        [[field.element_index(s) for s in row] for row in rows], dtype=np.int64
    )


def decode_rows(field, arr):
    els = tables_for(field).elements
    return [tuple(els[c] for c in row) for row in arr.tolist()]


def decode_coords(field, arr):
    els = tables_for(field).elements
    return tuple(els[int(c)] for c in arr)


# ---------------------------------------------------------------------------
# row reduction and products
# ---------------------------------------------------------------------------


def rref_encoded(field, arr):
    """RREF of an encoded matrix; returns (reduced copy, pivot columns)."""
    t = tables_for(field)
    a = np.ascontiguousarray(arr, dtype=np.int64).copy()
    if a.size == 0:
        return a, ()
    m, n = a.shape
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        if a[r, c] != 1:
            a[r] = t.mul[t.inv[a[r, c]], a[r]]
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            prod = t.mul[a[rows, c][:, None], a[r][None, :]]
            a[rows] = t.add[a[rows], t.neg[prod]]
        pivots.append(c)
    return a, tuple(pivots)


def span_encoded(field, arr):
    """The RREF basis (rank, n) of the row span of an encoded (m, n) array."""
    red, pivots = rref_encoded(field, arr)
    return red[: len(pivots)]


def nullspace_encoded(field, arr):
    """The RREF basis of {v : arr v = 0}, the rows ``linalg.nullspace`` gives."""
    n = arr.shape[1]
    red, pivots = rref_encoded(field, arr)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    if pivots:
        basis[:, list(pivots)] = tables_for(field).neg[red[: len(pivots)][:, free].T]
    return span_encoded(field, basis)


def batch_matmul(field, A, B):
    """Encoded products A @ B of (..., m, K) and (..., K, n) stacks, with the
    leading axes broadcast as numpy's matmul does: the GF(p) digits of A
    times the digit matrices of multiplication by the entries of B, one
    exact float32 product (``_digit_product``)."""
    t = tables_for(field)
    A = np.asarray(A)
    D = t.digits[A].reshape(*A.shape[:-1], A.shape[-1] * t.k)
    return _digit_product(t, D, _times_digits(t, np.asarray(B)))


def bilinear_digits(field, T):
    """An encoded (dim, dim, K) tensor T as ``batch_multiply`` reads it:
    (I, J, M), its nonzero pairs (I[n], J[n]), those with some T[i, j, k]
    nonzero, and the digit matrix M of multiplication by their rows T[I, J]."""
    t = tables_for(field)
    I, J = np.nonzero((T != 0).any(axis=-1))
    return I, J, _times_digits(t, T[I, J])


def batch_multiply(field, T, X, Y):
    """Row-wise values Z[n, k] = sum_ij X[n, i] Y[n, j] T[i, j, k] of the
    bilinear map of an encoded tensor, given as (I, J, M) by
    ``bilinear_digits``: the product of two algebra elements, their polar
    form or, with Y = X, a quadratic form.  The product x_i y_j of each
    nonzero pair is looked up once, as its digits in ``product_digits``; the
    sum over the pairs is then one ``_digit_product`` with M."""
    t = tables_for(field)
    I, J, M = T
    products = np.take(X, I, axis=-1)
    products *= t.q
    products += np.take(Y, J, axis=-1)  # a * q + b for each pair (a, b) of factors
    D = np.take(t.product_digits, products, axis=0)
    return _digit_product(t, D.reshape(*products.shape[:-1], products.shape[-1] * t.k), M)


def _times_digits(t, B):
    """(..., K * k, n * k) float32 for encoded (..., K, n) stacks B: row
    s k + r, column b k + u holds digit u of t^r B[s, b].  Multiplication by
    B[s, b] is GF(p)-linear, so the digits of a times it are the digits of a
    times these rows."""
    K, n = B.shape[-2:]
    M = t.product_digits[B[..., :, None, :] * t.q + t.powers[:, None]]  # (..., K, k, n, k)
    return M.reshape(*B.shape[:-2], K * t.k, n * t.k)


def _digit_product(t, D, M):
    """The encoded elements whose digits are D @ M mod p, for float32 digit
    stacks D (..., m, L) and M (..., L, n k), broadcast as numpy's matmul
    does: an (..., m, n) int64 array, zeros when L = 0.

    Exact: every entry of D and M is an integer in [0, p), so a sum of m of
    their products is an integer of at most m (p-1)^2.  float32 holds every
    integer below 2^24 and so every partial sum of a slice of
    (2^24 - 1) // (p-1)^2 columns, in any order of summation; the slices are
    added in int64.
    """
    p, k = t.p, t.k
    step = (2**24 - 1) // (p - 1) ** 2
    Z = (D[..., :step] @ M[..., :step, :]).astype(np.int64)
    for a in range(step, D.shape[-1], step):
        Z += (D[..., a : a + step] @ M[..., a : a + step, :]).astype(np.int64)
    Z %= p
    return Z.reshape(*Z.shape[:-1], Z.shape[-1] // k, k) @ t.powers


# ---------------------------------------------------------------------------
# idempotent census scan
# ---------------------------------------------------------------------------
#
# A candidate v is numbered by its code sum_d v[d] q^(dim-1-d): v[0] is the
# most significant digit, so increasing codes enumerate coordinate tuples
# lexicographically.


def _digits(q, codes, width):
    """Base-q digits of each code, most significant first: an (N, width) array."""
    powers = q ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return (np.asarray(codes, dtype=np.int64)[:, None] // powers[None, :]) % q


def _encode_entries(field, tensor_entries):
    return [(i, j, k, field.element_index(c)) for i, j, k, c in tensor_entries]


def _split_entries(entries, h):
    """Sort encoded entries (i, j, k, c) into pure-hi (both factors among the
    first h coordinates), pure-lo (neither) and cross (one of each)."""
    pure_hi, pure_lo, cross = [], [], []
    for e in entries:
        n_hi = (e[0] < h) + (e[1] < h)
        (pure_lo, cross, pure_hi)[n_hi].append(e)
    return pure_hi, pure_lo, cross


def census_codes(field, tensor_entries, dim, chunk=1 << 20):
    """Codes of all nonzero fixed points of v -> v*v, in increasing order.

    ``tensor_entries`` is a list of (i, j, k, scalar) sparse tensor entries.
    Every one of the q^dim candidates is tested against v*v = v by a
    split-grid scan.  A code is hi * q^(dim-h) + lo with h = dim // 2, and
    each image coordinate w_k splits into a part that depends on hi alone
    (products of two hi coordinates), a part that depends on lo alone, and
    cross terms c v_a v_b with v_a a hi and v_b a lo coordinate.  The first
    two parts are tabulated once over the q^h and q^(dim-h) half-vectors.
    The hi x lo grid is then walked in blocks of about ``chunk`` candidates;
    for k = 0, 1, ... the cross terms of w_k are added and only candidates
    with w_k = v_k are kept, so each step keeps about 1/q of the survivors.
    Arithmetic goes through the field's tables, cast to the smallest
    unsigned type that holds q - 1 (uint8 for q <= 256).
    """
    t = tables_for(field)
    q = t.q
    small = np.min_scalar_type(q - 1)
    add = t.add.astype(small)
    mul = t.mul.astype(small)
    h = dim // 2
    nhi, nlo = q**h, q ** (dim - h)
    hd = _digits(q, np.arange(nhi), h).T.astype(small)  # hd[d][hi] = v_d
    ld = _digits(q, np.arange(nlo), dim - h).T.astype(small)  # ld[d - h][lo] = v_d
    pure_hi, pure_lo, cross = _split_entries(_encode_entries(field, tensor_entries), h)
    part_hi = np.zeros((dim, nhi), dtype=small)
    for i, j, k, c in pure_hi:
        part_hi[k] = add[part_hi[k], mul[c, mul[hd[i], hd[j]]]]
    part_lo = np.zeros((dim, nlo), dtype=small)
    for i, j, k, c in pure_lo:
        part_lo[k] = add[part_lo[k], mul[c, mul[ld[i - h], ld[j - h]]]]
    # a cross term c v_a v_b (a < h <= b) as (c v_a over hi, v_b over lo)
    terms = [[] for _ in range(dim)]
    for i, j, k, c in cross:
        a, b = (i, j) if i < h else (j, i)
        terms[k].append((mul[c, hd[a]], ld[b - h]))

    def keep(k, hi, lo):
        w = add[part_hi[k][hi], part_lo[k][lo]]
        for factor_hi, v_lo in terms[k]:
            w = add[w, mul[factor_hi[hi], v_lo[lo]]]
        return w == (hd[k][hi] if k < h else ld[k - h][lo])

    # row-major blocks: several whole hi rows, or one row cut into pieces
    rows, cols = max(1, chunk // nlo), min(chunk, nlo)
    found = []
    for r0 in range(0, nhi, rows):
        hi_block = np.arange(r0, min(r0 + rows, nhi))
        for c0 in range(0, nlo, cols):
            lo_block = np.arange(c0, min(c0 + cols, nlo))
            r, c = np.nonzero(keep(0, hi_block[:, None], lo_block[None, :]))
            hi, lo = hi_block[r], lo_block[c]
            for k in range(1, dim):
                ok = keep(k, hi, lo)
                hi, lo = hi[ok], lo[ok]
            found.append(hi * nlo + lo)
    codes = np.concatenate(found)
    return codes[codes != 0]


def census_codes_reference(field, tensor_entries, dim, chunk=1 << 20):
    """The same codes as ``census_codes``, by a different algorithm: a
    brute-force scan that expands every candidate code into its digits and
    forms and compares its whole image v*v, ``chunk`` codes at a time.
    """
    t = tables_for(field)
    q = t.q
    total = q**dim
    entries = _encode_entries(field, tensor_entries)
    found = []
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        v = _digits(q, codes, dim)
        w = np.zeros_like(v)
        for i, j, k, c in entries:
            w[:, k] = t.add[w[:, k], t.mul[c, t.mul[v[:, i], v[:, j]]]]
        found.append(codes[(w == v).all(axis=1)])
    codes = np.concatenate(found)
    return codes[codes != 0]


def census_digits(field, codes, dim):
    """Encoded coordinates of census codes: an (N, dim) int64 array."""
    return _digits(field.cardinality, codes, dim)


def decode_census(field, codes, dim):
    """Turn census codes back into tuples of Scalars, in scan order."""
    return decode_rows(field, census_digits(field, codes, dim))


# ---------------------------------------------------------------------------
# 3x3 matrices
# ---------------------------------------------------------------------------


def batch_minpoly_degrees(field, M):
    """Degree of the minimal polynomial of each encoded square matrix M[r],
    capped at 3 (so exact for 3x3): 1 if M is scalar, 2 if M^2 lies in
    span(I, M), 3 otherwise.

    With M' = M - M[0,0] I and S' = M^2 - M^2[0,0] I, M^2 lies in span(I, M)
    iff S' is a multiple of M', that is iff every 2x2 minor of the pair of
    flattened matrices (M', S') vanishes.
    """
    t = tables_for(field)
    N, n, _ = M.shape
    sq = batch_matmul(field, M, M)

    def shifted(A):
        A = A.copy()
        d = np.arange(n)
        minus_a00 = t.neg[A[:, 0, 0]]
        A[:, d, d] = t.add[A[:, d, d], minus_a00[:, None]]
        return A.reshape(N, n * n)

    a, b = shifted(M), shifted(sq)
    parallel = np.ones(N, dtype=bool)
    for p in range(n * n):
        for r in range(p + 1, n * n):
            parallel &= t.mul[a[:, p], b[:, r]] == t.mul[a[:, r], b[:, p]]
    scalar = (a == 0).all(axis=1)
    return np.where(scalar, 1, np.where(parallel, 2, 3))
