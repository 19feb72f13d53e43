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
* The idempotent census has two scans that differ by algorithm: the main
  pass ``census_codes``, a split-grid scan with a key join on coordinate 0,
  and the dual pass ``census_codes_reference``, a brute-force scan that
  drops a candidate at its first failed coordinate.  Both test all q^dim
  candidates against v*v = v.  Neither assumes n(v) = 1, which the census
  reports check: a scan that assumed it would pass that check by design.
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


def census_digits(field, codes, dim):
    """Encoded coordinates of census codes, an (N, dim) int64 array: the code
    of v is sum_d v[d] q^(dim-1-d), so codes order the v lexicographically."""
    powers = field.cardinality ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    return np.asarray(codes, dtype=np.int64)[:, None] // powers % field.cardinality


def _split_entries(entries, h):
    """Sort encoded entries (i, j, k, c) into pure-hi (both factors among the
    first h coordinates), pure-lo (neither) and cross (one of each)."""
    pure_hi, pure_lo, cross = [], [], []
    for e in entries:
        n_hi = (e[0] < h) + (e[1] < h)
        (pure_lo, cross, pure_hi)[n_hi].append(e)
    return pure_hi, pure_lo, cross


def census_codes(field, tensor_entries, dim, chunk=1 << 20):
    """Codes of all nonzero fixed points of v -> v*v, in increasing order,
    for a list of (i, j, k, scalar) tensor entries, by a split-grid scan.

    A code is hi * q^(dim-h) + lo with h = dim // 2; each w_k of w = v*v is
    alpha_k(hi) + beta_k(lo) + sum_t F_t(hi) G_t(lo): products of two hi
    coordinates, of two lo ones, and cross terms c v_a v_b = F_t G_t.  So
    whether w_0 = v_0 depends on hi only through its key (alpha_0 - v_0, F_1,
    ..., F_T) and on lo through (beta_0, G_1, ..., G_T) (v_0 moves to lo if
    h = 0).  The mask of each pair of distinct keys is computed once (q^3 x
    q^3 on the Okubo tensor), each block of about ``chunk`` candidates is
    expanded through it, and w_k = v_k for k = 1, ..., dim - 1 filters the
    survivors: every candidate meets every coordinate's equation, and
    n(v) = 1 is never used.  Lookups are ``np.take`` on flat tables at
    x q + y, in the smallest unsigned type that holds q^2 - 1.
    """
    t = tables_for(field)
    q = t.q
    qi = np.min_scalar_type(q * q - 1).type(q)  # q in the type of the flat indices x q + y
    add, mul, neg = (a.astype(qi.dtype).ravel() for a in (t.add, t.mul, t.neg))
    add_q = add * qi  # q (x + y), the row of x + y in the next lookup
    h = dim // 2
    nhi, nlo = q**h, q ** (dim - h)
    hd = census_digits(field, np.arange(nhi), h).T.astype(qi.dtype)  # hd[d][hi] = v_d
    ld = census_digits(field, np.arange(nlo), dim - h).T.astype(qi.dtype)  # ld[d - h][lo] = v_d
    encoded = [(i, j, k, field.element_index(c)) for i, j, k, c in tensor_entries]
    pure_hi, pure_lo, cross = _split_entries(encoded, h)
    part_hi = np.zeros((dim, nhi), dtype=qi.dtype)  # q alpha_k(hi)
    for i, j, k, c in pure_hi:
        part_hi[k] = add_q.take(part_hi[k] + mul[c * q : (c + 1) * q].take(mul.take(hd[i] * qi + hd[j])))
    part_lo = np.zeros((dim, nlo), dtype=qi.dtype)  # beta_k(lo)
    for i, j, k, c in pure_lo:
        part_lo[k] = add.take(part_lo[k] * qi + mul[c * q : (c + 1) * q].take(mul.take(ld[i - h] * qi + ld[j - h])))
    terms = [[] for _ in range(dim)]  # cross terms c v_a v_b as (q c v_a over hi, v_b over lo)
    for i, j, k, c in cross:
        a, b = (i, j) if i < h else (j, i)
        terms[k].append((mul[c * q : (c + 1) * q].take(hd[a]) * qi, ld[b - h]))

    def keep(k, hi, lo):
        x = part_hi[k].take(hi) + part_lo[k].take(lo)
        for factor_hi, v_lo in terms[k]:
            x = add_q.take(x) + mul.take(factor_hi.take(hi) + v_lo.take(lo))
        return add.take(x) == (hd[k].take(hi) if k < h else ld[k - h].take(lo))

    # coordinate 0: the first row and the key of each row of each half, the masks of the keys
    alpha = add.take(part_hi[0] + neg.take(hd[0])) if h else part_hi[0]
    beta = part_lo[0] if h else add.take(part_lo[0] * qi + neg.take(ld[0]))
    (_, hi_first, hi_key), (_, lo_first, lo_key) = (
        np.unique(np.stack(key, axis=1), axis=0, return_index=True, return_inverse=True)
        for key in ([alpha] + [f for f, _ in terms[0]], [beta] + [g for _, g in terms[0]]))
    masks = np.empty((len(hi_first), len(lo_first)), dtype=bool)
    for r, c in _blocks(*masks.shape, chunk):
        masks[r, c] = keep(0, hi_first[r, None], lo_first[c])
    place = np.min_scalar_type(max(nhi, nlo) - 1)
    found = []
    for r, c in _blocks(nhi, nlo, chunk):
        cell = np.flatnonzero(masks.take(hi_key[r].ravel(), axis=0).take(lo_key[c].ravel(), axis=1))
        hi = (cell // (c.stop - c.start) + r.start).astype(place)
        lo = (cell % (c.stop - c.start) + c.start).astype(place)
        for k in range(1, dim):
            ok = keep(k, hi, lo)
            hi, lo = hi[ok], lo[ok]
        found.append(hi.astype(np.int64) * nlo + lo)
    codes = np.concatenate(found)
    return codes[codes != 0]


def _blocks(n, m, chunk):
    """Row-major blocks of about ``chunk`` cells of an n x m grid, as slice pairs."""
    rows, cols = max(1, chunk // m), min(chunk, m)
    return [(slice(r, min(r + rows, n)), slice(c, min(c + cols, m)))
            for r in range(0, n, rows) for c in range(0, m, cols)]


def census_codes_reference(field, tensor_entries, dim, chunk=1 << 20):
    """The codes of ``census_codes`` by brute force, ``chunk`` candidates at a
    time: each code is expanded into its digits and v*v is evaluated from
    the entries on the same flat tables, one coordinate at a time, dropping
    a candidate at its first coordinate with (v*v)_k != v_k."""
    t = tables_for(field)
    q = t.q
    qi = np.min_scalar_type(q * q - 1).type(q)
    add, mul = t.add.astype(qi.dtype).ravel(), t.mul.astype(qi.dtype).ravel()
    by_k = [[(i, j, mul.reshape(q, q)[field.element_index(c)]) for i, j, e, c in tensor_entries if e == k]
            for k in range(dim)]  # (i, j, the map x -> c x) for each entry of w_k
    code = np.min_scalar_type(q**dim - 1)
    found = []
    for start in range(0, q**dim, chunk):
        codes = np.arange(start, min(start + chunk, q**dim), dtype=code)
        v = np.empty((dim, len(codes)), dtype=qi.dtype)
        for d in range(dim):
            v[d] = codes // code.type(q ** (dim - 1 - d)) % code.type(q)
        for k in range(dim):
            w = np.zeros(len(codes), dtype=qi.dtype)
            for i, j, times_c in by_k[k]:
                w = add.take(w * qi + times_c.take(mul.take(v[i] * qi + v[j])))
            ok = np.flatnonzero(w == v[k])
            codes, v = codes[ok], v.take(ok, axis=1)
        found.append(codes)
    codes = np.concatenate(found).astype(np.int64)
    return codes[codes != 0]


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
