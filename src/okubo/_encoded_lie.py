"""The exact array backends, and the derivation analysis of ``liealg`` on them.

``arrays_for`` picks the array backend from the field:

* ``TableArrays``, over fields with lookup tables
  (``_kernels.supports_field``): elements are their enumeration indices in
  int64 arrays (0 is zero, 1 is one), and arithmetic goes through the
  tables;
* ``ModArrays``, over every other finite field: an element of GF(p^k) is
  its k coordinates on the power basis, as k numpy arrays of ints mod p,
  whose products run on int64 under a proved bound, else on Python ints;
* ``_zw.ZwArrays``, over Q and Q(w): numerators a + b*w over one positive
  denominator, as int64 arrays under a proved bound, else Python ints.

All three have the same operations: ``array``, ``decode``, ``add``,
``sub``, ``neg``, ``mul``, ``matmul``, ``nonzero``, ``equal`` and ``rref``,
and for the identity checks of ``algebra.IdentityBatch``, ``random`` (the
elements ``random_element`` draws) and ``bilinear`` (the bilinear map of a
tensor on rows), and ``concatenate``.  Everything here is written once on
them, apart from the grading (characteristic 3, whose fields all have
tables).  The two finite backends also give the MeatAxe its scalar
arithmetic (``coefficients``, a ``polys`` coefficient object, with
``entries`` and ``from_entries``).  A linear map is a square array, a
family of maps an (n, d, d) stack, a subspace its canonical RREF basis
(``span``, ``nullspace``), and every product of maps is one ``matmul``.
The functions are ``inner_span`` (with the Leibniz check of each ad*_u),
``lie_close``,
``EncodedLie`` (antisymmetry and Jacobi are checked on construction),
``derived``, ``killing_rank``, ``center_dim``, ``grading`` and
``is_simple``, the MeatAxe.  The tests compare each with a reference on
``Scalar`` matrices, whose MeatAxe draws the same random stream in the same
order.  The sl3 matrix model (``models.Sl3Model``) runs on the same
backends, and so does the twist of ``idempotents``: ``mult_stacks`` (the
maps L_x and R_x of a stack of elements) and ``pulled_tensor`` (the tensor
of x.y = phi(x)*psi(y)) are the contractions of the product there.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np

from . import _kernels, _zw, polys
from .errors import Inconclusive, NotClosed
from .fields import ExtensionField, Scalar


def arrays_for(field):
    """The exact array backend of a field: ``_zw.ZwArrays`` over Q and Q(w),
    ``TableArrays`` over a field with lookup tables, and ``ModArrays`` over
    every other finite field."""
    if field.characteristic == 0:
        return _zw.ZwArrays(field)
    if _kernels.supports_field(field):
        return TableArrays(field)
    return ModArrays(field)


class TableArrays:
    """The exact array backend over a field with lookup tables: int64 arrays
    of encoded elements, with arithmetic through the tables."""

    def __init__(self, field):
        self.field = field
        self.tables = _kernels.tables_for(field)

    @functools.cached_property
    def coefficients(self):
        """The arithmetic on single entries, the encoded indices."""
        return polys.EncodedCoefficients(self.field)

    def array(self, scalars):
        """A (nested sequence of) Scalar(s) as an encoded array of its shape."""
        s = np.array(scalars, dtype=object)
        index = self.field.element_index
        return np.array([index(c) for c in s.ravel()], dtype=np.int64).reshape(s.shape)

    def decode(self, x):
        """The Scalars of an encoded array, as nested lists of its shape."""
        return np.array(self.tables.elements, dtype=object)[x].tolist()

    def entries(self, x):
        """The entries of an array as ``coefficients`` values, in nested
        lists of its shape."""
        return x.tolist()

    def from_entries(self, values):
        """``coefficients`` values in nested lists as an array of their shape."""
        return np.array(values, dtype=np.int64)

    def concatenate(self, arrays):
        return np.concatenate(arrays)

    def add(self, x, y):
        return self.tables.add[x, y]

    def sub(self, x, y):
        return self.tables.add[x, self.tables.neg[y]]

    def neg(self, x):
        return self.tables.neg[x]

    def mul(self, x, y):
        """Elementwise products, broadcast as numpy does."""
        return self.tables.mul[x, y]

    def matmul(self, x, y):
        """Matrix products of stacks, broadcast as numpy's matmul does."""
        return _kernels.batch_matmul(self.field, x, y)

    def bilinear(self, T):
        """The bilinear map (X, Y) -> Z of a (dim, dim, K) array T, with
        Z[n, k] = sum_ij X[n, i] Y[n, j] T[i, j, k] on (N, dim) rows:
        ``_kernels.batch_multiply``, with T's digit matrix built once."""
        field, digits = self.field, _kernels.bilinear_digits(self.field, T)
        return lambda X, Y: _kernels.batch_multiply(field, digits, X, Y)

    def random(self, rng, shape):
        """An array of random elements from one randrange(q) per entry, in
        row-major order: the encoded elements ``random_scalar`` draws."""
        return _draw_indices(rng, self.tables.q, shape).reshape(shape)

    def nonzero(self, x):
        return x != 0

    def equal(self, x, y):
        return x == y

    def rref(self, x):
        return _kernels.rref_encoded(self.field, x)


class ModArray(_zw.PartsArray):
    """An array over GF(p^k): its k coordinate arrays on the power basis
    1, t, ..., t^(k-1), int64 or object numpy arrays of ints in [0, p)."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)

    @property
    def _lead(self):
        return self.parts[0]

    def _each(self, fn):
        return ModArray(fn(x) for x in self.parts)


class ModArrays:
    """The exact array backend over a finite field without lookup tables:
    ``ModArray`` values, with the operations of ``TableArrays``.  Products
    multiply the coordinate arrays as polynomials in t and reduce them by
    the field's monic modulus, then mod p (``_times``)."""

    def __init__(self, field):
        self.field = field
        self.p = field.characteristic
        if isinstance(field, ExtensionField):
            self.k, self.modulus = field.degree, field.modulus
        else:
            self.k, self.modulus = 1, ()
        self.coefficients = polys.Coefficients(field)

    def array(self, scalars):
        """A (nested sequence of) Scalar(s) as a ModArray of the same shape."""
        s = np.array(scalars, dtype=object)
        reps = [c.rep for c in s.ravel()]
        columns = [reps] if self.k == 1 else [[r[i] for r in reps] for i in range(self.k)]
        return ModArray(np.array(c, dtype=object).reshape(s.shape) for c in columns)

    def _scalar(self, coords):
        """The Scalar with the given coordinates on the power basis."""
        return Scalar(self.field, coords[0] if self.k == 1 else tuple(coords))

    def decode(self, x):
        """The Scalars of a ModArray, as nested lists of its shape."""
        coords = zip(*(part.ravel().tolist() for part in x.parts))
        out = np.array([self._scalar(c) for c in coords], dtype=object)
        return out.reshape(x.shape).tolist()

    entries = decode
    from_entries = array

    def concatenate(self, arrays):
        return ModArray(np.concatenate(parts) for parts in zip(*(x.parts for x in arrays)))

    def add(self, x, y):
        return ModArray((a + b) % self.p for a, b in zip(x.parts, y.parts))

    def sub(self, x, y):
        return ModArray((a - b) % self.p for a, b in zip(x.parts, y.parts))

    def neg(self, x):
        return ModArray(-a % self.p for a in x.parts)

    def _times(self, x, y, product, K=1):
        """The product of two ModArrays, with ``product`` multiplying their
        coordinate arrays, sums of K products each: a polynomial in t of
        degree < 2k - 1, reduced by t^k = -(m_0 + m_1 t + ... + m_(k-1) t^(k-1)).

        On int64 when k max(K, 1) (p-1)^2 < 2^63, else on Python ints: with
        coordinates in [0, p), the coefficient of t^d sums at most k products
        of coordinate arrays, each with partial sums in [0, K (p-1)^2].  The
        reduction, from d = 2k - 2 down to k, takes that coefficient mod p
        and subtracts m_i times it, at most (p-1)^2, from the coefficient of
        t^(d-k+i), at most k - 1 times for each.  So every value lies in
        [-(k-1) (p-1)^2, k K (p-1)^2], and int64 cannot wrap."""
        k, p = self.k, self.p
        dtype = np.int64 if k * max(K, 1) * (p - 1) ** 2 < 1 << 63 else object
        terms = [None] * (2 * k - 1)
        for i, a in enumerate(x.parts):
            for j, b in enumerate(y.parts):
                ab = product(np.asarray(a, dtype), np.asarray(b, dtype))
                terms[i + j] = ab if terms[i + j] is None else terms[i + j] + ab
        for d in range(2 * k - 2, k - 1, -1):
            terms[d] %= p
            for i, m in enumerate(self.modulus[:k]):
                if m:
                    terms[d - k + i] = terms[d - k + i] - m * terms[d]
        return ModArray(t % p for t in terms[:k])

    def mul(self, x, y):
        """Elementwise products, broadcast as numpy does."""
        return self._times(x, y, lambda a, b: a * b)

    def matmul(self, x, y):
        """Matrix products of stacks, broadcast as numpy's matmul does."""
        return self._times(x, y, lambda a, b: a @ b, x.shape[-1])

    def bilinear(self, T):
        """``TableArrays.bilinear``, by ``_zw.bilinear``."""
        return _zw.bilinear(self, T)

    def random(self, rng, shape):
        """``TableArrays.random``: the element with index e has the base-p
        digits of e as its coordinates."""
        e = _draw_indices(rng, self.field.cardinality, shape).astype(object)
        return ModArray((e // self.p**s % self.p).reshape(shape) for s in range(self.k))

    def nonzero(self, x):
        return np.logical_or.reduce([a != 0 for a in x.parts])

    def equal(self, x, y):
        return np.logical_and.reduce([a == b for a, b in zip(x.parts, y.parts)])

    def rref(self, x):
        """(the RREF of a 2-d ModArray, its pivot columns), as
        ``_kernels.rref_encoded`` returns them: Gauss-Jordan with the first
        nonzero entry of each column as pivot, inverted as a Scalar."""
        parts = [a.copy() for a in x.parts]
        a = ModArray(parts)
        m, n = x.shape
        pivots = []
        for c in range(n):
            r = len(pivots)
            if r == m:
                break
            nz = np.flatnonzero(self.nonzero(a[r:, c]))
            if nz.size == 0:
                continue
            p = r + int(nz[0])
            if p != r:
                for part in parts:
                    part[[r, p]] = part[[p, r]]
            pivot = self._scalar([int(part[r, c]) for part in parts])
            row = self.mul(self.array(pivot.inverse()), a[r])
            rows = np.flatnonzero(self.nonzero(a[:, c]))
            rows = rows[rows != r]
            reduced = self.sub(a[rows], self.mul(a[rows, c][:, None], row[None, :]))
            for part, new, below in zip(parts, row.parts, reduced.parts):
                part[r] = new
                part[rows] = below
            pivots.append(c)
        return a, tuple(pivots)


def _draw_indices(rng, q, shape):
    """randrange(q) once per entry of a shape, as a flat array, leaving the
    generator where those calls leave it.  This relies on CPython's (3.11)
    randrange(q): for k = q.bit_length() <= 32 each call takes one 32-bit
    word, keeps its top k bits and rejects values >= q, and getrandbits(32 m)
    is m such words, the first lowest.  So one getrandbits call gives the
    draws; the generator is then reset and advanced by the words used.  A
    wider q takes several words a draw, and is drawn call by call."""
    n = math.prod(shape)
    if q.bit_length() > 32:
        return np.array([rng.randrange(q) for _ in range(n)], dtype=object)
    shift, drawn = 32 - q.bit_length(), []
    while n:
        state, m = rng.getstate(), n + n // 2 + 64
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4")
        values = (words >> shift).astype(np.int64)
        kept = np.flatnonzero(values < q)[:n]
        if len(kept) == n:
            rng.setstate(state)
            rng.getrandbits(32 * (int(kept[-1]) + 1))
        drawn.append(values[kept])
        n -= len(kept)
    return np.concatenate(drawn or [np.zeros(0, dtype=np.int64)])


def span(ar, x):
    """The canonical RREF basis of the row span of a 2-d array."""
    red, pivots = ar.rref(x)
    return red[: len(pivots)]


def rank(ar, x):
    return len(ar.rref(x)[1])


def nullspace(ar, x):
    """The RREF basis of {v : x v = 0} for a 2-d array x, from its RREF: the
    solution that is 1 at one free column and 0 at the others is
    -red[r, f] at the pivot column of row r, as ``linalg.nullspace`` builds
    it."""
    n = x.shape[1]
    red, pivots = ar.rref(x)
    free = [c for c in range(n) if c not in pivots]
    eye = ar.array([ar.field.zero, ar.field.one])[np.eye(n, dtype=np.int64)]
    at_pivots = ar.matmul(ar.neg(red[: len(pivots)][:, free]).T, eye[list(pivots)])
    return span(ar, ar.add(eye[free], at_pivots))


def same(ar, x, y):
    """Do two arrays have one shape and equal entries?"""
    return x.shape == y.shape and bool(ar.equal(x, y).all())


def coordinates(ar, basis, vectors):
    """Coordinates (N, r) of vectors (N, n) in an RREF basis (r, n), read at
    the pivots, and a bool per vector: does the recombination give it back?"""
    pivots = [int(np.flatnonzero(row)[0]) for row in ar.nonzero(basis)]
    coords = vectors[:, pivots]
    inside = ar.equal(ar.matmul(coords, basis), vectors).all(axis=1)
    return coords, inside


def tensor_of(ar, algebra):
    """The structure tensor as a (dim, dim, dim) array."""
    return ar.array(algebra.tensor)


def mult_stacks(ar, C, X):
    """The (N, dim, dim) stacks of L_x and R_x for the rows x of X (N, dim),
    in the algebra with tensor C: L_x[k][j] = sum_i x_i c_ijk and
    R_x[k][i] = sum_j x_j c_ijk, the ``left_mult_matrix`` and
    ``right_mult_matrix`` of ``StructureConstantAlgebra``."""
    dim = C.shape[0]
    left = ar.matmul(X, C.reshape(dim, dim * dim)).reshape(-1, dim, dim)
    right = ar.matmul(X, C.transpose(1, 0, 2).reshape(dim, dim * dim)).reshape(-1, dim, dim)
    return left.transpose(0, 2, 1), right.transpose(0, 2, 1)


def pulled_tensor(ar, C, phi, psi):
    """The tensor of x.y = phi(x)*psi(y) in the algebra with tensor C, as
    ``StructureConstantAlgebra.product_tensor`` gives it:
    T[i][j][k] = sum_ab phi[a][i] psi[b][j] c_abk, as two products."""
    dim = C.shape[0]
    U = ar.matmul(phi.T, C.reshape(dim, dim * dim)).reshape(dim, dim, dim)  # [i, b, k]
    return ar.matmul(psi.T[None], U)


def leibniz_holds(ar, C, D):
    """One bool per map D[n] (a (N, dim, dim) stack): is it a derivation of
    the algebra with tensor C?  Both sides are read from the tensor:
    D(b_i*b_j) against D(b_i)*b_j + b_i*D(b_j)."""
    dim = C.shape[0]
    N = D.shape[0]
    Dt = D.transpose(0, 2, 1)
    lhs = ar.matmul(C.reshape(dim * dim, dim), Dt)
    left = ar.matmul(Dt, C.reshape(dim, dim * dim))
    right = ar.matmul(Dt[:, None], C[None])
    rhs = ar.add(left.reshape(N, dim, dim, dim), right)
    return ar.equal(lhs.reshape(N, dim, dim, dim), rhs).reshape(N, -1).all(axis=1)


def ad_stars(ar, C):
    """The stack of ad*_{b_i} = L_{b_i} - R_{b_i}: L[i][k][j] = c_ijk and
    R[i][k][m] = c_mik."""
    return ar.sub(C.transpose(0, 2, 1), C.transpose(1, 2, 0))


def inner_span(ar, algebra, C):
    """The span of the inner derivations ad*_u, u over the basis, as an RREF
    basis; each generator is verified against the Leibniz identity."""
    dim = algebra.dim
    ads = ad_stars(ar, C)
    ok = leibniz_holds(ar, C, ads)
    if not ok.all():
        bad = int(np.flatnonzero(~ok)[0])
        raise AssertionError(f"ad*_{algebra.labels[bad]} is not a derivation")
    return span(ar, ads.reshape(dim, dim * dim))


class EncodedLie:
    """A Lie algebra on an exact array backend ``ar``: the bracket tensor
    (n, n, n), [x_a, x_b] = sum_c tensor[a, b, c] x_c, and the (n, d, d)
    stack of the maps x_a, when it is an algebra of maps.

    Construction verifies [x,x] = 0 and antisymmetry on the basis and the
    Jacobi identity on all basis triples.
    """

    def __init__(self, ar, tensor, maps=None):
        self.ar = ar
        self.field = ar.field
        self.tensor = tensor
        self.maps = maps
        self._validate()

    @property
    def dim(self):
        return self.tensor.shape[0]

    @property
    def ads(self):
        """The stack of ad x_a, whose column b is tensor[a, b]."""
        return self.tensor.transpose(0, 2, 1)

    def _validate(self):
        ar, n, T = self.ar, self.dim, self.tensor
        if ar.nonzero(T[np.arange(n), np.arange(n)]).any():
            raise ValueError("bracket [x,x] != 0 on basis")
        if not ar.equal(T, ar.neg(T.transpose(1, 0, 2))).all():
            raise ValueError("bracket tensor is not antisymmetric")
        # U[i, j, k] = [[x_i, x_j], x_k]; Jacobi is U[i,j,k] + U[j,k,i] + U[k,i,j] = 0
        U = ar.matmul(T.reshape(n * n, n), T.reshape(n, n * n)).reshape(n, n, n, n)
        cyclic = ar.add(ar.add(U, U.transpose(2, 0, 1, 3)), U.transpose(1, 2, 0, 3))
        if ar.nonzero(cyclic).any():
            raise ValueError("Jacobi identity fails on basis triple")


def commutators(ar, maps):
    """All n^2 commutators [M_a, M_b] of an (n, d, d) stack, as one stacked
    product, flattened to (n^2, d^2) in row-major (a, b) order."""
    n, d, _ = maps.shape
    P = ar.matmul(maps[:, None], maps[None, :])
    return ar.sub(P, P.transpose(1, 0, 2, 3)).reshape(n * n, d * d)


def lie_close(ar, basis):
    """The Lie algebra on a commutator-closed subspace of maps, given by an
    RREF basis (n, d^2) of flattened maps, in that basis.

    Raises NotClosed when a commutator escapes the span.
    """
    n = basis.shape[0]
    side = math.isqrt(basis.shape[1])
    maps = basis.reshape(n, side, side)
    coords, inside = coordinates(ar, basis, commutators(ar, maps))
    if not inside.all():
        raise NotClosed("subspace of maps is not closed under commutator")
    return EncodedLie(ar, coords.reshape(n, n, n), maps=maps)


def derived(lie):
    """The span of all pairwise brackets of an ``EncodedLie``, as a Lie
    algebra in the RREF basis of that span."""
    ar, n, T = lie.ar, lie.dim, lie.tensor
    s = span(ar, T[np.triu_indices(n, 1)])
    m = s.shape[0]
    # partial[a, j] = [s_a, x_j]; brackets[a, b] = [s_a, s_b]
    partial = ar.matmul(s, T.reshape(n, n * n)).reshape(m, n, n)
    brackets = ar.matmul(s, partial).reshape(m * m, n)
    coords, inside = coordinates(ar, s, brackets)
    if not inside.all():
        raise NotClosed("derived span not closed; bracket tensor inconsistent")
    maps = None
    if lie.maps is not None:
        _, d, _ = lie.maps.shape
        maps = ar.matmul(s, lie.maps.reshape(n, d * d)).reshape(m, d, d)
    return EncodedLie(ar, coords.reshape(m, m, m), maps=maps)


def killing_rank(lie):
    """Rank of K[i][j] = trace(ad x_i o ad x_j) = sum_km ad_i[k][m] ad_j[m][k]."""
    ar, n, ads = lie.ar, lie.dim, lie.ads
    K = ar.matmul(ads.reshape(n, n * n), ads.transpose(0, 2, 1).reshape(n, n * n).T)
    return rank(ar, K)


def center_dim(lie):
    """dim of the center: the nullspace of the rows (j, k) over columns i of
    tensor[i, j, k]."""
    n = lie.dim
    return n - rank(lie.ar, lie.tensor.transpose(1, 2, 0).reshape(n * n, n))


def grading(ar, algebra, C, der):
    """The Z3xZ3-homogeneous components of the derivation space of a graded
    algebra over a field with tables, given the tensor C and the RREF basis
    ``der`` of the derivation space: their dimensions by degree, their
    total, dim Der, whether they fill Der, and whether every (ad*_b)^3 is a
    derivation of degree (0, 0).  The component of degree g is {c der :
    (c der) vanishes off the coordinates (r, j) with deg b_r = deg b_j + g},
    so its coefficients c form the nullspace of the transposed off-degree
    columns."""
    dim = algebra.dim
    degree_to_index = {d: i for i, d in enumerate(algebra.grading)}

    def off_degree(g):
        allowed = np.zeros((dim, dim), dtype=bool)
        for j, h in enumerate(algebra.grading):
            r = degree_to_index.get(((h[0] + g[0]) % 3, (h[1] + g[1]) % 3))
            if r is not None:
                allowed[r, j] = True
        return ~allowed.reshape(-1)

    dims, parts = {}, []
    for g in ((gi, gj) for gi in range(3) for gj in range(3)):
        coeffs = _kernels.nullspace_encoded(ar.field, der[:, off_degree(g)].T)
        if len(coeffs):
            dims[g] = len(coeffs)
            parts.append(ar.matmul(coeffs, der))
    stacked = np.concatenate(parts) if parts else der[:0]
    fill = np.array_equal(span(ar, stacked), der)
    ads = ad_stars(ar, C)
    cubes = ar.matmul(ar.matmul(ads, ads), ads).reshape(dim, dim * dim)
    _, in_der = coordinates(ar, der, cubes)
    in_zero_part = ~cubes[:, off_degree((0, 0))].any(axis=1)
    return dict(
        dims=dims,
        total=sum(dims.values()),
        der_dim=len(der),
        components_fill_der=fill,
        ad_cube_in_degree_zero=bool((in_der & in_zero_part).all()),
    )


def enveloping_element(ar, gens, rng):
    """A random element of the enveloping algebra of the maps ``gens``: sums
    of short products.  A coefficient is the field element whose enumeration
    index is one randrange(q) (one where that draws zero), the value a finite
    field's ``random_scalar`` draws."""
    F, q = ar.coefficients, ar.field.cardinality
    acc = None
    for _ in range(rng.randrange(2, 5)):
        term = gens[rng.randrange(len(gens))]
        for _ in range(rng.randrange(0, 3)):
            term = ar.matmul(term, gens[rng.randrange(len(gens))])
        term = ar.mul(ar.from_entries(F.from_index(rng.randrange(q) or 1)), term)
        acc = term if acc is None else ar.add(acc, term)
    return acc


def charpoly(ar, A):
    """det(xI - A) of a square array, constant term first, by the
    division-free Berkowitz recursion, on the entries through the backend's
    ``coefficients``."""
    F = ar.coefficients
    dot, neg = F.dot, F.neg
    a = ar.entries(A)
    n = len(a)
    coeffs = [F.one, neg(a[0][0])]  # highest degree first
    for r in range(2, n + 1):
        row, block = a[r - 1][: r - 1], [line[: r - 1] for line in a[: r - 1]]
        col = [F.one, neg(a[r - 1][r - 1])]
        v = [a[i][r - 1] for i in range(r - 1)]
        for _ in range(r - 1):
            col.append(neg(dot(row, v)))
            v = [dot(line, v) for line in block]
        # multiply the (r+1) x r Toeplitz matrix built from col into coeffs
        new = []
        for i in range(r + 1):
            js = range(max(0, i - len(col) + 1), min(r, i + 1))
            new.append(dot([col[i - j] for j in js], [coeffs[j] for j in js]))
        coeffs = new
    return coeffs[::-1]


def spin_dim(ar, vector, gens, words):
    """dim of the smallest subspace holding ``vector`` and closed under the
    maps ``gens``.  The first span takes the images under ``words`` (the
    gens and their products of two) at once; the span then grows by the
    images of its basis until the dimension stops growing."""
    n = gens.shape[1]
    first = ar.matmul(vector[None, :], words.transpose(0, 2, 1))
    basis = span(ar, ar.concatenate([vector[None, :], first.reshape(-1, n)]))
    images_of = gens.transpose(0, 2, 1)  # row v times G^T is (G v)^T
    while len(basis) < n:
        images = ar.matmul(basis, images_of).reshape(-1, n)
        grown = span(ar, ar.concatenate([basis, images]))
        if len(grown) == len(basis):
            break
        basis = grown
    return len(basis)


def is_simple(lie, seed, max_trials):
    """``liealg.is_simple_finite`` after its input checks, on an
    ``EncodedLie`` over a finite field.

    Quick certificates first: a proper derived subalgebra or a nonzero
    center disproves simplicity outright.  Otherwise the adjoint module is
    tested for irreducibility MeatAxe-style: pick a random element theta of
    the enveloping algebra of the ad maps, factor its characteristic
    polynomial, and apply Norton's criterion on an irreducible factor of
    minimal nullity.  f(theta^T) is f(theta)^T, the powers of theta serve
    every factor of one trial, and a repeated factor repeats the same kernel
    and spins, so it is tested once.
    """
    ar, n = lie.ar, lie.dim
    F = ar.coefficients
    if derived(lie).dim != n:
        return False
    if center_dim(lie) != 0:
        return False
    gens, gens_t = lie.ads, lie.tensor
    products = ar.matmul(gens[:, None], gens[None]).reshape(-1, n, n)
    words = ar.concatenate([gens, products])
    words_t = words.transpose(0, 2, 1)  # the transposed gens and their products of two
    identity = ar.from_entries([[F.one if i == j else F.zero for j in range(n)]
                                for i in range(n)])
    rng = random.Random(seed)
    for _ in range(max_trials):
        theta = enveloping_element(ar, gens, rng)
        factors = polys.factor(charpoly(ar, theta), F)
        factors = [f for i, f in enumerate(factors) if i == 0 or f != factors[i - 1]]
        powers = [identity]
        while len(powers) <= max(map(polys.degree, factors), default=0):
            powers.append(ar.matmul(powers[-1], theta))
        for f in factors:
            f_of_theta = functools.reduce(
                ar.add, [ar.mul(ar.from_entries(c), power) for c, power in zip(f, powers)])
            ker = F.nullspace(ar.entries(f_of_theta))
            if not ker:
                continue
            if spin_dim(ar, ar.from_entries(ker[0]), gens, words) != n:
                return False
            if len(ker) == polys.degree(f):
                ker_t = F.nullspace(ar.entries(f_of_theta.T))
                if spin_dim(ar, ar.from_entries(ker_t[0]), gens_t, words_t) != n:
                    return False
                return True
    raise Inconclusive(
        f"no irreducible factor of minimal nullity in {max_trials} trials"
    )
