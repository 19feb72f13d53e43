"""Exact arithmetic over Q and Q(w) on numpy arrays of integer numerators.

An element of Q(w) is (a + b*w)/d with integers a, b and d > 0, where
w^2 = -1 - w; Q is the case b = 0.  ``ZwArrays`` is the exact array backend
over Q and Q(w), with one denominator per array, of every array computation
(``_encoded_lie``): the identity checks of ``verify`` and ``twist``, the
derivation analysis and the sl3 matrix model.  ``bilinear`` gives bilinear
maps to the two backends on numerator arrays, ``ZwArrays`` and
``_encoded_lie.ModArrays``.

**The int64 rule.**  The numerators a and b of an array are int64 numpy
arrays, or object arrays of Python ints, which never overflow.  An int64
array holds only entries with |v| < 2^62 (``LIMIT``).  Before each
operation, the largest |entry| Bx, By of its operands gives a bound on
every result and every partial sum the operation forms; when the bound is
below 2^62 the operation runs on int64, else its operands are promoted to
object arrays and it runs on Python ints.  An object operand makes the
result an object array.  The bounds, for |a|, |b| <= B of each operand:

* ``mul``: a1 a2 - b1 b2 and a1 b2 + b1 a2 - b1 b2 are sums of at most
  three products, each at most Bx By, so every partial sum is at most
  3 Bx By;
* ``matmul`` with inner dimension K: a1 @ a2 and b1 @ b2 are sums of K
  products at most Bx By; (a1 + b1) @ (a2 + b2) has entries of its
  operands at most 2Bx and 2By, so its partial sums are at most 4K Bx By;
  the result subtracts three more sums of at most K Bx By: every partial
  sum is at most 7K Bx By <= 8K Bx By;
* bringing an array to a multiple den of its denominator d, as ``add``,
  ``sub``, ``equal`` and ``concatenate`` do, multiplies its numerators by
  s = den/d, at most max(B, 1) s (the max(., 1) keeps s itself below
  2^62, as numpy requires of an int64 factor); ``add`` and ``sub`` then
  sum numerators at most Bx' and By', at most Bx' + By';
* ``rref``: an elimination step p row_i - row_i[c] row_r, with entries at
  most Br in the pivot row r and at most Bi in the rows i it reduces, is a
  difference of two ``mul`` results, at most 6 Br Bi; multiplying a pivot
  row by the conjugate (pa - pb) - pb w of its pivot, whose parts are at
  most 2B for B the largest entry of the matrix, gives at most
  3 (2B) B = 6 B^2; putting the rows over the common denominator
  multiplies each by some s, the bound max(B, 1) max s.  Norms, gcds and
  denominators are Python ints.

Within the bound a numerator computed in int64 is the exact integer, since
no intermediate value wraps; ``neg`` and ``nonzero`` need no bound.

``PartsArray`` gives the views (indexing, reshaping, transposing) of an
array held as several numpy arrays; ``ZwArray`` and ``_encoded_lie.ModArray``
share it.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import RationalOmegaField, Scalar

#: every int64 numerator, result and partial sum stays below this
LIMIT = 1 << 62
#: rows per block of ``bilinear``
BLOCK = 256


def rep(s):
    """(a, b, d) with s = (a + b*w)/d, for a Scalar of Q or Q(w)."""
    r = s.rep
    return (r[0], 0, r[1]) if len(r) == 2 else r


def mul(a1, b1, a2, b2):
    """(a1 + b1 w)(a2 + b2 w) with w^2 = -1 - w, on ints or arrays."""
    bb = b1 * b2
    return a1 * a2 - bb, a1 * b2 + b1 * a2 - bb


def _bound(*parts):
    """The largest |entry| of int64 numerator arrays, as a Python int, or
    LIMIT when one of them holds Python ints."""
    if any(p.dtype == object for p in parts):
        return LIMIT
    return max((int(np.abs(p).max(initial=0)) for p in parts), default=0)


def _machine(bound, *parts):
    """The numerator arrays as they are when all are int64 and ``bound``, on
    every result and partial sum of the operation, is below 2^62; else all
    as object arrays of Python ints."""
    if bound < LIMIT and all(p.dtype != object for p in parts):
        return parts
    return tuple(p if p.dtype == object else p.astype(object) for p in parts)


def bilinear(ar, T):
    """The bilinear map (X, Y) -> Z of a (dim, dim, K) array T on a backend
    ``ar`` of numerator arrays (see ``_encoded_lie.TableArrays.bilinear``):
    Z[n, k] = sum_ij X[n, i] Y[n, j] T[i, j, k] on (N, dim) rows.

    With (I, J) the P pairs (i, j) for which some T[i, j, k] is nonzero, a
    block of rows is the (rows, P) products X[:, I] Y[:, J], then one
    ``ar.matmul`` with the (P, K) coefficients T[I, J].  Blocks of ``BLOCK``
    rows keep memory flat; an empty batch is one empty block."""
    I, J = np.nonzero(ar.nonzero(T).any(axis=2))
    coefficients = T[I, J]

    def form(X, Y):
        blocks = range(0, max(len(X), 1), BLOCK)
        return ar.concatenate([ar.matmul(ar.mul(X[s:s + BLOCK][:, I], Y[s:s + BLOCK][:, J]),
                                         coefficients) for s in blocks])

    return form


class PartsArray:
    """An array held as numpy arrays of one shape, its parts.  Indexing,
    reshaping and transposing act on every part alike, as on a numpy array.
    A subclass gives ``parts``, ``_each(fn)``, the array with fn applied to
    each part, and ``_lead``, one of its parts."""

    __slots__ = ()

    @property
    def shape(self):
        return self._lead.shape

    def __len__(self):
        return len(self._lead)

    def __getitem__(self, key):
        return self._each(lambda x: x[key])

    def reshape(self, *shape):
        return self._each(lambda x: x.reshape(*shape))

    def transpose(self, *axes):
        return self._each(lambda x: x.transpose(*axes))

    @property
    def T(self):
        return self._each(lambda x: x.T)


class ZwArray(PartsArray):
    """The array (a + b*w)/den: numerators a and b, int64 or object numpy
    arrays of one shape (see the int64 rule above), over one positive
    Python int den."""

    __slots__ = ("a", "b", "den")

    def __init__(self, a, b, den=1):
        self.a, self.b, self.den = a, b, den

    @property
    def _lead(self):
        return self.a

    @property
    def parts(self):
        return self.a, self.b

    def _each(self, fn):
        return ZwArray(fn(self.a), fn(self.b), self.den)


class ZwArrays:
    """The exact array backend over Q and Q(w): ``ZwArray`` values, with the
    operations ``_encoded_lie.TableArrays`` has over fields with tables.
    Results are exact; their denominators are not reduced, apart from the
    canonical RREF that ``rref`` returns."""

    def __init__(self, field):
        self.field = field

    def array(self, scalars):
        """A (nested sequence of) Scalar(s) as a ZwArray of the same shape."""
        s = np.array(scalars, dtype=object)
        reps = [rep(c) for c in s.ravel()]
        den = math.lcm(1, *(d for *_, d in reps))
        a = [x * (den // d) for x, _, d in reps]
        b = [y * (den // d) for _, y, d in reps]
        dtype = np.int64 if max(map(abs, a + b), default=0) < LIMIT else object
        return ZwArray(np.array(a, dtype).reshape(s.shape), np.array(b, dtype).reshape(s.shape), den)

    def decode(self, x):
        """The Scalars of a ZwArray, as nested lists of its shape.  A Scalar's
        rep is reduced by the gcd of its numerators and denominator, as the
        fields keep it."""
        field, den = self.field, x.den
        omega = isinstance(field, RationalOmegaField)
        out = []
        for a, b in zip(x.a.ravel().tolist(), x.b.ravel().tolist()):
            g = math.gcd(a, b, den)
            out.append(Scalar(field, (a // g, b // g, den // g) if omega else (a // g, den // g)))
        return np.array(out, dtype=object).reshape(x.shape).tolist()

    def _over(self, x, den):
        """The numerators of x over a multiple den of its denominator."""
        s = den // x.den
        if s == 1:
            return x.a, x.b
        a, b = _machine(max(_bound(x.a, x.b), 1) * s, x.a, x.b)
        return a * s, b * s

    def _common(self, x, y):
        """The numerators of x and y over their least common denominator."""
        den = math.lcm(x.den, y.den)
        (xa, xb), (ya, yb) = self._over(x, den), self._over(y, den)
        return (*_machine(_bound(xa, xb) + _bound(ya, yb), xa, xb, ya, yb), den)

    def add(self, x, y):
        xa, xb, ya, yb, den = self._common(x, y)
        return ZwArray(xa + ya, xb + yb, den)

    def sub(self, x, y):
        xa, xb, ya, yb, den = self._common(x, y)
        return ZwArray(xa - ya, xb - yb, den)

    def neg(self, x):
        return ZwArray(-x.a, -x.b, x.den)

    def concatenate(self, arrays):
        """Arrays joined along the first axis, over their least common
        denominator."""
        den = math.lcm(*(x.den for x in arrays))
        a, b = zip(*(self._over(x, den) for x in arrays))
        return ZwArray(np.concatenate(a), np.concatenate(b), den)

    def mul(self, x, y):
        """Elementwise products, broadcast as numpy does; two products, not
        three, when one operand is rational."""
        xa, xb, ya, yb = _machine(3 * _bound(x.a, x.b) * _bound(y.a, y.b), x.a, x.b, y.a, y.b)
        den = x.den * y.den
        if not yb.any():
            return ZwArray(xa * ya, xb * ya, den)
        if not xb.any():
            return ZwArray(xa * ya, xa * yb, den)
        return ZwArray(*mul(xa, xb, ya, yb), den)

    def matmul(self, x, y):
        """Matrix products of stacks, broadcast as numpy's matmul does: three
        products, (a1 + b1)(a2 + b2) giving the cross terms, and one where
        both operands are rational."""
        bound = 8 * x.shape[-1] * _bound(x.a, x.b) * _bound(y.a, y.b)
        a1, b1, a2, b2 = _machine(bound, x.a, x.b, y.a, y.b)
        aa, den = a1 @ a2, x.den * y.den
        if not (b1.any() or b2.any()):
            return ZwArray(aa, np.zeros_like(aa), den)
        bb = b1 @ b2
        return ZwArray(aa - bb, (a1 + b1) @ (a2 + b2) - aa - bb - bb, den)

    def bilinear(self, T):
        """``_encoded_lie.TableArrays.bilinear``, by ``bilinear``."""
        return bilinear(self, T)

    def random(self, rng, shape):
        """An array of the elements ``random_scalar`` draws, from the same
        randrange calls in row-major order: a coordinate of Q(w) is
        denominator, then a, then b; one of Q is numerator, then denominator."""
        rand, n = rng.randrange, math.prod(shape)
        if isinstance(self.field, RationalOmegaField):
            dab = [(rand(1, 8), rand(-9, 10), rand(-9, 10)) for _ in range(n)]
        else:
            dab = [(d, a, 0) for a, d in [(rand(-9, 10), rand(1, 8)) for _ in range(n)]]
        d, a, b = np.array(dab, dtype=np.int64).reshape(n, 3).T
        den = math.lcm(*d.tolist())  # at most lcm(1, ..., 7) = 420
        return ZwArray((a * (den // d)).reshape(shape), (b * (den // d)).reshape(shape), den)

    def nonzero(self, x):
        return (x.a != 0) | (x.b != 0)

    def equal(self, x, y):
        """Elementwise equality, of the numerators over the least common
        denominator."""
        xa, xb, ya, yb, _ = self._common(x, y)
        return (xa == ya) & (xb == yb)

    def rref(self, x):
        """(the RREF of a 2-d ZwArray, its pivot columns), as
        ``_kernels.rref_encoded`` returns them.

        Elimination is fraction-free: with pivot p in row r, each other row
        i becomes p row_i - row_i[c] row_r, and is divided by the integer gcd
        of its numerators, since scaling a row keeps the row space.  Then
        each pivot row is multiplied by the conjugate (pa - pb) - pb w of its
        pivot pa + pb w and divided by the norm pa^2 - pa pb + pb^2, and the
        result is put over its least common denominator, so the RREF, which
        is unique, has one representation.  Each step runs on int64 within
        the bound of the int64 rule, else on Python ints from there on.
        """
        a, b = x.a.copy(), x.b.copy()
        m, n = a.shape
        pivots = []
        for c in range(n):
            r = len(pivots)
            if r == m:
                break
            nz = np.flatnonzero((a[r:, c] != 0) | (b[r:, c] != 0))
            if nz.size == 0:
                continue
            p = r + int(nz[0])
            if p != r:
                a[[r, p]], b[[r, p]] = a[[p, r]], b[[p, r]]
            rows = np.flatnonzero((a[:, c] != 0) | (b[:, c] != 0))
            rows = rows[rows != r]
            if rows.size:
                a, b = _machine(6 * _bound(a[r], b[r]) * _bound(a[rows], b[rows]), a, b)
                ua, ub = mul(a[r, c], b[r, c], a[rows], b[rows])
                va, vb = mul(a[rows, c][:, None], b[rows, c][:, None], a[r], b[r])
                a[rows], b[rows] = _primitive(ua - va, ub - vb)
            pivots.append(c)
        a, b = _machine(6 * _bound(a, b) ** 2, a, b)
        norms = []
        for r, c in enumerate(pivots):
            pa, pb = int(a[r, c]), int(b[r, c])
            a[r], b[r] = mul(pa - pb, -pb, a[r], b[r])
            norms.append(pa * pa - pa * pb + pb * pb)
        den = math.lcm(1, *norms)
        scale = [den // s for s in norms] + [1] * (m - len(norms))
        a, b = _machine(max(_bound(a, b), 1) * max(scale, default=1), a, b)
        scale = np.array(scale, dtype=a.dtype)[:, None]
        a, b = a * scale, b * scale
        g = math.gcd(den, *np.gcd.reduce(np.concatenate([a, b], axis=1), axis=1).tolist())
        return ZwArray(a // g, b // g, den // g), tuple(pivots)


def _primitive(a, b):
    """Rows of numerators divided by their integer gcd (a zero row stays)."""
    g = np.gcd.reduce(np.concatenate([a, b], axis=1), axis=1)
    g[g == 0] = 1
    return a // g[:, None], b // g[:, None]
