"""Exact arithmetic over Q and Q(w) on numpy object arrays of Python ints.

An element of Q(w) is (a + b*w)/d with integers a, b and d > 0, where
w^2 = -1 - w; Q is the case b = 0.  Arrays hold the numerators a and b as
numpy object arrays of Python ints, which never overflow, so nothing is
truncated.  ``ZwArrays`` is the exact array backend over Q and Q(w), with
one denominator per array, of every array computation (``_encoded_lie``):
the identity checks of ``verify`` and ``twist``, the derivation analysis
and the sl3 matrix model.  ``sparse_bilinear`` gives bilinear maps to the
object backends, ``ZwArrays`` and ``_encoded_lie.ModArrays``.

``PartsArray`` gives the views (indexing, reshaping, transposing) of an
array held as several numpy arrays; ``ZwArray`` and ``_encoded_lie.ModArray``
share it.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import RationalOmegaField, Scalar


def rep(s):
    """(a, b, d) with s = (a + b*w)/d, for a Scalar of Q or Q(w)."""
    r = s.rep
    return (r[0], 0, r[1]) if len(r) == 2 else r


def mul(a1, b1, a2, b2):
    """(a1 + b1 w)(a2 + b2 w) with w^2 = -1 - w, on ints or arrays."""
    bb = b1 * b2
    return a1 * a2 - bb, a1 * b2 + b1 * a2 - bb


def matmul(a1, b1, a2, b2):
    """``mul`` with matrix products: three of them, (a1 + b1)(a2 + b2) giving
    the cross terms, and one where both operands are rational."""
    aa = a1 @ a2
    if not (b1.any() or b2.any()):
        return aa, np.zeros(aa.shape, dtype=object)
    bb = b1 @ b2
    return aa - bb, (a1 + b1) @ (a2 + b2) - aa - bb - bb


def sparse_bilinear(ar, T):
    """The bilinear map of a (dim, dim, K) array T on an object backend
    ``ar`` (see ``_encoded_lie.TableArrays.bilinear``), as a function of
    (X, Y) that returns the (N, K) sums of the result's parts, not reduced.
    Each column x_i y_j of a pair (i, j) with some T[i, j, k] nonzero is
    formed once and scaled by those T[i, j, k]; the running sums hold whole
    columns only, never every product at once."""
    nonzero = ar.nonzero(T)
    terms = []
    for i, j in zip(*np.nonzero(nonzero.any(axis=2))):
        ks = np.flatnonzero(nonzero[i, j])
        terms.append((i, j, ks, T[i, j, ks][None]))

    def form(X, Y):
        Z = [np.zeros((len(X), T.shape[2]), dtype=object) for _ in X.parts]
        for i, j, ks, c in terms:
            term = ar.mul(ar.mul(X[:, i, None], Y[:, j, None]), c)
            for z, part in zip(Z, term.parts):
                z[:, ks] += part
        return Z

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
    """The array (a + b*w)/den: numerators a and b, numpy object arrays of
    Python ints of one shape, over one positive integer den."""

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
        a = np.array([x * (den // d) for x, _, d in reps], dtype=object)
        b = np.array([y * (den // d) for _, y, d in reps], dtype=object)
        return ZwArray(a.reshape(s.shape), b.reshape(s.shape), den)

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

    def _common(self, x, y):
        """The numerators of x and y over their least common denominator."""
        if x.den == y.den:
            return x.a, x.b, y.a, y.b, x.den
        den = math.lcm(x.den, y.den)
        sx, sy = den // x.den, den // y.den
        return x.a * sx, x.b * sx, y.a * sy, y.b * sy, den

    def add(self, x, y):
        xa, xb, ya, yb, den = self._common(x, y)
        return ZwArray(xa + ya, xb + yb, den)

    def sub(self, x, y):
        xa, xb, ya, yb, den = self._common(x, y)
        return ZwArray(xa - ya, xb - yb, den)

    def neg(self, x):
        return ZwArray(-x.a, -x.b, x.den)

    def mul(self, x, y):
        """Elementwise products, broadcast as numpy does; two products, not
        three, when one operand is rational."""
        if not y.b.any():
            return ZwArray(x.a * y.a, x.b * y.a, x.den * y.den)
        if not x.b.any():
            return ZwArray(x.a * y.a, x.a * y.b, x.den * y.den)
        return ZwArray(*mul(x.a, x.b, y.a, y.b), x.den * y.den)

    def matmul(self, x, y):
        """Matrix products of stacks, broadcast as numpy's matmul does."""
        return ZwArray(*matmul(x.a, x.b, y.a, y.b), x.den * y.den)

    def bilinear(self, T):
        """``_encoded_lie.TableArrays.bilinear``, by ``sparse_bilinear``."""
        form = sparse_bilinear(self, T)
        return lambda X, Y: ZwArray(*form(X, Y), X.den * Y.den * T.den)

    def random(self, rng, shape):
        """An array of the elements ``random_scalar`` draws, from the same
        randrange calls in row-major order: a coordinate of Q(w) is
        denominator, then a, then b; one of Q is numerator, then denominator."""
        rand, n = rng.randrange, math.prod(shape)
        if isinstance(self.field, RationalOmegaField):
            dab = [(rand(1, 8), rand(-9, 10), rand(-9, 10)) for _ in range(n)]
        else:
            dab = [(d, a, 0) for a, d in [(rand(-9, 10), rand(1, 8)) for _ in range(n)]]
        d, a, b = np.array(dab, dtype=np.int64).reshape(n, 3).T.astype(object)
        den = math.lcm(*d)
        return ZwArray((a * (den // d)).reshape(shape), (b * (den // d)).reshape(shape), den)

    def nonzero(self, x):
        return (x.a != 0) | (x.b != 0)

    def equal(self, x, y):
        """Elementwise equality, by cross-multiplying the denominators."""
        return (x.a * y.den == y.a * x.den) & (x.b * y.den == y.b * x.den)

    def rref(self, x):
        """(the RREF of a 2-d ZwArray, its pivot columns), as
        ``_kernels.rref_encoded`` returns them.

        Elimination is fraction-free: with pivot p in row r, each other row
        i becomes p row_i - row_i[c] row_r, and is divided by the integer gcd
        of its numerators, since scaling a row keeps the row space.  Then
        each pivot row is multiplied by the conjugate (pa - pb) - pb w of its
        pivot pa + pb w and divided by the norm pa^2 - pa pb + pb^2, and the
        result is put over its least common denominator, so the RREF, which
        is unique, has one representation.
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
                ua, ub = mul(a[r, c], b[r, c], a[rows], b[rows])
                va, vb = mul(a[rows, c][:, None], b[rows, c][:, None], a[r], b[r])
                a[rows], b[rows] = _primitive(ua - va, ub - vb)
            pivots.append(c)
        norms = []
        for r, c in enumerate(pivots):
            pa, pb = a[r, c], b[r, c]
            a[r], b[r] = mul(pa - pb, -pb, a[r], b[r])
            norms.append(pa * pa - pa * pb + pb * pb)
        den = math.lcm(1, *norms)
        scale = np.array(norms + [den] * (m - len(norms)), dtype=object)[:, None]
        a, b = a * (den // scale), b * (den // scale)
        g = math.gcd(den, *np.gcd.reduce(np.concatenate([a, b], axis=1), axis=1).tolist())
        return ZwArray(a // g, b // g, den // g), tuple(pivots)


def _primitive(a, b):
    """Rows of numerators divided by their integer gcd (a zero row stays)."""
    g = np.gcd.reduce(np.concatenate([a, b], axis=1), axis=1)
    g[g == 0] = 1
    return a // g[:, None], b // g[:, None]
