"""Dense univariate polynomials over finite fields.

Coefficient lists are constant-first with no trailing zeros; [] is the zero
polynomial.  The coefficients are Scalars, or the encoded indices of a field
with lookup tables (0 is zero, 1 is one).  A ``Coefficients`` object does
the arithmetic on Scalars and an ``EncodedCoefficients`` object on indices,
so each algorithm below is written once for both.  Only what factorization
needs: factoring the characteristic polynomials of the MeatAxe over finite
fields (``_encoded_lie``: on indices over fields with tables, on Scalars
beyond them), and checking the modulus of every GF(p^k).

``factor`` uses no linear algebra: squarefree decomposition, then
distinct-degree factorization and equal-degree splitting after Cantor and
Zassenhaus (Math. Comp. 36, 1981).  The splitting is randomized, from a
fixed seed of its own, so ``factor`` holds no state between calls and gives
the same result on every run.  The irreducible
factors are unique and ``factor`` sorts them by the Scalar coefficients, so
the seed, indices and Scalars all give the same list.  The tests compare it
with trial division by every monic irreducible of degree <= 4.
"""

from __future__ import annotations

import random

from . import _kernels
from .errors import InfiniteField


class Coefficients:
    """Arithmetic on Scalar coefficients of a finite field."""

    def __init__(self, field):
        self.field = field
        self.zero, self.one = field.zero, field.one

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return a.inverse()

    def from_int(self, n):
        return self.field.from_int(n)

    def from_index(self, i):
        """The element with enumeration index i."""
        return self.field.element_from_index(i)

    def dot(self, u, v):
        """sum u_i v_i."""
        acc = self.zero
        for x, y in zip(u, v):
            acc = acc + x * y
        return acc

    def key(self, c):
        """The sort key of a coefficient: the repr of its Scalar rep."""
        return repr(c.rep)

    def power(self, a, e):
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out


class EncodedCoefficients(Coefficients):
    """The same arithmetic on the encoded indices of a field with lookup
    tables, through the tables as Python lists."""

    def __init__(self, field):
        t = _kernels.tables_for(field)
        self.field = field
        self.zero, self.one = 0, 1
        self._add, self._mul, self._neg = t.lists
        self._inv = t.inv.tolist()
        self._keys = [repr(s.rep) for s in t.elements]

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        return self._inv[a]

    def from_int(self, n):
        return self.field.element_index(self.field.from_int(n))

    def from_index(self, i):
        return i

    def dot(self, u, v):
        add, mul = self._add, self._mul
        acc = 0
        for x, y in zip(u, v):
            acc = add[acc][mul[x][y]]
        return acc

    def key(self, c):
        return self._keys[c]


def trim(coeffs):
    c = list(coeffs)
    while c and not c[-1]:
        c.pop()
    return c


def degree(poly):
    return len(poly) - 1


def _mul(a, b, F):
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return trim(out)


def _divmod(a, b, F):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [F.zero] * max(0, len(a) - len(b) + 1)
    inv_lead = F.inv(b[-1])
    while len(a) >= len(b) and trim(a):
        a = trim(a)
        if len(a) < len(b):
            break
        c = F.mul(a[-1], inv_lead)
        shift = len(a) - len(b)
        q[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] = F.sub(a[shift + i], F.mul(c, bi))
    return trim(q), trim(a)


def _monic(poly, F):
    if not poly:
        return poly
    inv = F.inv(poly[-1])
    return [F.mul(c, inv) for c in poly]


def _factor_key(f, key=lambda c: repr(c.rep)):
    """The sort key of a factor: its degree, then the keys of its coefficients
    (by default those of Scalars)."""
    return (degree(f), [key(c) for c in f])


def factor(poly, F):
    """Monic irreducible factors (with multiplicity, sorted by degree and
    the Scalar coefficients) of a degree <= 8 polynomial over a finite field,
    whose coefficients the arithmetic F (a ``Coefficients`` or
    ``EncodedCoefficients``) acts on."""
    if degree(poly) > 8:
        raise ValueError("factorization supported only up to degree 8")
    if F.field.cardinality is None:
        raise InfiniteField("cannot factor over an infinite field")
    factors = []
    for part, mult in _squarefree_parts(_monic(poly, F), F):
        for same_degree, d in _distinct_degree_parts(part, F):
            factors.extend(f for f in _equal_degree_split(same_degree, d, F)
                           for _ in range(mult))
    factors.sort(key=lambda f: _factor_key(f, F.key))
    return factors


def _poly_sub(a, b, F):
    n = max(len(a), len(b))
    return trim([F.sub(a[i] if i < len(a) else F.zero, b[i] if i < len(b) else F.zero)
                 for i in range(n)])


def _poly_gcd(a, b, F):
    """The monic gcd; gcd(a, 0) = monic(a)."""
    while b:
        a, b = b, _divmod(a, b, F)[1]
    return _monic(a, F)


def _poly_powmod(base, e, mod, F):
    out = [F.one]
    base = _divmod(base, mod, F)[1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, base, F), mod, F)[1]
        base = _divmod(_mul(base, base, F), mod, F)[1]
        e >>= 1
    return out


def _squarefree_parts(f, F):
    """Pairs (g, m), g squarefree and monic, with f = prod g^m (f monic)."""
    if degree(f) < 1:
        return []
    deriv = trim([F.mul(c, F.from_int(i)) for i, c in enumerate(f)][1:])
    c = _poly_gcd(f, deriv, F)
    w = _divmod(f, c, F)[0]
    parts, m = [], 1
    while degree(w) > 0:
        y = _poly_gcd(w, c, F)
        z = _divmod(w, y, F)[0]
        if degree(z) > 0:
            parts.append((z, m))
        w, c, m = y, _divmod(c, y, F)[0], m + 1
    if degree(c) > 0:
        # c is a polynomial in x^p: take the p-th root of each coefficient,
        # a^(q/p), since a^q = a
        p, q = F.field.characteristic, F.field.cardinality
        root = [F.power(c[i], q // p) for i in range(0, len(c), p)]
        parts.extend((g, k * p) for g, k in _squarefree_parts(root, F))
    return parts


def _frobenius_rows(f, F):
    """Rows x^(q i) mod f for i < deg f, padded to deg f.  Coefficients lie
    in GF(q), so h^q = h(x^q) and h^q mod f is the row combination h Q."""
    n = degree(f)
    x_q = _poly_powmod([F.zero, F.one], F.field.cardinality, f, F)
    rows, power = [], [F.one]
    for _ in range(n):
        rows.append(power + [F.zero] * (n - len(power)))
        power = _divmod(_mul(power, x_q, F), f, F)[1]
    return rows


def _apply_frobenius(h, rows, F):
    """h^q mod f, for deg h < deg f and the ``_frobenius_rows`` of f."""
    out = [F.zero] * len(rows)
    for c, row in zip(h, rows):
        if c:
            for j, r in enumerate(row):
                if r:
                    out[j] = F.add(out[j], F.mul(c, r))
    return trim(out)


def _distinct_degree_parts(f, F):
    """Pairs (g, d): g is the product of the irreducible factors of degree d
    of the squarefree monic f."""
    x = [F.zero, F.one]
    rows = _frobenius_rows(f, F)
    parts, d, h = [], 1, x
    while degree(f) >= 2 * d:
        h = _apply_frobenius(h, rows, F)
        g = _poly_gcd(f, _poly_sub(h, x, F), F)
        if degree(g) > 0:
            parts.append((g, d))
            f = _divmod(f, g, F)[0]
            h = _divmod(h, f, F)[1]
            n = degree(f)
            rows = [_divmod(r, f, F)[1] for r in rows[:n]]
            rows = [r + [F.zero] * (n - len(r)) for r in rows]
        d += 1
    if degree(f) > 0:
        parts.append((f, degree(f)))
    return parts


def _equal_degree_split(f, d, F):
    """The irreducible factors of f, a squarefree monic product of
    irreducibles of degree d, by Cantor-Zassenhaus splitting from a fixed
    seed: for a random a of degree < deg h, gcd(``_split_map``(a, h), h)
    splits a current factor h with probability about 1/2.  Every piece is a
    divisor of f, so the result does not depend on the draws."""
    q, rng = F.field.cardinality, random.Random(0)
    factors, done = [f], []
    while factors:
        h = factors.pop()
        if degree(h) == d:
            done.append(h)
            continue
        a = trim([F.from_index(rng.randrange(q)) for _ in range(degree(h))])
        g = _poly_gcd(h, _split_map(a, h, d, F), F)
        if 0 < degree(g) < degree(h):
            factors += [g, _divmod(h, g, F)[0]]
        else:
            factors.append(h)
    return done


def _split_map(a, h, d, F):
    """a^((q^d - 1)/2) - 1 mod h for odd q, and the trace
    a + a^2 + ... + a^(2^(kd - 1)) mod h for q = 2^k.  Modulo an irreducible
    factor of h of degree d, a is an element u of GF(q^d), and the map is
    zero there exactly when u is a nonzero square (odd q) or has trace zero
    over GF(2) (q = 2^k)."""
    q = F.field.cardinality
    if q % 2:
        return _poly_sub(_poly_powmod(a, (q**d - 1) // 2, h, F), [F.one], F)
    term = acc = _divmod(a, h, F)[1]
    for _ in range((q.bit_length() - 1) * d - 1):
        term = _divmod(_mul(term, term, F), h, F)[1]
        acc = _poly_sub(acc, term, F)  # acc + term: -1 = 1 in characteristic 2
    return acc
