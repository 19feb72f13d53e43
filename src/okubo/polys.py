"""Dense univariate polynomials with Scalar coefficients.

Coefficient lists are constant-first with no trailing zeros; [] is the zero
polynomial.  Only what the irreducibility and factorization routines need:
factoring the characteristic polynomials of the MeatAxe over finite fields,
and checking the modulus of every GF(p^k).

``factor_into_irreducibles`` is deterministic and holds no random state:
squarefree decomposition, then distinct-degree factorization (Cantor and
Zassenhaus, Math. Comp. 36, 1981), then Berlekamp's deterministic splitting
of each equal-degree part.  Its cost depends on the polynomial, not on a
seed.  The tests compare it with trial division by every monic irreducible
of degree <= 4 (``irreducible_polys``).
"""

from __future__ import annotations

from itertools import product

from .errors import InfiniteField
from .linalg import Matrix, nullspace


def trim(coeffs):
    c = list(coeffs)
    while c and not c[-1]:
        c.pop()
    return c


def degree(poly):
    return len(poly) - 1


def poly_mul(a, b, field):
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return trim(out)


def poly_divmod(a, b, field):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [field.zero] * max(0, len(a) - len(b) + 1)
    inv_lead = b[-1].inverse()
    while len(a) >= len(b) and trim(a):
        a = trim(a)
        if len(a) < len(b):
            break
        c = a[-1] * inv_lead
        shift = len(a) - len(b)
        q[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] = a[shift + i] - c * bi
    return trim(q), trim(a)


def poly_eval(poly, x):
    acc = x.field.zero
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def monic(poly):
    if not poly:
        return poly
    inv = poly[-1].inverse()
    return [c * inv for c in poly]


def _monic_polys(field, deg):
    """All monic polynomials of the given degree over a finite field."""
    if field.cardinality is None:
        raise InfiniteField("cannot enumerate polynomials over an infinite field")
    lower = list(field.elements())
    for tail in product(lower, repeat=deg):
        yield list(tail) + [field.one]


def is_irreducible(poly, field):
    """Irreducibility test for degree <= 4 via exhaustive root/factor search."""
    d = degree(poly)
    if d <= 0:
        return False
    if d == 1:
        return True
    if d > 4:
        raise ValueError("irreducibility test only supports degree <= 4")
    for x in field.elements():
        if not poly_eval(poly, x):
            return False
    if d == 4:
        for quad in _monic_polys(field, 2):
            if any(not poly_eval(quad, x) for x in field.elements()):
                continue
            _, rem = poly_divmod(poly, quad, field)
            if not rem:
                return False
    return True


def irreducible_polys(field, deg):
    """All monic irreducible polynomials of degree <= 4, in enumeration order."""
    for cand in _monic_polys(field, deg):
        if is_irreducible(cand, field):
            yield cand


def _factor_key(f):
    return (degree(f), [repr(c.rep) for c in f])


def factor_into_irreducibles(poly, field):
    """Monic irreducible factors (with multiplicity, sorted by degree and
    coefficients) of a degree <= 8 polynomial over a finite field."""
    if degree(poly) > 8:
        raise ValueError("factorization supported only up to degree 8")
    if field.cardinality is None:
        raise InfiniteField("cannot factor over an infinite field")
    factors = []
    for part, mult in _squarefree_parts(monic(poly), field):
        for same_degree, d in _distinct_degree_parts(part, field):
            factors.extend(f for f in _equal_degree_split(same_degree, d, field)
                           for _ in range(mult))
    factors.sort(key=_factor_key)
    return factors


def _poly_sub(a, b, field):
    n = max(len(a), len(b))
    zero = field.zero
    return trim([(a[i] if i < len(a) else zero) - (b[i] if i < len(b) else zero)
                 for i in range(n)])


def _poly_gcd(a, b, field):
    """The monic gcd; gcd(a, 0) = monic(a)."""
    while b:
        a, b = b, poly_divmod(a, b, field)[1]
    return monic(a)


def _poly_powmod(base, e, mod, field):
    out = [field.one]
    base = poly_divmod(base, mod, field)[1]
    while e:
        if e & 1:
            out = poly_divmod(poly_mul(out, base, field), mod, field)[1]
        base = poly_divmod(poly_mul(base, base, field), mod, field)[1]
        e >>= 1
    return out


def _squarefree_parts(f, field):
    """Pairs (g, m), g squarefree and monic, with f = prod g^m (f monic)."""
    if degree(f) < 1:
        return []
    deriv = trim([c * field.from_int(i) for i, c in enumerate(f)][1:])
    c = _poly_gcd(f, deriv, field)
    w = poly_divmod(f, c, field)[0]
    parts, m = [], 1
    while degree(w) > 0:
        y = _poly_gcd(w, c, field)
        z = poly_divmod(w, y, field)[0]
        if degree(z) > 0:
            parts.append((z, m))
        w, c, m = y, poly_divmod(c, y, field)[0], m + 1
    if degree(c) > 0:
        # c is a polynomial in x^p: take the p-th root of each coefficient,
        # a^(q/p), since a^q = a
        p = field.characteristic
        root = [c[i] ** (field.cardinality // p) for i in range(0, len(c), p)]
        parts.extend((g, k * p) for g, k in _squarefree_parts(root, field))
    return parts


def _frobenius_rows(f, field):
    """Rows x^(q i) mod f for i < deg f, padded to deg f.  Coefficients lie
    in GF(q), so h^q = h(x^q) and h^q mod f is the row combination h Q."""
    n = degree(f)
    zero, one = field.zero, field.one
    x_q = _poly_powmod([zero, one], field.cardinality, f, field)
    rows, power = [], [one]
    for _ in range(n):
        rows.append(power + [zero] * (n - len(power)))
        power = poly_divmod(poly_mul(power, x_q, field), f, field)[1]
    return rows


def _apply_frobenius(h, rows, field):
    """h^q mod f, for deg h < deg f and the ``_frobenius_rows`` of f."""
    out = [field.zero] * len(rows)
    for c, row in zip(h, rows):
        if c:
            for j, r in enumerate(row):
                if r:
                    out[j] = out[j] + c * r
    return trim(out)


def _distinct_degree_parts(f, field):
    """Pairs (g, d): g is the product of the irreducible factors of degree d
    of the squarefree monic f."""
    x = [field.zero, field.one]
    rows = _frobenius_rows(f, field)
    parts, d, h = [], 1, x
    while degree(f) >= 2 * d:
        h = _apply_frobenius(h, rows, field)
        g = _poly_gcd(f, _poly_sub(h, x, field), field)
        if degree(g) > 0:
            parts.append((g, d))
            f = poly_divmod(f, g, field)[0]
            h = poly_divmod(h, f, field)[1]
            n = degree(f)
            rows = [poly_divmod(r, f, field)[1] for r in rows[:n]]
            rows = [r + [field.zero] * (n - len(r)) for r in rows]
        d += 1
    if degree(f) > 0:
        parts.append((f, degree(f)))
    return parts


def _equal_degree_split(f, d, field):
    """The irreducible factors of f, a squarefree monic product of
    irreducibles of degree d, by Berlekamp's splitting.

    The v with v^q = v mod f form an algebra whose dimension is the number of
    factors; each v is a constant c_i mod the i-th factor.  Its RREF basis is
    the nullspace of Q - I (Q from ``_frobenius_rows``), and gcd(h, v - c)
    over the constants c splits every current factor h on which v is not
    constant.  A basis separates all the factors, so the splitting is
    complete and uses no random choices.
    """
    n = degree(f)
    if n <= d:
        return [f]
    zero, one = field.zero, field.one
    rows = _frobenius_rows(f, field)
    fixed = Matrix(field, [
        [rows[i][j] - (one if i == j else zero) for i in range(n)] for j in range(n)
    ])
    factors = [f]
    for v in nullspace(fixed).basis:
        v = trim(v)
        if degree(v) < 1:
            continue
        split = []
        for h in factors:
            found = 0
            for c in field.elements():
                if found == degree(h):
                    break
                g = _poly_gcd(h, _poly_sub(v, [c], field), field)
                if degree(g) > 0:
                    split.append(g)
                    found += degree(g)
        factors = split
        if len(factors) == n // d:
            break
    return factors
