"""Dense univariate polynomials with Scalar coefficients.

Coefficient lists are constant-first with no trailing zeros; [] is the zero
polynomial.  Only what the irreducibility and factorization routines need:
factoring degree <= 8 polynomials over small finite fields by trial division
with low-degree irreducibles, and checking the modulus of every GF(p^k).  A
polynomial of degree <= 9 with no irreducible factor of degree <= 4 is itself
irreducible, so trial division is complete at this scale.
"""

from __future__ import annotations

from itertools import product

from .errors import InfiniteField


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


def factor_into_irreducibles(poly, field):
    """Monic irreducible factors (with multiplicity) of a degree <= 8 polynomial.

    Trial division by irreducibles of degree 1..4; whatever remains has no
    factor of degree <= 4 and degree <= 8 < 2*5, hence is irreducible.
    """
    if degree(poly) > 8:
        raise ValueError("factorization supported only up to degree 8")
    factors = []
    rest = monic(poly)
    for d in range(1, 5):
        if degree(rest) < 2 * d:
            break
        for irr in irreducible_polys(field, d):
            while degree(rest) >= d:
                q, rem = poly_divmod(rest, irr, field)
                if rem:
                    break
                factors.append(irr)
                rest = q
            if degree(rest) < 2 * d:
                break
    if degree(rest) >= 1:
        factors.append(rest)
    factors.sort(key=lambda f: (degree(f), [repr(c.rep) for c in f]))
    return factors
