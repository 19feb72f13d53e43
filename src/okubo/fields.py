"""Exact arithmetic for the coefficient fields used by the constructions.

Supported fields: GF(p), GF(p^k) for an irreducible modulus of degree 2..4,
the rationals, and the rationals with a primitive cube root of unity adjoined.

Every scalar is stored in a canonical form, so equality of scalars is
equality of representations:

* GF(p): the least nonnegative residue (an int in [0, p)).
* GF(p^k): a length-k tuple of residues (c0, ..., c_{k-1}), constant term first.
* Q: a gcd-reduced pair (num, den) with den > 0.
* Q(w): a triple (a, b, den) meaning (a + b*w)/den, gcd(a, b, den) = 1, den > 0,
  with w^2 = -1 - w.

Fields are interned: ``GF(3) is GF(3)``.  Scalars support the usual operators
and never mix owners (FieldMismatch).  Plain ints coerce via the prime map.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from . import polys
from .errors import (
    BadFieldSpec,
    DivisionByZero,
    FieldMismatch,
    InfiniteField,
    NotPrime,
    ReducibleModulus,
)


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Scalar:
    """An element of a :class:`Field`, in canonical form."""

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._add(self.rep, other.rep))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._sub(self.rep, other.rep))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._sub(other.rep, self.rep))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._mul(self.rep, other.rep))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return Scalar(self.field, self.field._neg(self.rep))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        base = self
        if n < 0:
            base = self.inverse()
            n = -n
        result = self.field.one
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        if not self:
            raise DivisionByZero(f"zero is not invertible in {self.field}")
        return Scalar(self.field, self.field._inv(self.rep))

    def __bool__(self):
        return self.rep != self.field.zero.rep

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field == other.field and self.rep == other.rep

    def __hash__(self):
        return hash((self.field, self.rep))

    def __str__(self):
        return self.field.format_rep(self.rep)

    def __repr__(self):
        return f"{self.field!r}({self})"


class Field:
    """Common interface of all coefficient fields.

    Subclasses provide rep-level arithmetic (``_add`` etc.), canonical
    printing/parsing, and (for finite fields) a fixed enumeration order.
    """

    characteristic: int
    cardinality = None  # None means infinite

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    def scalar(self, value):
        """Coerce an int, canonical string, or Scalar of this field."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch(f"{value.field} is not {self}")
            return value
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, str):
            return self.parse(value)
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def from_int(self, n):
        raise NotImplementedError

    def format_rep(self, rep):
        raise NotImplementedError

    def parse(self, text):
        raise NotImplementedError

    def spec_string(self):
        raise NotImplementedError

    def elements(self):
        """Yield every element exactly once, in the documented canonical order."""
        raise InfiniteField(f"{self} is infinite")

    def element_index(self, s):
        raise InfiniteField(f"{self} is infinite")

    def element_from_index(self, i):
        raise InfiniteField(f"{self} is infinite")

    def cube_root_of_unity(self):
        """A scalar w with w^3 = 1 != w, or None if the field has none."""
        return None

    def random_scalar(self, rng):
        raise NotImplementedError

    def __str__(self):
        return self.spec_string()

    def __repr__(self):
        return self.spec_string()


class PrimeField(Field):
    """GF(p) with least-nonnegative-residue representation."""

    def __init__(self, p):
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.cardinality = p
        self._zero = Scalar(self, 0)
        self._one = Scalar(self, 1)

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _neg(self, a):
        return -a % self.p

    def _inv(self, a):
        return pow(a, -1, self.p)

    def from_int(self, n):
        return Scalar(self, n % self.p)

    def format_rep(self, rep):
        return str(rep)

    def parse(self, text):
        try:
            return self.from_int(int(text.strip()))
        except ValueError as exc:
            raise BadFieldSpec(f"cannot parse {text!r} as an element of {self}") from exc

    def spec_string(self):
        return f"gf({self.p})"

    def elements(self):
        for n in range(self.p):
            yield Scalar(self, n)

    def element_index(self, s):
        return s.rep

    def element_from_index(self, i):
        return Scalar(self, i % self.p)

    def cube_root_of_unity(self):
        if self.p % 3 != 1:
            return None
        for n in range(2, self.p):
            if pow(n, 3, self.p) == 1:
                return Scalar(self, n)
        return None

    def random_scalar(self, rng):
        return Scalar(self, rng.randrange(self.p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("gf", self.p))


class ExtensionField(Field):
    """GF(p^k) as residues modulo an irreducible polynomial of degree 2..4.

    Representation: tuples (c0, ..., c_{k-1}) of residues mod p, constant
    coefficient first.  Enumeration order is counting order: the element with
    index n has digits of n in base p, c0 least significant.
    """

    def __init__(self, p, modulus):
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) < 3 or len(modulus) > 5:
            raise ReducibleModulus(
                f"modulus degree must be 2..4, got degree {len(modulus) - 1}"
            )
        if modulus[-1] == 0:
            raise ReducibleModulus("modulus has zero leading coefficient")
        self.p = p
        self.degree = len(modulus) - 1
        # normalize to monic
        lead_inv = pow(modulus[-1], -1, p)
        self.modulus = tuple(c * lead_inv % p for c in modulus)
        prime = GF(p)
        if not polys.is_irreducible([prime.from_int(c) for c in self.modulus], prime):
            raise ReducibleModulus(
                f"{self._poly_str(self.modulus)} is reducible over gf({p})"
            )
        self.characteristic = p
        self.cardinality = p ** self.degree
        self._zero = Scalar(self, (0,) * self.degree)
        one = [0] * self.degree
        one[0] = 1
        self._one = Scalar(self, tuple(one))

    # -- multiplication of residue lists mod (p, modulus); the modulus is
    # checked irreducible by the shared polys.is_irreducible --

    def _pmul(self, a, b):
        p = self.p
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % p
        return out

    def _pmod(self, a):
        p = self.p
        m = list(self.modulus)
        a = [c % p for c in a]
        for top in range(len(a) - 1, len(m) - 2, -1):
            c = a[top]
            if c:
                shift = top - (len(m) - 1)
                for i, mi in enumerate(m):
                    a[shift + i] = (a[shift + i] - c * mi) % p
        a = a[: len(m) - 1]
        a += [0] * (len(m) - 1 - len(a))
        return tuple(a)

    # -- field arithmetic on tuple reps --

    def _add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _mul(self, a, b):
        return self._pmod(self._pmul(a, b))

    def _neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def _inv(self, a):
        """a^(-1) by the extended Euclidean algorithm in GF(p)[t], one leading
        term at a time: each remainder r is kept with an s such that
        r = s*a mod the modulus.  The modulus is irreducible, so the
        remainders end in a nonzero constant r, and s/r is the inverse."""
        p, k = self.p, self.degree
        r0, s0 = list(self.modulus), [0] * (k + 1)
        r1, s1 = list(a) + [0], [1] + [0] * k
        while True:
            d0 = max(i for i, x in enumerate(r0) if x)
            d1 = max(i for i, x in enumerate(r1) if x)
            if d1 == 0:
                inv = pow(r1[0], -1, p)
                return tuple(x * inv % p for x in s1[:k])
            if d0 < d1:
                r0, s0, r1, s1 = r1, s1, r0, s0
                continue
            c, shift = r0[d0] * pow(r1[d1], -1, p), d0 - d1
            for i in range(k + 1 - shift):
                r0[i + shift] = (r0[i + shift] - c * r1[i]) % p
                s0[i + shift] = (s0[i + shift] - c * s1[i]) % p

    def from_int(self, n):
        rep = [0] * self.degree
        rep[0] = n % self.p
        return Scalar(self, tuple(rep))

    def _poly_str(self, coeffs):
        terms = []
        for i, c in enumerate(coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("t" if c == 1 else f"{c}*t")
            else:
                terms.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return "+".join(terms) if terms else "0"

    def format_rep(self, rep):
        return self._poly_str(rep)

    def parse(self, text):
        coeffs = _parse_poly_text(text, "t", self.p)
        if len(coeffs) > self.degree:
            coeffs = list(self._pmod(coeffs))
        coeffs += [0] * (self.degree - len(coeffs))
        return Scalar(self, tuple(c % self.p for c in coeffs))

    def spec_string(self):
        return f"gf({self.p}^{self.degree};{self._poly_str(self.modulus)})"

    def element_index(self, s):
        idx = 0
        for c in reversed(s.rep):
            idx = idx * self.p + c
        return idx

    def element_from_index(self, i):
        digits = []
        for _ in range(self.degree):
            digits.append(i % self.p)
            i //= self.p
        return Scalar(self, tuple(digits))

    def elements(self):
        # counting order: element n has the base-p digits of n, c0 least significant
        for i in range(self.cardinality):
            yield self.element_from_index(i)

    def cube_root_of_unity(self):
        if self.p == 3 or (self.cardinality - 1) % 3 != 0:
            return None
        one = self.one
        for s in self.elements():
            if s != one and s * s * s == one:
                return s
        return None

    def random_scalar(self, rng):
        return self.element_from_index(rng.randrange(self.cardinality))

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.p == self.p
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("gf_ext", self.p, self.modulus))


class RationalField(Field):
    """Q with gcd-reduced (num, den) pairs, den > 0."""

    characteristic = 0

    def __init__(self):
        self._zero = Scalar(self, (0, 1))
        self._one = Scalar(self, (1, 1))

    @staticmethod
    def _norm(num, den):
        if den == 0:
            raise DivisionByZero("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        return (num, den)

    def _add(self, a, b):
        return self._norm(a[0] * b[1] + b[0] * a[1], a[1] * b[1])

    def _sub(self, a, b):
        return self._norm(a[0] * b[1] - b[0] * a[1], a[1] * b[1])

    def _mul(self, a, b):
        return self._norm(a[0] * b[0], a[1] * b[1])

    def _neg(self, a):
        return (-a[0], a[1])

    def _inv(self, a):
        return self._norm(a[1], a[0])

    def from_int(self, n):
        return Scalar(self, (n, 1))

    def from_fraction(self, fr):
        return Scalar(self, (fr.numerator, fr.denominator))

    def format_rep(self, rep):
        num, den = rep
        return str(num) if den == 1 else f"{num}/{den}"

    def parse(self, text):
        try:
            return self.from_fraction(Fraction(text.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise BadFieldSpec(f"cannot parse {text!r} as an element of {self}") from exc

    def spec_string(self):
        return "q"

    def random_scalar(self, rng):
        return Scalar(self, self._norm(rng.randrange(-9, 10), rng.randrange(1, 8)))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("q")


class RationalOmegaField(Field):
    """Q(w) for a primitive cube root of unity w, i.e. w^2 = -1 - w.

    Elements are (a + b*w)/den with integer a, b, den, gcd(a, b, den) = 1 and
    den > 0.  The common-denominator triple keeps arithmetic in plain ints.
    """

    characteristic = 0

    def __init__(self):
        self._zero = Scalar(self, (0, 0, 1))
        self._one = Scalar(self, (1, 0, 1))

    @staticmethod
    def _norm(a, b, den):
        if den == 0:
            raise DivisionByZero("zero denominator")
        if den < 0:
            a, b, den = -a, -b, -den
        g = math.gcd(math.gcd(abs(a), abs(b)), den)
        if g > 1:
            a //= g
            b //= g
            den //= g
        return (a, b, den)

    def _add(self, x, y):
        return self._norm(x[0] * y[2] + y[0] * x[2], x[1] * y[2] + y[1] * x[2], x[2] * y[2])

    def _sub(self, x, y):
        return self._norm(x[0] * y[2] - y[0] * x[2], x[1] * y[2] - y[1] * x[2], x[2] * y[2])

    def _mul(self, x, y):
        # (a1 + b1 w)(a2 + b2 w), w^2 = -1 - w
        a1, b1, d1 = x
        a2, b2, d2 = y
        return self._norm(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 - b1 * b2, d1 * d2)

    def _neg(self, x):
        return (-x[0], -x[1], x[2])

    def _inv(self, x):
        # (a + b w)^-1 = ((a - b) - b w) / (a^2 - a b + b^2)
        a, b, d = x
        n = a * a - a * b + b * b
        return self._norm(d * (a - b), -d * b, n)

    def from_int(self, n):
        return Scalar(self, (n, 0, 1))

    def from_fractions(self, a, b):
        a, b = Fraction(a), Fraction(b)
        den = math.lcm(a.denominator, b.denominator)
        return Scalar(
            self,
            self._norm(a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den),
        )

    @property
    def omega(self):
        return Scalar(self, (0, 1, 1))

    def cube_root_of_unity(self):
        return self.omega

    def format_rep(self, rep):
        a, b, den = rep
        fa, fb = Fraction(a, den), Fraction(b, den)
        if fb == 0:
            return str(fa)
        if fb == 1:
            wpart = "w"
        elif fb == -1:
            wpart = "-w"
        else:
            wpart = f"{fb}*w"
        if fa == 0:
            return wpart
        return f"{fa}+{wpart}" if fb > 0 else f"{fa}{wpart}"

    def parse(self, text):
        try:
            return self._parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadFieldSpec(f"cannot parse {text!r} as an element of q(w)") from exc

    def _parse(self, text):
        t = text.strip().replace(" ", "")
        if "w" not in t:
            return self.from_fractions(Fraction(t), 0)
        head, _, _ = t.partition("w")
        head = head[:-1] if head.endswith("*") else head
        # split head into rational part and w-coefficient
        # forms: "", "-", "b", "a+b", "a-b", "a+", "a-"
        m = re.match(r"^(?P<a>[+-]?\d+(?:/\d+)?(?=[+-]))?(?P<b>[+-]?\d*(?:/\d+)?)$", head)
        if m is None:
            raise BadFieldSpec(f"cannot parse {text!r} as an element of q(w)")
        a = Fraction(m.group("a")) if m.group("a") else Fraction(0)
        braw = m.group("b")
        if braw in ("", "+"):
            b = Fraction(1)
        elif braw == "-":
            b = Fraction(-1)
        else:
            b = Fraction(braw)
        return self.from_fractions(a, b)

    def spec_string(self):
        return "q(w)"

    def random_scalar(self, rng):
        den = rng.randrange(1, 8)
        return Scalar(self, self._norm(rng.randrange(-9, 10), rng.randrange(-9, 10), den))

    def __eq__(self, other):
        return isinstance(other, RationalOmegaField)

    def __hash__(self):
        return hash("q(w)")


def _parse_poly_text(text, var, p):
    """Parse '2*t^3+t+1' into a coefficient list mod p, constant first."""
    t = text.strip().replace(" ", "")
    if not t:
        raise BadFieldSpec("empty polynomial")
    t = t.replace("-", "+-")
    if t.startswith("+"):
        t = t[1:]
    coeffs = {}
    for term in t.split("+"):
        if not term:
            raise BadFieldSpec(f"cannot parse polynomial {text!r}")
        m = re.match(
            rf"^(?P<sign>-?)(?:(?P<coef>\d+)\*?)?(?:{var}(?:\^(?P<exp>\d+))?)?$", term
        )
        if m is None or (m.group("coef") is None and var not in term):
            raise BadFieldSpec(f"cannot parse polynomial term {term!r}")
        coef = int(m.group("coef")) if m.group("coef") else 1
        if m.group("sign"):
            coef = -coef
        exp = int(m.group("exp")) if m.group("exp") else (1 if var in term else 0)
        coeffs[exp] = (coeffs.get(exp, 0) + coef) % p
    deg = max(coeffs)
    return [coeffs.get(i, 0) for i in range(deg + 1)]


@functools.lru_cache(maxsize=None)
def GF(p, modulus=None):
    """GF(p), or GF(p^k) when an irreducible modulus (tuple, constant first) is given."""
    if modulus is None:
        return PrimeField(p)
    return ExtensionField(p, tuple(modulus))


@functools.lru_cache(maxsize=None)
def rationals():
    return RationalField()


@functools.lru_cache(maxsize=None)
def rationals_omega():
    return RationalOmegaField()


_SPEC_RE = re.compile(r"^gf\((\d+)(?:\^(\d+);(.+))?\)$")


def field_from_spec(spec):
    """Build a field from its CLI spec string: gf(3), gf(3^2;t^2+1), q, q(w)."""
    s = spec.strip().lower().replace(" ", "")
    if s == "q":
        return rationals()
    if s == "q(w)":
        return rationals_omega()
    m = _SPEC_RE.match(s)
    if m is None:
        raise BadFieldSpec(f"unrecognized field spec {spec!r}")
    p = int(m.group(1))
    if m.group(2) is None:
        return GF(p)
    degree = int(m.group(2))
    try:
        coeffs = _parse_poly_text(m.group(3), "t", p)
    except ZeroDivisionError as exc:
        raise BadFieldSpec(f"bad modulus in {spec!r}") from exc
    if len(coeffs) - 1 != degree:
        raise BadFieldSpec(
            f"modulus degree {len(coeffs) - 1} does not match declared {degree} in {spec!r}"
        )
    return GF(p, tuple(coeffs))


def cube_root_of_unity(field):
    """A primitive cube root of unity in ``field``, or None.

    When several exist the first in enumeration order is returned, so the
    choice is deterministic (GF(7) gives 2, not 4).
    """
    return field.cube_root_of_unity()


def enumerate_scalars(field):
    """All elements of a finite field, each exactly once, in canonical order."""
    if field.cardinality is None:
        raise InfiniteField(f"cannot enumerate {field}")
    return field.elements()
