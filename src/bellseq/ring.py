"""Exact arithmetic substrate: rationals, dense univariate polynomials, and
generalized binomial coefficients.

Every value is an ``int``, a ``fractions.Fraction`` or a :class:`Polynomial`
with int and Fraction coefficients; :func:`normalized` alone decides what is
exact and puts it in canonical form.  The three types mix freely under
``+``, ``-``, ``*`` and ``**``, exactly; floating point never enters.  Every
exact route ends in the exact-int layer below the ring (:func:`_scale`,
:func:`_pack` at x = 2^B, :func:`_norm`, :func:`_unpack`), and is priced in
the one unit of :func:`price`."""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import comb, lcm
from typing import Iterable, Union

__all__ = [
    "Polynomial",
    "RingElement",
    "X",
    "generalized_binomial",
    "normalized",
    "format_element",
    "parse_element",
]

def normalized(value: RingElement) -> RingElement:
    """The one definition of an exact value: an int, a Fraction or a
    Polynomial, never a bool; anything else raises TypeError.  Returns the
    value in canonical form, an integral Fraction collapsed to int.

    >>> normalized(Fraction(4, 2)), normalized(Fraction(1, 2))
    (2, Fraction(1, 2))
    """
    if isinstance(value, (int, Polynomial)) and not isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"exact value expected, got {value!r}")


class Record:
    """Base of the immutable value records, whose fields are the names in
    ``__slots__``: equal and hashed by their values within one class, shown as
    ``Name(field=value, ...)``, copied and pickled through ``__init__``, which
    sets each field with ``object.__setattr__``, and never assigned after it."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Polynomial:
    """Dense univariate polynomial over the rationals, immutable: coefficient
    i multiplies ``x**i``, the highest stored is nonzero, each is canonical as
    by :func:`normalized`, and a constant equals and hashes as its scalar.

    >>> p = Polynomial((1, 4))
    >>> str(p), p * p, p / 8
    ('1+4x', Polynomial((1, 8, 16)), Polynomial((Fraction(1, 8), Fraction(1, 2))))"""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable = ()):
        coeffs = [normalized(c) for c in coefficients]
        if Polynomial in map(type, coeffs):
            raise TypeError("polynomial coefficients must be scalars")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @classmethod
    def _exact(cls, coefficients: list) -> "Polynomial":
        """A Polynomial from ints and Fractions that exact arithmetic on
        canonical values produced: only an integral Fraction can be out of
        canonical form, so it is collapsed, and nothing is validated."""
        coeffs = [c if type(c) is int or c.denominator != 1 else c.numerator for c in coefficients]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        poly = object.__new__(cls)
        poly._coeffs = tuple(coeffs)
        return poly

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def denominator(self) -> int:
        """Least common denominator of the coefficients; 1 for the zero polynomial."""
        return lcm(*(c.denominator for c in self._coeffs))

    def coefficient(self, i: int):
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return 0

    def _coerce(self, other):
        """other as a Polynomial, or None when it is not an exact value."""
        if isinstance(other, Polynomial):
            return other
        try:
            return Polynomial((other,))
        except TypeError:
            return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial._exact(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._exact([-c for c in self._coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return Polynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Polynomial._exact(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # constant divisor only; polynomial division is out of scope
        other = self._coerce(other)
        if other is None or other.degree > 0:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division of polynomial by zero")
        return self * Fraction(1, other._coeffs[0])

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        result = Polynomial((1,))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __call__(self, value):
        """Evaluate by Horner's rule; ``value`` may itself be a polynomial."""
        result = 0
        for c in reversed(self._coeffs):
            result = result * value + c
        return normalized(result)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        if len(self._coeffs) <= 1:
            return hash(self.coefficient(0))
        return hash(self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)

    def __repr__(self):
        return f"Polynomial({self._coeffs!r})"

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self._coeffs):
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if i == 0:
                body = str(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            sign = "-" if c < 0 else ("+" if parts else "")
            parts.append(sign + body)
        return "".join(parts)


#: The indeterminate: X == Polynomial((0, 1)).
X = Polynomial((0, 1))

RingElement = Union[int, Fraction, Polynomial]


def _scale(values) -> tuple:
    """(D, [D*v for v in values]) in canonical form, D the lcm of the values'
    denominators (of the coefficients, for a Polynomial): a scalar becomes an
    int with no Fraction product, and a Polynomial is multiplied only when
    D > 1, so an int-coefficient Polynomial costs no product."""
    D = lcm(*(v.denominator for v in values))
    return D, [(D * v if D > 1 else v) if isinstance(v, Polynomial)
               else D // v.denominator * v.numerator for v in values]


# the one bound on a request's work, in the unit of price(), set so that the
# largest request of each route takes about 5 s (README, "Limits")
WORK = 10**10


def price(products, what: str = "") -> bool:
    """Whether products(parts), (count, bits, bits) triples of count int
    products of operands of at most those bits, over 1..N cut into parts
    runs by :func:`blocks`, weigh at most WORK in :func:`units`: first
    products(0), a crude majorant of the one-run total (see :func:`crude`),
    then one run, 16 only past it; past WORK with a what, ValueError naming
    WORK, before the work.  As the majorant is at least the one-run total
    wherever it is at most WORK, it accepts only what one run accepts, so it
    changes no decision; a route may cap it at any value past WORK."""
    for parts in (0, 1, 16):
        total = 0
        for count, bits_a, bits_b in products(parts):
            total += units(count, bits_a, bits_b)
            if total > WORK:
                break
        else:
            return True
    if what:
        raise ValueError(f"{what} would take more than WORK = {WORK} units of work")
    return False


def units(count: int, bits_a: int, bits_b: int) -> int:
    """The weight of count int products of operands of bits_a and bits_b
    bits.  The unit is a product of two 30-bit digits, CPython's int digit:
    a product of a <= b digits weighs (b/a) K(a) + 32, K(a) = a^2 up to 70
    digits, where CPython multiplies by schoolbook, and 3 K(a/2) past them,
    as by Karatsuba on a-digit pieces; 32 is the interpreter's step around
    it."""
    a, b = bits_a // 30 + 1, bits_b // 30 + 1
    if a > b:
        a, b = b, a
    k, cuts = a, 1
    while k > 70:
        k, cuts = (k + 1) >> 1, 3 * cuts
    return count * (b * cuts * k * k // a + 32)


def crude(count: int, bits: int) -> tuple:
    """The triple that :func:`units` weighs count (a^2 + 32), a = bits // 30
    + 1: a majorant of any count products of operands of at most bits bits.
    A product of a' <= b' <= a digits weighs (b'/a') K(a') + 32 <= a' b' + 32
    <= a^2 + 32, as K(a') <= a'^2: equal up to 70 digits, and past them
    3 K(ceil(a'/2)) <= 3 (a' + 1)^2/4 <= a'^2 by induction, for a' >= 7;
    and a product of one digit by a^2 digits weighs a^2 + 32."""
    a = bits // 30 + 1
    return count, 0, 30 * (a * a - 1)


def _rough(values) -> tuple:
    """(e, s, g, t, low, high) of values v_1, v_2, ..., by bit counts alone:
    D <= 2^e for D the lcm of their denominators (of the coefficients, for a
    Polynomial), ||D v_j||_1 < 2^(e + s) for each, g their largest degree, t
    the count of nonzero values and low, high the first and last index of
    one (0 when none).  D divides the product of the denominators, each den
    <= 2^bits(den - 1), and ||D v||_1 <= D sum |numerator| < D 2^s.  The
    last tuple of values asked for is kept with its answer, as one request
    prices its c several times."""
    global _last_rough
    last = _last_rough
    if last[0] is values:
        return last[1]
    e = s = g = t = low = high = 0
    for j, v in enumerate(values, start=1):
        if not v:
            continue
        t, high, low = t + 1, j, low or j
        if type(v) is int:
            size = abs(v).bit_length()
        elif isinstance(v, Polynomial):
            g = max(g, len(v.coefficients) - 1)
            size = 0
            for c in v.coefficients:
                numerator, denominator = c.as_integer_ratio()
                e += (denominator - 1).bit_length()
                size += abs(numerator)
            size = size.bit_length()
        else:
            numerator, denominator = v.as_integer_ratio()
            e += (denominator - 1).bit_length()
            size = abs(numerator).bit_length()
        if size > s:
            s = size
    rough = e, s, g, t, low, high
    if isinstance(values, tuple):
        _last_rough = values, rough
    return rough


_last_rough = (None, None)


def blocks(N: int, parts: int):
    """(m, size): 1..N in at most parts runs of size numbers up to m each."""
    step = -(-N // parts) or 1
    return ((m, min(step, m)) for m in range(N, 0, -step))


def _pack(entry: RingElement, B: int) -> int:
    """An int or int-coefficient Polynomial entry at x = 2^B, by shifts; the
    identity on ints."""
    if not isinstance(entry, Polynomial):
        return entry
    packed = 0
    for coefficient in reversed(entry.coefficients):
        packed = (packed << B) + coefficient
    return packed


def _norm(entry: RingElement) -> int:
    """||entry||_1, the sum of the absolute values of its coefficients."""
    return sum(map(abs, entry.coefficients)) if isinstance(entry, Polynomial) else abs(entry)


def _unpack(value: int, B: int, denominator: int) -> RingElement:
    """value / denominator in canonical form, denominator > 0, value read as
    balanced base-2^B digits, each in [-2^(B-1), 2^(B-1)), every coefficient
    packed into it in that range.  A value of one digit (any value for B = 0)
    is the scalar, an int when the division is exact, else a Fraction; any
    other has a nonzero top digit, the Polynomial of degree >= 1 packed at 2^B.

    >>> _unpack(_pack(Polynomial((3, -1, 2)), 3), 3, 6)
    Polynomial((Fraction(1, 2), Fraction(-1, 6), Fraction(1, 3)))
    >>> _unpack(5, 4, 2), _unpack(5 + (1 << 4), 4, 2)
    (Fraction(5, 2), Polynomial((Fraction(5, 2), Fraction(1, 2))))
    >>> _unpack(-9, 0, 6), _unpack(-12, 0, 6)
    (Fraction(-3, 2), -2)"""
    if not B or (value if value >= 0 else ~value).bit_length() < B:
        quotient, remainder = divmod(value, denominator)
        return Fraction(value, denominator) if remainder else quotient
    half = (1 << B) >> 1
    coefficients = []
    mask = (1 << B) - 1
    while value:
        digit = ((value + half) & mask) - half
        quotient, remainder = divmod(digit, denominator)
        coefficients.append(Fraction(digit, denominator) if remainder else quotient)
        value = (value - digit) >> B
    return Polynomial._exact(coefficients)


def generalized_binomial(t: int, k: int) -> int:
    """Binomial coefficient t over k for any integer t and k >= 0, the
    falling factorial t(t-1)...(t-k+1) / k!, brought to ``math.comb`` for t < 0
    by upper negation, binom(t, k) = (-1)^k binom(k-t-1, k):

    >>> generalized_binomial(-1, 2), generalized_binomial(-3, 3)
    (1, -10)"""
    if k < 0:
        raise ValueError(f"lower index must be non-negative, got {k}")
    if t >= 0:
        return comb(t, k)
    return (-1) ** k * comb(k - t - 1, k)


def format_element(value: RingElement) -> str:
    """Canonical text form: ``p/q`` for rationals (``/q`` omitted when 1),
    ascending powers of ``x`` for polynomials, e.g. ``1+4x`` or ``3/2x^2``.  An
    int past the interpreter's digit limit for int-to-text conversion raises
    ValueError naming it; the limit stands, as the conversion is quadratic."""
    try:
        return str(normalized(value))
    except ValueError:
        raise ValueError(
            f"a value has more than {sys.get_int_max_str_digits()} digits, the limit for "
            f"converting an int to text (sys.get_int_max_str_digits())"
        ) from None


# one term: sign, numerator, denominator, x power, exponent; "*" only before x
_TERM_RE = re.compile(r"([+-]?)(?:(\d+)(?:/(\d+))?(?:\*(?=x))?)?(x(?:\^(\d+))?)?")


def parse_element(text: str) -> RingElement:
    """Parse the canonical text form of :func:`format_element`: integers,
    rationals ``p/q``, monomials ``kx`` / ``kx^e``, their sums, and one level
    of parentheses; a Polynomial only when ``x`` occurs.

    >>> parse_element("-3/2"), parse_element("(1-x^2)")
    (Fraction(-3, 2), Polynomial((1, 0, -1)))"""
    s = text.strip().replace(" ", "")
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s:
        raise ValueError(f"empty ring element in {text!r}")
    # one walk over the terms: each ends at the next sign or at the end, and
    # the regex match after a term begins at that sign
    coeffs: dict = {}
    saw_x = False
    pos, size = 0, len(s)
    while pos < size:
        m = _TERM_RE.match(s, pos)
        sign, num, den, x, exponent = m.groups()
        pos = m.end()
        if num is None and x is None or pos < size and s[pos] not in "+-":
            raise ValueError(f"malformed term {s[m.start():pos + 1]!r} in {text!r}")
        coeff = int(num) if num else 1
        if sign == "-":
            coeff = -coeff
        if den:
            den = int(den)
            if not den:
                raise ValueError(f"zero denominator in {text!r}")
            coeff = Fraction(coeff, den)
        if x:
            saw_x = True
            exponent = int(exponent) if exponent else 1
        else:
            exponent = 0
        coeffs[exponent] = coeffs[exponent] + coeff if exponent in coeffs else coeff
    if not saw_x:
        return normalized(coeffs.get(0, 0))
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return Polynomial(out)
