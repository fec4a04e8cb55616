"""Exact scalar arithmetic: rationals and quadratic extensions Q(sqrt(d)).

A Scalar is either a rational number or an element a + b*sqrt(d) of a real
or imaginary quadratic field, with d a squarefree integer other than 0 and 1
(d = -1 gives the complex computations, d = 2, 5, ... give real square-root
scalings).  All components are `fractions.Fraction`, so arithmetic is exact
with big-integer backing and no overflow.

Only one quadratic extension is in play at a time: combining scalars with
two different d values raises IncompatibleFieldError.  Rationals promote
silently into whatever extension they meet.

Construction: the public constructor Scalar(a, b, d) validates its input;
the results this module builds from Fractions it holds go through the
private _scalar, which sets the slots once, drops d when b == 0 and still
checks the d of a quadratic result.

Text format (used by the CLI file formats), one pattern matched whole: a
rational "p/q", or an optional rational part followed by a signed
coefficient "r/s*sqrt(d)", as in "p/q+r/s*sqrt(d)" or "-r/s*sqrt(d)".
Each number has at most one sign, "/q" may be left out, and whitespace
around a value is ignored but none is allowed inside it.  A text that
names d is checked for it, even when its coefficient is 0.  So that
parsing text has a bounded cost, every integer in it has at most
MAX_TEXT_DIGITS digits and |d| is at most MAX_SQRT_D (check_input_d, the
check that the file format's field tag shares): d goes to squarefree
trial division (about sqrt|d| steps), whose verdict is memoized for the
arithmetic results over sqrt(d).

Hot loops run on an integer view instead: integer_pairs multiplies a list
of Scalars by the lcm of their denominators, giving ints over Q and, over
Q(sqrt d), each element of Z[sqrt d] as its (rational, sqrt) pair of
plain ints, the one form of Z[sqrt d] in the package.  linalg's
elimination and matrix nilpotency and algebra's Leibniz view and view
brackets do their arithmetic on those pairs inline, with d passed beside
them.  exact_div divides in Z and raises unless the quotient is in it.
from_cleared is the one way back: it divides the ints or pairs by an int
den, so each part becomes a Fraction and a sqrt part of 0 drops d.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

MAX_TEXT_DIGITS = 1000
MAX_SQRT_D = 10**6

_NUMBER = rf"([+-]?[0-9]{{1,{MAX_TEXT_DIGITS}}})(?:/([0-9]{{1,{MAX_TEXT_DIGITS}}}))?"
# groups p, q, r, s, d of "p/q+r/s*sqrt(d)"; a rational part ends at the
# sign of the coefficient, or at the end
_SCALAR_TEXT = re.compile(
    rf"(?:{_NUMBER}(?=[+-]|\Z))?"
    rf"(?:{_NUMBER}\*sqrt\(([+-]?[0-9]{{1,{len(str(MAX_SQRT_D))}}})\))?"
)


class ScalarError(ArithmeticError):
    """Base class for exact-scalar arithmetic errors."""


class IncompatibleFieldError(ScalarError):
    """Two quadratic scalars with different d were combined."""


class ScalarParseError(ValueError):
    """A scalar string did not match the exact-scalar text format."""


class InexactDivisionError(ScalarError):
    """An integer division that had to be exact left a remainder."""


@lru_cache(maxsize=64)
def is_squarefree(d: int) -> bool:
    """True iff the integer d is squarefree (no repeated prime factor)."""
    return d != 0 and squarefree_split(d)[1] == 1


def _check_d(d: int) -> None:
    if d in (0, 1) or not is_squarefree(d):
        raise ScalarError(f"d must be a squarefree integer other than 0 and 1, got {d}")


def check_input_d(d: int) -> None:
    """_check_d for a d read from input, which also has |d| <= MAX_SQRT_D."""
    if abs(d) > MAX_SQRT_D:
        raise ScalarError(f"d must have |d| <= {MAX_SQRT_D}, got {d}")
    _check_d(d)


class Scalar:
    """Exact element of Q or Q(sqrt(d)), immutable and hashable.

    Canonical form: a rational value always has d = None (so Rational(x)
    and Quadratic(x, 0, d) compare equal, hash equal, and print the same).
    """

    __slots__ = ("a", "b", "d")

    a: Fraction
    b: Fraction
    d: int | None

    def __init__(self, a, b=0, d: int | None = None):
        a = a if a.__class__ is Fraction else Fraction(a)
        b = b if b.__class__ is Fraction else Fraction(b)
        if d is not None:
            _check_d(d)
        if b == 0:
            d = None
        elif d is None:
            raise ScalarError("a nonzero sqrt coefficient needs a value of d")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, num, den=1) -> Scalar:
        return cls(Fraction(num, den))

    @classmethod
    def quadratic(cls, a, b, d: int) -> Scalar:
        return cls(a, b, d)

    @classmethod
    def zero(cls) -> Scalar:
        return _ZERO

    @classmethod
    def one(cls) -> Scalar:
        return _ONE

    @classmethod
    def sqrt_d(cls, d: int) -> Scalar:
        """The generator sqrt(d) itself."""
        return cls(0, 1, d)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ScalarError(f"{self} is not rational")
        return self.a

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> Scalar | None:
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar(other)
        return None

    def _join_d(self, other: Scalar) -> int | None:
        if self.d is None:
            return other.d
        if other.d is None or other.d == self.d:
            return self.d
        raise IncompatibleFieldError(
            f"cannot combine sqrt({self.d}) with sqrt({other.d})"
        )

    def __add__(self, other) -> Scalar:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _scalar(self.a + other.a, self.b + other.b, self._join_d(other))

    __radd__ = __add__

    def __neg__(self) -> Scalar:
        return _scalar(-self.a, -self.b, self.d)

    def __sub__(self, other) -> Scalar:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Scalar:
        return (-self) + other

    def __mul__(self, other) -> Scalar:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self._join_d(other)
        if d is None:
            return _scalar(self.a * other.a)
        a = self.a * other.a + self.b * other.b * d
        b = self.a * other.b + self.b * other.a
        return _scalar(a, b, d)

    __rmul__ = __mul__

    def inv(self) -> Scalar:
        """Exact multiplicative inverse; raises on zero."""
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero scalar")
        if self.b == 0:
            return _scalar(1 / self.a)
        # 1/(a+b*sqrt(d)) = (a-b*sqrt(d))/(a^2-d*b^2); the norm is nonzero
        # because d is not a perfect square.
        norm = self.a * self.a - self.b * self.b * self.d
        return _scalar(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other) -> Scalar:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other) -> Scalar:
        return self.inv() * other

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.b == 0 and other.b == 0:
            return self.a == other.a
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    # -- text format -------------------------------------------------------

    def __str__(self) -> str:
        a = f"{self.a.numerator}/{self.a.denominator}"
        if self.b == 0:
            return a
        sign = "+" if self.b > 0 else "-"
        babs = abs(self.b)
        return f"{a}{sign}{babs.numerator}/{babs.denominator}*sqrt({self.d})"

    def __repr__(self) -> str:
        return f"Scalar({self})"

    @classmethod
    def parse(cls, text: str) -> Scalar:
        """Parse the exact-scalar text format ("p/q" or "p/q+r/s*sqrt(d)")."""
        match = _SCALAR_TEXT.fullmatch(text.strip())
        if not match or not match[0]:
            raise ScalarParseError(f"not an exact scalar p/q or p/q+r/s*sqrt(d): {text!r}")
        p, q, r, s, d = match.groups()
        try:
            if d is not None:
                check_input_d(d := int(d))
            return _scalar(Fraction(int(p or 0), int(q or 1)), Fraction(int(r or 0), int(s or 1)), d)
        except ZeroDivisionError:
            raise ScalarParseError(f"zero denominator in {text!r}") from None
        except ScalarError as exc:
            raise ScalarParseError(f"{exc} in {text!r}") from None


_set_a, _set_b, _set_d = (Scalar.__dict__[slot].__set__ for slot in Scalar.__slots__)


def _scalar(a: Fraction, b: Fraction = Fraction(0), d: int | None = None) -> Scalar:
    # private constructor: a and b are Fractions, d is that of a checked operand
    if b:
        _check_d(d)
    else:
        d = None
    x = object.__new__(Scalar)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


_ZERO = Scalar(0)
_ONE = Scalar(1)


def rational_is_square(q: Fraction) -> bool:
    """True iff the nonnegative rational q is the square of a rational."""
    if q < 0:
        return False
    n, m = q.numerator, q.denominator
    return isqrt(n) ** 2 == n and isqrt(m) ** 2 == m


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n = s * m^2 with s squarefree; returns (s, m).  n must be nonzero."""
    if n == 0:
        raise ValueError("0 has no squarefree part")
    sign = -1 if n < 0 else 1
    n = abs(n)
    s, m = 1, 1
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2 == 1:
            s *= p
        m *= p ** (e // 2)
        p += 1
    s *= n
    return sign * s, m


def sqrt_as_scalar(q: Fraction) -> Scalar:
    """An exact square root of the rational q, as a Scalar.

    Returns a rational Scalar when q is a perfect square, otherwise an
    element of Q(sqrt(s)) with s the squarefree part of q.  For negative q
    the result lives in an imaginary quadratic field.
    """
    if q == 0:
        return _ZERO
    # q = (n*m)/m^2, sqrt(q) = sqrt(n*m)/m
    nm = q.numerator * q.denominator
    s, m = squarefree_split(nm)
    coeff = Fraction(m, q.denominator)
    if s == 1:
        return _scalar(coeff)
    return _scalar(Fraction(0), coeff, s)


# -- integer views --------------------------------------------------------------


def exact_div(x: int, y: int) -> int:
    """The quotient x / y in Z; raises InexactDivisionError unless y divides x."""
    q, r = divmod(x, y)
    if r:
        raise InexactDivisionError(f"{y} does not divide {x}")
    return q


def common_field(values) -> int | None:
    """The d of the one quadratic field the values live in (None for Q).
    Values are Scalars or anything else with a d, such as a Subspace; two
    different d raise IncompatibleFieldError."""
    d = None
    for v in values:
        vd = getattr(v, "d", None)
        if vd is not None and vd != d:
            if d is not None:
                raise IncompatibleFieldError(f"cannot combine sqrt({d}) with sqrt({vd})")
            d = vd
    return d


def integer_pairs(values, d: int | None) -> tuple[int, list]:
    """(D, [D*v for v in values]) for Scalars in Q or Q(sqrt d), with D the
    lcm of their denominators: each D*v is an int when d is None and its
    (rational, sqrt) int pair otherwise."""
    den = lcm(*(x.denominator for v in values for x in (v.a, v.b)))
    if d is None:
        return den, [v.a.numerator * (den // v.a.denominator) for v in values]
    return den, [
        (v.a.numerator * (den // v.a.denominator), v.b.numerator * (den // v.b.denominator))
        for v in values
    ]


def from_cleared(xs, den: int, d: int | None) -> list:
    """[x / den for x in xs] as Scalars, for an int den != 0 and xs cleared
    by integer_pairs: ints when d is None and (rational, sqrt) int pairs
    over Q(sqrt d)."""
    if d is None:
        return [_scalar(Fraction(x, den)) for x in xs]
    return [_scalar(Fraction(a, den), Fraction(b, den), d) for a, b in xs]
