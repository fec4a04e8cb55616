"""Sparse multivariate polynomials over Q with named indeterminates.

A PolyQ lives in a declared universe, an ordered tuple of distinct names.
Its terms map packed monomial keys to nonzero int or Fraction coefficients
(a Fraction only where a denominator appears), so equality is structural
and the zero polynomial is the empty term map.  The readers sorted_terms,
as_linear, constant_value and univariate_coefficients return Fractions.

A monomial key is an int sized by its degree, not by the universe width
w: variable i is the digit w - i in base w + 1, a monomial with ascending
indices i_1 <= ... <= i_d has the digits (w - i_1, ..., w - i_d), most
significant first, and the constant is 0.  Every digit lies in [1, w], so
a degree-d key lies in [(w+1)^(d-1), (w+1)^d).  Within a degree, the first
digit where two keys differ is the first variable whose exponents differ,
and the larger digit (smaller index) has the larger exponent: descending
int order is graded lexicographic, the display order, and max(terms) is
the leading term.  No digit carries, but MAX_DEGREE = 255 still bounds the
total degree (PolyError beyond it), since that bound is public behaviour.
Exponent tuples go in and out; only _Layout's methods read or write keys.
digits, split, add_digits, linear and words read a degree <= 2 key with
no loop: 0 is the constant, a key below base is its own digit, one below
base**2 is divmod(key, base).  The last four loop over a whole term map.
Substitution splits each key into its bound monomial and the rest, and
sums each rest times its bound monomial's value in one sum of products.

Only exact rational arithmetic is allowed: these polynomials carry the
symbolic parameters of the extension derivation.  Square roots enter only
when solving univariate quadratics, as exact quadratic Scalars.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import groupby
from operator import index

from .scalars import Scalar, sqrt_as_scalar

Exponent = tuple[int, ...]

MAX_DEGREE = 255


class PolyError(ValueError):
    """Base class for polynomial errors."""


class UnknownIndeterminateError(PolyError):
    """A binding or constructor referenced a name outside the universe."""


class UnsupportedDegreeError(PolyError):
    """Real-root decision requested beyond degree 2 (out of scope by design)."""


class _Layout:
    """The encoding of one universe: name lookup and the operations on keys."""

    def __init__(self, names: tuple[str, ...]):
        self.names, self.width = names, len(names)
        self.index = {name: i for i, name in enumerate(names)}
        if len(self.index) != self.width:
            raise PolyError(f"repeated indeterminate name in universe {names}")
        self.base = self.width + 1
        self.powers = [self.base**d for d in range(MAX_DEGREE + 1)]  # the least key of degree d + 1

    def position(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise UnknownIndeterminateError(f"unknown indeterminate {name!r}") from None

    def degree(self, key: int) -> int:
        return bisect_right(self.powers, key)

    def digits(self, key: int) -> list[int]:
        """The digits of key, least significant (largest index) first."""
        if key < self.base:
            return [key] if key else []
        if key < self.powers[2]:
            return list(divmod(key, self.base))[::-1]
        out = []
        while key:
            key, digit = divmod(key, self.base)
            out.append(digit)
        return out

    def join(self, digits: list[int]) -> int:
        """The key of ascending digits, the inverse of digits."""
        return reduce(lambda key, digit: key * self.base + digit, reversed(digits), 0)

    def pack(self, exp) -> int:
        if len(exp) != self.width:
            raise PolyError(f"exponent width {len(exp)} != universe size {self.width}")
        try:
            exp = bytes((sum(exp), *exp))[1:]  # refuses entries or a total past MAX_DEGREE
        except (TypeError, ValueError):
            bad = f"exponents {tuple(exp)} are not integers >= 0 of total degree <= {MAX_DEGREE}"
            raise PolyError(bad) from None
        return self.join(sorted(self.width - i for i, e in enumerate(exp) for _ in range(e)))

    def unpack(self, key: int) -> Exponent:
        exp = [0] * self.width
        for digit in self.digits(key):
            exp[self.width - digit] += 1
        return tuple(exp)

    def fields(self, key: int) -> list[tuple[int, int]]:
        """(index, exponent) of the variables of key, index ascending."""
        runs = groupby(reversed(self.digits(key)))
        return [(self.width - digit, len(list(run))) for digit, run in runs]

    def product(self, k1: int, k2: int) -> int:
        """The key of the product of two monomials: their digits merged."""
        return self.join(sorted(self.digits(k1) + self.digits(k2)))

    def split(self, terms: dict, bound) -> tuple[dict, dict]:
        """(kept, parts): the terms with no digit in bound, and {bound
        monomial key: {rest key: coeff}} for the others.  Digit 0 is never
        bound, so one divmod splits a key of degree 1 or 2."""
        base, square, parts = self.base, self.powers[2], {}
        for key, coeff in terms.items():
            if key < square:
                high, low = divmod(key, base)
                if low in bound:
                    mono, rest = (key, 0) if high in bound else (low, high)
                else:
                    mono, rest = (high, low) if high in bound else (0, key)
            else:
                digits = self.digits(key)
                mono = self.join([d for d in digits if d in bound])
                rest = self.join([d for d in digits if d not in bound])
            parts.setdefault(mono, {})[rest] = coeff  # monomial 0 gathers the kept terms
        return parts.pop(0, {}), parts

    def add_digits(self, keys, used: set) -> None:
        """Add the digits of every key to used, and 0 for a key of degree <= 1."""
        base, square = self.base, self.powers[2]
        for key in keys:
            used.update(divmod(key, base) if key < square else self.digits(key))

    def linear(self, terms: dict):
        """(constant, {name: coefficient}) of a term map of degree <= 1, else None."""
        if terms and max(terms) >= self.base:
            return None
        names, w = self.names, self.width
        return Fraction(terms.get(0, 0)), {names[w - k]: Fraction(c) for k, c in terms.items() if k}

    def words(self, keys) -> list[str]:
        """The text of each monomial, "" for the constant: x, x^2, x*y."""
        base, square, names, w, out = self.base, self.powers[2], self.names, self.width, []
        for key in keys:
            if key < base:
                out.append(names[w - key] if key else "")
            elif key < square:
                high, low = divmod(key, base)
                out.append(names[w - high] + ("^2" if high == low else "*" + names[w - low]))
            else:
                fields = self.fields(key)
                out.append("*".join(names[i] if e == 1 else f"{names[i]}^{e}" for i, e in fields))
        return out


@lru_cache(maxsize=64)
def _layout(names: tuple[str, ...]) -> _Layout:
    return _Layout(names)


def _poly(layout: _Layout, terms: dict) -> PolyQ:
    # private constructor: the keys are valid packed monomials of layout
    p = object.__new__(PolyQ)
    _set_names(p, layout.names)
    _set_terms(p, terms)
    _set_layout(p, layout)
    return p


def _normal(c):
    """An int when the coefficient is integral, else the Fraction."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _add_into(out: dict, items) -> None:
    for key, coeff in items:
        s = out.get(key)
        if s is None:
            out[key] = coeff
        else:
            s += coeff
            if s:
                out[key] = _normal(s)
            else:
                del out[key]


def _factor(like: PolyQ, a) -> PolyQ:
    a = like._coerce(a)  # ints and Fractions are constants
    if a is None:
        raise TypeError("a polynomial factor must be a PolyQ, an int or a Fraction")
    return a


def _sum_of_products(like: PolyQ, pairs) -> PolyQ:
    """Sum of a * b over (a, b) pairs in one term map, in the universe of
    `like`; every pair is checked for its universe (ints and Fractions are
    constants), and a zero factor adds nothing."""
    layout = like._layout
    base, product = layout.base, layout.product
    out: dict = {}
    get = out.get
    for a, b in pairs:
        if type(a) is not PolyQ or a._layout is not layout:
            a = _factor(like, a)
        if type(b) is not PolyQ or b._layout is not layout:
            b = _factor(like, b)
        ta, tb = a.terms, b.terms
        if not ta or not tb:
            continue
        for k1, c1 in ta.items():
            for k2, c2 in tb.items():
                # layout.product, with its cases of degree <= 1 inline
                if not k1 or not k2:
                    k = k1 + k2
                elif k1 < base > k2:
                    k = k1 * base + k2 if k1 >= k2 else k2 * base + k1
                else:
                    k = product(k1, k2)
                s = get(k)
                out[k] = c1 * c2 if s is None else s + c1 * c2
    return _read(layout, out)


def _read(layout: _Layout, out: dict) -> PolyQ:
    """The PolyQ of a summed term map.  The degree bound is checked once, on
    the largest key before cancelled entries go: a product past it leaves
    its key there.  Only cancelled and Fraction entries are then fixed in
    place (a rehash each)."""
    # powers[MAX_DEGREE] is the least key of degree MAX_DEGREE + 1
    if out and max(out) >= layout.powers[MAX_DEGREE]:
        raise PolyError(f"product degree exceeds the bound {MAX_DEGREE}")
    for k in [k for k, c in out.items() if not c or type(c) is not int]:
        if out[k]:
            out[k] = _normal(out[k])
        else:
            del out[k]
    return _poly(layout, out)


class _ProductSums:
    """Sums of products in the universe of `like`, held as {p: term map}:
    add(a, row, plus, minus) forms a * b once for each p: b of a row, adds
    it to sum p of plus and takes it from sum p of minus (either may be
    None), and read gives the nonzero sums as (p, PolyQ), p ascending.
    Factors and degrees are checked as in _sum_of_products."""

    def __init__(self, like: PolyQ):
        self.like, self.layout = like, like._layout

    def add(self, a, row: dict, plus: dict | None, minus: dict | None) -> None:
        if not row:
            return
        like, layout = self.like, self.layout
        base, product = layout.base, layout.product
        if type(a) is not PolyQ or a._layout is not layout:
            a = _factor(like, a)
        ta = a.terms.items()
        for p, b in row.items():
            if type(b) is not PolyQ or b._layout is not layout:
                b = _factor(like, b)
            up = None if plus is None else plus.setdefault(p, {})
            down = None if minus is None else minus.setdefault(p, {})
            for k1, c1 in ta:
                for k2, c2 in b.terms.items():
                    # layout.product, inline as in _sum_of_products
                    if not k1 or not k2:
                        k = k1 + k2
                    elif k1 < base > k2:
                        k = k1 * base + k2 if k1 >= k2 else k2 * base + k1
                    else:
                        k = product(k1, k2)
                    c = c1 * c2
                    if up is not None:
                        up[k] = up.get(k, 0) + c
                    if down is not None:
                        down[k] = down.get(k, 0) - c

    def read(self, sums: dict) -> tuple:
        polys = ((p, _read(self.layout, sums[p])) for p in sorted(sums))
        return tuple((p, q) for p, q in polys if q.terms)


class PolyQ:
    """Polynomial over Q in a fixed, ordered tuple of indeterminate names."""

    __slots__ = ("names", "terms", "_layout")

    def __init__(self, names: tuple[str, ...], terms: dict[Exponent, Fraction] | None = None):
        layout = _layout(tuple(names))
        clean: dict[int, Fraction] = {}
        for exp, coeff in (terms or {}).items():
            key, coeff = layout.pack(exp), Fraction(coeff)
            if coeff:
                clean[key] = _normal(coeff)
        _set_names(self, layout.names)
        _set_terms(self, clean)
        _set_layout(self, layout)

    def __setattr__(self, name, value):
        raise AttributeError("PolyQ is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, names: tuple[str, ...]) -> PolyQ:
        return _poly(_layout(tuple(names)), {})

    @classmethod
    def const(cls, names: tuple[str, ...], value) -> PolyQ:
        return _const(_layout(tuple(names)), value)

    @classmethod
    def var(cls, names: tuple[str, ...], name: str) -> PolyQ:
        layout = _layout(tuple(names))
        return _poly(layout, {layout.width - layout.position(name): 1})

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise PolyError(f"{self} is not constant")
        return Fraction(next(iter(self.terms.values())))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        # the largest key has the largest total degree
        return self._layout.degree(max(self.terms)) if self.terms else -1

    def used_names(self) -> tuple[str, ...]:
        return _used_names((self,))

    def as_linear(self) -> tuple[Fraction, dict[str, Fraction]] | None:
        """Return (constant, {name: coeff}) when total degree <= 1, else None."""
        return self._layout.linear(self.terms)

    # -- arithmetic ---------------------------------------------------------

    def _check_universe(self, other: PolyQ) -> None:
        if self.names is not other.names and self.names != other.names:
            raise PolyError("polynomials from different indeterminate universes")

    def _coerce(self, other):
        if isinstance(other, PolyQ):
            self._check_universe(other)
            return other
        if isinstance(other, (int, Fraction)):
            return _const(self._layout, other)
        return None

    def __add__(self, other) -> PolyQ:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        _add_into(out, other.terms.items())
        return _poly(self._layout, out)

    __radd__ = __add__

    def __neg__(self) -> PolyQ:
        return _poly(self._layout, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other) -> PolyQ:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> PolyQ:
        return (-self) + other

    def __mul__(self, other) -> PolyQ:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum_of_products(self, ((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> PolyQ:
        # square and multiply; a constant is raised as its value (0 and +-1
        # at once), and a nonconstant power past the bound is refused first
        if index(n) < 0:
            raise PolyError("negative polynomial power")
        if self.is_constant():
            return _const(self._layout, Fraction(self.terms.get(0, 0)) ** n)
        if n * self.degree() > MAX_DEGREE:
            raise PolyError(f"product degree exceeds the bound {MAX_DEGREE}")
        out = self if n else _const(self._layout, 1)
        for bit in bin(n)[3:]:  # the bits after the leading one
            out = out * out * self if bit == "1" else out * out
        return out

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, bindings: dict[str, "PolyQ | Fraction | int"]) -> PolyQ:
        """Substitute polynomials or rationals for names; may be partial.

        Unbound names stay symbolic.  Binding an undeclared name raises
        UnknownIndeterminateError, and a value other than a PolyQ, an int or
        a Fraction TypeError.  One sum of products over the terms, grouped by
        their bound monomials (see _Substituter).
        """
        if not bindings:
            return self
        return _Substituter(self, bindings)(self)

    def evaluate(self, bindings: dict[str, Scalar]) -> Scalar:
        """Full evaluation to an exact Scalar; every used name must be bound."""
        missing = [n for n in self.used_names() if n not in bindings]
        if missing:
            raise PolyError(f"unbound indeterminates in evaluation: {missing}")
        layout = self._layout
        for name in bindings:
            layout.position(name)
        total = Scalar.zero()
        for key, coeff in self.terms.items():
            term = Scalar(coeff)
            for i, e in layout.fields(key):
                value = bindings[self.names[i]]
                if not isinstance(value, Scalar):
                    value = Scalar(value)
                for _ in range(e):
                    term = term * value
            total = total + term
        return total

    # -- comparison / display ------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _const(self._layout, other)
        if not isinstance(other, PolyQ):
            return NotImplemented
        return (self.names is other.names or self.names == other.names) and self.terms == other.terms

    def __hash__(self):
        # a constant equals its value, so it hashes as its value
        terms = self.terms
        return hash(terms.get(0, 0) if not any(terms) else (self.names, frozenset(terms.items())))

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """(exponent tuple, coefficient) in descending graded-lexicographic order."""
        unpack = self._layout.unpack
        return [(unpack(key), Fraction(c)) for key, c in sorted(self.terms.items(), reverse=True)]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), reverse=True)
        parts: list[str] = []
        for (_, coeff), mono in zip(items, self._layout.words([key for key, _ in items])):
            if not mono:
                body = str(coeff)
            elif coeff in (1, -1):
                body = mono if coeff == 1 else "-" + mono
            else:
                body = f"{coeff}*{mono}"
            parts.append(body if body.startswith("-") else "+" + body)
        return "".join(parts).removeprefix("+")

    def __repr__(self) -> str:
        return f"PolyQ({self})"


# the slot setters, which bypass PolyQ.__setattr__
_set_names, _set_terms, _set_layout = (PolyQ.__dict__[slot].__set__ for slot in PolyQ.__slots__)


class _Substituter:
    """PolyQ.substitute(bindings) as a function of the polynomial, for
    polynomials in the universe of `like`.  Only the coerced values are kept,
    by digit, and bind adds or replaces one.  A call is one sum of products:
    the terms with no bound digit times 1, and each bound monomial's rest
    terms times its value, the product of its names' values."""

    def __init__(self, like: PolyQ, bindings: dict):
        self.like, self.values = like, {}
        for name, value in bindings.items():
            self.bind(name, value)

    def bind(self, name: str, value) -> None:
        """Bind or rebind name to a PolyQ, an int or a Fraction."""
        layout = self.like._layout
        digit, value = layout.width - layout.position(name), self.like._coerce(value)
        if value is None:
            raise TypeError("a bound value must be a PolyQ, an int or a Fraction")
        self.values[digit] = value

    def __call__(self, p: PolyQ) -> PolyQ:
        like, layout, values = self.like, self.like._layout, self.values
        like._check_universe(p)
        kept, parts = layout.split(p.terms, values)
        if not parts:
            return p  # no bound digit in any key
        pairs = [(_poly(layout, rest), reduce(PolyQ.__mul__, map(values.get, layout.digits(mono))))
                 for mono, rest in parts.items()]
        return _sum_of_products(like, [(_poly(layout, kept), 1), *pairs])


def _used_names(polys) -> tuple[str, ...]:
    """The names that any of polys (one universe) mentions, in universe
    order: the set of all their digits, decoded once."""
    used: set = set()
    for p in polys:
        layout = p._layout
        layout.add_digits(p.terms, used)
    return tuple(layout.names[layout.width - d] for d in sorted(used, reverse=True) if d)


def _const(layout: _Layout, value) -> PolyQ:
    value = _normal(Fraction(value))
    return _poly(layout, {0: value} if value else {})


def univariate_coefficients(p: PolyQ) -> tuple[str | None, list[Fraction]]:
    """View p as a univariate polynomial; returns (name, [c0, c1, ...]).

    The name is None for constant polynomials, and the last coefficient is
    nonzero unless p is zero.  Raises PolyError when more than one
    indeterminate occurs.
    """
    used = p.used_names()
    if len(used) > 1:
        raise PolyError(f"{p} is not univariate (uses {used})")
    if not used:
        return None, [p.constant_value()]
    # with one indeterminate, a key's degree is its exponent
    coeffs = [Fraction(0)] * (p.degree() + 1)
    for key, coeff in p.terms.items():
        coeffs[p._layout.degree(key)] = Fraction(coeff)
    return used[0], coeffs


def quadratic_real_root_exists(p: PolyQ) -> bool:
    """Decide real-root existence for a univariate rational p of degree <= 2.

    Nonconstant degree <= 1 always has a root; degree 2 has one iff the
    discriminant is nonnegative; a constant has a root iff it is zero.
    Degree > 2 raises UnsupportedDegreeError (out of scope by design).
    """
    _, coeffs = univariate_coefficients(p)
    deg = len(coeffs) - 1
    if deg > 2:
        raise UnsupportedDegreeError(f"degree {deg} > 2: {p}")
    if deg == 0:
        return coeffs[0] == 0
    if deg == 1:
        return True
    c0, c1, c2 = coeffs[0], coeffs[1], coeffs[2]
    return c1 * c1 - 4 * c2 * c0 >= 0


def quadratic_roots(p: PolyQ) -> list[Scalar]:
    """Exact roots of a univariate rational polynomial of degree 1 or 2.

    Quadratic roots are returned as Scalars in Q or Q(sqrt(s)), with s the
    squarefree part of the discriminant (negative s for complex roots).
    """
    _, coeffs = univariate_coefficients(p)
    deg = len(coeffs) - 1
    if deg > 2:
        raise UnsupportedDegreeError(f"degree {deg} > 2: {p}")
    if deg <= 0:
        raise PolyError("constant polynomial has no finite root list")
    if deg == 1:
        return [Scalar(-coeffs[0] / coeffs[1])]
    c0, c1, c2 = coeffs[0], coeffs[1], coeffs[2]
    disc = c1 * c1 - 4 * c2 * c0
    half = Scalar(Fraction(1, 2) / c2)
    if disc == 0:
        return [Scalar(-c1) * half]
    root = sqrt_as_scalar(disc)
    return [(Scalar(-c1) + root) * half, (Scalar(-c1) - root) * half]


__all__ = [
    "PolyQ",
    "PolyError",
    "UnknownIndeterminateError",
    "UnsupportedDegreeError",
    "univariate_coefficients",
    "quadratic_real_root_exists",
    "quadratic_roots",
]
