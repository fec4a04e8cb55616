"""Sparse multivariate polynomials over Q with named indeterminates.

A PolyQ lives in a declared indeterminate universe (an ordered tuple of
names).  Terms map full-length exponent tuples to nonzero Fraction
coefficients, so equality is structural and the zero polynomial is the empty
term map.  Display order is graded lexicographic.

These polynomials carry the symbolic parameters of the extension derivation
(entries of the generic left/right action matrices, the r/mu/nu products,
and the nilpotency-locus coefficients), so only exact rational arithmetic is
allowed.  Square roots enter only when solving univariate quadratics, and
those roots are returned as exact quadratic Scalars.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar, rational_is_square, sqrt_as_scalar

Exponent = tuple[int, ...]


class PolyError(ValueError):
    """Base class for polynomial errors."""


class UnknownIndeterminateError(PolyError):
    """A binding or constructor referenced a name outside the universe."""


class UnsupportedDegreeError(PolyError):
    """Real-root decision requested beyond degree 2 (out of scope by design)."""


class PolyQ:
    """Polynomial over Q in a fixed, ordered tuple of indeterminate names."""

    __slots__ = ("names", "terms", "_index")

    def __init__(self, names: tuple[str, ...], terms: dict[Exponent, Fraction] | None = None):
        names = tuple(names)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", None)
        clean: dict[Exponent, Fraction] = {}
        if terms:
            width = len(names)
            for exp, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff == 0:
                    continue
                if len(exp) != width:
                    raise PolyError(f"exponent width {len(exp)} != universe size {width}")
                clean[tuple(exp)] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PolyQ is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, names: tuple[str, ...]) -> PolyQ:
        return cls(names, {})

    @classmethod
    def const(cls, names: tuple[str, ...], value) -> PolyQ:
        value = Fraction(value)
        if value == 0:
            return cls(names, {})
        return cls(names, {(0,) * len(names): value})

    @classmethod
    def var(cls, names: tuple[str, ...], name: str) -> PolyQ:
        try:
            i = names.index(name)
        except ValueError:
            raise UnknownIndeterminateError(f"unknown indeterminate {name!r}") from None
        exp = [0] * len(names)
        exp[i] = 1
        return cls(names, {tuple(exp): Fraction(1)})

    def _name_index(self, name: str) -> int:
        idx = object.__getattribute__(self, "_index")
        if idx is None:
            idx = {n: i for i, n in enumerate(self.names)}
            object.__setattr__(self, "_index", idx)
        try:
            return idx[name]
        except KeyError:
            raise UnknownIndeterminateError(f"unknown indeterminate {name!r}") from None

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(exp) for exp in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise PolyError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(exp) for exp in self.terms)

    def used_names(self) -> tuple[str, ...]:
        used = [False] * len(self.names)
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    used[i] = True
        return tuple(n for n, u in zip(self.names, used) if u)

    def as_linear(self) -> tuple[Fraction, dict[str, Fraction]] | None:
        """Return (constant, {name: coeff}) when total degree <= 1, else None."""
        const = Fraction(0)
        coeffs: dict[str, Fraction] = {}
        for exp, coeff in self.terms.items():
            deg = sum(exp)
            if deg == 0:
                const = coeff
            elif deg == 1:
                i = exp.index(1)
                coeffs[self.names[i]] = coeff
            else:
                return None
        return const, coeffs

    # -- arithmetic ---------------------------------------------------------

    def _check_universe(self, other: PolyQ) -> None:
        if self.names != other.names:
            raise PolyError("polynomials from different indeterminate universes")

    def _coerce(self, other):
        if isinstance(other, PolyQ):
            self._check_universe(other)
            return other
        if isinstance(other, (int, Fraction)):
            return PolyQ.const(self.names, other)
        return None

    def __add__(self, other) -> PolyQ:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            s = out.get(exp, Fraction(0)) + coeff
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
        return PolyQ(self.names, out)

    __radd__ = __add__

    def __neg__(self) -> PolyQ:
        return PolyQ(self.names, {exp: -c for exp, c in self.terms.items()})

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
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(exp, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return PolyQ(self.names, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> PolyQ:
        if n < 0:
            raise PolyError("negative polynomial power")
        out = PolyQ.const(self.names, 1)
        for _ in range(n):
            out = out * self
        return out

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, bindings: dict[str, "PolyQ | Fraction | int"]) -> PolyQ:
        """Substitute polynomials or rationals for names; may be partial.

        Unbound names stay symbolic.  Binding an undeclared name raises
        UnknownIndeterminateError.
        """
        if not bindings:
            return self
        cols: dict[int, PolyQ] = {}
        for name, value in bindings.items():
            i = self._name_index(name)
            if isinstance(value, PolyQ):
                self._check_universe(value)
                cols[i] = value
            else:
                cols[i] = PolyQ.const(self.names, value)
        out = PolyQ.zero(self.names)
        for exp, coeff in self.terms.items():
            residual = list(exp)
            term = PolyQ.const(self.names, coeff)
            for i, value in cols.items():
                e = exp[i]
                if e:
                    residual[i] = 0
                    term = term * value**e
            if any(residual):
                term = term * PolyQ(self.names, {tuple(residual): Fraction(1)})
            out = out + term
        return out

    def evaluate(self, bindings: dict[str, Scalar]) -> Scalar:
        """Full evaluation to an exact Scalar; every used name must be bound."""
        missing = [n for n in self.used_names() if n not in bindings]
        if missing:
            raise PolyError(f"unbound indeterminates in evaluation: {missing}")
        for name in bindings:
            self._name_index(name)
        total = Scalar.zero()
        for exp, coeff in self.terms.items():
            term = Scalar(coeff)
            for i, e in enumerate(exp):
                if e:
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
            other = PolyQ.const(self.names, other)
        if not isinstance(other, PolyQ):
            return NotImplemented
        return self.names == other.names and self.terms == other.terms

    def __hash__(self):
        return hash((self.names, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in descending graded-lexicographic order."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exp, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            if not mono:
                body = str(coeff)
            elif coeff == 1:
                body = mono
            elif coeff == -1:
                body = f"-{mono}"
            else:
                body = f"{coeff}*{mono}"
            if parts and not body.startswith("-"):
                parts.append("+" + body)
            else:
                parts.append(body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"PolyQ({self})"


def univariate_coefficients(p: PolyQ) -> tuple[str | None, list[Fraction]]:
    """View p as a univariate polynomial; returns (name, [c0, c1, ...]).

    The name is None for constant polynomials.  Raises PolyError when more
    than one indeterminate occurs.
    """
    used = p.used_names()
    if len(used) > 1:
        raise PolyError(f"{p} is not univariate (uses {used})")
    if not used:
        return None, [p.constant_value()]
    name = used[0]
    i = p._name_index(name)
    deg = max(exp[i] for exp in p.terms)
    coeffs = [Fraction(0)] * (deg + 1)
    for exp, coeff in p.terms.items():
        coeffs[exp[i]] = coeff
    return name, coeffs


def quadratic_real_root_exists(p: PolyQ) -> bool:
    """Decide real-root existence for a univariate rational p of degree <= 2.

    Nonconstant degree <= 1 always has a root; degree 2 has one iff the
    discriminant is nonnegative; a constant has a root iff it is zero.
    Degree > 2 raises UnsupportedDegreeError (out of scope by design).
    """
    _, coeffs = univariate_coefficients(p)
    deg = len(coeffs) - 1
    while deg > 0 and coeffs[deg] == 0:
        deg -= 1
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
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
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
    return [
        (Scalar(-c1) + root) * half,
        (Scalar(-c1) - root) * half,
    ]


__all__ = [
    "PolyQ",
    "PolyError",
    "UnknownIndeterminateError",
    "UnsupportedDegreeError",
    "univariate_coefficients",
    "quadratic_real_root_exists",
    "quadratic_roots",
    "rational_is_square",
]
