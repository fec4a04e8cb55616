"""Test-only reference kernel.

DenseTensor keeps the structure constants of a StructTensor as a dense
c[i][j][k] array and forms every product with its own nested loop, the
way the library did before its constants moved to a sparse store behind
one contraction routine.  The differential tests compare the library
against these loops; nilpotency_power_oracle is the brute-force check
that the nilpotency tests compare against.

TuplePoly is the polynomial kernel as it was before PolyQ packed its
exponent vectors into ints: terms keyed by full-length exponent tuples,
graded-lex display by sorting those tuples, substitution by value**e
products per term.  The packed-kernel tests compare PolyQ against it.
"""

from fractions import Fraction

from heisenleib import linalg
from heisenleib.linalg import ShapeError
from heisenleib.poly import PolyError, UnknownIndeterminateError
from heisenleib.scalars import Scalar


class DenseTensor:
    """Dense copy of a StructTensor's constants with the reference loops."""

    def __init__(self, t):
        self.dim = t.dim
        self.zero = t.zero
        self.c = [[[t.zero] * t.dim for _ in range(t.dim)] for _ in range(t.dim)]
        for (i, j, k), value in t.constants_dict().items():
            self.c[i][j][k] = value

    def bracket(self, x, y) -> list:
        out = [self.zero] * self.dim
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            for j, yj in enumerate(y):
                if yj.is_zero():
                    continue
                coeff = xi * yj
                vec = self.c[i][j]
                for k in range(self.dim):
                    if not vec[k].is_zero():
                        out[k] = out[k] + coeff * vec[k]
        return out

    def _bracket_basis_left(self, i: int, w) -> list:
        """[e_i, w] for a coordinate vector w."""
        out = [self.zero] * self.dim
        for j, wj in enumerate(w):
            if wj.is_zero():
                continue
            vec = self.c[i][j]
            for k in range(self.dim):
                if not vec[k].is_zero():
                    out[k] = out[k] + wj * vec[k]
        return out

    def _bracket_basis_right(self, w, k: int) -> list:
        """[w, e_k] for a coordinate vector w."""
        out = [self.zero] * self.dim
        for i, wi in enumerate(w):
            if wi.is_zero():
                continue
            vec = self.c[i][k]
            for m in range(self.dim):
                if not vec[m].is_zero():
                    out[m] = out[m] + wi * vec[m]
        return out

    def leibniz_residual(self, i: int, j: int, k: int) -> list:
        t1 = self._bracket_basis_left(i, self.c[j][k])
        t2 = self._bracket_basis_right(self.c[i][j], k)
        t3 = self._bracket_basis_left(j, self.c[i][k])
        return [a - b - c for a, b, c in zip(t1, t2, t3)]

    def leibniz_defects(self) -> list:
        n = self.dim
        return [
            (i, j, k)
            for i in range(n)
            for j in range(n)
            for k in range(n)
            if any(not e.is_zero() for e in self.leibniz_residual(i, j, k))
        ]

    def left_mult_matrix(self, x) -> list:
        out = [[self.zero] * self.dim for _ in range(self.dim)]
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            for j in range(self.dim):
                vec = self.c[i][j]
                for k in range(self.dim):
                    if not vec[k].is_zero():
                        out[k][j] = out[k][j] + xi * vec[k]
        return out

    def right_mult_matrix(self, x) -> list:
        out = [[self.zero] * self.dim for _ in range(self.dim)]
        for j, xj in enumerate(x):
            if xj.is_zero():
                continue
            for i in range(self.dim):
                vec = self.c[i][j]
                for k in range(self.dim):
                    if not vec[k].is_zero():
                        out[k][i] = out[k][i] + xj * vec[k]
        return out

    def change_basis(self, p) -> list:
        """Dense constants under the coordinate map P:
        c'[m][l] = P [q_m, q_l] with q_m the m-th column of P^{-1}."""
        n = self.dim
        q = linalg.inverse(p)
        cols = [[q[i][m] for i in range(n)] for m in range(n)]
        return [
            [linalg.mat_vec(p, self.bracket(cols[m], cols[l])) for l in range(n)]
            for m in range(n)
        ]


def nilpotency_power_oracle(m) -> bool:
    """Brute-force oracle: check M, M^2, ..., M^dim for the zero matrix."""
    r, c = linalg.shape(m)
    if r != c:
        raise ShapeError("nilpotency needs a square matrix")
    power = [row[:] for row in m]
    for _ in range(r):
        if linalg.is_zero_matrix(power):
            return True
        power = linalg.mat_mul(power, m)
    return linalg.is_zero_matrix(power)


class TuplePoly:
    """Polynomial over Q with {exponent tuple: Fraction} terms."""

    def __init__(self, names, terms=None):
        self.names = tuple(names)
        self.terms = {}
        for exp, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if len(exp) != len(self.names):
                raise PolyError(f"exponent width {len(exp)} != universe size {len(self.names)}")
            self.terms[tuple(exp)] = coeff

    @classmethod
    def const(cls, names, value):
        return cls(names, {(0,) * len(names): value})

    @classmethod
    def var(cls, names, name):
        exp = [0] * len(names)
        exp[names.index(name)] = 1
        return cls(names, {tuple(exp): 1})

    def _index(self, name):
        if name not in self.names:
            raise UnknownIndeterminateError(f"unknown indeterminate {name!r}")
        return self.names.index(name)

    def is_zero(self):
        return not self.terms

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(exp) for exp in self.terms)

    def used_names(self):
        used = [False] * len(self.names)
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    used[i] = True
        return tuple(n for n, u in zip(self.names, used) if u)

    def as_linear(self):
        const = Fraction(0)
        coeffs = {}
        for exp, coeff in self.terms.items():
            deg = sum(exp)
            if deg == 0:
                const = coeff
            elif deg == 1:
                coeffs[self.names[exp.index(1)]] = coeff
            else:
                return None
        return const, coeffs

    def _coerce(self, other):
        if isinstance(other, TuplePoly):
            if self.names != other.names:
                raise PolyError("polynomials from different indeterminate universes")
            return other
        return TuplePoly.const(self.names, other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            s = out.get(exp, Fraction(0)) + coeff
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
        return TuplePoly(self.names, out)

    def __neg__(self):
        return TuplePoly(self.names, {exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(exp, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return TuplePoly(self.names, out)

    def __pow__(self, n):
        out = TuplePoly.const(self.names, 1)
        for _ in range(n):
            out = out * self
        return out

    def substitute(self, bindings):
        if not bindings:
            return self
        cols = {}
        for name, value in bindings.items():
            i = self._index(name)
            cols[i] = value if isinstance(value, TuplePoly) else TuplePoly.const(self.names, value)
        out = TuplePoly(self.names)
        for exp, coeff in self.terms.items():
            residual = list(exp)
            term = TuplePoly.const(self.names, coeff)
            for i, value in cols.items():
                e = exp[i]
                if e:
                    residual[i] = 0
                    term = term * value**e
            if any(residual):
                term = term * TuplePoly(self.names, {tuple(residual): 1})
            out = out + term
        return out

    def evaluate(self, bindings):
        missing = [n for n in self.used_names() if n not in bindings]
        if missing:
            raise PolyError(f"unbound indeterminates in evaluation: {missing}")
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

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
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

    def univariate_coefficients(self):
        used = self.used_names()
        if len(used) > 1:
            raise PolyError(f"{self} is not univariate (uses {used})")
        if not used:
            return None, [next(iter(self.terms.values()), Fraction(0))]
        i = self.names.index(used[0])
        coeffs = [Fraction(0)] * (max(exp[i] for exp in self.terms) + 1)
        for exp, coeff in self.terms.items():
            coeffs[exp[i]] = coeff
        return used[0], coeffs
