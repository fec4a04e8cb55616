from fractions import Fraction

import pytest

from heisenleib.poly import (
    PolyQ,
    PolyError,
    UnknownIndeterminateError,
    UnsupportedDegreeError,
    quadratic_real_root_exists,
    quadratic_roots,
    univariate_coefficients,
)
from heisenleib.scalars import Scalar

NAMES = ("a", "b", "c")


def var(name):
    return PolyQ.var(NAMES, name)


def test_difference_of_squares():
    a, b = var("a"), var("b")
    assert (a + b) * (a - b) == a * a - b * b


def test_additive_inverse():
    p = var("a") * var("b") + PolyQ.const(NAMES, Fraction(3, 2))
    assert (p + (-p)).is_zero()


def test_arar_residual_shape():
    # a1*r23 - a2*r13 + a3*r12 assembled from its three products
    names = ("a1", "a2", "a3", "r12", "r13", "r23")
    v = lambda nm: PolyQ.var(names, nm)
    combo = v("a1") * v("r23") - v("a2") * v("r13") + v("a3") * v("r12")
    assert combo.degree() == 2
    assert len(combo.terms) == 3
    # a1 = 1, a2 = a3 = 0 linearizes it to the single monomial r23
    specialized = combo.substitute({"a1": 1, "a2": 0, "a3": 0})
    assert specialized == v("r23")


def test_substitute_to_zero():
    p = var("b") * var("a")
    assert p.substitute({"b": 0}).is_zero()


def test_substitute_matrix_row_identity():
    # E := -A entrywise kills E + A
    names = ("A11", "E11")
    e = PolyQ.var(names, "E11")
    a = PolyQ.var(names, "A11")
    assert (e + a).substitute({"E11": -a}).is_zero()


def test_substitute_point():
    p = -var("a") * var("a") + var("b") * var("b")
    assert p.substitute({"a": 1, "b": 1}).is_zero()


def test_substitution_composition_property():
    # p(c := q)(v) = p(c := q(v)) on full bindings
    p = var("a") * var("a") + var("b") * Fraction(2)
    q = var("b") * var("b") - PolyQ.const(NAMES, 1)
    point = {"a": Scalar.rational(3), "b": Scalar.rational(-2), "c": Scalar.zero()}
    lhs = p.substitute({"a": q}).evaluate(point)
    qv = q.evaluate(point)
    rhs = p.evaluate({**point, "a": qv})
    assert lhs == rhs


def test_unknown_indeterminate():
    with pytest.raises(UnknownIndeterminateError):
        var("a").substitute({"z": 1})


@pytest.mark.parametrize("value", [0.1, 0.5, "1/2", Scalar.rational(1), None])
def test_substitution_refuses_what_arithmetic_refuses(value):
    # a bound value coerces as in u + value: a PolyQ, an int or a Fraction
    with pytest.raises(TypeError):
        var("a") + value
    with pytest.raises(TypeError):
        var("a").substitute({"a": value})


def test_universe_mismatch():
    other = PolyQ.var(("x",), "x")
    with pytest.raises(PolyError):
        var("a") + other


def test_evaluate_needs_full_binding():
    p = var("a") + var("b")
    with pytest.raises(PolyError):
        p.evaluate({"a": Scalar.one()})


def test_evaluate_quadratic_scalar():
    p = var("a") * var("a")
    assert p.evaluate({"a": Scalar.sqrt_d(2)}) == Scalar.rational(2)


def test_canonical_order_and_str():
    p = var("a") + var("b") * var("b") - PolyQ.const(NAMES, Fraction(1, 2))
    assert str(p) == "b^2+a-1/2"
    q = -var("a")
    assert str(q) == "-a"
    assert str(PolyQ.zero(NAMES)) == "0"


def test_structural_equality_commutes():
    p = var("a") * var("b") + var("c")
    q = var("c") + var("b") * var("a")
    assert p == q and hash(p) == hash(q)


@pytest.mark.parametrize("value", [0, 1, -3, Fraction(1, 3), Fraction(-7, 2), Fraction(4, 2)])
def test_constant_hashes_as_the_value_it_equals(value):
    for names in (("x",), NAMES):
        p = PolyQ.const(names, value)
        assert p == value and hash(p) == hash(value)
        assert {value: "found"}.get(p) == "found"
        assert {p: "found"}.get(value) == "found"
    assert hash(PolyQ.zero(NAMES)) == hash(0)


def test_as_linear():
    p = var("a") * Fraction(2) - var("b") + PolyQ.const(NAMES, 5)
    const, coeffs = p.as_linear()
    assert const == 5 and coeffs == {"a": Fraction(2), "b": Fraction(-1)}
    assert (var("a") * var("b")).as_linear() is None


def test_univariate_coefficients():
    names = ("t",)
    t = PolyQ.var(names, "t")
    name, coeffs = univariate_coefficients(t * t - PolyQ.const(names, 4))
    assert name == "t" and coeffs == [Fraction(-4), Fraction(0), Fraction(1)]
    with pytest.raises(PolyError):
        univariate_coefficients(var("a") + var("b"))


class TestRealRootDecision:
    def poly(self, c0, c1, c2):
        return PolyQ(("c",), {(0,): Fraction(c0), (1,): Fraction(c1), (2,): Fraction(c2)})

    def test_no_real_root(self):
        assert quadratic_real_root_exists(self.poly(1, 0, 1)) is False

    def test_roots_pm_one(self):
        assert quadratic_real_root_exists(self.poly(-1, 0, 1)) is True

    def test_locus_dehomogenization(self):
        # det(c*diag(1,-1) + [[0,1],[-1,0]]) with c2 := 1 gives 1 - c^2
        assert quadratic_real_root_exists(self.poly(1, 0, -1)) is True

    def test_linear_always(self):
        assert quadratic_real_root_exists(self.poly(7, 2, 0)) is True

    def test_constant(self):
        assert quadratic_real_root_exists(self.poly(0, 0, 0)) is True
        assert quadratic_real_root_exists(self.poly(3, 0, 0)) is False

    def test_degree_cap(self):
        cubic = PolyQ(("c",), {(3,): Fraction(1)})
        with pytest.raises(UnsupportedDegreeError):
            quadratic_real_root_exists(cubic)

    def test_vertex_oracle(self):
        # independent completed-square check on a rational grid of quadratics
        vals = [Fraction(k, 2) for k in range(-6, 7)]
        count = 0
        for c2 in vals:
            if c2 == 0:
                continue
            for c1 in vals:
                for c0 in vals:
                    p = self.poly(c0, c1, c2)
                    vertex_value = c0 - c1 * c1 / (4 * c2)
                    oracle = vertex_value == 0 or (vertex_value < 0) == (c2 > 0)
                    assert quadratic_real_root_exists(p) is oracle
                    count += 1
        assert count == 12 * 13 * 13


def test_quadratic_roots_of_degree_one():
    assert quadratic_roots(PolyQ(("t",), {(1,): Fraction(2), (0,): Fraction(3)})) == [
        Scalar.rational(-3, 2)
    ]
    with pytest.raises(PolyError):
        quadratic_roots(PolyQ.const(("t",), 5))


def test_quadratic_roots_exact():
    p = PolyQ(("t",), {(2,): Fraction(1), (0,): Fraction(-2)})
    roots = quadratic_roots(p)
    for root in roots:
        assert p.evaluate({"t": root}).is_zero()
    p = PolyQ(("t",), {(2,): Fraction(1), (1,): Fraction(-3), (0,): Fraction(2)})
    assert {str(r) for r in quadratic_roots(p)} == {"1/1", "2/1"}
    p = PolyQ(("t",), {(2,): Fraction(1), (0,): Fraction(1)})
    for root in quadratic_roots(p):
        assert p.evaluate({"t": root}).is_zero()
        assert root.d == -1


class TestPower:
    """PolyQ.__pow__ squares and multiplies; a constant is raised as its
    value, and a power past the degree bound is refused before any multiply."""

    @pytest.fixture
    def multiplies(self, monkeypatch):
        calls = []
        original = PolyQ.__mul__

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(PolyQ, "__mul__", counting)
        return calls

    def test_values_are_kept(self):
        x = var("a")
        assert (x + 1) ** 2 == x * x + 2 * x + 1
        assert str((x + 1) ** 2) == "a^2+2*a+1"
        assert x**0 == 1 and PolyQ.zero(NAMES) ** 0 == 1
        assert x**1 == x

    @pytest.mark.parametrize("n", range(12))
    def test_matches_repeated_multiplication(self, n):
        p = var("a") * Fraction(1, 2) - 2 * var("b") + 1
        want = PolyQ.const(NAMES, 1)
        for _ in range(n):
            want = want * p
        assert p**n == want and str(p**n) == str(want)

    def test_multiplies_about_log_n_times(self, multiplies):
        x = var("a") + var("b")
        assert (x**200).degree() == 200
        # 200 = 0b11001000: seven squarings and two multiplies by x
        assert len(multiplies) == 9
        multiplies.clear()
        square = x**2
        assert len(multiplies) == 1 and square == x * x

    @pytest.mark.parametrize("value", [0, 1, -1])
    def test_zero_and_units_come_back_at_once(self, multiplies, value):
        base = PolyQ.const(NAMES, value)
        assert base ** 10**9 == abs(value)
        assert base ** (10**9 + 1) == value
        assert multiplies == []

    def test_constants_are_raised_as_their_value(self):
        assert PolyQ.const(NAMES, Fraction(-2, 3)) ** 5 == Fraction(-32, 243)

    def test_a_power_past_the_bound_is_refused_before_any_multiply(self, multiplies):
        x, xy = var("a"), PolyQ(NAMES, {(1, 1, 0): 1})
        for base, n in ((x, 256), (x + 1, 10**9), (xy, 128)):
            with pytest.raises(PolyError, match="product degree exceeds the bound 255"):
                base**n
        assert multiplies == []
        assert xy**127 == PolyQ(NAMES, {(127, 127, 0): 1})

    def test_negative_and_non_integer_powers_are_refused(self):
        with pytest.raises(PolyError):
            var("a") ** -1
        with pytest.raises(TypeError):
            var("a") ** 2.0
