import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from heisenleib.scalars import (
    IncompatibleFieldError,
    InexactDivisionError,
    Scalar,
    ScalarError,
    ScalarParseError,
    common_field,
    exact_div,
    from_cleared,
    integer_pairs,
    is_squarefree,
    rational_is_square,
    sqrt_as_scalar,
    squarefree_split,
)

from reference_kernel import quadratic_integers, reference_exact_div


def test_rational_add():
    assert Scalar.rational(1, 2) + Scalar.rational(1, 3) == Scalar.rational(5, 6)


def test_i_squared_is_minus_one():
    i = Scalar.sqrt_d(-1)
    assert i * i == Scalar.rational(-1)


def test_inverse_of_one_plus_sqrt2():
    x = Scalar.quadratic(1, 1, 2)
    assert x.inv() == Scalar.quadratic(-1, 1, 2)
    # oracle: expand the product back to 1
    assert x * Scalar.quadratic(-1, 1, 2) == Scalar.one()


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Scalar.zero().inv()


def test_mixed_d_raises():
    with pytest.raises(IncompatibleFieldError):
        Scalar.sqrt_d(2) + Scalar.sqrt_d(5)


def test_rational_promotes_into_extension():
    x = Scalar.rational(3) + Scalar.sqrt_d(-1)
    assert x == Scalar.quadratic(3, 1, -1)


def test_rational_equals_trivial_quadratic():
    assert Scalar(Fraction(2, 3)) == Scalar(Fraction(2, 3), 0, None)
    q = Scalar.quadratic(1, 1, 5) - Scalar.sqrt_d(5)
    assert q == Scalar.one()
    assert q.d is None
    assert hash(q) == hash(Scalar.one())


@pytest.mark.parametrize("d", [0, 1, 4, 12, -4, 18])
def test_bad_d_rejected(d):
    with pytest.raises(ScalarError):
        Scalar.quadratic(0, 1, d)


@pytest.mark.parametrize(
    "text,value",
    [
        ("1/2", Scalar.rational(1, 2)),
        ("-3/4", Scalar.rational(-3, 4)),
        ("7", Scalar.rational(7)),
        ("0/1+1/1*sqrt(-1)", Scalar.sqrt_d(-1)),
        ("1/2-3/4*sqrt(2)", Scalar.quadratic(Fraction(1, 2), Fraction(-3, 4), 2)),
        ("-1/1-1/1*sqrt(5)", Scalar.quadratic(-1, -1, 5)),
    ],
)
def test_parse(text, value):
    assert Scalar.parse(text) == value


def test_format_roundtrip():
    for s in (
        Scalar.rational(-5, 3),
        Scalar.quadratic(0, Fraction(2, 7), -1),
        Scalar.quadratic(Fraction(-1, 2), -2, 3),
        Scalar.zero(),
    ):
        assert Scalar.parse(str(s)) == s


@pytest.mark.parametrize(
    "text",
    [
        "", "a/b", "1/0", "1+sqrt(2)", "1/1+1/1*sqrt(4)",
        # outside the p/q grammar, or over the text bounds (1000 digits,
        # |d| <= 10^6)
        "0.5", "1e3", "1_000", "1/2+0.5*sqrt(2)", "1/1*sqrt(1_9)",
        pytest.param("1" * 1001, id="1001-digit-numerator"),
        pytest.param("1/" + "1" * 1001, id="1001-digit-denominator"),
        "1/1*sqrt(1000001)", "1/1*sqrt(-1000001)",
        # at most one sign per number, and d is checked even under a zero
        # coefficient
        "++3*sqrt(2)", "1/2++3*sqrt(2)", "1/2+-3*sqrt(2)",
        "0*sqrt(0)", "0*sqrt(1)", "1/2+0/1*sqrt(4)",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ScalarParseError):
        Scalar.parse(text)


rationals = st.fractions(max_denominator=10**6)


@given(a=rationals, b=rationals, d=st.sampled_from([None, -1, 2, 5]))
def test_str_parses_back(a, b, d):
    x = Scalar(a) if d is None else Scalar(a, b, d)
    assert Scalar.parse(str(x)) == x


def test_is_squarefree():
    assert is_squarefree(-1) and is_squarefree(2) and is_squarefree(30)
    assert not is_squarefree(4) and not is_squarefree(-18) and not is_squarefree(0)


def test_squarefree_verdict_memoized():
    # every quadratic result re-checks d; trial division over sqrt(999983)
    # (a prime near the text cap) must run once, not once per result
    is_squarefree.cache_clear()
    x = Scalar.quadratic(1, 1, 999983)
    for _ in range(100):
        assert (x * x).d == 999983
    assert is_squarefree.cache_info().misses <= 1


def test_squarefree_split():
    assert squarefree_split(72) == (2, 6)
    assert squarefree_split(-75) == (-3, 5)
    assert squarefree_split(1) == (1, 1)


def test_sqrt_as_scalar():
    assert sqrt_as_scalar(Fraction(9, 4)) == Scalar.rational(3, 2)
    root = sqrt_as_scalar(Fraction(8))
    assert root * root == Scalar.rational(8)
    croot = sqrt_as_scalar(Fraction(-5, 3))
    assert croot * croot == Scalar.rational(-5, 3)


def test_rational_is_square():
    assert rational_is_square(Fraction(4, 9))
    assert not rational_is_square(Fraction(2))
    assert not rational_is_square(Fraction(-4))


def test_exact_div_in_z():
    assert exact_div(-12, 4) == -3
    with pytest.raises(InexactDivisionError):
        exact_div(7, 2)


@pytest.mark.parametrize("d", [-1, 2, 5, -3])
def test_exact_div_in_quadratic_integers(d):
    # the ring-object reference of tests/reference_kernel.py
    ring = quadratic_integers(d)
    x, y = ring(3, -2), ring(1, 4)
    product = x * y
    assert reference_exact_div(product, y) == x and reference_exact_div(product, x) == y
    assert reference_exact_div(product * 5, 5 * ring(1, 0)) == product
    with pytest.raises(InexactDivisionError):
        reference_exact_div(product + ring(1, 0), y)
    # the rational 2 divides 2 + 2*sqrt(d) in Z[sqrt d], but not 2 + sqrt(d)
    assert reference_exact_div(ring(2, 2), ring(2, 0)) == ring(1, 1)
    with pytest.raises(InexactDivisionError):
        reference_exact_div(ring(2, 1), ring(2, 0))


def test_integer_pairs_and_back():
    values = [Scalar.rational(1, 6), Scalar(Fraction(-3, 4), Fraction(2, 9), 2), Scalar.zero()]
    d = common_field(values)
    den, cleared = integer_pairs(values, d)
    assert d == 2 and den == 36
    assert cleared == [(6, 0), (-27, 8), (0, 0)]
    assert from_cleared(cleared, den, d) == values
    assert from_cleared(cleared, -den, d) == [-v for v in values]
    # 4 / 2 over Q(i) and -8 / -4 over Q(sqrt 2): the sqrt parts cancel
    for cancelled in from_cleared([(4, 0)], 2, -1) + from_cleared([(-8, 0)], -4, 2):
        assert cancelled == 2 and cancelled.d is None
        assert_built_once(cancelled)
    rationals = [Scalar.rational(-5, 6), Scalar.rational(3, 4), Scalar.zero()]
    den, cleared = integer_pairs(rationals, None)
    assert den == 12 and cleared == [-10, 9, 0]
    assert from_cleared(cleared, den, None) == rationals
    assert from_cleared([-7 * x for x in cleared], -7 * den, None) == rationals
    with pytest.raises(IncompatibleFieldError):
        common_field(values + [Scalar.sqrt_d(3)])


def assert_built_once(x):
    """The canonical form every result has: Fraction components, d None
    exactly when the sqrt part is 0, and equal (and equal hash) to the
    same components through the validating constructor."""
    assert type(x.a) is type(x.b) is Fraction
    assert (x.d is None) == (x.b == 0)
    rebuilt = Scalar(x.a, x.b, x.d)
    assert x == rebuilt and hash(x) == hash(rebuilt)


small = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@pytest.mark.parametrize("d", [None, -1, 2, 5])
@given(a=small, b=small, c=small, e=small, k=st.integers(-3, 3) | small)
def test_results_are_built_in_canonical_form(d, a, b, c, e, k):
    x = Scalar(a, b, d) if d is not None else Scalar(a)
    y = Scalar(c, e, d) if d is not None else Scalar(c)
    results = [x + y, x - y, x * y, -x, x + k, k - x, x * k, k * y, Scalar.parse(str(x)),
               sqrt_as_scalar(c)]
    for z in (x, y):
        if not z.is_zero():
            results += [z.inv(), x / z, k / z]
    den, cleared = integer_pairs([x, y], d)
    back, ints = from_cleared(cleared, den, d), from_cleared(cleared, 1, d)
    assert back == [x, y] and ints == [x * den, y * den]
    results += back + ints
    for result in results:
        assert_built_once(result)


def test_construction_keeps_its_refusals_and_cancellations():
    root = Scalar.sqrt_d(2)
    for cancelled in (Scalar(1, 1, 2) - root, root * root, (root + 1) * (1 - root),
                      Scalar.parse("3+0*sqrt(5)"), from_cleared([(4, 0)], 2, -1)[0]):
        assert cancelled.d is None and cancelled.b == 0
        assert_built_once(cancelled)
    assert Scalar(1, 1, 2) - root == 1 and root * root == 2
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(IncompatibleFieldError):
            op(root, Scalar.sqrt_d(5))
    with pytest.raises(ScalarError):
        Scalar(1, 0, 4)
    with pytest.raises(ScalarParseError):
        Scalar.parse("1+0*sqrt(4)")
