"""The packed-monomial PolyQ against the tuple-exponent kernel it replaced.

Every operation is compared with tests/reference_kernel.TuplePoly on
hypothesis polynomials over universes of 1, 3, 72 and 1,035 names (the
last is the cascade's at n = 4, f = 5), with exponents up to near the
degree bound.  sympy, where installed, is an independent oracle for
products and substitution.  The substituter that grows by bind is compared
with the closure over a fixed binding map that it replaced, _Layout.split
with a split of exponent tuples, and the keys' order, degrees and products
with the width-sized keys of reference_kernel.PackedKeys.  A second
strategy draws polynomials of degree at most 3, half of whose monomials
sit at the thresholds where the keys' direct decoding of degree <= 2
changes case.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenleib.poly import (
    MAX_DEGREE,
    PolyError,
    PolyQ,
    UnknownIndeterminateError,
    _Substituter,
    univariate_coefficients,
)
from heisenleib.scalars import Scalar

from reference_kernel import PackedKeys, TuplePoly, reference_substituter

SINGLE = ("t",)
NARROW = ("u", "v", "w")
WIDE = tuple(f"x{i}" for i in range(72))
CASCADE = tuple(f"y{i}" for i in range(1035))
UNIVERSES = pytest.mark.parametrize(
    "names", [SINGLE, NARROW, WIDE, CASCADE], ids=["width1", "width3", "width72", "width1035"]
)

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool)


@st.composite
def term_maps(draw, names, max_deg, max_terms=5):
    """{exponent tuple: coefficient} with total degree at most max_deg."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exp = [0] * len(names)
        budget = draw(st.integers(0, max_deg))
        for i in draw(st.lists(st.integers(0, len(names) - 1), max_size=4, unique=True)):
            exp[i] = draw(st.integers(0, budget))
            budget -= exp[i]
        terms[tuple(exp)] = draw(coeffs)
    return terms


def pair(names, terms):
    return PolyQ(names, terms), TuplePoly(names, terms)


def assert_same(p, ref):
    assert p.sorted_terms() == ref.sorted_terms()
    assert str(p) == str(ref)
    assert p.degree() == ref.degree()
    assert p.used_names() == ref.used_names()
    assert p.as_linear() == ref.as_linear()


def univariate_or_error(fn):
    try:
        return fn()
    except PolyError as exc:
        return type(exc)


@UNIVERSES
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_views_match(names, data):
    p, ref = pair(names, data.draw(term_maps(names, MAX_DEGREE)))
    assert_same(p, ref)
    assert p.is_zero() == ref.is_zero()


@UNIVERSES
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_univariate_coefficients_match(names, data):
    name = data.draw(st.sampled_from(names))
    i = names.index(name)
    exps = data.draw(st.lists(st.integers(0, MAX_DEGREE), max_size=5))
    terms = {tuple(e if j == i else 0 for j in range(len(names))): 1 + k for k, e in enumerate(exps)}
    if data.draw(st.booleans()):
        terms.update(data.draw(term_maps(names, 3, max_terms=2)))
    p, ref = pair(names, terms)
    got = univariate_or_error(lambda: univariate_coefficients(p))
    assert got == univariate_or_error(ref.univariate_coefficients)


@UNIVERSES
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_sum_difference_product_match(names, data):
    half = MAX_DEGREE // 2
    p, p_ref = pair(names, data.draw(term_maps(names, half)))
    q, q_ref = pair(names, data.draw(term_maps(names, half)))
    assert_same(p + q, p_ref + q_ref)
    assert_same(p - q, p_ref - q_ref)
    assert_same(p * q, p_ref * q_ref)
    assert_same(p * 3, p_ref * 3)


@UNIVERSES
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_power_matches(names, data):
    k = data.draw(st.integers(0, 4))
    p, ref = pair(names, data.draw(term_maps(names, MAX_DEGREE // 4, max_terms=3)))
    assert_same(p**k, ref**k)


@UNIVERSES
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_substitute_rational_matches(names, data):
    p, ref = pair(names, data.draw(term_maps(names, MAX_DEGREE)))
    full = data.draw(st.booleans())
    bound = p.used_names() if full else data.draw(st.lists(st.sampled_from(names), max_size=4))
    values = {name: data.draw(st.fractions(-3, 3, max_denominator=3)) for name in bound}
    got = p.substitute(values)
    assert_same(got, ref.substitute(values))
    if full:
        assert got.is_constant()


@UNIVERSES
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_substitute_polynomial_matches(names, data):
    p, ref = pair(names, data.draw(term_maps(names, 15)))
    bound = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    values, ref_values = {}, {}
    for name in bound:
        values[name], ref_values[name] = pair(names, data.draw(term_maps(names, 15, max_terms=3)))
    assert_same(p.substitute(values), ref.substitute(ref_values))


def bind_values(names):
    """A bound value: a PolyQ, an int or a Fraction."""
    return st.one_of(
        term_maps(names, 6, max_terms=3).map(lambda terms: PolyQ(names, terms)),
        st.integers(-3, 3),
        st.fractions(-3, 3, max_denominator=3),
    )


@UNIVERSES
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_growing_substituter_matches_a_fresh_one(names, data):
    polys = [PolyQ(names, data.draw(term_maps(names, 12))) for _ in range(3)]
    pool = names[:4]  # few names, so that rebinding is common
    sub, bound = _Substituter(polys[0], {}), {}
    for _ in range(data.draw(st.integers(1, 6))):
        name = data.draw(st.sampled_from(pool))
        bound[name] = data.draw(bind_values(names))
        sub.bind(name, bound[name])
        # substituting between binds, so that a value kept from before a rebind shows
        for p in polys:
            assert sub(p) == reference_substituter(polys[0], bound)(p)
    fresh = reference_substituter(polys[0], bound)
    for p in polys:
        assert_same(sub(p), fresh(p))


def test_rebinding_drops_the_cached_powers():
    u, v = PolyQ.var(NARROW, "u"), PolyQ.var(NARROW, "v")
    sub = _Substituter(u, {"u": v + 1, "v": 2})
    assert sub(u**2 * v) == 2 * (v + 1) ** 2
    sub.bind("u", 3)
    assert sub(u**2 * v) == 18
    sub.bind("u", Fraction(1, 2))
    got = sub(u**2 + v**2)
    assert got == Fraction(17, 4) and type(got.terms[0]) is Fraction
    sub.bind("u", Fraction(4, 2))
    got = sub(u**2 * v)
    assert got == 8 and type(got.terms[0]) is int
    # the other name's cached power is kept and still right
    assert sub(v**2) == 4


def test_rebinding_one_name_of_a_bound_product():
    u, v, w = (PolyQ.var(NARROW, name) for name in NARROW)
    sub = _Substituter(u, {"u": w + 1, "v": 3})
    assert sub(u * v + w) == 4 * w + 3
    sub.bind("u", 2 * w)
    assert sub(u * v + w) == 7 * w
    assert sub(u * v * w**2) == 6 * w**3


def threshold_monomials(names):
    """The exponents of the keys on either side of the degree thresholds:
    0 (the constant), base - 1 (the first name), base + 1 (the last name
    squared, the least key of degree 2), base**2 - 1 (the first name
    squared) and base**2 + base + 1 (the last name cubed, the least key of
    degree 3).  base and base**2 themselves have the digit 0, which no key
    has."""
    def mono(*indices):
        exp = [0] * len(names)
        for i in indices:
            exp[i] += 1
        return tuple(exp)

    last = len(names) - 1
    return [mono(), mono(0), mono(last, last), mono(0, 0), mono(last, last, last)]


@st.composite
def low_degree_maps(draw, names, max_terms=6):
    """{exponent tuple: coefficient} of total degree at most 3, about half of
    the monomials drawn from threshold_monomials."""
    edges = st.sampled_from(threshold_monomials(names))
    exps = draw(st.lists(st.one_of(edges, monomials(names, 3)), max_size=max_terms))
    return {exp: draw(coeffs) for exp in exps}


@UNIVERSES
def test_threshold_monomials_sit_at_the_thresholds(names):
    layout, base = PolyQ.zero(names)._layout, len(names) + 1
    keys = [layout.pack(exp) for exp in threshold_monomials(names)]
    assert keys == [0, base - 1, base + 1, base**2 - 1, base**2 + base + 1]
    assert [layout.degree(key) for key in keys] == [0, 1, 2, 2, 3]
    terms = {exp: k + 1 for k, exp in enumerate(threshold_monomials(names))}
    assert_same(*pair(names, terms))


def reference_split(terms: dict, bound: set):
    """_Layout.split on exponent tuples: (kept, {bound part: {rest: coeff}})."""
    kept, parts = {}, {}
    for exp, coeff in terms.items():
        part = tuple(e if i in bound else 0 for i, e in enumerate(exp))
        rest = tuple(0 if i in bound else e for i, e in enumerate(exp))
        if any(part):
            parts.setdefault(part, {})[rest] = coeff
        else:
            kept[exp] = coeff
    return kept, parts


@UNIVERSES
@pytest.mark.parametrize("bound", [(), (0,), (-1,), (0, -1)], ids=["none", "high", "low", "both"])
def test_split_matches_the_exponent_tuples(names, bound):
    # the first name is the high digit of x0*xl and the last the low one;
    # binding both binds the squares x0^2 and xl^2 whole
    last = len(names) - 1
    mixed = [tuple(int(i in (0, last)) for i in range(len(names))),  # x0*xl
             tuple((i == 0) + 2 * (i == last) for i in range(len(names)))]  # x0*xl^2
    exps = threshold_monomials(names) + mixed
    terms = {exp: k + 1 for k, exp in enumerate(exps)}
    layout, indices = PolyQ.zero(names)._layout, {i % len(names) for i in bound}
    kept, parts = layout.split({layout.pack(exp): c for exp, c in terms.items()},
                               {len(names) - i for i in indices})
    unpack = layout.unpack
    got = ({unpack(k): c for k, c in kept.items()},
           {unpack(m): {unpack(k): c for k, c in rest.items()} for m, rest in parts.items()})
    assert got == reference_split(terms, indices)


@UNIVERSES
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_low_degree_views_match(names, data):
    terms = data.draw(low_degree_maps(names))
    p, ref = pair(names, terms)
    assert_same(p, ref)
    layout, packed = p._layout, PackedKeys(len(names))
    for exp in terms:
        key = layout.pack(exp)
        assert layout.unpack(key) == exp
        assert layout.fields(key) == packed.fields(packed.pack(exp))
        assert layout.degree(key) == packed.degree(packed.pack(exp))


@UNIVERSES
@pytest.mark.parametrize("kind", ["rational", "polynomial"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_low_degree_substitute_matches(names, kind, data):
    p, ref = pair(names, data.draw(low_degree_maps(names)))
    pool = sorted({names[0], names[-1], *p.used_names()})
    values, ref_values = {}, {}
    for name in data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True)):
        if kind == "rational":
            values[name] = ref_values[name] = data.draw(st.fractions(-3, 3, max_denominator=3))
        else:
            values[name], ref_values[name] = pair(names, data.draw(low_degree_maps(names, 3)))
    assert_same(p.substitute(values), ref.substitute(ref_values))


@UNIVERSES
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_low_degree_growing_substituter_matches(names, data):
    terms = [data.draw(low_degree_maps(names)) for _ in range(3)]
    pool = (names[0], names[-1])  # the digits w and 1, at the thresholds' edges
    sub, bound = _Substituter(PolyQ.zero(names), {}), {}
    for _ in range(data.draw(st.integers(1, 4))):
        name = data.draw(st.sampled_from(pool))
        if data.draw(st.booleans()):
            bound[name] = data.draw(st.fractions(-3, 3, max_denominator=3))
        else:
            bound[name] = TuplePoly(names, data.draw(low_degree_maps(names, 3)))
        value = bound[name]
        sub.bind(name, PolyQ(names, value.terms) if isinstance(value, TuplePoly) else value)
        for t in terms:
            assert_same(sub(PolyQ(names, t)), TuplePoly(names, t).substitute(bound))


@UNIVERSES
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_evaluate_matches(names, data):
    p, ref = pair(names, data.draw(term_maps(names, 40)))
    d = data.draw(st.sampled_from([None, -1, 2]))
    point = {}
    for name in p.used_names():
        a, b = data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))
        point[name] = Scalar(a) if d is None else Scalar(a, b, d)
    assert p.evaluate(point) == ref.evaluate(point)


@st.composite
def monomials(draw, names, max_deg):
    """An exponent tuple of total degree at most max_deg."""
    exp = [0] * len(names)
    for i in draw(st.lists(st.integers(0, len(names) - 1), max_size=max_deg)):
        exp[i] += 1
    return tuple(exp)


@UNIVERSES
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_key_order_degree_and_lead_match_the_packed_keys(names, data):
    packed = PackedKeys(len(names))
    exps = data.draw(st.lists(monomials(names, 4), min_size=1, max_size=8, unique=True))
    terms = {exp: k + 1 for k, exp in enumerate(exps)}
    p, ref = pair(names, terms)
    descending = sorted(exps, key=packed.pack, reverse=True)
    assert [exp for exp, _ in p.sorted_terms()] == descending
    assert [exp for exp, _ in ref.sorted_terms()] == descending
    assert p.degree() == packed.degree(packed.pack(descending[0])) == ref.degree()
    layout = p._layout
    assert [layout.fields(k) for k in sorted(p.terms, reverse=True)] == [
        packed.fields(packed.pack(exp)) for exp in descending
    ]
    # the leading term, as constraints._monic reads it
    assert p.terms[max(p.terms)] == terms[descending[0]]


@UNIVERSES
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_monomial_products_match_the_packed_keys(names, data):
    packed = PackedKeys(len(names))
    # degree <= 1 factors, either of them constant, take the inline path
    low = data.draw(st.booleans())
    e1 = data.draw(monomials(names, 1 if low else 2))
    e2 = data.draw(monomials(names, 1 if low else 2))
    got = PolyQ(names, {e1: 2}) * PolyQ(names, {e2: 3})
    want = packed.unpack(packed.product(packed.pack(e1), packed.pack(e2)))
    assert got.sorted_terms() == [(want, 6)]
    assert got.sorted_terms() == (TuplePoly(names, {e1: 2}) * TuplePoly(names, {e2: 3})).sorted_terms()
    layout = got._layout
    assert layout.unpack(layout.product(layout.pack(e1), layout.pack(e2))) == want


def test_degree_two_keys_do_not_grow_with_the_width():
    first, last = PolyQ.var(CASCADE, "y0"), PolyQ.var(CASCADE, "y1034")
    for p in (first * first, first * last, last * last):
        (key,) = p.terms
        assert sys.getsizeof(key) <= 64


class TestFieldBound:
    def test_power_past_the_bound_raises(self):
        x = PolyQ.var(WIDE, "x5")
        with pytest.raises(PolyError):
            x**256
        with pytest.raises(PolyError):
            (x + 1) ** 256

    def test_product_past_the_bound_raises(self):
        x, y = PolyQ.var(WIDE, "x5"), PolyQ.var(WIDE, "x4")
        with pytest.raises(PolyError):
            x**128 * x**128
        with pytest.raises(PolyError):
            x**200 * y**56

    def test_substitution_past_the_bound_raises(self):
        x, y = PolyQ.var(NARROW, "u"), PolyQ.var(NARROW, "v")
        with pytest.raises(PolyError):
            (x**200).substitute({"u": y * y})

    def test_top_of_the_field_does_not_wrap(self):
        x = PolyQ.var(WIDE, "x5")
        exp = tuple(MAX_DEGREE if i == 5 else 0 for i in range(len(WIDE)))
        assert (x**MAX_DEGREE).sorted_terms() == [(exp, Fraction(1))]
        assert str(x**128 * x**127) == "x5^255"
        assert (x**255).degree() == 255 and (x**255).used_names() == ("x5",)


class TestUniverseAndExponentChecks:
    def test_repeated_name_rejected(self):
        with pytest.raises(PolyError):
            PolyQ(("x", "x"), {(1, 1): 1})
        with pytest.raises(PolyError):
            PolyQ.var(("x", "x"), "x")

    @pytest.mark.parametrize("exp", [(-1,), (256,), (1.5,), (-1, 2)])
    def test_bad_exponent_rejected(self, exp):
        names = ("x", "y")[: len(exp)]
        with pytest.raises(PolyError):
            PolyQ(names, {exp: 1})

    def test_total_degree_past_the_bound_rejected(self):
        with pytest.raises(PolyError):
            PolyQ(("x", "y"), {(200, 56): 1})
        assert PolyQ(("x", "y"), {(200, 55): 1}).degree() == 255

    def test_unknown_name(self):
        with pytest.raises(UnknownIndeterminateError):
            PolyQ.var(WIDE, "y")


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def to_sympy(sympy, p, symbols):
    total = sympy.Integer(0)
    for exp, c in p.sorted_terms():
        mono = sympy.Mul(*(s**e for s, e in zip(symbols, exp) if e))
        total += sympy.Rational(c.numerator, c.denominator) * mono
    return total


@UNIVERSES
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_product_against_sympy(sympy, names, data):
    symbols = sympy.symbols(names)
    p = PolyQ(names, data.draw(term_maps(names, 30)))
    q = PolyQ(names, data.draw(term_maps(names, 30)))
    product = to_sympy(sympy, p, symbols) * to_sympy(sympy, q, symbols)
    assert sympy.expand(product - to_sympy(sympy, p * q, symbols)) == 0


@UNIVERSES
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_substitute_against_sympy(sympy, names, data):
    symbols = sympy.symbols(names)
    p = PolyQ(names, data.draw(term_maps(names, 8)))
    bound = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    values = {name: PolyQ(names, data.draw(term_maps(names, 4, max_terms=3))) for name in bound}
    if data.draw(st.booleans()):
        values[bound[0]] = data.draw(st.fractions(-3, 3, max_denominator=3))
    replaced = to_sympy(sympy, p, symbols).xreplace({
        symbols[names.index(name)]: (
            to_sympy(sympy, v, symbols) if isinstance(v, PolyQ)
            else sympy.Rational(v.numerator, v.denominator)
        )
        for name, v in values.items()
    })
    assert sympy.expand(replaced - to_sympy(sympy, p.substitute(values), symbols)) == 0
