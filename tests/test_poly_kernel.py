"""PolyQ's int coefficients and its one sum of products.

StructTensor.contract and linalg.mat_mul hand the products of PolyQ
entries to poly's fused kernel.  Both are compared with the per-product
loops they replaced (tests/reference_kernel.py), run once on PolyQ and
once on TuplePoly, which shares no arithmetic with PolyQ; linalg.mat_vec,
which goes through mat_mul, with the accumulation it replaced.  Integral
coefficients are stored as ints, while the public readers return
Fractions.  The kernel normalises its term map in place, and the
cascade's Jacobi residual is the Leibniz residual with its sign folded in.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenleib import linalg
from heisenleib.algebra import StructTensor
from heisenleib.constraints import (
    gamma_eliminate,
    jacobi_residual_system,
    jacobi_vector,
    parametric_extension,
)
from heisenleib.poly import MAX_DEGREE, PolyError, PolyQ, univariate_coefficients

from reference_kernel import TuplePoly, reference_contract, reference_mat_mul

NARROW = ("u", "v", "w")
WIDE = tuple(f"x{i}" for i in range(72))
UNIVERSES = pytest.mark.parametrize("names", [NARROW, WIDE], ids=["width3", "width72"])

# p/q coefficients; integral Fractions such as Fraction(4, 2) are drawn too
fractions = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.integers(-4, 4).map(lambda k: Fraction(2 * k, 2)),
)


@st.composite
def polys(draw, names, max_deg=MAX_DEGREE // 2, max_terms=4):
    """A PolyQ of total degree <= max_deg, zero about a third of the time."""
    terms = {}
    if draw(st.integers(0, 2)):
        for _ in range(draw(st.integers(1, max_terms))):
            exp = [0] * len(names)
            budget = draw(st.integers(0, max_deg))
            for i in draw(st.lists(st.integers(0, len(names) - 1), max_size=3, unique=True)):
                exp[i] = draw(st.integers(0, budget))
                budget -= exp[i]
            terms[tuple(exp)] = draw(fractions)
    return PolyQ(names, terms)


def factors(names):
    """A contraction coefficient: a PolyQ, an int or a Fraction."""
    return st.one_of(polys(names), st.integers(-3, 3), fractions)


def as_tuple(names, value):
    if isinstance(value, PolyQ):
        return TuplePoly(names, dict(value.sorted_terms()))
    return TuplePoly.const(names, value)


def normalised(p: PolyQ) -> bool:
    return all(type(c) is int or c.denominator != 1 for c in p.terms.values())


def assert_same(got, want, tuple_want):
    assert got == want
    assert [p.sorted_terms() for p in got] == [q.sorted_terms() for q in tuple_want]
    assert [str(p) for p in got] == [str(q) for q in tuple_want]
    assert all(normalised(p) for p in got)


@UNIVERSES
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_contract_matches_per_product_loop(names, data):
    dim = 3
    keys = st.tuples(*[st.integers(0, dim - 1)] * 3)
    constants = data.draw(st.dictionaries(keys, polys(names), max_size=8))
    t = StructTensor(dim, constants, zero=PolyQ.zero(names))
    terms = data.draw(st.lists(
        st.tuples(factors(names), st.integers(0, dim - 1), st.integers(0, dim - 1)),
        max_size=6,
    ))
    stored = t.constants_dict()
    want = reference_contract(stored, dim, t.zero, terms)
    tuple_want = reference_contract(
        {key: as_tuple(names, c) for key, c in stored.items()}, dim, TuplePoly(names),
        [(as_tuple(names, c), i, j) for c, i, j in terms],
    )
    assert_same(t.contract(terms), want, tuple_want)


@UNIVERSES
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_mat_mul_matches_per_product_loop(names, data):
    r, c, s = (data.draw(st.integers(1, 4)) for _ in range(3))
    a = [[data.draw(polys(names)) for _ in range(c)] for _ in range(r)]
    b = [[data.draw(polys(names)) for _ in range(s)] for _ in range(c)]
    got = linalg.mat_mul(a, b)
    want = reference_mat_mul(a, b)
    tuple_want = reference_mat_mul(
        [[as_tuple(names, x) for x in row] for row in a],
        [[as_tuple(names, x) for x in row] for row in b],
    )
    for got_row, want_row, tuple_row in zip(got, want, tuple_want, strict=True):
        assert_same(got_row, want_row, tuple_row)


@UNIVERSES
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_mat_vec_matches_an_accumulation(names, data):
    r, c = (data.draw(st.integers(1, 4)) for _ in range(2))
    a = [[data.draw(polys(names)) for _ in range(c)] for _ in range(r)]
    v = [data.draw(polys(names)) for _ in range(c)]
    want = []
    for row in a:
        acc = row[0] * v[0]
        for x, y in zip(row[1:], v[1:]):
            acc = acc + x * y
        want.append(acc)
    got = linalg.mat_vec(a, v)
    assert got == want
    assert [str(p) for p in got] == [str(p) for p in want]
    assert all(normalised(p) for p in got)


def test_products_past_the_degree_bound_raise():
    x = PolyQ.var(NARROW, "u")
    t = StructTensor(2, {(0, 0, 1): x**200}, zero=PolyQ.zero(NARROW))
    assert t.contract([(x**55, 0, 0)])[1].degree() == MAX_DEGREE
    with pytest.raises(PolyError):
        t.contract([(x**56, 0, 0)])
    with pytest.raises(PolyError):
        linalg.mat_mul([[x**200]], [[x**56]])
    # the bound is read before cancelled keys go, so products that would cancel still raise
    with pytest.raises(PolyError):
        linalg.mat_mul([[x**200, -(x**200)]], [[x**56], [x**56]])


def test_mixed_universes_raise():
    x, other = PolyQ.var(NARROW, "u"), PolyQ.var(("p", "q"), "p")
    t = StructTensor(2, {(0, 0, 1): x}, zero=PolyQ.zero(NARROW))
    for coeff in (other, PolyQ.zero(("p", "q"))):
        with pytest.raises(PolyError):
            t.contract([(coeff, 0, 0)])
    with pytest.raises(PolyError):
        linalg.mat_mul([[x, other]], [[x], [x]])
    with pytest.raises(PolyError):
        linalg.mat_mul([[PolyQ.zero(NARROW)]], [[other]])


def test_readers_return_fractions():
    u, v = PolyQ.var(NARROW, "u"), PolyQ.var(NARROW, "v")
    p = 3 * u - 2 * v + 5
    assert all(type(c) is int for c in p.terms.values())
    const, coeffs = p.as_linear()
    assert type(const) is Fraction and all(type(c) is Fraction for c in coeffs.values())
    assert type(1 / p.as_linear()[1]["u"]) is Fraction
    assert 1 / p.as_linear()[1]["u"] == Fraction(1, 3)
    assert all(type(c) is Fraction for _, c in p.sorted_terms())
    assert type(PolyQ.const(NARROW, 4).constant_value()) is Fraction
    assert type(PolyQ.zero(NARROW).constant_value()) is Fraction
    _, uni = univariate_coefficients(3 * u**2 + 1)
    assert uni == [1, 0, 3] and all(type(c) is Fraction for c in uni)


def test_integral_fractions_are_stored_as_ints():
    x = PolyQ.var(NARROW, "u")
    y = x * Fraction(1, 2) * 2
    assert y == x and hash(y) == hash(x) and str(y) == "u"
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    for p in (y, x * Fraction(1, 2) + x * Fraction(1, 2), PolyQ(NARROW, {(1, 0, 0): Fraction(4, 2)}),
              PolyQ.const(NARROW, Fraction(6, 3)), (x**2).substitute({"u": Fraction(1, 2)}) * 4):
        assert normalised(p) and all(type(c) is int for c in p.terms.values())
    half = x * Fraction(1, 2)
    assert type(half.terms[next(iter(half.terms))]) is Fraction and str(half) == "1/2*u"


def test_jacobi_pass_makes_no_fraction_products(monkeypatch):
    pa = parametric_extension(2, 2)
    calls = []
    for method in ("__mul__", "__rmul__"):
        original = getattr(Fraction, method)

        def counting(self, other, original=original):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(Fraction, method, counting)
    assert jacobi_residual_system(pa)
    assert calls == []


class TestInPlaceNormalisation:
    u, v = PolyQ.var(NARROW, "u"), PolyQ.var(NARROW, "v")

    def test_integral_fractions_come_back_as_ints(self):
        half = Fraction(1, 2)
        for got in (
            (self.u * half) * (self.v * 2),
            linalg.mat_mul([[self.u * half, self.u * half]], [[self.v], [self.v]])[0][0],
        ):
            assert got == self.u * self.v and type(got.terms[next(iter(got.terms))]) is int

    def test_cancelled_terms_are_dropped(self):
        got = linalg.mat_mul([[self.u, self.u, 1]], [[self.v], [-self.v], [self.u]])[0][0]
        assert got == self.u and len(got.terms) == 1
        zero = linalg.mat_mul([[self.u * Fraction(1, 3), self.u]], [[self.v], [-self.v * Fraction(1, 3)]])
        assert zero[0][0].is_zero() and zero[0][0].terms == {}

    def test_a_sum_that_stays_fractional_keeps_its_fraction(self):
        got = linalg.mat_mul([[self.u * Fraction(1, 2), self.u * Fraction(1, 3)]], [[self.v], [self.v]])
        (coeff,) = got[0][0].terms.values()
        assert coeff == Fraction(5, 6) and type(coeff) is Fraction and normalised(got[0][0])


def random_poly_tensor(seed: int, dim: int = 3) -> StructTensor:
    rng = random.Random(seed)
    constants = {}
    for ijk in product(range(dim), repeat=3):
        if rng.random() < 0.6:
            terms = {
                tuple(rng.randint(0, 2) for _ in NARROW): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))
            }
            constants[ijk] = PolyQ(NARROW, terms)
    return StructTensor(dim, constants, zero=PolyQ.zero(NARROW))


@pytest.mark.parametrize("make", [
    lambda: gamma_eliminate(parametric_extension(1, 2)).tensor, lambda: random_poly_tensor(17),
], ids=["cascade_1_2", "random"])
def test_jacobi_vector_is_the_negated_leibniz_residual(make):
    t = make()
    for ijk in product(range(t.dim), repeat=3):
        got, want = jacobi_vector(t, *ijk), [-p for p in t.leibniz_residual(*ijk)]
        assert got == want and all(normalised(p) for p in got)
