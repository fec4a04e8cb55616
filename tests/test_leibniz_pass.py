"""The one Leibniz-residual pass for PolyQ tensors (StructTensor._residuals).

With N(i,j,k) = [e_i,[e_j,e_k]] the residual of (i, j, k) is
N(i,j,k) - N(j,i,k) - [[e_i,e_j],e_k], so the pass forms each product of
N(i,j,k) once for (i, j, k) and (j, i, k), and none at i = j, where the two
N terms cancel.  It is compared with the dense reference loops
(tests/reference_kernel.py::DenseTensor.leibniz_residual) and with
contract's per-triple residual (the public leibniz_residual), on every
tensor the cascade binds at (2, 2), (2, 3) on both branches and (3, 4), and
on hypothesis tensors with Fraction coefficients and degree-2 entries, whose
products reach keys of degree >= 3.  The cascade's report lists come out
once per asked-for triple, in the order asked for.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenleib import poly
from heisenleib.algebra import StructTensor
from heisenleib.constraints import (
    ConstraintReport,
    apply_bindings,
    jacobi_residual_system,
    parametric_extension,
    run_cascade,
    triple_label,
)
from heisenleib.poly import MAX_DEGREE, PolyError, PolyQ

from reference_kernel import DenseTensor

NARROW = ("u", "v", "w")
WIDE = tuple(f"x{i}" for i in range(40))


def nonzero(vec) -> tuple:
    return tuple((p, q) for p, q in enumerate(vec) if not q.is_zero())


def assert_matches_references(t: StructTensor, triples=None) -> None:
    dense = DenseTensor(t)
    got = list(t._residuals(triples))
    want = list(product(range(t.dim), repeat=3)) if triples is None else list(triples)
    assert [ijk for ijk, _ in got] == want
    for ijk, parts in got:
        assert parts == nonzero(dense.leibniz_residual(*ijk)) == nonzero(t.leibniz_residual(*ijk))
        assert all(type(c) is int or c.denominator != 1 for _, q in parts for c in q.terms.values())


def stage_tensors(n: int, f: int, branch: int) -> list:
    """The generic tensor and the tensor after each binding step of the cascade."""
    result = run_cascade(n, f, branch)
    pa = parametric_extension(n, f)
    tensors = [pa.tensor]
    for stage, bindings in result.pa.applied:
        pa = apply_bindings(pa, stage, bindings)
        tensors.append(pa.tensor)
    assert tensors[-1] == result.pa.tensor
    return tensors


@pytest.mark.parametrize("n, f, branch", [(2, 2, 1), (2, 3, 1), (2, 3, 0), (3, 4, 1)])
def test_every_cascade_tensor_matches_the_references(n, f, branch):
    for t in stage_tensors(n, f, branch):
        assert_matches_references(t)


@st.composite
def polys(draw, names):
    """A PolyQ of degree <= 2 with Fraction coefficients, zero about a quarter of the time."""
    terms = {}
    if draw(st.integers(0, 3)):
        for _ in range(draw(st.integers(1, 3))):
            exp = [0] * len(names)
            for i in draw(st.lists(st.integers(0, len(names) - 1), max_size=2)):
                exp[i] += 1
            terms[tuple(exp)] = draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
    return PolyQ(names, terms)


@st.composite
def tensors(draw, names):
    dim = draw(st.integers(1, 4))
    keys = st.tuples(*[st.integers(0, dim - 1)] * 3)
    constants = draw(st.dictionaries(keys, polys(names), max_size=3 * dim * dim))
    return StructTensor(dim, constants, zero=PolyQ.zero(names))


@pytest.mark.parametrize("names", [NARROW, WIDE], ids=["width3", "width40"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_random_tensors_match_the_references(names, data):
    t = data.draw(tensors(names))
    assert_matches_references(t)
    # triples with and without their (j, i, k) partner, repeated and in any order
    index = st.integers(0, t.dim - 1)
    triples = data.draw(st.lists(st.tuples(index, index, index), max_size=12))
    assert_matches_references(t, triples + triples[::-1])


def random_tensor(seed: int, dim: int = 4) -> StructTensor:
    rng = random.Random(seed)
    constants = {}
    for ijk in product(range(dim), repeat=3):
        if rng.random() < 0.5:
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exp = [0] * len(NARROW)
                for _ in range(rng.randint(0, 2)):
                    exp[rng.randrange(len(NARROW))] += 1
                terms[tuple(exp)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            constants[ijk] = PolyQ(NARROW, terms)
    return StructTensor(dim, constants, zero=PolyQ.zero(NARROW))


def test_degree_two_entries_reach_the_general_key_product(monkeypatch):
    calls = []
    product_of = poly._Layout.product

    def counting(self, k1, k2):
        calls.append(1)
        return product_of(self, k1, k2)

    t = random_tensor(5)
    monkeypatch.setattr(poly._Layout, "product", counting)
    list(t._residuals())
    assert calls
    assert_matches_references(t)


def test_each_nested_bracket_is_formed_once_and_none_at_i_equals_j(monkeypatch):
    t = random_tensor(11)
    formed = []
    add = poly._ProductSums.add

    def counting(self, a, row, plus, minus):
        formed.append(len(a.terms) * sum(len(b.terms) for b in row.values()))
        return add(self, a, row, plus, minus)

    monkeypatch.setattr(poly._ProductSums, "add", counting)
    constants = t.constants_dict()

    def products(x, y, inner):
        # term products of sum_m c_xy^m [inner(m)], inner(m) a pair (a, b)
        return sum(len(constants[(x, y, m)].terms) * len(constants[(*inner(m), p)].terms)
                   for m in range(t.dim) if (x, y, m) in constants
                   for p in range(t.dim) if (*inner(m), p) in constants)

    rng = range(t.dim)
    outer = sum(products(i, j, lambda m, k=k: (m, k)) for i, j, k in product(rng, repeat=3))
    nested = sum(products(j, k, lambda m, i=i: (i, m)) for i, j, k in product(rng, repeat=3))
    same_i_j = sum(products(i, k, lambda m, i=i: (i, m)) for i, k in product(rng, repeat=2))
    list(t._residuals())
    # each N(i,j,k) with i != j once, beside every [[e_i,e_j],e_k]
    assert sum(formed) == outer + nested - same_i_j
    formed.clear()
    list(t._residuals([(i, i, k) for i, k in product(rng, repeat=2)]))
    assert sum(formed) == sum(products(i, i, lambda m, k=k: (m, k)) for i, k in product(rng, repeat=2))


def reference_reports(pa, triples) -> list:
    """jacobi_residual_system as one contract per triple, in the order given."""
    t, labels = pa.tensor, pa.tensor.basis_labels
    reports = []
    for ijk in triples:
        polys = tuple((labels[p], -q) for p, q in nonzero(t.leibniz_residual(*ijk)))
        if polys:
            reports.append(ConstraintReport("jacobi " + triple_label(pa, *ijk), polys))
    return reports


def test_reports_come_once_per_asked_for_triple_in_the_order_asked():
    pa = parametric_extension(1, 2)
    t = pa.tensor
    rng = random.Random(3)
    everything = list(product(range(t.dim), repeat=3))
    assert jacobi_residual_system(pa) == reference_reports(pa, everything)
    nonzero_triples = [ijk for ijk in everything if nonzero(t.leibniz_residual(*ijk))]
    for _ in range(5):
        triples = rng.sample(everything, 30) + rng.sample(nonzero_triples, 6) * 2
        rng.shuffle(triples)
        assert jacobi_residual_system(pa, triples) == reference_reports(pa, triples)
    i, j, k = nonzero_triples[0]
    for triples in ([(i, j, k)], [(j, i, k)], [(i, j, k), (j, i, k)], [(j, i, k), (i, j, k)] * 2,
                    [(i, i, k), (i, i, k)]):
        assert jacobi_residual_system(pa, triples) == reference_reports(pa, triples)


class TestErrors:
    x = PolyQ.var(NARROW, "u")

    @pytest.mark.parametrize("bad", [(0, 0, 2), (2, 0, 0), (0, -1, 0)])
    def test_an_index_out_of_range_raises(self, bad):
        t = StructTensor(2, {(0, 1, 1): self.x}, zero=PolyQ.zero(NARROW))
        with pytest.raises(IndexError):
            list(t._residuals([(0, 1, 1), bad]))
        with pytest.raises(IndexError):
            t.leibniz_residual(*bad)

    def test_a_factor_from_another_universe_raises_as_before(self):
        other = PolyQ.var(("p", "q"), "p")
        t = StructTensor(2, {(0, 1, 1): self.x, (1, 1, 0): other}, zero=PolyQ.zero(NARROW))
        with pytest.raises(PolyError) as before:
            t.leibniz_residual(0, 1, 1)
        with pytest.raises(PolyError) as now:
            list(t._residuals([(0, 1, 1)]))
        assert str(now.value) == str(before.value) == "polynomials from different indeterminate universes"
        assert type(now.value) is type(before.value)
        with pytest.raises(PolyError):
            t.leibniz_defects()

    @staticmethod
    def tensor(top: int) -> StructTensor:
        # the products of c_01^2 = x^200 and c_22^0 = x^top have degree 200 + top
        return StructTensor(3, {(0, 1, 2): PolyQ.var(NARROW, "u") ** 200,
                                (2, 2, 0): PolyQ.var(NARROW, "u") ** top}, zero=PolyQ.zero(NARROW))

    @pytest.mark.parametrize("triple", [(0, 1, 2), (2, 0, 1), (2, 2, 1)])
    def test_a_product_past_the_degree_bound_raises(self, triple):
        t = self.tensor(56)
        with pytest.raises(PolyError, match="product degree exceeds the bound"):
            t.leibniz_residual(*triple)
        with pytest.raises(PolyError, match="product degree exceeds the bound"):
            list(t._residuals([triple]))

    def test_products_at_the_bound_are_kept(self):
        t = self.tensor(MAX_DEGREE - 200)
        assert_matches_references(t)
        assert max(q.degree() for _, parts in t._residuals() for _, q in parts) == MAX_DEGREE

    def test_the_nested_brackets_at_i_equals_j_are_never_formed(self):
        # [e_0,[e_0,e_1]] holds c_01^1 * c_01^1 = x^400, which cancels in the residual
        t = StructTensor(2, {(0, 1, 1): self.x**200}, zero=PolyQ.zero(NARROW))
        with pytest.raises(PolyError):
            t.leibniz_residual(0, 0, 1)
        assert list(t._residuals([(0, 0, 1)])) == [((0, 0, 1), ())]
