"""Differential tests: the sparse contraction behind StructTensor, and the
integer-backed Leibniz check, against the dense reference loops of
reference_kernel.py, on every catalog entry and on generated tensors over
Q, Q(i), Q(sqrt 2) and Q(sqrt 5) in seeded random bases."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heisenleib import linalg
from heisenleib.algebra import StructTensor, change_basis
from heisenleib.catalog import build_entry, catalog_entries, entry_parameter_grid, get_entry
from heisenleib.heisenberg import ExtensionSpec, build_extension
from heisenleib.scalars import Scalar

from reference_kernel import DenseTensor

FIELDS = [None, -1, 2, 5]  # d of Q(sqrt d); None is Q


def random_scalar(rng, d):
    b = rng.randint(-2, 2) if d is not None else 0
    return Scalar(rng.randint(-3, 3), b, d if b else None)


def random_invertible(rng, n, d):
    while True:
        p = [[random_scalar(rng, d) for _ in range(n)] for _ in range(n)]
        if not linalg.det(p).is_zero():
            return p


def assert_matches_reference(t, rng, d):
    ref = DenseTensor(t)
    n = t.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert t.leibniz_residual(i, j, k) == ref.leibniz_residual(i, j, k)
    assert t.leibniz_defects() == ref.leibniz_defects()
    vectors = [t.unit_vector(i) for i in range(n)]
    vectors += [[random_scalar(rng, d) for _ in range(n)] for _ in range(2)]
    for x in vectors:
        assert t.left_mult_matrix(x) == ref.left_mult_matrix(x)
        assert t.right_mult_matrix(x) == ref.right_mult_matrix(x)
        for y in vectors:
            assert t.bracket(x, y) == ref.bracket(x, y)
    p = random_invertible(rng, n, d)
    assert DenseTensor(change_basis(t, p)).c == ref.change_basis(p)


CATALOG_IDS = sorted({entry.id for field in ("C", "R") for entry in catalog_entries(field)})


@pytest.mark.parametrize("entry_id", CATALOG_IDS)
def test_catalog_entries_match_reference(entry_id):
    for seed, point in enumerate(entry_parameter_grid(get_entry(entry_id))):
        assert_matches_reference(build_entry(entry_id, point), random.Random(seed), -1)


def tensors(d):
    def build(dim, items):
        constants = {key: Scalar(a, b, d if b else None) for key, (a, b) in items.items()}
        return StructTensor(dim, constants)

    # small integers, and p/q with q up to 10^6 so that clearing the
    # denominators scales by a large lcm
    coeff = st.integers(-3, 3) | st.builds(
        Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)
    )
    entry = st.tuples(coeff, coeff if d is not None else st.just(0))
    return st.integers(2, 4).flatmap(
        lambda dim: st.builds(
            build,
            st.just(dim),
            st.dictionaries(st.tuples(*[st.integers(0, dim - 1)] * 3), entry, max_size=12),
        )
    )


@pytest.mark.parametrize("d", FIELDS)
@given(data=st.data(), seed=st.integers(0, 2**32))
@settings(max_examples=12, deadline=None)
def test_generated_tensors_in_random_bases_match_reference(d, data, seed):
    rng = random.Random(seed)
    t = data.draw(tensors(d))
    moved = change_basis(t, random_invertible(rng, t.dim, d))
    assert_matches_reference(moved, rng, d)


def large_denominator_basis(rng, n, d):
    """A triangular basis change: p/q on the diagonal and p/q + r/s*sqrt(d)
    in the first row, with q and s up to 10^6."""

    def entry(quadratic):
        a = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        if not quadratic or d is None:
            return Scalar(a)
        return Scalar(a, Fraction(rng.randint(1, 9), rng.randint(1, 10**6)), d)

    return [[entry(j > 0) if i == 0 else entry(False) if i == j else Scalar.zero()
             for j in range(n)]
            for i in range(n)]


@pytest.mark.parametrize("d", FIELDS)
def test_large_denominators_keep_leibniz(d):
    # constants with denominators far past 10^6 after the basis change:
    # clearing them must neither create nor hide a defect
    rng = random.Random(d)
    for entry_id in ("H1a0C-r1", "H2a1C"):
        t = build_entry(entry_id)
        moved = change_basis(t, large_denominator_basis(rng, t.dim, d))
        values = moved.constants_dict().values()
        assert max(v.a.denominator for v in values) > 10**6
        assert {v.d for v in values} == {None} | {d}
        assert moved.leibniz_defects() == DenseTensor(moved).leibniz_defects() == []
        broken = StructTensor(t.dim, {**moved.constants_dict(), (0, 0, 0): Scalar(Fraction(1, 999983))})
        assert broken.leibniz_defects() == DenseTensor(broken).leibniz_defects() != []


@pytest.mark.parametrize("d", [-1, 2, 5])
def test_defects_in_the_sqrt_part_only(d):
    # every nonzero residual component is a pure multiple of sqrt(d)
    t = StructTensor(2, {(0, 1, 1): Scalar.one(), (1, 1, 0): Scalar.sqrt_d(d)})
    assert t.leibniz_defects() == DenseTensor(t).leibniz_defects() == [(0, 1, 1), (1, 0, 1), (1, 1, 1)]


def test_defects_memo():
    t = build_entry("H1a0C-r1")
    assert t.leibniz_defects() == []
    # the memo is not inherited by a tensor made from a checked one
    perturbed = t.map_entries(lambda v: v + 3)
    first = perturbed.leibniz_defects()
    assert first and first == DenseTensor(perturbed).leibniz_defects()
    assert perturbed.map_entries(lambda v: v - 3) == t
    assert perturbed.map_entries(lambda v: v - 3).leibniz_defects() == []
    moved = change_basis(perturbed, random_invertible(random.Random(0), t.dim, -1))
    assert moved.leibniz_defects() == DenseTensor(moved).leibniz_defects()
    # each call returns a fresh list: mutating one does not reach the next
    first.clear()
    first.append((0, 0, 0))
    assert perturbed.leibniz_defects() == DenseTensor(perturbed).leibniz_defects()


def h2n2f_diag():
    """The dim-7 extension n = 2, f = 2, a = (1, 0), X1 = diag(1, 0, -1, 0),
    X2 = diag(0, 1, 0, -1)."""
    x1 = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]]
    x2 = [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]]
    return build_extension(ExtensionSpec.make(2, 2, [1, 0], [x1, x2]))


def test_integer_check_makes_no_scalar_products(monkeypatch):
    moved = change_basis(h2n2f_diag(), random_invertible(random.Random(7), 7, -1))
    assert any(v.d == -1 for v in moved.constants_dict().values())
    calls = []
    original = Scalar.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting)
    monkeypatch.setattr(Scalar, "__rmul__", counting)
    assert moved.leibniz_defects() == []
    assert calls == []
