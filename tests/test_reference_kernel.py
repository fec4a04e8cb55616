"""Differential tests: the sparse contraction behind StructTensor against
the dense reference loops of reference_kernel.py, on every catalog entry
and on generated tensors over Q, Q(i) and Q(sqrt 2) in seeded random bases."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from heisenleib import linalg
from heisenleib.algebra import StructTensor, change_basis
from heisenleib.catalog import build_entry, catalog_entries, entry_parameter_grid, get_entry
from heisenleib.scalars import Scalar

from reference_kernel import DenseTensor

FIELDS = [None, -1, 2]  # d of Q(sqrt d); None is Q


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

    coeff = st.integers(-3, 3)
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
