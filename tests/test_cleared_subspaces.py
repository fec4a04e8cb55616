"""Differential tests of the cleared subspace form and of containment read
off the generating brackets.

A Subspace holds its RREF as (d, den, rows) of integers, with the Scalar
rows built only when read.  Every public reading of it (equality and the
hash, rows, repr, dim, contains, is_contained_in, sum) is compared with
the Scalar Gauss-Jordan reference, reference_rref, over Q, Q(i), Q(sqrt 2),
Q(sqrt 5) and Q(sqrt -3): pivots of negative norm, rational subspaces met by
quadratic vectors, zero and full subspaces, and rows of length 0.

Then the closure checks and certify's [L, L] in N, which test each
generating bracket for membership, are compared with eliminating each span
first (reference_closure_by_elimination): at every catalog point, on
random-basis images over Q and Q(i), and on subspaces that make each flag
False.
"""

import random
from dataclasses import FrozenInstanceError

import pytest

from heisenleib import linalg
from heisenleib.algebra import (
    StructTensor,
    Subspace,
    bracket_span,
    bracket_span_within,
    center,
    change_basis,
    derived_series,
    left_annihilator,
    subspace_closure_checks,
)
from heisenleib.catalog import build_entry, catalog_entries, entry_parameter_grid
from heisenleib.certify import certify_nilradical
from heisenleib.heisenberg import heisenberg_subspace
from heisenleib.linalg import ShapeError
from heisenleib.scalars import Scalar

from reference_kernel import (
    reference_closure_by_elimination,
    reference_contains_by_rank,
    reference_span_rows,
    vec_add,
)
from test_reference_kernel import CATALOG_IDS, random_invertible, random_matrix, random_scalar

SUBSPACE_FIELDS = [None, -1, 2, 5, -3]  # d of Q(sqrt d); None is Q


def assert_matches_reference(w, vectors):
    """Every reading of w = span(vectors) against reference_rref."""
    n = w.ambient_dim
    rows = reference_span_rows(vectors)
    assert w.rows == rows
    assert w.dim == len(rows)
    assert w.basis_vectors() == [list(row) for row in rows]
    assert repr(w) == f"Subspace(ambient_dim={n!r}, rows={rows!r})"
    rebuilt = Subspace(n, rows)
    assert w == rebuilt and hash(w) == hash(rebuilt)


def members_and_strangers(rng, w, d):
    """Random combinations of w's rows, a random vector, the zero vector,
    and each combination moved off w."""
    n = w.ambient_dim
    members = []
    for _ in range(3):
        v = [Scalar.zero()] * n
        for row in w.rows:
            c = random_scalar(rng, d)
            v = vec_add(v, [c * x for x in row])
        members.append(v)
    others = [[random_scalar(rng, d) for _ in range(n)], [Scalar.zero()] * n]
    for v in members:
        moved = list(v)
        j = rng.randrange(n)
        moved[j] = moved[j] + (Scalar(1, 1, d) if d else 1)
        others.append(moved)
    return members, others


@pytest.mark.parametrize("d", SUBSPACE_FIELDS)
def test_cleared_subspaces_match_scalar_rref(d):
    rng = random.Random(f"cleared subspaces over {d}")
    for _ in range(30):
        n = rng.randint(1, 6)
        spans = [random_matrix(rng, d, rng.randint(1, n + 1), n) for _ in range(3)]
        spaces = [Subspace.span(vs, n) for vs in spans]
        for w, vs in zip(spaces, spans):
            assert_matches_reference(w, vs)
            members, others = members_and_strangers(rng, w, d)
            for v in members:
                assert w.contains(v)
            for v in members + others:
                assert w.contains(v) == reference_contains_by_rank(w, v)
            # the same space from other generators is equal, with one hash
            same = Subspace.span(members + w.basis_vectors()[::-1], n)
            assert same == w and hash(same) == hash(w)
        for a, vs_a in zip(spaces, spans):
            for b, vs_b in zip(spaces, spans):
                assert (a == b) == (reference_span_rows(vs_a) == reference_span_rows(vs_b))
                assert a.is_contained_in(b) == all(
                    reference_contains_by_rank(b, row) for row in a.rows
                )
                total = a.sum(b)
                assert_matches_reference(total, vs_a + vs_b)
                assert a.is_contained_in(total) and b.is_contained_in(total)


NEGATIVE_NORM = {2: Scalar(1, 1, 2), 5: Scalar(2, 1, 5)}  # N(1 + sqrt 2) = N(2 + sqrt 5) = -1


@pytest.mark.parametrize("d", sorted(NEGATIVE_NORM))
def test_last_pivot_of_negative_norm(d):
    u, one, zero = NEGATIVE_NORM[d], Scalar.one(), Scalar.zero()
    cases = [
        [[u, one]],
        [[u, one, zero], [zero, u, one]],
        [[zero, u, u * u], [u, one, zero], [one, zero, u]],
    ]
    for vectors in cases:
        n = len(vectors[0])
        w = Subspace.span(vectors, n)
        assert_matches_reference(w, vectors)
        for v in vectors:
            assert w.contains([x * u for x in v])


@pytest.mark.parametrize("d", [-1, 2, 5, -3])
def test_rational_subspace_met_by_quadratic_vectors(d):
    rng = random.Random(f"rational subspace over {d}")
    for _ in range(30):
        n = rng.randint(1, 6)
        vectors = random_matrix(rng, None, rng.randint(1, n), n)
        w = Subspace.span(vectors, n)
        assert_matches_reference(w, vectors)
        # a + b sqrt(d) with a, b in W lies in W; moving b off W does not
        a, b = members_and_strangers(rng, w, None)[0][:2]
        sqrt = Scalar.sqrt_d(d)
        v = vec_add(a, [sqrt * x for x in b])
        assert w.contains(v) and reference_contains_by_rank(w, v)
        for outside in members_and_strangers(rng, w, None)[1]:
            moved = vec_add(a, [sqrt * x for x in outside])
            assert w.contains(moved) == reference_contains_by_rank(w, moved)
        quadratic = Subspace.span(random_matrix(rng, d, rng.randint(1, n), n), n)
        assert w.is_contained_in(quadratic) == all(
            reference_contains_by_rank(quadratic, row) for row in w.rows
        )
        assert quadratic.is_contained_in(w) == all(
            reference_contains_by_rank(w, row) for row in quadratic.rows
        )
        assert_matches_reference(w.sum(quadratic), w.basis_vectors() + quadratic.basis_vectors())


@pytest.mark.parametrize("d", SUBSPACE_FIELDS)
def test_zero_and_full_subspaces(d):
    rng = random.Random(f"zero and full over {d}")
    for n in range(1, 6):
        zero, full = Subspace.zero(n), Subspace.full(n)
        assert_matches_reference(zero, [[Scalar.zero()] * n])
        assert_matches_reference(full, linalg.identity(n))
        assert zero == Subspace.span([], n) == Subspace(n, ())
        assert full == Subspace.span(random_invertible(rng, n, d), n)
        v = [random_scalar(rng, d) for _ in range(n)]
        assert full.contains(v)
        assert zero.contains(v) == all(x.is_zero() for x in v)
        w = Subspace.span(random_matrix(rng, d, n, n), n)
        assert zero.is_contained_in(w) and w.is_contained_in(full)
        assert w.sum(zero) == w and w.sum(full) == full


def test_rows_of_length_zero():
    spaces = [Subspace.zero(0), Subspace.full(0), Subspace(0, ()), Subspace.span([], 0),
              Subspace.span([[], []], 0)]
    for w in spaces:
        assert w == spaces[0] and hash(w) == hash(spaces[0])
        assert w.rows == () and w.dim == 0 and w.basis_vectors() == []
        assert repr(w) == "Subspace(ambient_dim=0, rows=())"
        assert w.contains([]) and w.is_contained_in(spaces[0])
        assert w.sum(spaces[0]) == w
    with pytest.raises(ShapeError):
        spaces[0].contains([Scalar.one()])


def test_subspace_keeps_its_public_shape():
    one, zero = Scalar.one(), Scalar.zero()
    rows = ((one, zero, Scalar(2)),)
    w = Subspace(ambient_dim=3, rows=rows)
    assert w == Subspace(3, rows) and w.ambient_dim == 3 and w.rows == rows
    with pytest.raises(FrozenInstanceError):
        w.ambient_dim = 4
    with pytest.raises(FrozenInstanceError):
        w.rows = ()
    assert w != Subspace(4, ((one, zero, Scalar(2), zero),))
    assert w != rows and {w: 1}[Subspace.span([[Scalar(2), zero, Scalar(4)]], 3)] == 1
    with pytest.raises(ShapeError):
        w.contains([one, zero])
    with pytest.raises(ShapeError):
        w.is_contained_in(Subspace.full(4))
    with pytest.raises(ShapeError):
        w.sum(Subspace.full(4))


def test_constructor_refuses_rows_that_are_no_rref():
    one, zero, root = Scalar.one(), Scalar.zero(), Scalar.sqrt_d(2)
    refused = [
        # a basis of F^2 that is no RREF: it was read as dim 2 without (0, 1)
        (linalg.svec((1, 1)), linalg.svec((1, 0))),
        # a zero row, which raised a bare StopIteration
        (linalg.svec((0, 0)),),
        (linalg.svec((1, 0)), linalg.svec((0, 0))),
        # a pivot that is not 1: it was not equal to the span of (1, 0)
        (linalg.svec((2, 0)),),
        (linalg.svec((0, 1)), linalg.svec((1, 0))),
        (linalg.svec((1, 1)), linalg.svec((0, 1))),
        ((root, one),),
        ((one, root), (zero, one)),
        ((one, zero), (one + root, zero)),
    ]
    for rows in refused:
        with pytest.raises(ValueError):
            Subspace(2, rows)
    # rows of another length, which were kept and raised IndexError when read
    for n, rows in ((3, (linalg.svec((1, 0)),)), (1, (linalg.svec((1, 0)),))):
        with pytest.raises(ShapeError):
            Subspace(n, rows)
    kept = [(), ((one, root),), ((zero, one),), ((one, zero), (zero, one)),
            ((one, Scalar.rational(1, 2) * root),)]
    for rows in kept:
        w = Subspace(2, rows)
        assert w.rows == rows and w == Subspace.span(rows, 2)
    assert Subspace(2, kept[3]) == Subspace.full(2) and Subspace(2, kept[3]).contains([zero, one])
    assert heisenberg_subspace(2, 1) == Subspace.span(heisenberg_subspace(2, 1).rows, 6)


# -- containment read off the generating brackets ------------------------------


def assert_closure_matches_reference(t, w):
    checks, derived_in_w = reference_closure_by_elimination(t, w)
    assert subspace_closure_checks(t, w) == checks
    if w.dim >= 3 and w.dim % 2 == 1 and w.dim < t.dim:
        assert certify_nilradical(t, w).contains_derived == derived_in_w
    return checks, derived_in_w


CATALOG_POINTS = [
    (entry.id, point)
    for field in ("C", "R")
    for entry in catalog_entries(field)
    for point in entry_parameter_grid(entry)
]


@pytest.mark.parametrize("entry_id, point", CATALOG_POINTS)
def test_closure_at_every_catalog_point(entry_id, point):
    t = build_entry(entry_id, point)
    entry = next(e for f in ("C", "R") for e in catalog_entries(f) if e.id == entry_id)
    n_subspace = heisenberg_subspace(entry.n, entry.f)
    checks, derived_in_n = assert_closure_matches_reference(t, n_subspace)
    assert checks.is_two_sided_ideal and derived_in_n
    for w in derived_series(t) + [left_annihilator(t), center(t), Subspace.full(t.dim)]:
        assert_closure_matches_reference(t, w)


@pytest.mark.parametrize("entry_id", CATALOG_IDS)
@pytest.mark.parametrize("d", [None, -1])
def test_closure_on_random_basis_images(entry_id, d):
    t = build_entry(entry_id)
    rng = random.Random(f"membership closure {entry_id} {d}")
    p = random_invertible(rng, t.dim, d)
    moved = change_basis(t, p)
    e = dict(zip(t.basis_labels, linalg.identity(t.dim)))
    nil = [e["H"]] + [e[label] for label in t.basis_labels if label[0] in "PB"]
    spans = [nil, nil[1:], [e["S1"], e["H"]], [e["P1"], e["B1"]]]
    spans += [random_matrix(rng, d, k, t.dim) for k in (1, 3)]
    for vs in spans:
        w = Subspace.span([linalg.mat_vec(p, v) for v in vs], t.dim)
        assert_closure_matches_reference(moved, w)
    bracket = bracket_span(moved, Subspace.full(t.dim), Subspace.full(t.dim))
    assert_closure_matches_reference(moved, bracket)


def test_each_flag_false():
    one, zero = Scalar.one(), Scalar.zero()
    # [e0, e1] = e1 alone: span(e1) is a left ideal ([e0, e1] = e1, [e1, L] = 0)
    # and two-sided; span(e0) is a subalgebra and a left ideal ([L, e0] = 0),
    # not a right one ([e0, e1] = e1)
    t = StructTensor(2, {(0, 1, 1): one})
    left_only = Subspace.span([[one, zero]], 2)
    checks, _ = assert_closure_matches_reference(t, left_only)
    assert checks.is_subalgebra and checks.is_left_ideal and not checks.is_two_sided_ideal

    # in H1a0C-r1, span(S1, H) is a subalgebra but not a left ideal, and
    # span(S1, P1, B1) misses [P1, B1] = H, so [L, L] is not in it
    t = build_entry("H1a0C-r1")
    e = dict(zip(t.basis_labels, linalg.identity(t.dim)))
    checks, _ = assert_closure_matches_reference(t, Subspace.span([e["S1"], e["H"]], t.dim))
    assert checks.is_subalgebra and not checks.is_left_ideal
    missing = Subspace.span([e["S1"], e["P1"], e["B1"]], t.dim)
    checks, derived_in_w = assert_closure_matches_reference(t, missing)
    assert not derived_in_w and not certify_nilradical(t, missing).contains_derived
    assert not checks.is_subalgebra
    with pytest.raises(ShapeError):
        bracket_span_within(t, Subspace.full(t.dim), Subspace.full(t.dim), Subspace.full(3))
