"""Differential tests of the int-pair kernels against the ring-object loops
they replaced (reference_kernel.py): linalg._fraction_free on rows of
(rational, sqrt) int pairs against reference_fraction_free on elements of
the reference ring quadratic_integers(d), compared exactly in rows, pivot
columns, last pivot and sign of the row swaps (det reads the last two);
and algebra._view_bracket and bracket_span against the ring contraction
of the integer view (reference_ring_view).  Over Z[sqrt d] for d in -1, 2, 3, 5, -3 (and Z), with
tall matrices up to the 49 x 7 that bracket_span hands over at dim 7,
pivots of negative norm, entries past 2^200, zero and duplicate rows.
Then the exactness of the pair division, and the refusal of input that
mixes two fields before any kernel runs."""

import random
from fractions import Fraction

import pytest

from heisenleib import algebra, linalg
from heisenleib.algebra import (
    StructTensor,
    Subspace,
    _view_bracket,
    bracket_span,
    center,
    change_basis,
)
from heisenleib.heisenberg import ExtensionSpec, build_extension, heisenberg
from heisenleib.scalars import IncompatibleFieldError, InexactDivisionError, Scalar, integer_pairs

from reference_kernel import (
    clear_denominators,
    quadratic_integers,
    reference_bracket_span,
    reference_fraction_free,
    reference_ring_view,
    reference_view_bracket,
)

PAIR_FIELDS = [None, -1, 2, 3, 5, -3]  # d of Z[sqrt d]; None is Z
# elements of negative norm: N(1 + sqrt 2) = N(2 + sqrt 5) = -1, N(1 + sqrt 3) = -2
NEGATIVE_NORM = {2: (1, 1), 3: (1, 1), 5: (2, 1)}


def ring_entry(d, a, b):
    return a if d is None else quadratic_integers(d)(a, b)


def as_pairs(rows, d):
    """Rows of ring elements as the int pairs the pair kernel reads."""
    return [list(row) if d is None else [(x.a, x.b) for x in row] for row in rows]


def assert_fraction_free_matches_reference(rows, d):
    ncols = len(rows[0])
    got = linalg._fraction_free(as_pairs(rows, d), ncols, d)
    want_rows, want_pivots, want_last, want_sign = reference_fraction_free(
        [list(row) for row in rows], ncols
    )
    assert got[1] == want_pivots and got[3] == want_sign
    assert got[0] == as_pairs(want_rows, d)
    if want_last is not None and d is not None:
        want_last = (want_last.a, want_last.b)
    assert got[2] == want_last
    return got


def random_ring_rows(rng, d, nrows, ncols, bits=3):
    """Entries up to 2^bits in each part, about a third of them zero, plus
    a zero row and a duplicate row when there is room."""

    def entry():
        if rng.random() < 0.35:
            return ring_entry(d, 0, 0)
        top = 2**bits
        return ring_entry(d, rng.randint(-top, top), rng.randint(-top, top))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 2:
        rows[rng.randrange(nrows)] = [ring_entry(d, 0, 0)] * ncols
        rows[rng.randrange(nrows)] = list(rows[rng.randrange(nrows)])
    return rows


@pytest.mark.parametrize("d", PAIR_FIELDS)
def test_fraction_free_matches_ring_loop(d):
    rng = random.Random(f"pair elimination {d}")
    for _ in range(60):
        ncols = rng.randint(1, 8)
        assert_fraction_free_matches_reference(
            random_ring_rows(rng, d, rng.randint(1, 12), ncols), d
        )
    # the tall shape bracket_span hands over at dim 7
    for nrows in (7, 21, 49):
        assert_fraction_free_matches_reference(random_ring_rows(rng, d, nrows, 7), d)


@pytest.mark.parametrize("d", PAIR_FIELDS)
def test_fraction_free_matches_ring_loop_past_2_200(d):
    rng = random.Random(f"pair elimination, large {d}")
    for shape in ((3, 3), (5, 4), (7, 7), (12, 7)):
        rows = random_ring_rows(rng, d, *shape, bits=210)
        last = assert_fraction_free_matches_reference(rows, d)[2]
        assert max(abs(v) for v in ((last,) if d is None else last)) > 2**200


@pytest.mark.parametrize("d", sorted(NEGATIVE_NORM))
def test_fraction_free_divides_by_pivots_of_negative_norm(d):
    # rows scaled by powers of an element of negative norm, and that element
    # as the first pivot, which the second step divides by
    xa, xb = NEGATIVE_NORM[d]
    assert xa * xa - d * xb * xb < 0
    ring = quadratic_integers(d)
    x = ring(xa, xb)
    rng = random.Random(f"negative norm {d}")
    steps = 0
    for _ in range(20):
        n = rng.randint(2, 7)
        rows = []
        for i in range(n + rng.randint(0, 3)):
            scale = ring(1, 0)
            for _ in range(i % 3):
                scale = scale * x
            rows.append([scale * ring(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)])
        rows[0][0] = x
        steps += len(assert_fraction_free_matches_reference(rows, d)[1]) - 1
    assert steps > 20


@pytest.mark.parametrize("d", [-1, 2, 3, 5, -3])
def test_pair_division_is_exact_or_raises(d):
    # one Bareiss step: row 1 becomes (p*row_1 - f*row_0) / prev
    rows = [[(2, 0), (1, 1)], [(4, 2), (0, 2)]]
    linalg._pair_rows(rows, 0, 0, (2, 0), d)
    # 2*(2 sqrt d) - (4 + 2 sqrt d)(1 + sqrt d) = -(4 + 2d) - 6 sqrt d + 4 sqrt d, halved
    assert rows[1] == [(0, 0), (-2 - d, -1)]
    # 2*(1 + sqrt d) - 1 = 1 + 2 sqrt d is divisible by neither 2 nor 2 sqrt d
    for prev in ((2, 0), (0, 2)):
        with pytest.raises(InexactDivisionError):
            linalg._pair_rows([[(2, 0), (1, 0)], [(1, 0), (1, 1)]], 0, 0, prev, d)


def random_tensor(rng, n, d, density=0.5):
    constants = {}
    for key in ((i, j, k) for i in range(n) for j in range(n) for k in range(n)):
        if rng.random() < density:
            b = Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if d is not None else 0
            constants[key] = Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), b,
                                    d if b else None)
    return StructTensor(n, constants)


@pytest.mark.parametrize("d", PAIR_FIELDS)
def test_view_bracket_matches_ring_contraction(d):
    rng = random.Random(f"view bracket {d}")
    for _ in range(30):
        n = rng.randint(1, 7)
        # a rational tensor meeting quadratic vectors gets a view in Z[sqrt d]
        t = random_tensor(rng, n, d if rng.random() < 0.7 else None)
        vectors = [[Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
                           rng.randint(-2, 2) if d is not None else 0, d) if rng.random() < 0.7
                    else Scalar.zero() for _ in range(n)] for _ in range(3)]
        field, _, view = t._integer_view(*vectors)
        assert field in (d, None)
        ring_view = reference_ring_view(t, *vectors)[2]
        for u in vectors:
            for v in vectors:
                got = _view_bracket(view, field, integer_pairs(u, field)[1],
                                    integer_pairs(v, field)[1])
                want = reference_view_bracket(ring_view, clear_denominators(u, field)[1],
                                              clear_denominators(v, field)[1])
                assert got == as_pairs([want], field)[0]


def diag(*entries):
    return [[x if i == j else 0 for j, _ in enumerate(entries)] for i, x in enumerate(entries)]


def dim7_extension():
    """The n = 2, f = 2 extension with a = (1, 0), X1 = diag(1, 0, -1, 0)
    and X2 = diag(0, 1, 0, -1)."""
    return build_extension(
        ExtensionSpec.make(2, 2, [1, 0], [diag(1, 0, -1, 0), diag(0, 1, 0, -1)])
    )


def quadratic_basis(rng, n, d):
    while True:
        p = [[Scalar(rng.randint(-3, 3), rng.randint(-2, 2), d) if d is not None
              else Scalar(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if not linalg.det(p).is_zero():
            return p


@pytest.mark.parametrize("d", PAIR_FIELDS)
@pytest.mark.parametrize("source", ["H3", "H2n2f-diag"])
def test_bracket_span_matches_ring_reference_at_dim_7(source, d):
    rng = random.Random(f"bracket span {source} {d}")
    t = heisenberg(3) if source == "H3" else dim7_extension()
    assert t.dim == 7
    t = change_basis(t, quadratic_basis(rng, 7, d))
    full = Subspace.full(7)
    ll = bracket_span(t, full, full)
    spaces = [full, ll, bracket_span(t, full, ll), Subspace.zero(7)]
    for a in spaces:
        for b in spaces:
            assert bracket_span(t, a, b) == reference_bracket_span(t, a, b)


def two_field_inputs():
    """name: (call, whether it may eliminate a one-field matrix first)."""
    r2, r3, one, zero = Scalar.sqrt_d(2), Scalar.sqrt_d(3), Scalar.one(), Scalar.zero()
    mixed = [[r2, zero], [one, r3]]
    t2 = StructTensor(2, {(0, 1, 1): r2, (1, 0, 1): -r2})
    t_mixed = StructTensor(2, {(0, 1, 1): r2, (1, 0, 0): r3})
    w3 = Subspace(2, ((one, r3),))
    full = Subspace.full(2)
    # a sqrt(2) line met by sqrt(3) vectors: in a pivot column, beside the
    # sqrt(2) entry, and as the row of a subspace
    w2 = Subspace.span([[one, r2, zero]], 3)
    w3_line = Subspace.span([[r3, zero, one]], 3)
    return {
        "rank": (lambda: linalg.rank(mixed), False),
        "rref": (lambda: linalg.rref(mixed), False),
        "det": (lambda: linalg.det(mixed), False),
        "inverse": (lambda: linalg.inverse(mixed), False),
        "nullspace": (lambda: linalg.nullspace(mixed), False),
        "bracket_span": (lambda: bracket_span(t2, w3, w3), False),
        "bracket_span, mixed tensor": (lambda: bracket_span(t_mixed, full, full), False),
        "center": (lambda: center(t_mixed), False),
        "contains, pivot column": (lambda: w2.contains([r3, zero, zero]), False),
        "contains, non-pivot column": (lambda: w2.contains([zero, r3, zero]), False),
        "is_contained_in": (lambda: w3_line.is_contained_in(w2), False),
        "is_contained_in, reversed": (lambda: w2.is_contained_in(w3_line), False),
        "change_basis, mixed matrix": (lambda: change_basis(t2, mixed), False),
        # P = diag(sqrt 3, 1) is inverted over Q(sqrt 3) alone, and the
        # sqrt(2) tensor meets it at the integer view
        "change_basis": (lambda: change_basis(t2, [[r3, zero], [zero, one]]), True),
    }


@pytest.mark.parametrize("name", list(two_field_inputs()))
def test_two_fields_refused_before_any_kernel(name, monkeypatch):
    def kernel(*args, **kwargs):
        raise AssertionError("a pair kernel ran on input that mixes two fields")

    call, inverts_first = two_field_inputs()[name]
    if not inverts_first:
        monkeypatch.setattr(linalg, "_fraction_free", kernel)
        monkeypatch.setattr(linalg, "_pair_rows", kernel)
    monkeypatch.setattr(algebra, "_view_bracket", kernel)
    with pytest.raises(IncompatibleFieldError):
        call()
