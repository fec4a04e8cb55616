"""Tests of the two readers that moved onto (rational, sqrt) int pairs last:
linalg.matrix_nilpotent, which maps each entry a + b*sqrt(d) of a matrix
over Q(sqrt d) to the 2x2 int block ((a, d*b), (b, a)), and is_lie on the
tensor's integer view, which tests antisymmetry one part at a time.

matrix_nilpotent is compared with reference_matrix_nilpotent, the Scalar
power M^dim, over Q(i), Q(sqrt 2), Q(sqrt 3), Q(sqrt 5) and Q(sqrt -3) at
dims 1-6: conjugates P N P^-1 of a strictly upper triangular N of
nilpotency index exactly dim by a quadratic P, the same matrices with one
entry changed, and matrices whose entries have sqrt parts only.  is_lie
is compared with the antisymmetry of the Scalar constants on a tensor that
fails it only in the sqrt part, on catalog entries moved into Q(i),
Q(sqrt 2) and Q(sqrt -3) bases, and on rational tensors whose integer
view first met a quadratic vector.  The integer view itself holds only
ints or pairs of ints, and a rational view lifted to Q(sqrt d) is exactly
what integer_pairs clears the constants to over Q(sqrt d), with the same D.
"""

import random

import pytest

from heisenleib import linalg
from heisenleib.algebra import StructTensor, Subspace, bracket_span, change_basis
from heisenleib.catalog import build_entry
from heisenleib.certify import matrix_nilpotent
from heisenleib.heisenberg import heisenberg
from heisenleib.scalars import IncompatibleFieldError, Scalar, common_field, integer_pairs

from reference_kernel import mat_pow, reference_bracket_span, reference_matrix_nilpotent
from test_packed_leibniz import antisymmetric
from test_pair_kernels import random_tensor
from test_reference_kernel import CATALOG_IDS, random_invertible, random_scalar

NILPOTENCY_FIELDS = [-1, 2, 3, 5, -3]


def nonzero_scalar(rng, d):
    while True:
        x = random_scalar(rng, d)
        if not x.is_zero():
            return x


def full_index_conjugate(rng, n, d):
    """P N P^-1 for a quadratic P and a strictly upper triangular N whose
    superdiagonal has no zero, so that N^(n-1) != 0 = N^n."""
    nil = [[nonzero_scalar(rng, d) if j == i + 1 else random_scalar(rng, d) if j > i
            else Scalar.zero() for j in range(n)] for i in range(n)]
    p = random_invertible(rng, n, d)
    return linalg.mat_mul(linalg.mat_mul(p, nil), linalg.inverse(p))


def sqrt_only(rng, n, d, nilpotent):
    """A matrix whose entries are b*sqrt(d): sqrt(d) P N P^-1 for rational P
    and strictly upper triangular N, or random entries."""
    root = Scalar.sqrt_d(d)
    if nilpotent:
        m = full_index_conjugate(rng, n, None)
    else:
        m = [[random_scalar(rng, None) for _ in range(n)] for _ in range(n)]
    return [[root * x for x in row] for row in m]


def assert_nilpotency_matches_reference(m) -> bool:
    verdict = matrix_nilpotent(m)
    assert verdict == reference_matrix_nilpotent(m)
    return verdict


@pytest.mark.parametrize("d", NILPOTENCY_FIELDS)
def test_matrix_nilpotent_over_quadratic_fields(d):
    rng = random.Random(f"block nilpotency over {d}")
    changed = []
    for n in range(1, 7):
        for _ in range(3):
            m = full_index_conjugate(rng, n, d)
            assert n == 1 or any(x.d == d for row in m for x in row)
            # the index is exactly n, so the squaring has to reach M^n
            assert n == 1 or not linalg.is_zero_matrix(mat_pow(m, n - 1))
            assert assert_nilpotency_matches_reference(m)
            i, j = rng.randrange(n), rng.randrange(n)
            m[i][j] = m[i][j] + nonzero_scalar(rng, d)
            changed.append(assert_nilpotency_matches_reference(m))
    assert False in changed


@pytest.mark.parametrize("d", NILPOTENCY_FIELDS)
def test_matrix_nilpotent_on_sqrt_parts_only(d):
    rng = random.Random(f"sqrt-only nilpotency over {d}")
    root, zero = Scalar.sqrt_d(d), Scalar.zero()
    verdicts = []
    for n in range(1, 7):
        for nilpotent in (True, False):
            m = sqrt_only(rng, n, d, nilpotent)
            assert all(x.a == 0 for row in m for x in row)
            verdict = assert_nilpotency_matches_reference(m)
            assert verdict or not nilpotent
            verdicts.append(verdict)
    assert False in verdicts
    # [[0, r], [r, 0]]^2 = d I; [[r, r], [-r, -r]]^2 = 0
    assert not assert_nilpotency_matches_reference([[zero, root], [root, zero]])
    assert assert_nilpotency_matches_reference([[root, root], [-root, -root]])


# -- is_lie on the pair view ---------------------------------------------------


def assert_lie_matches_scalars(t) -> bool:
    verdict = t.is_lie()
    assert verdict == (t.is_leibniz() and antisymmetric(t))
    return verdict


def central_products(n, constants):
    """A tensor whose products all land in e_(n-1), which annihilates both
    sides: every double bracket vanishes, so it is Leibniz."""
    return StructTensor(n, {(i, j, n - 1): Scalar.parse(c) for (i, j), c in constants.items()})


def test_is_lie_fails_in_the_sqrt_part_only():
    rng = random.Random("sqrt-part antisymmetry")
    # H(1) on (e0, e1 | e2) with c_01 = 1 + sqrt 2 and c_10 = -1 + sqrt 2: the
    # rational parts cancel and the sqrt parts add up
    sqrt_only_fails = [
        central_products(3, {(0, 1): "1+1*sqrt(2)", (1, 0): "-1+1*sqrt(2)"}),
        central_products(3, {(0, 1): "1", (1, 0): "-1", (0, 0): "1*sqrt(2)"}),
        # H(2) plus sqrt(2) times a symmetric form into its center
        central_products(5, {(0, 2): "1", (2, 0): "-1", (1, 3): "1", (3, 1): "-1",
                             (0, 1): "1*sqrt(2)", (1, 0): "1*sqrt(2)", (3, 3): "-3*sqrt(2)"}),
    ]
    for t in sqrt_only_fails:
        assert t.is_leibniz()
        assert all((v + t.entry(j, i, k)).a == 0 for (i, j, k), v in t.constants_dict().items())
        assert not assert_lie_matches_scalars(t)
        assert not assert_lie_matches_scalars(change_basis(t, random_invertible(rng, t.dim, 2)))
    lie = central_products(3, {(0, 1): "1+1*sqrt(2)", (1, 0): "-1-1*sqrt(2)"})
    assert assert_lie_matches_scalars(lie)
    assert assert_lie_matches_scalars(change_basis(lie, random_invertible(rng, 3, 2)))


@pytest.mark.parametrize("d", [-1, 2, -3])
@pytest.mark.parametrize("entry_id", CATALOG_IDS)
def test_is_lie_on_catalog_entries_in_quadratic_bases(entry_id, d):
    t = build_entry(entry_id)
    moved = change_basis(t, random_invertible(random.Random(f"lie {entry_id} {d}"), t.dim, d))
    assert any(v.d == d for v in moved.constants_dict().values())
    assert assert_lie_matches_scalars(moved) == assert_lie_matches_scalars(t)


@pytest.mark.parametrize("d", [2, -1])
@pytest.mark.parametrize("entry_id", ["H1a0R-r0", "H1a0R-r1", "H2a1R"])
def test_is_lie_after_the_view_met_a_quadratic_vector(entry_id, d):
    t = build_entry(entry_id)
    n = t.dim
    line = Subspace.span([[Scalar.one(), Scalar.sqrt_d(d)] + [Scalar.zero()] * (n - 2)], n)
    full = Subspace.full(n)
    assert bracket_span(t, line, full) == reference_bracket_span(t, line, full)
    assert assert_lie_matches_scalars(t) == (entry_id != "H1a0R-r1")
    assert t._integer_view()[0] is None


def assert_ints_or_int_pairs(d, view):
    assert type(view) is dict
    for row in view.values():
        for value in row.values():
            if d is None:
                assert type(value) is int
            else:
                assert type(value) is tuple and len(value) == 2
                assert all(type(x) is int for x in value)


@pytest.mark.parametrize("d", [None, -1, 2])
def test_integer_view_holds_ints_or_int_pairs(d):
    rng = random.Random(f"pair view {d}")
    for t in (heisenberg(2), build_entry("H1a0C-r1")):
        moved = change_basis(t, random_invertible(rng, t.dim, d))
        field, _, view = moved._integer_view()
        assert field == d
        assert_ints_or_int_pairs(field, view)
        if d is not None:
            # a rational tensor met by a vector over Q(sqrt d) gets a view of pairs
            field, _, view = t._integer_view([Scalar.sqrt_d(d)])
            assert field == d
            assert_ints_or_int_pairs(field, view)


def cleared_constants(t, d) -> tuple:
    """(D, {(i, j): {k: D*c_ij^k}}) with the constants cleared by integer_pairs."""
    constants = t.constants_dict()
    den, cleared = integer_pairs(list(constants.values()), d)
    view = {}
    for (i, j, k), x in zip(constants, cleared):
        view.setdefault((i, j), {})[k] = x
    return den, view


@pytest.mark.parametrize("d", [-1, 2, -3, 5])
def test_rational_view_lifts_to_the_pairs_of_integer_pairs(d):
    rng = random.Random(f"lift {d}")
    tensors = [build_entry(entry_id) for entry_id in CATALOG_IDS]
    tensors = [t for t in tensors if common_field(t.constants_dict().values()) is None]
    tensors += [random_tensor(rng, rng.randint(1, 6), None, rng.random()) for _ in range(20)]
    other = 3 if d == 2 else 2
    for t in tensors:
        ints = (None, *cleared_constants(t, None))
        assert t._integer_view() == ints
        assert t._integer_view([Scalar.sqrt_d(d)]) == (d, *cleared_constants(t, d))
        assert t._integer_view() == ints
        with pytest.raises(IncompatibleFieldError):
            t._integer_view([Scalar.sqrt_d(d)], [Scalar.sqrt_d(other)])
        if t.constants_dict():
            with pytest.raises(IncompatibleFieldError):
                t.map_entries(Scalar.sqrt_d(d).__mul__)._integer_view([Scalar.sqrt_d(other)])
