import pytest

from heisenleib import linalg
from heisenleib.algebra import Subspace
from heisenleib.linalg import ShapeError, SingularMatrixError, smat, svec
from heisenleib.scalars import IncompatibleFieldError, Scalar

from reference_kernel import is_zero_vector, mat_pow


def test_mat_mul_identity():
    m = smat([[1, 2], [3, 4]])
    assert linalg.mat_eq(linalg.mat_mul(m, linalg.identity(2)), m)


def test_mat_mul_shape_error():
    with pytest.raises(ShapeError):
        linalg.mat_mul(smat([[1, 2]]), smat([[1, 2]]))


def test_rref_and_rank():
    m = smat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    red, pivots = linalg.rref(m)
    assert pivots == [0, 1]
    assert linalg.rank(m) == 2
    assert red[0] == svec([1, 0, 1])
    assert red[1] == svec([0, 1, 1])


def test_nullspace_solves():
    m = smat([[1, 2, 3], [0, 1, 1]])
    basis = linalg.nullspace(m)
    assert len(basis) == 1
    for v in basis:
        assert is_zero_vector(linalg.mat_vec(m, v))


def test_det():
    assert linalg.det([]) == Scalar.one()
    assert linalg.det(smat([[1, 2], [3, 4]])) == Scalar.rational(-2)
    assert linalg.det(smat([[1, 2], [2, 4]])) == Scalar.zero()
    assert linalg.det(smat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])) == Scalar.rational(-1)


def test_inverse_roundtrip():
    m = smat([[1, 2], [3, 5]])
    inv = linalg.inverse(m)
    assert linalg.mat_eq(linalg.mat_mul(m, inv), linalg.identity(2))


def test_inverse_singular():
    with pytest.raises(SingularMatrixError):
        linalg.inverse(smat([[1, 2], [2, 4]]))


@pytest.mark.parametrize(
    "rows, den, d, form",
    [
        ([[2, -4]], -2, None, (None, 1, [[-1, 2]])),
        ([[(2, 0), (0, -4)]], -2, 2, (2, 1, [[(-1, 0), (0, 2)]])),
        # no sqrt part: d is dropped and the pairs become ints
        ([[(6, 0), (3, 0)]], 9, 2, (None, 3, [[2, 1]])),
    ],
)
def test_canonical_form(rows, den, d, form):
    assert linalg.canonical_form(rows, den, d) == form


def test_opposite_spanning_vectors_give_equal_subspaces():
    v = [Scalar.one(), Scalar.sqrt_d(2), Scalar.zero()]
    assert Subspace.span([v], 3) == Subspace.span([[-x for x in v]], 3)


def test_mat_pow():
    n = smat([[0, 1], [0, 0]])
    assert linalg.is_zero_matrix(mat_pow(n, 2))
    assert linalg.mat_eq(mat_pow(n, 0), linalg.identity(2))


def test_quadratic_entries():
    i = Scalar.sqrt_d(-1)
    m = [[i, Scalar.zero()], [Scalar.zero(), -i]]
    assert linalg.det(m) == Scalar.one()
    inv = linalg.inverse(m)
    assert linalg.mat_eq(linalg.mat_mul(m, inv), linalg.identity(2))


def test_mat_pow_refuses_a_negative_exponent():
    with pytest.raises(ValueError):
        mat_pow(smat([[1, 1], [0, 1]]), -1)


@pytest.mark.parametrize(
    "m",
    [
        # the two fields never meet in one product: refused all the same
        [[Scalar.sqrt_d(2), Scalar.zero()], [Scalar.zero(), Scalar.sqrt_d(3)]],
        [[Scalar.sqrt_d(2), Scalar.sqrt_d(3)], [Scalar.one(), Scalar.zero()]],
    ],
)
@pytest.mark.parametrize("op", [linalg.rref, linalg.rank, linalg.nullspace, linalg.det, linalg.inverse])
def test_elimination_refuses_two_fields(m, op):
    with pytest.raises(IncompatibleFieldError):
        op(m)
