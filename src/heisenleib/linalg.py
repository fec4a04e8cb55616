"""Exact linear algebra over Scalar entries.

Matrices are lists of row lists.  Ring operations (mat_mul, mat_add, ...)
are duck-typed and also work on PolyQ entries; anything that divides
(rref, rank, nullspace, inverse, det) requires Scalar entries, which form
a field.

All of those run one private kernel, _fraction_free: Bareiss's
fraction-free Gauss-Jordan elimination on the rows cleared of their
denominators into Z, or into Z[sqrt d] over Q(sqrt d) (the integer view
of scalars.py).  It is exact, not approximate: each division by the
previous pivot has a remainder of zero (Sylvester's identity makes every
entry a minor of the cleared matrix), and exact_div raises if one does
not.  Entries over two different d raise IncompatibleFieldError up front.
rref divides the pivot rows by the last pivot once, so its output is the
canonical Scalar RREF; rank counts pivots and det reads the last pivot,
and neither builds a Scalar along the way.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .scalars import Scalar, clear_denominators, common_field, exact_div, from_integer

Matrix = list  # list[list[entry]]
Vector = list  # list[entry]


class ShapeError(ValueError):
    """Operand dimensions do not match."""


class SingularMatrixError(ValueError):
    """Matrix inversion of a singular matrix."""


def to_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, str):
        return Scalar.parse(x)
    return Scalar(Fraction(x))


def svec(entries) -> Vector:
    """Convert a sequence of int/Fraction/str/Scalar into a Scalar vector."""
    return [to_scalar(x) for x in entries]


def smat(rows) -> Matrix:
    """Convert nested sequences into a Scalar matrix."""
    return [svec(row) for row in rows]


def shape(m: Matrix) -> tuple[int, int]:
    if not m:
        return (0, 0)
    cols = len(m[0])
    for row in m:
        if len(row) != cols:
            raise ShapeError("ragged matrix")
    return (len(m), cols)


def identity(n: int) -> Matrix:
    one, zero = Scalar.one(), Scalar.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> Matrix:
    zero = Scalar.zero()
    return [[zero for _ in range(c)] for _ in range(r)]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if shape(a) != shape(b):
        raise ShapeError(f"shape mismatch {shape(a)} vs {shape(b)}")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    if shape(a) != shape(b):
        raise ShapeError(f"shape mismatch {shape(a)} vs {shape(b)}")
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, s) -> Matrix:
    return [[x * s for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ShapeError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    out = []
    for i in range(ra):
        row = []
        for j in range(cb):
            acc = a[i][0] * b[0][j]
            for k in range(1, ca):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(a: Matrix, v: Vector) -> Vector:
    ra, ca = shape(a)
    if ca != len(v):
        raise ShapeError(f"cannot apply {ra}x{ca} to length-{len(v)} vector")
    out = []
    for i in range(ra):
        acc = a[i][0] * v[0]
        for k in range(1, ca):
            acc = acc + a[i][k] * v[k]
        out.append(acc)
    return out


def transpose(a: Matrix) -> Matrix:
    r, c = shape(a)
    return [[a[i][j] for i in range(r)] for j in range(c)]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return shape(a) == shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def is_zero_matrix(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


def is_zero_vector(v: Vector) -> bool:
    return all(x.is_zero() for x in v)


def vec_add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ShapeError("vector length mismatch")
    return [x + y for x, y in zip(u, v)]


def mat_pow(a: Matrix, n: int) -> Matrix:
    r, c = shape(a)
    if r != c:
        raise ShapeError("matrix power needs a square matrix")
    if n < 0:
        raise ValueError(f"matrix power needs a nonnegative exponent, got {n}")
    result = identity(r)
    base = [row[:] for row in a]
    while n > 0:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        n >>= 1
    return result


def _fraction_free(rows: Matrix) -> tuple[list, list[int], object, int, list[int]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of Scalar rows.

    Each row is cleared of its denominators into Z, or into Z[sqrt d] when
    its entries lie in Q(sqrt d); entries from two different d raise
    IncompatibleFieldError before any work.  Zero rows are dropped.  For
    each pivot p in row r, every other row becomes
    (p*row_i - m_i*row_r) / prev, with m_i its entry in the pivot column
    and prev the previous pivot.  By Sylvester's identity every entry is
    then a minor of the cleared matrix, so the division is exact in the
    ring; exact_div raises if it is not.  Afterwards every pivot entry
    equals the last pivot.

    Returns (eliminated rows, pivot columns, last pivot, sign of the row
    swaps, per-row scale factors).
    """
    ncols = shape(rows)[1]
    d = common_field(x for row in rows for x in row)
    scales, m = [], []
    for row in rows:
        den, cleared = clear_denominators(row, d)
        scales.append(den)
        if any(cleared):
            m.append(cleared)
    pivots: list[int] = []
    prev, sign, r = None, 1, 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            sign = -sign
        top = m[r]
        p = top[col]
        for i, row in enumerate(m):
            if i != r:
                f = row[col]
                if prev is None:
                    m[i] = [p * x - f * y for x, y in zip(row, top)]
                else:
                    m[i] = [exact_div(p * x - f * y, prev) for x, y in zip(row, top)]
        prev = p
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m, pivots, prev, sign, scales


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over Scalar; returns (rref, pivot columns).

    Zero rows are kept at the bottom; callers building canonical subspace
    bases drop them.
    """
    if not rows:
        return [], []
    m, pivots, last, _, _ = _fraction_free(rows)
    nrows, ncols = len(rows), len(rows[0])
    red = [[from_integer(x, last) for x in m[i]] for i in range(len(pivots))]
    zero = Scalar.zero()
    return red + [[zero] * ncols for _ in range(nrows - len(pivots))], pivots


def rank(rows: Matrix) -> int:
    return len(_fraction_free(rows)[1])


def nullspace(a: Matrix) -> list[Vector]:
    """Canonical basis of {x : a @ x = 0}, one vector per free column."""
    if not a:
        return []
    c = shape(a)[1]
    red, pivots = rref(a)
    pivot_set = set(pivots)
    free_cols = [j for j in range(c) if j not in pivot_set]
    basis = []
    zero, one = Scalar.zero(), Scalar.one()
    for free in free_cols:
        v = [zero] * c
        v[free] = one
        for row_idx, pcol in enumerate(pivots):
            v[pcol] = -red[row_idx][free]
        basis.append(v)
    return basis


def det(a: Matrix) -> Scalar:
    """sign * last pivot / product of the row scale factors: the last
    fraction-free pivot is the determinant of the row-swapped, cleared
    matrix."""
    r, c = shape(a)
    if r != c:
        raise ShapeError("determinant needs a square matrix")
    if not a:
        return Scalar.one()
    _, pivots, last, sign, scales = _fraction_free(a)
    if len(pivots) < r:
        return Scalar.zero()
    return from_integer(sign * last, prod(scales))


def inverse(a: Matrix) -> Matrix:
    r, c = shape(a)
    if r != c:
        raise ShapeError("inverse needs a square matrix")
    aug = [row[:] + identity(r)[i] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != list(range(r)):
        raise SingularMatrixError("matrix is singular")
    return [row[r:] for row in red]
