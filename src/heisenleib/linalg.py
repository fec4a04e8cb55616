"""Exact linear algebra over Scalar entries.

Matrices are lists of row lists.  Ring operations (mat_mul, mat_add, ...)
are duck-typed and also work on PolyQ entries; anything that divides
(rref, nullspace, inverse, det) requires Scalar entries, which form a field.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar

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
    result = identity(r)
    base = [row[:] for row in a]
    while n > 0:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        n >>= 1
    return result


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over Scalar; returns (rref, pivot columns).

    Zero rows are kept in place at the bottom; callers building canonical
    subspace bases drop them.
    """
    m = [row[:] for row in rows]
    if not m:
        return [], []
    nrows, ncols = shape(m)
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if not m[i][col].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][col].inv()
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][col].is_zero():
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows: Matrix) -> int:
    _, pivots = rref(rows)
    return len(pivots)


def nullspace(a: Matrix) -> list[Vector]:
    """Canonical basis of {x : a @ x = 0}, one vector per free column."""
    r, c = shape(a) if a else (0, 0)
    if not a:
        return []
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
    r, c = shape(a)
    if r != c:
        raise ShapeError("determinant needs a square matrix")
    m = [row[:] for row in a]
    result = Scalar.one()
    for col in range(c):
        pivot_row = None
        for i in range(col, r):
            if not m[i][col].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            return Scalar.zero()
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            result = -result
        result = result * m[col][col]
        inv = m[col][col].inv()
        for i in range(col + 1, r):
            if not m[i][col].is_zero():
                factor = m[i][col] * inv
                m[i] = [x - factor * y for x, y in zip(m[i], m[col])]
    return result


def inverse(a: Matrix) -> Matrix:
    r, c = shape(a)
    if r != c:
        raise ShapeError("inverse needs a square matrix")
    aug = [row[:] + identity(r)[i] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != list(range(r)):
        raise SingularMatrixError("matrix is singular")
    return [row[r:] for row in red]
