"""Exact linear algebra over Scalar entries.

Matrices are lists of row lists.  Ring operations (mat_mul, mat_add, ...)
are duck-typed and also work on PolyQ entries (mat_mul, and mat_vec
through it, hands each PolyQ entry's products to poly's one sum of
products); anything that divides
(rref, rank, nullspace, inverse, det) requires Scalar entries, which form
a field.

All of those clear each row of its denominators into Z, or into
Z[sqrt d] over Q(sqrt d) (the integer view of scalars.py; two different d
raise IncompatibleFieldError up front), and run one private kernel on the
cleared rows, _fraction_free: Bareiss's fraction-free Gauss-Jordan
elimination.  Over Z[sqrt d] each entry is a (rational, sqrt) pair of
plain ints and the ring arithmetic is written inline; the division by an
element y multiplies by conj(y) and divides by the int N(y).  It is
exact, not approximate: Sylvester's identity holds in any integral
domain, so every entry is a minor of the cleared matrix and each division
by the previous pivot has a remainder of zero; exact_div and the pair
division raise InexactDivisionError if one does not.
canonical_rref divides the pivot rows by the last pivot once, in
canonical_form: (d, den, rows) with rows / den the RREF, den > 0 sharing
no factor with the rows, and d None when every sqrt part is 0.  algebra's
subspaces stay in that form.  rank counts pivots and det reads the last
pivot; scalars.from_cleared reads cleared results back as Scalars, for
det, rref and a subspace's rows.  integer_image clears a matrix into
ints, each entry a + b*sqrt(d) the block ((a, d*b), (b, a)) over Z[sqrt d]:
matrix_nilpotent squares it with mat_mul until the power reaches dim, and
heisenberg's validation evaluates its bilinear side conditions on it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from operator import mul

from .poly import PolyQ, _sum_of_products
from .scalars import (
    InexactDivisionError,
    Scalar,
    common_field,
    exact_div,
    from_cleared,
    integer_pairs,
)

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
    cols = list(zip(*b))
    if ra and ca and type(a[0][0]) is PolyQ:
        return [[_sum_of_products(a[0][0], zip(row, col)) for col in cols] for row in a]
    # a[i][0] * b[0][j] + a[i][1] * b[1][j] + ..., summed left to right
    return [[sum(map(mul, row[1:], col[1:]), row[0] * col[0]) for col in cols] for row in a]


def mat_vec(a: Matrix, v: Vector) -> Vector:
    ra, ca = shape(a)
    if ca != len(v):
        raise ShapeError(f"cannot apply {ra}x{ca} to length-{len(v)} vector")
    return [row[0] for row in mat_mul(a, [[x] for x in v])]


def transpose(a: Matrix) -> Matrix:
    r, c = shape(a)
    return [[a[i][j] for i in range(r)] for j in range(c)]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return shape(a) == shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def is_zero_matrix(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


def cleared_rows(rows: Matrix) -> tuple[int | None, list]:
    """(d, each row times the lcm of its denominators): ints over Q, and
    (rational, sqrt) int pairs over Q(sqrt d)."""
    d = common_field(x for row in rows for x in row)
    return d, [integer_pairs(row, d)[1] for row in rows]


def cleared_matrix(a: Matrix, d: int | None) -> tuple[int, list]:
    """(D, D*a) for a Scalar matrix over Q or Q(sqrt d), with D the lcm of
    all its denominators: one scale factor for the whole matrix, and ints
    or (rational, sqrt) int pairs as entries."""
    ncols = shape(a)[1]
    den, flat = integer_pairs([x for row in a for x in row], d)
    return den, [flat[i : i + ncols] for i in range(0, len(flat), ncols)]


def integer_image(m: Matrix, d: int | None) -> list:
    """D*m as ints, D the lcm of the denominators of a Scalar matrix m over
    Q or Q(sqrt d), where each entry a + b*sqrt(d) becomes the block ((a,
    d*b), (b, a)): an injective ring map into the 2x2 int matrices, so up to
    the factors D images multiply and subtract as the matrices do."""
    cleared = cleared_matrix(m, d)[1]
    return cleared if d is None else [[x for a, b in row for x in ((b, a) if h else (a, d * b))]
                                      for row in cleared for h in (0, 1)]


def _fraction_free(m: list, ncols: int, d: int | None = None) -> tuple:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of rows cleared
    into Z (ints, d None) or Z[sqrt d] ((rational, sqrt) int pairs).  Zero
    rows are dropped.  For each pivot p in row r, every other row becomes
    (p*row_i - m_i*row_r) / prev, with m_i its entry in the pivot column
    and prev the previous pivot.  Sylvester's identity holds in any
    integral domain, so every entry is then a minor of the cleared matrix
    and the division is exact in the ring; exact_div raises if it is not,
    and so does _pair_rows.  Afterwards every pivot entry equals the last
    pivot.

    Returns (eliminated rows, pivot columns, last pivot, sign of the row
    swaps).
    """
    zero = 0 if d is None else (0, 0)
    m = [row for row in m if row.count(zero) != len(row)]
    pivots: list[int] = []
    prev, sign, r = None, 1, 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][col] != zero), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            sign = -sign
        top = m[r]
        p = top[col]
        if d is not None:
            _pair_rows(m, r, col, prev or (1, 0), d)
        else:
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
    return m, pivots, prev, sign


def _pair_rows(m: list, r: int, col: int, prev: tuple, d: int) -> None:
    """One Bareiss step over Z[sqrt d] on int pairs: row i becomes
    (p*row_i - f*row_r) / prev for p = m[r][col] and f = m[i][col].  The
    division multiplies by conj(prev) and divides by the int N(prev) =
    prev*conj(prev); as N(prev) != 0, prev divides z iff N(prev) divides
    z*conj(prev) in both parts, so a remainder raises InexactDivisionError.
    p is multiplied by conj(prev) once per step and f once per row."""
    qa, qb = prev
    norm = qa * qa - d * qb * qb
    top = m[r]
    pa, pb = top[col]
    pa, pb = pa * qa - d * pb * qb, pb * qa - pa * qb
    dpb = d * pb
    for i, row in enumerate(m):
        if i == r:
            continue
        fa, fb = row[col]
        fa, fb = fa * qa - d * fb * qb, fb * qa - fa * qb
        dfb = d * fb
        new = []
        for (xa, xb), (ya, yb) in zip(row, top):
            a, ra = divmod(pa * xa + dpb * xb - fa * ya - dfb * yb, norm)
            b, rb = divmod(pa * xb + pb * xa - fa * yb - fb * ya, norm)
            if ra or rb:
                raise InexactDivisionError(f"inexact division in Z[sqrt({d})]")
            new.append((a, b))
        m[i] = new


def canonical_rref(cleared: list, ncols: int, d: int | None = None) -> tuple:
    """(d, den, rows, pivot columns) for rows cleared into Z or Z[sqrt d]:
    rows / den are the nonzero rows of the RREF, in canonical_form.  Over
    Z[sqrt d] the pivot rows are multiplied by conj(last pivot) and divided
    by its int norm."""
    m, pivots, last, _ = _fraction_free(cleared, ncols, d)
    rows = m[: len(pivots)]
    if d is not None and pivots:
        p, q = last
        rows = [[(a * p - d * b * q, b * p - a * q) for a, b in row] for row in rows]
        last = p * p - d * q * q
    return (*canonical_form(rows, last or 1, d), pivots)


def canonical_form(rows: list, den: int, d: int | None = None) -> tuple:
    """(d, den, rows) for the matrix rows / den, rows of ints (d None) or
    int pairs: den and every component divided by their gcd, with the sign
    that makes den positive, and d None, with rows of ints, when every sqrt
    part is 0.  So den is the lcm of the reduced denominators of the
    matrix's parts, and equal matrices give equal forms."""
    if d is not None and not any(b for row in rows for _, b in row):
        d, rows = None, [[a for a, _ in row] for row in rows]
    parts = (x for row in rows for x in (row if d is None else chain.from_iterable(row)))
    g = gcd(den, *parts) * (1 if den > 0 else -1)
    if d is None:
        return d, den // g, [[x // g for x in row] for row in rows]
    return d, den // g, [[(a // g, b // g) for a, b in row] for row in rows]


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over Scalar; returns (rref, pivot columns).

    Zero rows are kept at the bottom; callers building canonical subspace
    bases drop them.
    """
    nrows, ncols = shape(rows)
    d, cleared = cleared_rows(rows)
    d, den, red, pivots = canonical_rref(cleared, ncols, d)
    padding = [[Scalar.zero()] * ncols for _ in range(nrows - len(pivots))]
    return [from_cleared(row, den, d) for row in red] + padding, pivots


def rank(rows: Matrix) -> int:
    d, cleared = cleared_rows(rows)
    return len(_fraction_free(cleared, shape(rows)[1], d)[1])


def nullspace(a: Matrix) -> list[Vector]:
    """Canonical basis of {x : a @ x = 0}, one vector per free column."""
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
    """sign * last pivot / D^dim: the last fraction-free pivot is the
    determinant of the row-swapped matrix cleared by D."""
    r, c = shape(a)
    if r != c:
        raise ShapeError("determinant needs a square matrix")
    if not a:
        return Scalar.one()
    d = common_field(x for row in a for x in row)
    den, m = cleared_matrix(a, d)
    _, pivots, last, sign = _fraction_free(m, c, d)
    if len(pivots) < r:
        return Scalar.zero()
    return from_cleared([last], sign * den**r, d)[0]


def matrix_nilpotent(m: Matrix) -> bool:
    """True iff M^dim = 0 exactly (char poly lambda^dim).  Scaling keeps
    nilpotency and integer_image is an injective ring map, so M's int image
    is squared until the power reaches dim or vanishes."""
    r, c = shape(m)
    if r != c:
        raise ShapeError("nilpotency needs a square matrix")
    if r == 0:
        return True
    power = integer_image(m, common_field(x for row in m for x in row))
    k = 1
    while k < r and any(map(any, power)):
        power = mat_mul(power, power)
        k *= 2
    return not any(map(any, power))


def inverse(a: Matrix) -> Matrix:
    r, c = shape(a)
    if r != c:
        raise ShapeError("inverse needs a square matrix")
    aug = [row[:] + unit for row, unit in zip(a, identity(r))]
    red, pivots = rref(aug)
    if pivots != list(range(r)):
        raise SingularMatrixError("matrix is singular")
    return [row[r:] for row in red]
