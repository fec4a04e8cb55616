"""Test-only reference kernel.

DenseTensor keeps the structure constants of a StructTensor as a dense
c[i][j][k] array and forms every product with its own nested loop, the
way the library did before its constants moved to a sparse store behind
one contraction routine.  The differential tests compare the library
against these loops; nilpotency_power_oracle is the brute-force check
that the nilpotency tests compare against.

TuplePoly is the polynomial kernel as it was before PolyQ packed its
exponent vectors into ints: terms keyed by full-length exponent tuples,
graded-lex display by sorting those tuples, substitution by value**e
products per term.  The packed-kernel tests compare PolyQ against it.

symplectic_check_by_products is the sp(2n) test as the matrix products
X K + K X^T; reference_decide_maximality and
reference_validate_nilindependence are the maximality and
nilindependence decisions as they were before both moved behind
ExtensionSpec.nilpotent_combination, with their own branches on n, f and
the normalized a.

reference_heisenberg, reference_assemble_extension and
reference_parametric_extension write the structure constants of H(n), of
an extension spec and of the generic cascade tensor with their own index
arithmetic, and the reference_*_rows functions place the condensation
basis rows by fixed positions, the way the library did before both went
through heisenberg.extension_tensor and heisenberg.extension_basis_rows.

reference_rref and reference_det are Gauss-Jordan and Gaussian
elimination on Scalar entries, one Scalar inverse per pivot, the way
linalg ran before its elimination became fraction-free over Z and
Z[sqrt d]; reference_contains_by_rank is subspace membership as a rank
test on the stacked rows, the way Subspace.contains read it before it read
the stored RREF rows, and reference_contains is the sum of v[pivot] * row
over every column, the way it read them before it compared only the
non-pivot columns.

reference_span_rows is a subspace's RREF as the nonzero rows of
reference_rref, the Scalar form Subspace held before it kept one cleared
form of integers; reference_closure_by_elimination decides the closure
checks and [L, L] in w by eliminating each span with bracket_span and
testing its rows with reference_contains, the way algebra and certify did
before containment was read off the generating brackets.

reference_sheared is the unipotent change of basis of the cascade's
checked shears with its rows I + E placed by (row, column) positions, the
way constraints built them before heisenberg.extension_shear.
reference_subspace_closure_checks tests every bracket of basis vectors
for membership, and reference_lower_central_vanishes runs its own loop of
bracket spans, the way algebra and certify did before both went through
bracket_span.is_contained_in and algebra._series.  reference_center is
the center as one Scalar nullspace of 2*dim^2 rows, the way algebra
found it before it solved for the center inside the left annihilator.

reference_change_basis_with_inverse is the change of basis as one Scalar
(or PolyQ) bracket of two columns of Q and one matrix-vector product with
P per pair of new basis vectors; mat_pow and reference_matrix_nilpotent
are nilpotency as the Scalar power M^dim by repeated squaring; and
reference_commuting_sp2_proportionality forms the commutator by two
matrix products.  That is how algebra and certify ran before all three
moved onto matrices cleared into Z or Z[sqrt d] (or, for the commutator,
onto the 2x2 minors).  vec_add, is_zero_vector and s_scale_rows are
small helpers that only the tests use.

reference_contract and reference_mat_mul form one product and one
running sum per pair of factors, the way StructTensor.contract and
linalg.mat_mul ran for PolyQ entries before both handed their products to
poly's one sum of products.  They are duck-typed, so they also run on
TuplePoly entries, which share no arithmetic with PolyQ.

reference_integer_defects is the Leibniz check on the integer view as it
ran before the packed kernel: the three-term leibniz_residual of every
triple contracted on the view, one ring product at a time, and a triple
is a defect when some coordinate is not the view's zero.

quadratic_integers(d) is the ring Z[sqrt d] as a class that holds d once,
its elements the objects (a, b) for a + b*sqrt(d), the way scalars.py held
Z[sqrt d] for the Leibniz view and matrix nilpotency before every kernel
ran on (rational, sqrt) int pairs; clear_denominators, reference_exact_div
and ring_scalar are the clearing, the exact division in Z or that ring
and the way back to a Scalar (by the public constructor) that went with
it.  reference_ring_view clears the tensor's constants afresh, not through
the integer view it checks, into a StructTensor of its own, with ring
objects over Z[sqrt d], so the references below contract it and stay
independent of the view and the pair arithmetic they check.

reference_substituter is PolyQ substitution as one closure over a fixed
binding map, its coerced values built once from the whole map, and
reference_reduce_binding_map reduces the cascade's bindings with a fresh
substitution of every other binding per right-hand side and round.  That
is how poly and constraints ran before one substituter grew by bind and
was rebound as right-hand sides changed.  The closure reads PolyQ through
its public operations alone, so it holds under any key encoding.

PackedKeys is the monomial key encoding PolyQ used before its keys were
sized by degree: the full exponent vector as 8-bit fields of one int under
a total-degree field, a product as one int add.  The key tests compare
the order, degrees and products of today's keys against it.

reference_fraction_free is the fraction-free elimination as it ran before
its Z[sqrt d] rows became (rational, sqrt) int pairs: one ring-object
expression p*x - f*y and one reference_exact_div per entry, on ints or
on elements of quadratic_integers(d).  reference_view_bracket is a bracket on
the integer view contracted one ring product at a time through
StructTensor.contract, and reference_bracket_span is bracket_span built
from both, the way algebra ran before its view brackets moved onto int
pairs.

reference_sp2_nilpotency_locus is the sp(2) pair decision as it ran
before it read the real-versus-complex answer off the field of the root:
a separate discriminant test, quadratic_real_root_exists, on the same
dehomogenized quadratic.

reference_commutation_residual_system and reference_block_side_reports
are the cascade's commutation stage and its side conditions as they ran
before both read their block reports from one producer: each calls
block_forms and loops over the generator pairs itself, building the
X-commutator and eigenvector reports through its own two helpers.

reference_validate is ExtensionSpec.validate as it ran before it read the
commutators and the eigenvector residuals from
heisenberg.block_side_conditions: two pair loops of its own, the
commutators compared as the matrix products X_a X_b and X_b X_a, and each
(X_a, rho_b) pair checked by eigenvector_check.

reference_hyperplane_combinations is the basis and the combinations of
ExtensionSpec.nilpotent_combination as it formed them before the basis of
c . a = 0 was read off a: the basis by linalg.nullspace([a]), and each
combination as the sum of every c_al X_al by mat_scale and mat_add.
reference_left_annihilator_rows are the rows of algebra.left_annihilator
as it built them before it read them off the sparse store: dim^3 entry()
calls.
"""

import warnings
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain

from heisenleib import linalg
from heisenleib.algebra import (
    ClosureChecks,
    StructTensor,
    Subspace,
    bracket_span,
    element_nilpotent,
)
from heisenleib.certify import (
    CertifyError,
    LocusResult,
    Maximality,
    ProportionalityResult,
    _require_sp2,
    _verified_refutation,
    matrix_nilpotent,
    sp2_nilpotency_locus,
)
from heisenleib.constraints import (
    InconsistencyError,
    OrderingError,
    _commutator_report,
    _nonzero_report,
    _of_kind,
    _param_names,
)
from heisenleib.heisenberg import (
    ANormalizationViolation,
    CommutationViolation,
    FBoundViolation,
    NilindependenceUndecidedWarning,
    NilindependenceViolation,
    NullspaceViolation,
    SymplecticViolation,
    block_forms,
    eigenvector_check,
    eigenvector_residual,
    extension_basis_labels,
    extension_basis_rows,
    extract_extension_data,
    max_extension_bound,
    symplectic_check,
)
from heisenleib.linalg import ShapeError
from heisenleib.poly import (
    PolyError,
    PolyQ,
    UnknownIndeterminateError,
    quadratic_real_root_exists,
    quadratic_roots,
)
from heisenleib.scalars import (
    InexactDivisionError,
    Scalar,
    common_field,
    exact_div,
    integer_pairs,
)


def is_zero_vector(v) -> bool:
    return all(x.is_zero() for x in v)


def vec_add(u, v) -> list:
    if len(u) != len(v):
        raise ShapeError("vector length mismatch")
    return [x + y for x, y in zip(u, v)]


def s_scale_rows(n: int, f: int, al: int, lam: Scalar) -> list:
    """Basis rows of S~_al = (1/lam) S_al: divides X_al by lam and r_alal
    by lam^2."""
    s_rows = linalg.identity(f)
    s_rows[al][al] = lam.inv()
    return extension_basis_rows(s_rows, 1, linalg.identity(2 * n))


def mat_pow(a, n: int):
    r, c = linalg.shape(a)
    if r != c:
        raise ShapeError("matrix power needs a square matrix")
    if n < 0:
        raise ValueError(f"matrix power needs a nonnegative exponent, got {n}")
    result = linalg.identity(r)
    base = [row[:] for row in a]
    while n > 0:
        if n & 1:
            result = linalg.mat_mul(result, base)
        base = linalg.mat_mul(base, base)
        n >>= 1
    return result


@lru_cache(maxsize=64)
def quadratic_integers(d: int) -> type:
    """The ring Z[sqrt d]: elements are integer pairs (a, b) for a + b*sqrt(d),
    and d is held by the class, once.  Division is exact or raises."""

    class QuadraticInteger:
        __slots__ = ("a", "b")

        def __init__(self, a: int, b: int):
            self.a, self.b = a, b

        def __add__(self, o):
            return QuadraticInteger(self.a + o.a, self.b + o.b)

        def __neg__(self):
            return QuadraticInteger(-self.a, -self.b)

        def __sub__(self, o):
            return QuadraticInteger(self.a - o.a, self.b - o.b)

        def __mul__(self, o):
            if o.__class__ is int:
                return QuadraticInteger(self.a * o, self.b * o)
            return QuadraticInteger(self.a * o.a + d * self.b * o.b, self.a * o.b + self.b * o.a)

        __rmul__ = __mul__

        def __truediv__(self, o):
            # x / y = x * conj(y) / N(y), with N(y) = y * conj(y) in Z
            norm = o.norm()
            a, ra = divmod(self.a * o.a - d * self.b * o.b, norm)
            b, rb = divmod(self.b * o.a - self.a * o.b, norm)
            if ra or rb:
                raise InexactDivisionError(f"inexact division in Z[sqrt({d})]")
            return QuadraticInteger(a, b)

        def conjugate(self):
            return QuadraticInteger(self.a, -self.b)

        def norm(self) -> int:
            return self.a * self.a - d * self.b * self.b

        def __bool__(self):
            return bool(self.a or self.b)

        def __eq__(self, o):
            return self.a == o.a and self.b == o.b

    QuadraticInteger.d = d
    return QuadraticInteger


def clear_denominators(values, d) -> tuple:
    """integer_pairs with each pair as an element of quadratic_integers(d)."""
    den, cleared = integer_pairs(values, d)
    if d is None:
        return den, cleared
    ring = quadratic_integers(d)
    return den, [ring(a, b) for a, b in cleared]


def reference_exact_div(x, y):
    """The quotient x / y in Z or in Z[sqrt d]; raises InexactDivisionError
    unless y divides x."""
    return exact_div(x, y) if x.__class__ is int else x / y


def ring_scalar(x, den=1) -> Scalar:
    """The Scalar x / den, for x and a nonzero den in Z or in Z[sqrt d]."""
    if den.__class__ is not int:
        x, den = x * den.conjugate(), den.norm()
    if x.__class__ is int:
        return Scalar(Fraction(x, den))
    return Scalar(Fraction(x.a, den), Fraction(x.b, den), x.d)


def reference_ring_view(t, *others) -> tuple:
    """(d, D, view) as t._integer_view(*others) gives it, but cleared afresh
    from t.constants_dict() in the field of the constants and of the Scalars
    or subspaces in others, with the constants map held by a StructTensor
    of its own: the ints over Q as they are, and each (rational, sqrt)
    pair as an element of quadratic_integers(d)."""
    constants = t.constants_dict()
    d = common_field(chain(constants.values(), *others))
    den, cleared = integer_pairs(list(constants.values()), d)
    if d is None:
        zero, element = 0, int
    else:
        ring = quadratic_integers(d)
        zero, element = ring(0, 0), lambda pair: ring(*pair)
    view: dict = {}
    for (i, j, k), c in zip(constants, cleared):
        view.setdefault((i, j), {})[k] = element(c)
    ring_view = object.__new__(StructTensor)
    ring_view._fill(t.dim, t.basis_labels, zero, view)
    return d, den, ring_view


def reference_integer_defects(t) -> list:
    """Triples (i, j, k), in order, whose residual on the integer view of the
    Scalar tensor t has a nonzero coordinate."""
    view = reference_ring_view(t)[2]
    n, zero = t.dim, view.zero
    return [
        (i, j, k)
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if any(e != zero for e in view.leibniz_residual(i, j, k))
    ]


def reference_fraction_free(m, ncols: int):
    """(eliminated rows, pivot columns, last pivot, sign of the row swaps) of
    rows cleared into Z or Z[sqrt d] as ring elements (clear_denominators)."""
    m = [row for row in m if any(row)]
    pivots = []
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
                    m[i] = [reference_exact_div(p * x - f * y, prev) for x, y in zip(row, top)]
        prev = p
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m, pivots, prev, sign


def reference_view_bracket(view, u, v) -> list:
    """[u, v] on the integer view for u, v cleared into ring elements."""
    return view.contract(
        (x * y, i, j) for i, x in enumerate(u) if x for j, y in enumerate(v) if y
    )


def reference_bracket_span(t, a, b) -> Subspace:
    d, _, view = reference_ring_view(t, *a.rows, *b.rows)
    us = [clear_denominators(u, d)[1] for u in a.rows]
    vs = [clear_denominators(v, d)[1] for v in b.rows]
    m, pivots, last, _ = reference_fraction_free(
        [reference_view_bracket(view, u, v) for u in us for v in vs], t.dim
    )
    return Subspace(t.dim, tuple(tuple(ring_scalar(x, last) for x in m[i])
                                 for i in range(len(pivots))))


def reference_contract(constants: dict, dim: int, zero, terms) -> list:
    """Sum of coeff * [e_i, e_j] over (coeff, i, j) terms for the sparse
    constants {(i, j, k): entry}, one product and one sum at a time."""
    rows: dict = {}
    for (i, j, k), c in constants.items():
        rows.setdefault((i, j), {})[k] = c
    acc: dict = {}
    for coeff, i, j in terms:
        for k, ck in rows.get((i, j), {}).items():
            p = coeff * ck
            acc[k] = acc[k] + p if k in acc else p
    return [acc.get(k, zero) for k in range(dim)]


def reference_mat_mul(a, b):
    """a b with one product and one running sum per entry pair."""
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = a[i][0] * b[0][j]
            for k in range(1, len(b)):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def reference_matrix_nilpotent(m) -> bool:
    r, c = linalg.shape(m)
    if r != c:
        raise ShapeError("nilpotency needs a square matrix")
    if r == 0:
        return True
    return linalg.is_zero_matrix(mat_pow(m, r))


def reference_change_basis_with_inverse(t, p, q, basis_labels=None):
    n = t.dim
    if linalg.shape(p) != (n, n) or linalg.shape(q) != (n, n):
        raise ShapeError("change of basis matrix has wrong shape")
    cols = [[q[i][m] for i in range(n)] for m in range(n)]
    constants = {}
    for m in range(n):
        for l in range(n):
            w = linalg.mat_vec(p, t.bracket(cols[m], cols[l]))
            for k, value in enumerate(w):
                constants[(m, l, k)] = value
    return StructTensor(
        n, constants, basis_labels=basis_labels or t.basis_labels, zero=t.zero
    )


def reference_commuting_sp2_proportionality(x1, x2):
    _require_sp2(x1, "X1")
    _require_sp2(x2, "X2")
    if linalg.is_zero_matrix(x1) or linalg.is_zero_matrix(x2):
        raise CertifyError("proportionality needs nonzero matrices")
    comm = linalg.mat_sub(linalg.mat_mul(x1, x2), linalg.mat_mul(x2, x1))
    a1, c1, d1 = x1[0][0], x1[0][1], x1[1][0]
    a2, c2, d2 = x2[0][0], x2[0][1], x2[1][0]
    proportional = (
        (a1 * c2 - a2 * c1).is_zero()
        and (a1 * d2 - a2 * d1).is_zero()
        and (c1 * d2 - c2 * d1).is_zero()
    )
    return ProportionalityResult(
        commute=linalg.is_zero_matrix(comm),
        proportional=proportional,
        commutator=tuple(tuple(row) for row in comm),
    )


def reference_rref(rows):
    """Reduced row echelon form over Scalar; returns (rref, pivot columns).

    Zero rows are kept in place at the bottom; callers building canonical
    subspace bases drop them.
    """
    m = [row[:] for row in rows]
    if not m:
        return [], []
    nrows, ncols = linalg.shape(m)
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


def reference_det(a):
    r, c = linalg.shape(a)
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


def reference_contains(w, v) -> bool:
    """v in W iff v = sum of v[pivot] * row over W's RREF rows, compared at
    every column."""
    v = list(v)
    if len(v) != w.ambient_dim:
        raise ShapeError("vector length != ambient dimension")
    combination = [Scalar.zero()] * w.ambient_dim
    for row in w.rows:
        c = v[next(j for j, x in enumerate(row) if not x.is_zero())]
        if not c.is_zero():
            combination = [x + c * y for x, y in zip(combination, row)]
    return combination == v


def reference_contains_by_rank(w, v) -> bool:
    """v in W iff stacking v under W's rows leaves the rank at dim W."""
    if len(v) != w.ambient_dim:
        raise ShapeError("vector length != ambient dimension")
    if is_zero_vector(v):
        return True
    stacked = w.basis_vectors() + [list(v)]
    return len(reference_rref(stacked)[1]) == w.dim


def reference_span_rows(vectors) -> tuple:
    """The nonzero rows of reference_rref(vectors), as a tuple of tuples."""
    if not vectors:
        return ()
    red, pivots = reference_rref([list(v) for v in vectors])
    return tuple(tuple(row) for row in red[: len(pivots)])


def reference_closure_by_elimination(t, w) -> tuple:
    """(closure checks of w, whether [L, L] lies in w), each span eliminated
    by bracket_span and its rows tested by reference_contains."""
    full = Subspace.full(t.dim)

    def within(a, b):
        return all(reference_contains(w, row) for row in bracket_span(t, a, b).rows)

    left = within(full, w)
    checks = ClosureChecks(
        is_subalgebra=within(w, w),
        is_left_ideal=left,
        is_two_sided_ideal=left and within(w, full),
    )
    return checks, within(full, full)


def reference_sheared(t, entries: dict):
    """t in the basis given by the rows I + E, E given by entries
    {(row, col): entry} with E^2 = 0 (so the inverse is I - E)."""
    zero, one = t.zero, t.zero + 1

    def rows_with(sign: int):
        rows = [[one if i == j else zero for j in range(t.dim)] for i in range(t.dim)]
        for (i, j), p in entries.items():
            rows[i][j] = sign * p
        return rows

    return reference_change_basis_with_inverse(
        t, linalg.transpose(rows_with(-1)), linalg.transpose(rows_with(+1))
    )


def reference_subspace_closure_checks(t, w) -> ClosureChecks:
    """Subalgebra / left-ideal / two-sided-ideal membership checks."""
    basis = w.basis_vectors()
    full = [t.unit_vector(i) for i in range(t.dim)]
    sub = all(w.contains(t.bracket(u, v)) for u in basis for v in basis)
    left = all(w.contains(t.bracket(x, v)) for x in full for v in basis)
    right = all(w.contains(t.bracket(v, x)) for v in basis for x in full)
    return ClosureChecks(
        is_subalgebra=sub,
        is_left_ideal=left,
        is_two_sided_ideal=left and right,
    )


def reference_lower_central_vanishes(t, w) -> bool:
    """The lower central series of w, a subalgebra of t, reaches zero.  Each
    term contains the next, so the series ends by its term dim; past that,
    two equal subspaces compared unequal, and AssertionError is raised."""
    current = bracket_span(t, w, w)
    for _ in range(t.dim + 1):
        if current.dim == 0:
            return True
        nxt = bracket_span(t, w, current)
        if nxt == current:
            return False
        current = nxt
    raise AssertionError("the lower central series did not end by its term dim")


def reference_center(t):
    """{x : [x, y] = 0 = [y, x] for all y} as the Scalar nullspace of the
    2*dim^2 rows of both products, without the left annihilator."""
    rows = []
    for j in range(t.dim):
        for k in range(t.dim):
            rows.append([t.entry(i, j, k) for i in range(t.dim)])
            rows.append([t.entry(j, i, k) for i in range(t.dim)])
    return Subspace.span(linalg.nullspace(rows), t.dim)


class DenseTensor:
    """Dense copy of a StructTensor's constants with the reference loops."""

    def __init__(self, t):
        self.dim = t.dim
        self.zero = t.zero
        self.c = [[[t.zero] * t.dim for _ in range(t.dim)] for _ in range(t.dim)]
        for (i, j, k), value in t.constants_dict().items():
            self.c[i][j][k] = value

    def bracket(self, x, y) -> list:
        out = [self.zero] * self.dim
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            for j, yj in enumerate(y):
                if yj.is_zero():
                    continue
                coeff = xi * yj
                vec = self.c[i][j]
                for k in range(self.dim):
                    if not vec[k].is_zero():
                        out[k] = out[k] + coeff * vec[k]
        return out

    def _bracket_basis_left(self, i: int, w) -> list:
        """[e_i, w] for a coordinate vector w."""
        out = [self.zero] * self.dim
        for j, wj in enumerate(w):
            if wj.is_zero():
                continue
            vec = self.c[i][j]
            for k in range(self.dim):
                if not vec[k].is_zero():
                    out[k] = out[k] + wj * vec[k]
        return out

    def _bracket_basis_right(self, w, k: int) -> list:
        """[w, e_k] for a coordinate vector w."""
        out = [self.zero] * self.dim
        for i, wi in enumerate(w):
            if wi.is_zero():
                continue
            vec = self.c[i][k]
            for m in range(self.dim):
                if not vec[m].is_zero():
                    out[m] = out[m] + wi * vec[m]
        return out

    def leibniz_residual(self, i: int, j: int, k: int) -> list:
        t1 = self._bracket_basis_left(i, self.c[j][k])
        t2 = self._bracket_basis_right(self.c[i][j], k)
        t3 = self._bracket_basis_left(j, self.c[i][k])
        return [a - b - c for a, b, c in zip(t1, t2, t3)]

    def leibniz_defects(self) -> list:
        n = self.dim
        return [
            (i, j, k)
            for i in range(n)
            for j in range(n)
            for k in range(n)
            if any(not e.is_zero() for e in self.leibniz_residual(i, j, k))
        ]

    def left_mult_matrix(self, x) -> list:
        out = [[self.zero] * self.dim for _ in range(self.dim)]
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            for j in range(self.dim):
                vec = self.c[i][j]
                for k in range(self.dim):
                    if not vec[k].is_zero():
                        out[k][j] = out[k][j] + xi * vec[k]
        return out

    def right_mult_matrix(self, x) -> list:
        out = [[self.zero] * self.dim for _ in range(self.dim)]
        for j, xj in enumerate(x):
            if xj.is_zero():
                continue
            for i in range(self.dim):
                vec = self.c[i][j]
                for k in range(self.dim):
                    if not vec[k].is_zero():
                        out[k][i] = out[k][i] + xj * vec[k]
        return out

    def change_basis(self, p) -> list:
        """Dense constants under the coordinate map P:
        c'[m][l] = P [q_m, q_l] with q_m the m-th column of P^{-1}."""
        n = self.dim
        q = linalg.inverse(p)
        cols = [[q[i][m] for i in range(n)] for m in range(n)]
        return [
            [linalg.mat_vec(p, self.bracket(cols[m], cols[l])) for l in range(n)]
            for m in range(n)
        ]


def nilpotency_power_oracle(m) -> bool:
    """Brute-force oracle: check M, M^2, ..., M^dim for the zero matrix."""
    r, c = linalg.shape(m)
    if r != c:
        raise ShapeError("nilpotency needs a square matrix")
    power = [row[:] for row in m]
    for _ in range(r):
        if linalg.is_zero_matrix(power):
            return True
        power = linalg.mat_mul(power, m)
    return linalg.is_zero_matrix(power)


def symplectic_check_by_products(x, n: int) -> bool:
    """X K + K X^T = 0 for K = ((0, I_n), (-I_n, 0)), by matrix products."""
    if linalg.shape(x) != (2 * n, 2 * n):
        raise ShapeError(f"expected a {2 * n}x{2 * n} matrix")
    k = linalg.zeros(2 * n, 2 * n)
    for i in range(n):
        k[i][n + i] = Scalar.one()
        k[n + i][i] = -Scalar.one()
    residual = linalg.mat_add(
        linalg.mat_mul(x, k), linalg.mat_mul(k, linalg.transpose(x))
    )
    return linalg.is_zero_matrix(residual)


def reference_validate_nilindependence(spec) -> None:
    """Single-matrix checks past the a_1 = 1 generator, the sp(2) pair locus
    at n = 1, and a warning for any other pair or more."""
    start = 1 if spec.a[0] == Scalar.one() else 0
    needed = [spec.x_matrix(al) for al in range(start, spec.f)]
    names = [f"X_{al + 1}" for al in range(start, spec.f)]
    for name, m in zip(names, needed):
        if matrix_nilpotent(m):
            raise NilindependenceViolation(
                f"{name} is nilpotent, so the appended generators are not "
                "linearly nilindependent and the nilradical would grow"
            )
    if len(needed) <= 1:
        return
    if len(needed) == 2 and spec.n == 1:
        locus = sp2_nilpotency_locus(needed[0], needed[1])
        if not locus.nilindependent_over_R:
            raise NilindependenceViolation(
                f"{names[0]}, {names[1]} admit the nilpotent combination "
                f"({', '.join(map(str, locus.witness))})"
            )
        return
    warnings.warn(
        "nilindependence of more than one matrix is only decided at n = 1; "
        "single-matrix checks passed, completeness undecided at this scale",
        NilindependenceUndecidedWarning,
        stacklevel=2,
    )


def reference_hyperplane_combinations(spec) -> tuple:
    """(basis of c . a = 0, sum c_al X_al of each), single generators first."""
    basis = sorted(
        linalg.nullspace([list(spec.a)]), key=lambda c: sum(not v.is_zero() for v in c)
    )
    return basis, [reduce(linalg.mat_add, map(linalg.mat_scale, spec.X, c)) for c in basis]


def reference_left_annihilator_rows(t) -> list:
    return [
        [t.entry(i, j, k) for i in range(t.dim)] for j in range(t.dim) for k in range(t.dim)
    ]


def reference_sp2_nilpotency_locus(x1, x2) -> LocusResult:
    """The sp(2) nilpotency locus with its own real-root test."""
    _require_sp2(x1, "X1")
    _require_sp2(x2, "X2")
    alpha = linalg.det(x1).as_fraction()
    gamma = linalg.det(x2).as_fraction()
    beta = linalg.det(linalg.mat_add(x1, x2)).as_fraction() - alpha - gamma
    q = PolyQ(("c1", "c2"), {(2, 0): alpha, (1, 1): beta, (0, 2): gamma})
    over_r = False
    if alpha == 0:
        witness, witness_field = (Scalar.one(), Scalar.zero()), "R"
    elif gamma == 0:
        witness, witness_field = (Scalar.zero(), Scalar.one()), "R"
    else:
        dehom = PolyQ(("t",), {(2,): alpha, (1,): beta, (0,): gamma})
        has_real_root = quadratic_real_root_exists(dehom)
        witness = (quadratic_roots(dehom)[0], Scalar.one())
        if has_real_root:
            witness_field = "R"
        else:
            witness_field = "C"
            over_r = True
    combo = linalg.mat_add(linalg.mat_scale(x1, witness[0]), linalg.mat_scale(x2, witness[1]))
    if not matrix_nilpotent(combo):
        raise CertifyError("internal error: locus witness failed re-verification")
    return LocusResult(
        nilindependent_over_C=False,
        nilindependent_over_R=over_r,
        witness=witness,
        witness_field=witness_field,
        quadratic=q,
    )


def reference_decide_maximality(t, n_subspace, n: int, f: int, field: str) -> Maximality:
    """Maximality with its own cases: f = 1, (n = 1, f = 2) with a != 0 or
    a = 0, and single-generator spot checks elsewhere."""
    try:
        data = extract_extension_data(t, n, f)
    except ValueError as exc:
        return Maximality(status="undecided", note=f"not in block normal form: {exc}")

    if f == 1:
        s = t.unit_vector(0)
        if element_nilpotent(t, s):
            return _verified_refutation(
                t, n_subspace, s, "appended generator is a nilpotent element"
            )
        return Maximality(status="proved", note="f = 1")

    if n == 1 and f == 2:
        a1, a2 = data.a
        x1, x2 = data.x_matrix(0), data.x_matrix(1)
        if not (a1.is_zero() and a2.is_zero()):
            # the zero H-eigenvalue line is spanned by a2 S1 - a1 S2
            m = linalg.mat_sub(linalg.mat_scale(x1, a2), linalg.mat_scale(x2, a1))
            if matrix_nilpotent(m):
                x = [a2, -a1] + [Scalar.zero()] * (t.dim - 2)
                return _verified_refutation(
                    t, n_subspace, x, "the zero-eigenvalue combination is nilpotent"
                )
            return Maximality(status="proved", note="n = 1, f = 2, a != 0")
        locus = sp2_nilpotency_locus(x1, x2)
        nilindependent = (
            locus.nilindependent_over_C if field == "C" else locus.nilindependent_over_R
        )
        if nilindependent:
            return Maximality(status="proved", note="n = 1, f = 2, a = 0")
        c1, c2 = locus.witness
        x = [c1, c2] + [Scalar.zero()] * (t.dim - 2)
        return _verified_refutation(
            t, n_subspace, x, "nilpotency locus has a nonzero point"
        )

    for al in range(f):
        s = t.unit_vector(al)
        if element_nilpotent(t, s):
            return _verified_refutation(
                t, n_subspace, s, f"generator S{al + 1} is a nilpotent element"
            )
    return Maximality(status="undecided", note="single-generator spot checks passed")



def reference_heisenberg(n: int) -> StructTensor:
    """H(n) in the basis (H, P_1..P_n, B_1..B_n)."""
    dim = 2 * n + 1
    one = Scalar.one()
    constants = {}
    for i in range(n):
        p, b = 1 + i, 1 + n + i
        constants[(p, b, 0)] = one
        constants[(b, p, 0)] = -one
    labels = ["H"] + [f"P{i + 1}" for i in range(n)] + [f"B{i + 1}" for i in range(n)]
    return StructTensor(dim, constants, basis_labels=labels)


def reference_assemble_extension(spec) -> StructTensor:
    """The extension tensor of a spec, written entry by entry."""
    n, f = spec.n, spec.f
    dim = spec.dim()
    idx_h = f

    def pb(u: int) -> int:
        return f + 1 + u

    one = Scalar.one()
    two = Scalar.rational(2)
    constants = {}
    for i in range(n):
        constants[(pb(i), pb(n + i), idx_h)] = one
        constants[(pb(n + i), pb(i), idx_h)] = -one
    for al in range(f):
        a = spec.a[al]
        x = spec.X[al]
        rho = spec.rho[al]
        if not a.is_zero():
            constants[(al, idx_h, idx_h)] = two * a
            constants[(idx_h, al, idx_h)] = -(two * a)
        for u in range(2 * n):
            for v in range(2 * n):
                entry = x[u][v] + (a if u == v else Scalar.zero())
                if not entry.is_zero():
                    constants[(al, pb(u), pb(v))] = entry
                    constants[(pb(u), al, pb(v))] = -entry
            if not rho[u].is_zero():
                constants[(pb(u), al, idx_h)] = rho[u]
        for be in range(f):
            if not spec.r[al][be].is_zero():
                constants[(al, be, idx_h)] = spec.r[al][be]
    return StructTensor(dim, constants, basis_labels=extension_basis_labels(n, f))


def reference_parametric_extension(n: int, f: int) -> StructTensor:
    """The generic extension tensor of H(n) by S_1..S_f, slot by slot."""
    names = _param_names(n, f)
    zero = PolyQ.zero(names)
    one = PolyQ.const(names, 1)

    def var(nm: str) -> PolyQ:
        return PolyQ.var(names, nm)

    dim = 2 * n + 1 + f
    idx_h = f

    def p_(i: int) -> int:  # i is 1-based
        return f + 1 + (i - 1)

    def b_(i: int) -> int:
        return f + 1 + n + (i - 1)

    constants: dict = {}
    for i in range(1, n + 1):
        constants[(p_(i), b_(i), idx_h)] = one
        constants[(b_(i), p_(i), idx_h)] = -one
    for al in range(1, f + 1):
        s = al - 1
        a = var(f"a_{al}")
        bvar = var(f"b_{al}")
        constants[(s, idx_h, idx_h)] = 2 * a
        constants[(idx_h, s, idx_h)] = 2 * bvar
        for j in range(1, n + 1):
            constants[(s, idx_h, p_(j))] = var(f"sigma1_{al}_{j}")
            constants[(s, idx_h, b_(j))] = var(f"sigma2_{al}_{j}")
            constants[(idx_h, s, p_(j))] = var(f"tau1_{al}_{j}")
            constants[(idx_h, s, b_(j))] = var(f"tau2_{al}_{j}")
        for i in range(1, n + 1):
            constants[(s, p_(i), idx_h)] = var(f"gamma1_{al}_{i}")
            constants[(s, b_(i), idx_h)] = var(f"gamma2_{al}_{i}")
            constants[(p_(i), s, idx_h)] = var(f"rho1_{al}_{i}")
            constants[(b_(i), s, idx_h)] = var(f"rho2_{al}_{i}")
            for j in range(1, n + 1):
                delta = one if i == j else zero
                constants[(s, p_(i), p_(j))] = a * delta + var(f"A_{al}_{i}_{j}")
                constants[(s, p_(i), b_(j))] = var(f"C_{al}_{i}_{j}")
                constants[(s, b_(i), p_(j))] = var(f"D_{al}_{i}_{j}")
                constants[(s, b_(i), b_(j))] = a * delta + var(f"E_{al}_{i}_{j}")
                constants[(p_(i), s, p_(j))] = bvar * delta + var(f"F_{al}_{i}_{j}")
                constants[(p_(i), s, b_(j))] = var(f"G_{al}_{i}_{j}")
                constants[(b_(i), s, p_(j))] = var(f"M_{al}_{i}_{j}")
                constants[(b_(i), s, b_(j))] = bvar * delta + var(f"N_{al}_{i}_{j}")
    for al in range(1, f + 1):
        for be in range(1, f + 1):
            constants[(al - 1, be - 1, idx_h)] = var(f"r_{al}_{be}")
            for i in range(1, n + 1):
                constants[(al - 1, be - 1, p_(i))] = var(f"mu_{al}_{be}_{i}")
                constants[(al - 1, be - 1, b_(i))] = var(f"nu_{al}_{be}_{i}")
    return StructTensor(
        dim, constants, basis_labels=extension_basis_labels(n, f), zero=zero
    )


_I = Scalar.quadratic(0, 1, -1)
_HALF_I = Scalar.quadratic(0, Fraction(1, 2), -1)


def reference_heisenberg_rescale_rows(n: int, f: int, mu: Scalar) -> list:
    """P~ = mu P, B~ = mu B, H~ = mu^2 H."""
    dim = 2 * n + 1 + f
    rows = linalg.identity(dim)
    rows[f][f] = mu * mu
    for u in range(2 * n):
        rows[f + 1 + u][f + 1 + u] = mu
    return rows


def reference_rows_H1a0R_to_H1a0C():
    """S~ = iS, H~ = -H, P~ = P + iB, B~ = -(i/2) P - (1/2) B."""
    rows = linalg.zeros(4, 4)
    rows[0][0] = _I
    rows[1][1] = -Scalar.one()
    rows[2][2] = Scalar.one()
    rows[2][3] = _I
    rows[3][2] = -_HALF_I
    rows[3][3] = -Scalar.rational(1, 2)
    return rows


def reference_rows_H1a1R_to_diag():
    """S~ = S, H~ = H, P~ = P - iB, B~ = -(i/2) P + (1/2) B."""
    rows = linalg.zeros(4, 4)
    rows[0][0] = Scalar.one()
    rows[1][1] = Scalar.one()
    rows[2][2] = Scalar.one()
    rows[2][3] = -_I
    rows[3][2] = -_HALF_I
    rows[3][3] = Scalar.rational(1, 2)
    return rows


def reference_rows_H2a1R_to_H2a1C():
    """S~1 = S1, S~2 = iS2, H~ = -H, P~ = P + iB, B~ = -(i/2) P - (1/2) B."""
    rows = linalg.zeros(5, 5)
    rows[0][0] = Scalar.one()
    rows[1][1] = _I
    rows[2][2] = -Scalar.one()
    rows[3][3] = Scalar.one()
    rows[3][4] = _I
    rows[4][3] = -_HALF_I
    rows[4][4] = -Scalar.rational(1, 2)
    return rows


def reference_condensation_rows(real_id: str, complex_id: str) -> list:
    """Basis rows of each documented condensation witness."""
    rescale = reference_heisenberg_rescale_rows(1, 1, _I)
    return {
        ("H1a0R-r0", "H1a0C-r0"): reference_rows_H1a0R_to_H1a0C,
        ("H1a0R-r1", "H1a0C-r1"): reference_rows_H1a0R_to_H1a0C,
        ("H1a0R-rm1", "H1a0C-rm1"): reference_rows_H1a0R_to_H1a0C,
        ("H1a0C-rm1", "H1a0C-r1"): lambda: rescale,
        ("H1a0R-rm1", "H1a0C-r1"): lambda: linalg.mat_mul(
            rescale, reference_rows_H1a0R_to_H1a0C()
        ),
        ("H1a1R", "H1a1C-diag"): reference_rows_H1a1R_to_diag,
        ("H2a1R", "H2a1C"): reference_rows_H2a1R_to_H2a1C,
    }[(real_id, complex_id)]()

class TuplePoly:
    """Polynomial over Q with {exponent tuple: Fraction} terms."""

    def __init__(self, names, terms=None):
        self.names = tuple(names)
        self.terms = {}
        for exp, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if len(exp) != len(self.names):
                raise PolyError(f"exponent width {len(exp)} != universe size {len(self.names)}")
            self.terms[tuple(exp)] = coeff

    @classmethod
    def const(cls, names, value):
        return cls(names, {(0,) * len(names): value})

    @classmethod
    def var(cls, names, name):
        exp = [0] * len(names)
        exp[names.index(name)] = 1
        return cls(names, {tuple(exp): 1})

    def _index(self, name):
        if name not in self.names:
            raise UnknownIndeterminateError(f"unknown indeterminate {name!r}")
        return self.names.index(name)

    def is_zero(self):
        return not self.terms

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(exp) for exp in self.terms)

    def used_names(self):
        used = [False] * len(self.names)
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    used[i] = True
        return tuple(n for n, u in zip(self.names, used) if u)

    def as_linear(self):
        const = Fraction(0)
        coeffs = {}
        for exp, coeff in self.terms.items():
            deg = sum(exp)
            if deg == 0:
                const = coeff
            elif deg == 1:
                coeffs[self.names[exp.index(1)]] = coeff
            else:
                return None
        return const, coeffs

    def _coerce(self, other):
        if isinstance(other, TuplePoly):
            if self.names != other.names:
                raise PolyError("polynomials from different indeterminate universes")
            return other
        return TuplePoly.const(self.names, other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            s = out.get(exp, Fraction(0)) + coeff
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
        return TuplePoly(self.names, out)

    def __neg__(self):
        return TuplePoly(self.names, {exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(exp, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return TuplePoly(self.names, out)

    def __pow__(self, n):
        out = TuplePoly.const(self.names, 1)
        for _ in range(n):
            out = out * self
        return out

    def substitute(self, bindings):
        if not bindings:
            return self
        cols = {}
        for name, value in bindings.items():
            i = self._index(name)
            cols[i] = value if isinstance(value, TuplePoly) else TuplePoly.const(self.names, value)
        out = TuplePoly(self.names)
        for exp, coeff in self.terms.items():
            residual = list(exp)
            term = TuplePoly.const(self.names, coeff)
            for i, value in cols.items():
                e = exp[i]
                if e:
                    residual[i] = 0
                    term = term * value**e
            if any(residual):
                term = term * TuplePoly(self.names, {tuple(residual): 1})
            out = out + term
        return out

    def evaluate(self, bindings):
        missing = [n for n in self.used_names() if n not in bindings]
        if missing:
            raise PolyError(f"unbound indeterminates in evaluation: {missing}")
        total = Scalar.zero()
        for exp, coeff in self.terms.items():
            term = Scalar(coeff)
            for i, e in enumerate(exp):
                if e:
                    value = bindings[self.names[i]]
                    if not isinstance(value, Scalar):
                        value = Scalar(value)
                    for _ in range(e):
                        term = term * value
            total = total + term
        return total

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            if not mono:
                body = str(coeff)
            elif coeff == 1:
                body = mono
            elif coeff == -1:
                body = f"-{mono}"
            else:
                body = f"{coeff}*{mono}"
            if parts and not body.startswith("-"):
                parts.append("+" + body)
            else:
                parts.append(body)
        return "".join(parts)

    def univariate_coefficients(self):
        used = self.used_names()
        if len(used) > 1:
            raise PolyError(f"{self} is not univariate (uses {used})")
        if not used:
            return None, [next(iter(self.terms.values()), Fraction(0))]
        i = self.names.index(used[0])
        coeffs = [Fraction(0)] * (max(exp[i] for exp in self.terms) + 1)
        for exp, coeff in self.terms.items():
            coeffs[exp[i]] = coeff
        return used[0], coeffs


def reference_substituter(like: PolyQ, bindings: dict):
    names = like.names
    values: dict = {}
    for name, value in bindings.items():
        PolyQ.var(names, name)  # an unknown name raises UnknownIndeterminateError
        values[names.index(name)] = value if isinstance(value, PolyQ) else PolyQ.const(names, value)
    powers: dict = {}

    def substitute(p: PolyQ) -> PolyQ:
        if p.names != names:
            raise PolyError("polynomials from different indeterminate universes")
        terms = p.sorted_terms()
        if not any(exp[i] for exp, _ in terms for i in values):
            return p
        out = PolyQ.zero(names)
        for exp, coeff in terms:
            part = PolyQ(names, {tuple(0 if i in values else e for i, e in enumerate(exp)): coeff})
            for i in sorted(values):
                if exp[i]:
                    if (i, exp[i]) not in powers:
                        powers[i, exp[i]] = values[i] ** exp[i]
                    part = part * powers[i, exp[i]]
            out = out + part
        return out

    return substitute


class PackedKeys:
    """Monomial keys as PolyQ packed them before they were sized by degree:
    the exponent vector of a width-w universe as one int of w + 1 fields of
    8 bits, the bytes of its big-endian encoding, the total degree on top and
    then variable 0 down to variable w - 1.  A product is one int add."""

    FIELD_BITS = 8

    def __init__(self, width: int):
        self.width = width
        self.shift = self.FIELD_BITS * width  # of the total-degree field

    def pack(self, exp) -> int:
        return int.from_bytes(bytes((sum(exp), *exp)), "big")

    def unpack(self, key: int) -> tuple:
        return tuple(key.to_bytes(self.width + 1, "big")[1:])

    def degree(self, key: int) -> int:
        return key >> self.shift

    def fields(self, key: int) -> list:
        """(index, exponent) of the nonzero variable fields, index ascending."""
        return [(i, e) for i, e in enumerate(self.unpack(key)) if e]

    def product(self, k1: int, k2: int) -> int:
        return k1 + k2


def reference_reduce_binding_map(raw: dict) -> dict:
    for _ in range(len(raw) + 1):
        changed = False
        for name, rhs in raw.items():
            reduced = reference_substituter(rhs, {k: v for k, v in raw.items() if k != name})(rhs)
            if reduced != rhs:
                raw[name] = reduced
                changed = True
        if not changed:
            return raw
    raise InconsistencyError("cyclic bindings did not reduce")


def _reference_x_commutator_report(x, al: int, be: int) -> list:
    return _commutator_report(
        f"X{al + 1} X{be + 1} - X{be + 1} X{al + 1}", x[al], x[be]
    )


def _reference_eigenvector_report(a, x, rho, al: int, be: int) -> list:
    eig = eigenvector_residual(x[al], rho[be], a[al])
    return _nonzero_report(
        f"(X{al + 1} - a_{al + 1} I) rho^{be + 1}",
        ((f"[{u}]", p) for u, p in enumerate(eig)),
    )


def reference_commutation_residual_system(pa) -> list:
    stages = pa.stage_names()
    if "jacobi" not in stages or "annihilator" not in stages:
        raise OrderingError("commutation stage requires jacobi and annihilator")
    t = pa.tensor
    f = pa.f
    a, x, rho, _ = block_forms(t, pa.n, f)
    reports = []
    lmats = [t.left_mult_matrix(t.unit_vector(s)) for s in _of_kind(pa, "S")]
    rmats = [t.right_mult_matrix(t.unit_vector(s)) for s in _of_kind(pa, "S")]
    for al in range(f):
        for be in range(al + 1, f):
            reports += _commutator_report(
                f"L_S{al + 1} L_S{be + 1} = L_S{be + 1} L_S{al + 1}",
                lmats[al], lmats[be],
            )
            reports += _reference_x_commutator_report(x, al, be)
    for al in range(f):
        for be in range(f):
            reports += _commutator_report(
                f"L_S{al + 1} R_S{be + 1} = R_S{be + 1} L_S{al + 1}",
                lmats[al], rmats[be],
            )
            reports += _reference_eigenvector_report(a, x, rho, al, be)
    return reports


def reference_block_side_reports(pa) -> list:
    f = pa.f
    a, x, rho, _ = block_forms(pa.tensor, pa.n, f)
    reports = []
    for al in range(f):
        for be in range(al + 1, f):
            reports += _reference_x_commutator_report(x, al, be)
    for al in range(f):
        for be in range(f):
            reports += _reference_eigenvector_report(a, x, rho, al, be)
    return reports


def reference_validate(spec) -> None:
    spec._check_shapes()
    n, f = spec.n, spec.f
    if not 1 <= f <= max_extension_bound(n):
        raise FBoundViolation(f"f = {f} outside 1..{max_extension_bound(n)}")
    for al in range(f):
        if not symplectic_check(spec.x_matrix(al), n):
            raise SymplecticViolation(f"X_{al + 1} is not in sp({2 * n})")
    for al in range(f):
        for be in range(al + 1, f):
            xa, xb = spec.x_matrix(al), spec.x_matrix(be)
            if not linalg.mat_eq(linalg.mat_mul(xa, xb), linalg.mat_mul(xb, xa)):
                raise CommutationViolation(f"X_{al + 1} and X_{be + 1} do not commute")
    zero, one = Scalar.zero(), Scalar.one()
    if spec.a[0] not in (zero, one):
        raise ANormalizationViolation(f"a_1 must be 0 or 1, got {spec.a[0]}")
    for al in range(1, f):
        if spec.a[al] != zero:
            raise ANormalizationViolation(f"a_{al + 1} must be 0")
    if spec.a[0] == one:
        if any(not v.is_zero() for vec in spec.rho for v in vec):
            raise ANormalizationViolation("a_1 = 1 forces rho = 0")
        if any(not v.is_zero() for row in spec.r for v in row):
            raise ANormalizationViolation("a_1 = 1 forces r = 0")
    else:
        for al in range(f):
            for be in range(f):
                if not eigenvector_check(spec.x_matrix(al), list(spec.rho[be]), 0):
                    raise NullspaceViolation(
                        f"rho_{be + 1} is not in the nullspace of X_{al + 1}"
                    )
    spec._validate_nilindependence()
