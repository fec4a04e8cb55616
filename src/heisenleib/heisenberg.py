"""Heisenberg algebras H(n) and their solvable extensions.

H(n) is the (2n+1)-dimensional nilpotent Lie algebra with [P_i, B_j] =
-[B_j, P_i] = delta_ij H and central H.  An ExtensionSpec holds the data
(n, f, a, X, rho, r) of a solvable extension by elements S_1..S_f whose
left and right actions on H(n) are the block matrices

    L_S = diag(2a, aI + X),    R_S = ((-2a, 0), (rho, -aI - X)),

with X in sp(2n) (so X K + K X^T = 0 for K = ((0, I), (-I, 0))).  The
displayed action matrices multiply the basis column (H, P, B)^T: row i
lists the coefficients of the bracket of S with the i-th basis element.

Built tensors use the basis order (S_1..S_f, H, P_1..P_n, B_1..B_n).
build_extension validates every side condition eagerly and refuses
invalid data rather than assembling a non-Leibniz product.  This module
alone knows that layout.  action_display and extension_tensor are the
one writer, for every spec tensor and the cascade's generic tensor alike:
the first writes a display from its blocks, the second turns the left and
right displays and the [S, S] vectors into structure constants.
extension_basis_rows places a block-diagonal change of basis in the same
order, and extension_shear rewrites a tensor, Scalar or PolyQ, in the
sheared basis S~ = S + v with v in the nilradical (the cascade's gamma
elimination, checked where it is used).  block_forms is
the one reader of the block form: it reads (a, X, rho, r) back from a
tensor with Scalar or PolyQ entries, for extract_extension_data and for
the cascade alike.  block_side_conditions is the one statement of the
bilinear side conditions [X_a, X_b] = 0 and (X_a - a_a I) rho_b = 0: the
cascade's on PolyQ, ExtensionSpec.validate's on int images of X and rho.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import StructTensor, Subspace, _change_basis_with_inverse
from .linalg import ShapeError
from .scalars import Scalar, common_field


class ExtensionValidationError(ValueError):
    """Base class for extension-data validation failures."""

    code = "validation-error"


class FBoundViolation(ExtensionValidationError):
    code = "f-bound-violation"


class SymplecticViolation(ExtensionValidationError):
    code = "symplectic-violation"


class CommutationViolation(ExtensionValidationError):
    code = "commutation-violation"


class ANormalizationViolation(ExtensionValidationError):
    code = "a-normalization-violation"


class NullspaceViolation(ExtensionValidationError):
    code = "nullspace-violation"


class NilindependenceViolation(ExtensionValidationError):
    code = "nilindependence-violation"


class NilindependenceUndecidedWarning(UserWarning):
    """Nilindependence could not be decided at the implemented scale."""


# what ExtensionSpec.nilpotent_combination returns beyond the implemented scale
UNDECIDED = "undecided"


def heisenberg(n: int) -> StructTensor:
    """H(n) in the basis (H, P_1..P_n, B_1..B_n)."""
    return extension_tensor(n, 0, [], [], [])


def extension_tensor(n: int, f: int, left, right, ss, zero=None) -> StructTensor:
    """The structure constants in the basis (S_1..S_f, H, P, B).

    left[al] and right[al] are the (2n+1)x(2n+1) display matrices of
    [S_al, -] and [-, S_al] on (H, P, B), in the form left_action_display
    and right_action_display return; ss[al][be] is the (H, P, B)-vector of
    [S_al, S_be].  The H(n) products [P_i, B_i] = -[B_i, P_i] = H are
    fixed.  Entries are Scalars, or of the kind of zero when it is given.
    """
    if n < 1:
        raise ValueError(f"H(n) needs n >= 1, got {n}")
    zero = Scalar.zero() if zero is None else zero
    one = zero + 1
    h = f  # the index of H; P_i and B_i follow it
    constants = {}
    for i in range(n):
        p, b = h + 1 + i, h + 1 + n + i
        constants[(p, b, h)] = one
        constants[(b, p, h)] = -one
    for al in range(f):
        for i, (lrow, rrow) in enumerate(zip(left[al], right[al])):
            for k, (lv, rv) in enumerate(zip(lrow, rrow)):
                constants[(al, h + i, h + k)] = lv
                constants[(h + i, al, h + k)] = rv
        for be, vec in enumerate(ss[al]):
            for k, v in enumerate(vec):
                constants[(al, be, h + k)] = v
    return StructTensor(
        2 * n + 1 + f, constants, basis_labels=extension_basis_labels(n, f), zero=zero
    )


def extension_basis_rows(s_rows, h, pb_rows) -> list:
    """Rows of the block-diagonal change of basis S~ = s_rows S, H~ = h H,
    (P~, B~) = pb_rows (P, B) in the basis (S, H, P, B): new basis vectors
    in old coordinates, with int, Fraction or Scalar entries."""
    f, m = len(s_rows), len(pb_rows)
    rows = (
        [list(row) + [0] * (1 + m) for row in s_rows]
        + [[0] * f + [h] + [0] * m]
        + [[0] * (f + 1) + list(row) for row in pb_rows]
    )
    return linalg.smat(rows)


def extension_shear(t: StructTensor, n: int, f: int, shifts) -> StructTensor:
    """t in the basis S~_al = S_al + shifts[al] . (H, P, B), every other basis
    vector kept; shifts[al] is an (H, P, B)-vector of the tensor's entry
    kind.  The new basis rows are I + E with E^2 = 0, so the inverse is
    I - E: the same call with the shifts negated undoes the change."""
    if t.dim != 2 * n + 1 + f or [len(v) for v in shifts] != [2 * n + 1] * f:
        raise ShapeError("tensor dimension or shifts do not match (n, f)")
    q = [t.unit_vector(i) for i in range(t.dim)]  # (I + E)^T: new basis in columns
    p = [t.unit_vector(i) for i in range(t.dim)]  # (I - E)^T, its inverse
    for al, shift in enumerate(shifts):
        for k, v in enumerate(shift):
            q[f + k][al], p[f + k][al] = v, -v
    return _change_basis_with_inverse(t, p, q)


def symplectic_check(x, n: int) -> bool:
    """True iff X K + K X^T = 0, i.e. X lies in sp(2n).  Since K X^T =
    -(X K)^T this says X K is symmetric, which for X = ((A, B), (C, D)) is
    B = B^T, C = C^T and D = -A^T: read off the entries, with no products."""
    if linalg.shape(x) != (2 * n, 2 * n):
        raise ShapeError(f"expected a {2 * n}x{2 * n} matrix")
    return all(
        x[i][n + j] == x[j][n + i]
        and x[n + i][j] == x[n + j][i]
        and x[n + i][n + j] == -x[j][i]
        for i in range(n)
        for j in range(n)
    )


def eigenvector_residual(x, rho, a) -> list:
    """X rho - a rho, for Scalar, PolyQ or int entries."""
    return [u - a * v for u, v in zip(linalg.mat_vec(x, rho), rho)]


def eigenvector_check(x, rho, a) -> bool:
    """True iff X rho = a rho (vacuously true for rho = 0)."""
    if linalg.shape(x)[1] != len(rho):
        raise ShapeError("matrix and vector sizes disagree")
    residual = eigenvector_residual(x, list(rho), linalg.to_scalar(a))
    return all(p.is_zero() for p in residual)


def block_side_conditions(a, x, rho):
    """Residuals of the bilinear side conditions on PolyQ or int block data,
    as two generators (a reader computes only what it draws): (al, be, X_al
    X_be - X_be X_al) for al < be, (al, be, (X_al - a_al I) rho_be) for all."""
    f = len(x)
    commutators = (
        (al, be, linalg.mat_sub(linalg.mat_mul(x[al], x[be]), linalg.mat_mul(x[be], x[al])))
        for al in range(f) for be in range(al + 1, f)
    )
    eigenvectors = (
        (al, be, eigenvector_residual(x[al], rho[be], a[al]))
        for al in range(f) for be in range(f)
    )
    return commutators, eigenvectors


def max_extension_bound(n: int) -> int:
    """Largest number of appended generators: f <= n + 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n + 1


def extension_basis_labels(n: int, f: int) -> list[str]:
    return (
        [f"S{al + 1}" for al in range(f)]
        + ["H"]
        + [f"P{i + 1}" for i in range(n)]
        + [f"B{i + 1}" for i in range(n)]
    )


@dataclass(frozen=True)
class ExtensionSpec:
    """Data (n, f, a, X, rho, r) of a Heisenberg extension.

    a is the list of H-eigenvalue halves (the 2a entries), X the sp(2n)
    action matrices, rho the right-action columns (stored even when forced
    to zero), r the coefficients of [S_alpha, S_beta] = r_ab H.
    """

    n: int
    f: int
    a: tuple
    X: tuple
    rho: tuple
    r: tuple

    @classmethod
    def make(cls, n: int, f: int, a, X, rho=None, r=None) -> ExtensionSpec:
        a = tuple(linalg.to_scalar(v) for v in a)
        X = tuple(tuple(tuple(linalg.to_scalar(v) for v in row) for row in m) for m in X)
        if rho is None:
            rho = [[0] * (2 * n) for _ in range(f)]
        rho = tuple(tuple(linalg.to_scalar(v) for v in vec) for vec in rho)
        if r is None:
            r = [[0] * f for _ in range(f)]
        r = tuple(tuple(linalg.to_scalar(v) for v in row) for row in r)
        return cls(n=n, f=f, a=a, X=X, rho=rho, r=r)

    def x_matrix(self, al: int):
        return [list(row) for row in self.X[al]]

    def dim(self) -> int:
        return 2 * self.n + 1 + self.f

    def _check_shapes(self) -> None:
        n, f = self.n, self.f
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if len(self.a) != f or len(self.X) != f or len(self.rho) != f:
            raise ShapeError("a, X, rho must each have f entries")
        for m in self.X:
            if len(m) != 2 * n or any(len(row) != 2 * n for row in m):
                raise ShapeError(f"X matrices must be {2 * n}x{2 * n}")
        for vec in self.rho:
            if len(vec) != 2 * n:
                raise ShapeError(f"rho vectors must have length {2 * n}")
        if len(self.r) != f or any(len(row) != f for row in self.r):
            raise ShapeError("r must be f x f")

    def validate(self) -> None:
        """Enforce every side condition; raises a named violation, or, for X
        and rho in two quadratic fields, IncompatibleFieldError after sp(2n)."""
        self._check_shapes()
        n, f = self.n, self.f
        if not 1 <= f <= max_extension_bound(n):
            raise FBoundViolation(f"f = {f} outside 1..{max_extension_bound(n)}")
        for al in range(f):
            if not symplectic_check(self.x_matrix(al), n):
                raise SymplecticViolation(f"X_{al + 1} is not in sp({2 * n})")
        d = common_field(v for m in (*self.X, self.rho) for row in m for v in row)
        x = [linalg.integer_image(m, d) for m in self.X]
        rho = [[row[0] for row in linalg.integer_image([[v] for v in u], d)] for u in self.rho]
        # the residuals are read only when every a_al = 0, so a = 0 here
        commutators, eigenvectors = block_side_conditions([0] * f, x, rho)
        for al, be, comm in commutators:
            if any(map(any, comm)):
                raise CommutationViolation(f"X_{al + 1} and X_{be + 1} do not commute")
        zero, one = Scalar.zero(), Scalar.one()
        if self.a[0] not in (zero, one):
            raise ANormalizationViolation(f"a_1 must be 0 or 1, got {self.a[0]}")
        for al in range(1, f):
            if self.a[al] != zero:
                raise ANormalizationViolation(f"a_{al + 1} must be 0")
        if self.a[0] == one:
            if any(not v.is_zero() for vec in self.rho for v in vec):
                raise ANormalizationViolation("a_1 = 1 forces rho = 0")
            if any(not v.is_zero() for row in self.r for v in row):
                raise ANormalizationViolation("a_1 = 1 forces r = 0")
        else:
            # a = 0: left-right action commutation forces X_al rho_be = 0 for
            # every pair, not only the own-nullspace condition.
            for al, be, residual in eigenvectors:
                if any(residual):
                    raise NullspaceViolation(f"rho_{be + 1} is not in the nullspace of X_{al + 1}")
        self._validate_nilindependence()

    def nilpotent_combination(self, field: str = "R"):
        """S-coefficients c != 0 of a nilpotent element sum c_al S_al, None
        when there is none, or UNDECIDED beyond the implemented scale.

        sum c_al S_al acts on H by 2 sum c_al a_al, so only the hyperplane
        c . a = 0 can hold a nilpotent element; there it acts on (P, B) by
        sum c_al X_al.  Each combination of a basis read off a is checked,
        then a plane at n = 1 is decided by the sp(2) nilpotency locus over
        field (R or C) when its entries are rational, and otherwise by a linear
        dependence of its two combinations (commuting sp(2) matrices are
        proportional, so validated data has one; the zero matrix is nilpotent).
        """
        from .certify import sp2_nilpotency_locus

        basis, combos = self._hyperplane_combinations()
        for c, y in zip(basis, combos):
            if linalg.matrix_nilpotent(y):
                return tuple(c)
        if len(basis) <= 1:
            return None
        if len(basis) > 2 or self.n > 1:
            return UNDECIDED
        if all(v.is_rational() for y in combos for row in y for v in row):
            locus = sp2_nilpotency_locus(*combos)
            if locus.nilindependent_over_C if field == "C" else locus.nilindependent_over_R:
                return None
            w1, w2 = locus.witness
        else:
            dependence = linalg.nullspace(
                linalg.transpose([[v for row in y for v in row] for y in combos])
            )
            if not dependence:
                return UNDECIDED
            w1, w2 = dependence[0]
        return tuple(w1 * u + w2 * v for u, v in zip(*basis))

    def _hyperplane_combinations(self) -> tuple:
        """The basis of c . a = 0 that linalg.nullspace([a]) gives, read off a
        (e_j - (a_j / a_p) e_p for j != p, a_p the first nonzero a_al), single
        generators first (the plainest witness), and each sum c_al X_al."""
        p = next((al for al, v in enumerate(self.a) if not v.is_zero()), None)
        basis, combos = linalg.identity(self.f), list(self.X)
        for j in range(self.f):
            if j != p and not self.a[j].is_zero():  # so p < j
                basis[j][p] = -(self.a[j] / self.a[p])
                combos[j] = linalg.mat_add(linalg.mat_scale(self.X[p], basis[j][p]), self.X[j])
        order = sorted((j for j in range(self.f) if j != p), key=lambda j: not self.a[j].is_zero())
        return [basis[j] for j in order], [combos[j] for j in order]

    def _validate_nilindependence(self) -> None:
        c = self.nilpotent_combination()
        if c is UNDECIDED:
            warnings.warn(
                "nilindependence of more than one matrix is only decided at n = 1; "
                "single-matrix checks passed, completeness undecided at this scale",
                NilindependenceUndecidedWarning,
                stacklevel=3,
            )
        elif c is not None:
            names = [f"X_{al + 1}" for al, v in enumerate(c) if not v.is_zero()]
            if len(names) == 1:
                raise NilindependenceViolation(
                    f"{names[0]} is nilpotent, so the appended generators are not "
                    "linearly nilindependent and the nilradical would grow"
                )
            raise NilindependenceViolation(
                f"{', '.join(names)} admit the nilpotent combination "
                f"({', '.join(map(str, c))})"
            )


def action_display(corner, top, sides, blocks, diag) -> list:
    """The action display ((corner, top), (sides, blocks)) on (H, P, B) with
    diag added on the (P, B) diagonal, for entries of any one kind."""
    rows = [[corner, *top]] + [[side, *row] for side, row in zip(sides, blocks)]
    for u in range(1, len(rows)):
        rows[u][u] = diag + rows[u][u]
    return rows


def assemble_extension(spec: ExtensionSpec) -> StructTensor:
    """Assemble the tensor without validation (test hook; prefer
    build_extension): L_S = diag(2a, aI + X), R_S = ((-2a, 0), (rho,
    -(aI + X))) and [S_al, S_be] = r_ab H."""
    spec._check_shapes()
    pad = [Scalar.zero()] * (2 * spec.n)
    left = [action_display(2 * a, pad, pad, x, a) for a, x in zip(spec.a, spec.X)]
    right = [
        action_display(-2 * a, pad, rho, [[-v for v in row] for row in x], -a)
        for a, x, rho in zip(spec.a, spec.X, spec.rho)
    ]
    ss = [[[r] + pad for r in row] for row in spec.r]
    return extension_tensor(spec.n, spec.f, left, right, ss)


def build_extension(spec: ExtensionSpec) -> StructTensor:
    """Validate the spec and assemble its structure tensor."""
    spec.validate()
    return assemble_extension(spec)


def heisenberg_subspace(n: int, f: int) -> Subspace:
    """The H(n) subspace (span of H, P, B) inside a built extension."""
    dim = 2 * n + 1 + f
    return Subspace(dim, tuple(map(tuple, linalg.identity(dim)[f:])))  # already RREF


def left_action_display(t: StructTensor, n: int, f: int, al: int):
    """The (2n+1)x(2n+1) matrix of [S_al, -] in display form: row i holds the
    (H, P, B)-coefficients of the bracket with the i-th nilradical element."""
    return _read_display(t, n, f, al, left=True)


def right_action_display(t: StructTensor, n: int, f: int, al: int):
    return _read_display(t, n, f, al, left=False)


def _read_display(t: StructTensor, n: int, f: int, al: int, left: bool):
    if t.dim != 2 * n + 1 + f:
        raise ShapeError("tensor dimension does not match (n, f)")
    if not 0 <= al < f:
        raise IndexError(f"generator index {al} out of range")
    rows = []
    for i in range(f, t.dim):
        pair = (al, i) if left else (i, al)
        w = [t.entry(*pair, k) for k in range(t.dim)]
        if any(not w[j].is_zero() for j in range(f)):
            raise ValueError("bracket leaves the nilradical; not extension-shaped")
        rows.append(w[f:])
    return rows


def block_forms(t: StructTensor, n: int, f: int):
    """The block form (a, X, rho, r) of a tensor in the basis (S, H, P, B):
    a_al = c(S_al, H, H) / 2, X_al the (P, B) block of L_S_al minus a_al on
    the diagonal, rho_al = c(P/B, S_al, H) and r_ab = c(S_a, S_b, H).  Reads
    Scalar and PolyQ entries alike, through entry() only, and checks
    nothing: extract_extension_data checks the block normal form first."""
    h = f
    pb = range(f + 1, f + 1 + 2 * n)
    a = [t.entry(al, h, h) * Fraction(1, 2) for al in range(f)]
    x = [
        [[t.entry(al, u, v) - a[al] if u == v else t.entry(al, u, v) for v in pb]
         for u in pb]
        for al in range(f)
    ]
    rho = [[t.entry(u, al, h) for u in pb] for al in range(f)]
    r = [[t.entry(al, be, h) for be in range(f)] for al in range(f)]
    return a, x, rho, r


def extract_extension_data(t: StructTensor, n: int, f: int) -> ExtensionSpec:
    """Recover (a, X, rho, r) from a built tensor (round-trip of the block
    forms), after checking that it is in the block normal form."""
    for al in range(f):
        disp = left_action_display(t, n, f, al)
        for j in range(1, 2 * n + 1):
            if not disp[0][j].is_zero() or not disp[j][0].is_zero():
                raise ValueError("left action is not in the block normal form")
        # raises when the right action leaves the nilradical
        right_action_display(t, n, f, al)
    for al in range(f):
        for be in range(f):
            if any(not t.entry(al, be, k).is_zero() for k in range(t.dim) if k != f):
                raise ValueError("[S,S] is not a multiple of H")
    return ExtensionSpec.make(n, f, *block_forms(t, n, f))
