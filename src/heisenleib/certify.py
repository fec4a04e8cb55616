"""Exact nilpotency decisions and nilradical certificates.

Matrix nilpotency (M^dim = 0) is decided by linalg.matrix_nilpotent,
beside det, and re-exported here.  For traceless 2x2 matrices (the sp(2)
case) nilpotency is equivalent to a zero determinant, which turns linear
nilindependence of a pair into a root decision for the binary quadratic
det(c1 X1 + c2 X2): one exact root of it decides both fields, as it is
complex exactly when it lies in Q(sqrt d) with d < 0.

certify_nilradical is the trust anchor of the catalog: it re-checks that
the Heisenberg subspace of a built extension is a nilpotent two-sided
ideal containing [L, L], and decides maximality through
ExtensionSpec.nilpotent_combination, which is complete when the zero
H-eigenvalue combinations of the generators span at most a line (any n)
or a plane at n = 1.  Every refutation witness is re-verified before it
is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import (
    StructTensor,
    Subspace,
    _closure_checks,
    _series,
    bracket_span_within,
    element_nilpotent,
)
from .heisenberg import (
    UNDECIDED, extract_extension_data, heisenberg_subspace, symplectic_check,
)
from .linalg import matrix_nilpotent
from .poly import PolyQ, quadratic_roots
from .scalars import Scalar, common_field


class CertifyError(ValueError):
    """Precondition failure in a certification routine."""


class NotSubalgebraError(CertifyError):
    """Subspace nilpotency asked for a subspace not closed under the bracket."""


def _require_sp2(x, what: str):
    if linalg.shape(x) != (2, 2):
        raise CertifyError(f"{what} must be 2x2")
    if not symplectic_check(x, 1):
        raise CertifyError(f"{what} is not in sp(2)")
    for row in x:
        for entry in row:
            if not entry.is_rational():
                raise CertifyError(f"{what} must have rational entries")


@dataclass(frozen=True)
class LocusResult:
    """Outcome of the pair nilpotency-locus decision in sp(2)."""

    nilindependent_over_C: bool
    nilindependent_over_R: bool
    witness: tuple | None
    witness_field: str | None
    quadratic: PolyQ


def sp2_nilpotency_locus(x1, x2) -> LocusResult:
    """Decide whether some nonzero c1 X1 + c2 X2 is nilpotent, over R and C.

    For traceless 2x2 matrices nilpotency is det = 0, and q(c1, c2) =
    det(c1 X1 + c2 X2) is a homogeneous binary quadratic over Q.  Over C a
    nonzero root always exists (no binary quadratic is definite), so no
    pair in sp(2, C) is nilindependent; over R a root exists iff q is not
    definite, that is iff the root quadratic_roots returns is not in an
    imaginary quadratic field.  Any witness found is re-verified with
    matrix_nilpotent.
    """
    _require_sp2(x1, "X1")
    _require_sp2(x2, "X2")
    alpha = linalg.det(x1).as_fraction()
    gamma = linalg.det(x2).as_fraction()
    mixed = linalg.det(linalg.mat_add(x1, x2)).as_fraction()
    beta = mixed - alpha - gamma
    q = PolyQ(("c1", "c2"), {(2, 0): alpha, (1, 1): beta, (0, 2): gamma})
    over_r = False
    if alpha == 0:
        witness = (Scalar.one(), Scalar.zero())
    elif gamma == 0:
        witness = (Scalar.zero(), Scalar.one())
    else:
        # the c2 = 0 axis has q(1, 0) = alpha != 0 here, so the c2 := 1
        # dehomogenization carries the whole real decision
        root = quadratic_roots(PolyQ(("t",), {(2,): alpha, (1,): beta, (0,): gamma}))[0]
        witness = (root, Scalar.one())
        over_r = root.d is not None and root.d < 0
    combo = linalg.mat_add(
        linalg.mat_scale(x1, witness[0]), linalg.mat_scale(x2, witness[1])
    )
    if not matrix_nilpotent(combo):
        raise CertifyError("internal error: locus witness failed re-verification")
    return LocusResult(
        nilindependent_over_C=False,
        nilindependent_over_R=over_r,
        witness=witness,
        witness_field="C" if over_r else "R",
        quadratic=q,
    )


@dataclass(frozen=True)
class ProportionalityResult:
    commute: bool
    proportional: bool
    commutator: tuple


def commuting_sp2_proportionality(x1, x2) -> ProportionalityResult:
    """Check commutation and scalar proportionality of nonzero sp(2) pairs.

    Both are read off the 2x2 minors ac, ad, cd of the (a, c, d) rows of
    X = ((a, c), (d, -a)), with no zero denominator and no matrix product:
    [X1, X2] = ((cd, 2 ac), (-2 ad, -cd)), so commuting is proportionality.
    """
    _require_sp2(x1, "X1")
    _require_sp2(x2, "X2")
    if linalg.is_zero_matrix(x1) or linalg.is_zero_matrix(x2):
        raise CertifyError("proportionality needs nonzero matrices")
    a1, c1, d1 = x1[0][0], x1[0][1], x1[1][0]
    a2, c2, d2 = x2[0][0], x2[0][1], x2[1][0]
    ac, ad, cd = a1 * c2 - a2 * c1, a1 * d2 - a2 * d1, c1 * d2 - c2 * d1
    proportional = ac.is_zero() and ad.is_zero() and cd.is_zero()
    return ProportionalityResult(
        commute=proportional,
        proportional=proportional,
        commutator=((cd, 2 * ac), (-2 * ad, -cd)),
    )


def subspace_nilpotent(t: StructTensor, w: Subspace) -> bool:
    """Lower central series of the subalgebra w, computed inside t."""
    checks, ww = _closure_checks(t, w)
    if not checks.is_subalgebra:
        raise NotSubalgebraError("subspace is not closed under the bracket")
    return _series(t, w, first=ww)[-1].dim == 0


@dataclass(frozen=True)
class Maximality:
    status: str  # "proved" | "refuted" | "undecided"
    witness: tuple | None = None
    note: str = ""


@dataclass(frozen=True)
class NilradicalCertificate:
    nilradical: Subspace
    ideal: bool
    nilpotent: bool
    contains_derived: bool
    maximality: Maximality

    def proved(self) -> bool:
        return (
            self.ideal
            and self.nilpotent
            and self.contains_derived
            and self.maximality.status == "proved"
        )


def mubar_bound_check(t: StructTensor, n: Subspace) -> bool:
    """dim nr(L) >= dim(L) / 2."""
    return 2 * n.dim >= t.dim


def certify_nilradical(
    t: StructTensor, n_subspace: Subspace, field: str | None = None
) -> NilradicalCertificate:
    """Certify that the given Heisenberg subspace is the nilradical of t.

    The sub-checks are: two-sided ideal, nilpotent, and [L, L] contained in
    the subspace (which makes every enlargement an ideal, so maximality
    reduces to element nilpotency of the appended generators).  The
    subspace is held in its cleared canonical form, and containment is
    read off the generating brackets: the ideal checks and [L, L] test each
    bracket [e_i, e_j], [e_i, b] or [b, e_i] for membership, with no
    elimination of the span.  Maximality
    is complete when the zero H-eigenvalue combinations of the generators
    span at most a line, or a plane at n = 1; larger spans report
    "undecided" unless one of their basis combinations is nilpotent.
    The field defaults to C when the constants lie in Q(sqrt d) with d < 0.
    """
    if field is None:
        d = common_field(t.constants_dict().values())
        field = "C" if d is not None and d < 0 else "R"
    if field not in ("C", "R"):
        raise CertifyError(f"field must be C or R, got {field!r}")
    if n_subspace.ambient_dim != t.dim:
        raise CertifyError("subspace ambient dimension != algebra dimension")
    if n_subspace.dim < 3 or n_subspace.dim % 2 == 0:
        raise CertifyError("nilradical candidate must have odd dimension >= 3")
    f = t.dim - n_subspace.dim
    n = (n_subspace.dim - 1) // 2
    if f < 1:
        raise CertifyError("no appended generators: nothing to certify")

    checks, ww = _closure_checks(t, n_subspace)
    ideal = checks.is_two_sided_ideal
    nilpotent = checks.is_subalgebra and _series(t, n_subspace, first=ww)[-1].dim == 0
    full = Subspace.full(t.dim)
    contains_derived = bracket_span_within(t, full, full, n_subspace)

    if n_subspace == heisenberg_subspace(n, f) and ideal and nilpotent and contains_derived:
        maximality = _decide_maximality(t, n_subspace, n, f, field)
    else:
        maximality = Maximality(
            status="undecided",
            note="base checks failed or nonstandard subspace; maximality skipped",
        )
    return NilradicalCertificate(n_subspace, ideal, nilpotent, contains_derived, maximality)


def _verified_refutation(t: StructTensor, n_subspace: Subspace, x, note: str) -> Maximality:
    if not element_nilpotent(t, x):
        raise CertifyError("internal error: refutation witness is not nilpotent")
    enlarged = n_subspace.sum(Subspace.span([x], t.dim))
    if not subspace_nilpotent(t, enlarged):
        raise CertifyError("internal error: enlarged subspace is not nilpotent")
    return Maximality(status="refuted", witness=tuple(x), note=note)


def _decide_maximality(
    t: StructTensor, n_subspace: Subspace, n: int, f: int, field: str
) -> Maximality:
    try:
        data = extract_extension_data(t, n, f)
    except ValueError as exc:
        return Maximality(status="undecided", note=f"not in block normal form: {exc}")
    c = data.nilpotent_combination(field)
    if c is None:
        return Maximality(
            status="proved",
            note="no nonzero combination of the appended generators is a "
            f"nilpotent element over {field}",
        )
    if c is UNDECIDED:
        return Maximality(
            status="undecided",
            note="no basis combination of the generators with zero H-eigenvalue "
            "is nilpotent; a complete decision needs sp(2n) machinery beyond "
            "this scale",
        )
    x = list(c) + [Scalar.zero()] * (t.dim - f)
    return _verified_refutation(
        t, n_subspace, x, "a combination of the appended generators is a nilpotent element"
    )
