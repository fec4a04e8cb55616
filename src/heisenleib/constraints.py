"""Symbolic re-derivation of the extension constraints.

parametric_extension builds the fully generic extension of H(n) by f
elements: the Heisenberg products are numeric, every entry of the generic
left/right action matrices (a, b, sigma, tau, gamma, rho, A..N) and of
[S_a, S_b] = r H + mu P + nu B is its own indeterminate; its displays
come from heisenberg.action_display.  The cascade then replays the
derivation:

    gamma_eliminate -> jacobi table -> annihilator products -> commutation
    -> the S1-triple identity on r (arar)

Each stage computes residual polynomials, extracts the linearly forced
bindings (verified by re-substitution), and substitutes them into the
tensor.  The jacobi, annihilator and arar stages repeat this until no
linear residual remains, all through one driver (_fixed_point): the stage
computes its first-round residual system once, keeps it as the reports it
shows, and hands it to the driver, which recomputes the system only on
each newly bound tensor.  The commutation stage runs a single round.

Bilinear residuals (commutators of the X blocks, the eigenvector system
X rho = a rho, the arar combination) are reported as side conditions,
never solved; the commutation stage and the side conditions read the
X-commutator and eigenvector reports from _block_reports, which wraps
heisenberg.block_side_conditions.  One normalization the derivation
states without displaying is applied as an explicit named binding step:
the a-vector normalization (a_1 in {0, 1}, a_2 = ... = 0; a_normalize_basis
gives its change of basis for a concrete a).  The gamma elimination is a
change of basis S~ = S + v with v in the nilradical
(heisenberg.extension_shear), performed and checked on the spot
(_checked_shear).  In the a_1 = 1 branch the commutation stage binds every
r_ab with a < b (see commutation_residual_system); its r_1b := 0 is the
H-shear S~_b = S_b - (r_1b / 2) H, which no step of its own performs.
No stage indexes the (S, H, P, B) layout: constants are
read through heisenberg's display and block-form readers, and basis
elements are found by the first letter of their labels.

The Jacobi residual here is oriented as [[x,y],z] + [y,[x,z]] - [x,[y,z]]
so that reported polynomials carry the signs of the worked derivation
(the (S, P, H) residual is literally the monomial sigma2).  Every Jacobi
residual (the jacobi stage, the closure triples, arar and the final audit)
comes from one call of the tensor's Leibniz-residual pass per list of
triples; the annihilator's other products go through contract.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product

from . import linalg
from .algebra import StructTensor
from .heisenberg import (
    action_display, block_forms, block_side_conditions, extension_basis_rows,
    extension_shear, extension_tensor, left_action_display, max_extension_bound,
)
from .poly import PolyQ, _Substituter, _used_names


class CascadeError(ValueError):
    """Constraint-engine failure."""


class OrderingError(CascadeError):
    """A stage was invoked before its prerequisite stages."""


class InconsistencyError(CascadeError):
    """Extraction produced contradictory bindings."""


# Elimination preference: lower rank is bound first; survivors of the
# derivation (a, A, C, D, rho, r) rank last so bindings eliminate the
# right-action and auxiliary names the way the derivation does.
_PRIORITY = {
    "sigma1": 0, "sigma2": 0, "tau1": 0, "tau2": 0, "gamma1": 0, "gamma2": 0,
    "mu": 0, "nu": 0,
    "G": 1, "M": 1, "N": 2, "E": 3, "F": 4, "b": 5,
    "rho1": 6, "rho2": 6, "r": 7, "C": 8, "D": 8, "A": 9, "a": 10,
}


def _prefix(name: str) -> str:
    return name.split("_", 1)[0]


@dataclass(frozen=True)
class ConstraintReport:
    """Residual polynomials of one identity, with any forced bindings."""

    source: str
    residual_polys: tuple
    forced: tuple = ()

    def nonzero(self) -> bool:
        return any(not p.is_zero() for _, p in self.residual_polys)


@dataclass(frozen=True)
class StageRecord:
    name: str
    reports: tuple
    bindings: tuple


@dataclass(frozen=True)
class ParamAlgebra:
    """Parametric tensor plus the replayable history of applied bindings."""

    n: int
    f: int
    params: tuple
    tensor: StructTensor
    applied: tuple = ()

    def stage_names(self) -> tuple:
        return tuple(name for name, _ in self.applied)

    def bindings_in_order(self) -> list:
        out = []
        for _, bindings in self.applied:
            out.extend(bindings)
        return out

    def final_bindings(self) -> dict:
        """Accumulated bindings with later bindings substituted into earlier
        right-hand sides (the reduced, order-independent form)."""
        return _reduce_binding_map(dict(self.bindings_in_order()))

    def free_params(self) -> tuple:
        bound = {name for name, _ in self.bindings_in_order()}
        return tuple(p for p in self.params if p not in bound)


def _param_names(n: int, f: int) -> tuple:
    names: list[str] = []
    for al in range(1, f + 1):
        names.append(f"a_{al}")
        names.append(f"b_{al}")
        for base in ("sigma1", "sigma2", "tau1", "tau2", "gamma1", "gamma2",
                     "rho1", "rho2"):
            for i in range(1, n + 1):
                names.append(f"{base}_{al}_{i}")
        for base in ("A", "C", "D", "E", "F", "G", "M", "N"):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    names.append(f"{base}_{al}_{i}_{j}")
    for al in range(1, f + 1):
        for be in range(1, f + 1):
            names.append(f"r_{al}_{be}")
    for al in range(1, f + 1):
        for be in range(1, f + 1):
            for i in range(1, n + 1):
                names.append(f"mu_{al}_{be}_{i}")
                names.append(f"nu_{al}_{be}_{i}")
    return tuple(names)


def parametric_extension(n: int, f: int) -> ParamAlgebra:
    """The generic extension tensor of H(n) by S_1..S_f, all slots symbolic:
    L_S = ((2a, sigma1, sigma2), (gamma1, aI + A, C), (gamma2, D, aI + E)),
    R_S = ((2b, tau1, tau2), (rho1, bI + F, G), (rho2, M, bI + N)) and
    [S_al, S_be] = (r, mu, nu)."""
    if n < 1:
        raise CascadeError(f"n must be >= 1, got {n}")
    if not 1 <= f <= max_extension_bound(n):
        raise CascadeError(f"f = {f} outside 1..{max_extension_bound(n)}")
    names = _param_names(n, f)
    indices = range(1, n + 1)

    def var(*parts) -> PolyQ:
        return PolyQ.var(names, "_".join(map(str, parts)))

    def vec(bases, *parts) -> list:
        # a (P, B)-vector: base_parts_1..base_parts_n for each base in turn
        return [var(base, *parts, j) for base in bases for j in indices]

    def display(al, corner, top, sides, blocks, diag) -> list:
        rows = [vec(pair, al, i) for pair in blocks for i in indices]
        return action_display(corner, vec(top, al), vec(sides, al), rows, diag)

    left, right = [], []
    for al in range(1, f + 1):
        a, b = var("a", al), var("b", al)
        left.append(display(al, 2 * a, ("sigma1", "sigma2"), ("gamma1", "gamma2"),
                            (("A", "C"), ("D", "E")), a))
        right.append(display(al, 2 * b, ("tau1", "tau2"), ("rho1", "rho2"),
                             (("F", "G"), ("M", "N")), b))
    ss = [
        [[var("r", al, be)] + vec(("mu", "nu"), al, be) for be in range(1, f + 1)]
        for al in range(1, f + 1)
    ]
    tensor = extension_tensor(n, f, left, right, ss, zero=PolyQ.zero(names))
    return ParamAlgebra(n=n, f=f, params=names, tensor=tensor)


def substitute_tensor(t: StructTensor, bindings: dict) -> StructTensor:
    """Every entry substituted with one set of bound names and coerced values;
    entries that mention no bound name are kept as they are."""
    return t.map_entries(_Substituter(t.zero, bindings))


def _reduce_binding_map(raw: dict) -> dict:
    """Substitute the bindings into each other's right-hand sides until no
    bound name remains on a right-hand side (the system is triangular).
    One substituter holds every binding and is rebound as right-hand sides
    change; one that mentions its own name is reduced by the others alone,
    which decides what cyclic input returns."""
    reduce = _Substituter(next(iter(raw.values())), raw) if raw else None
    for _ in range(len(raw) + 1):
        changed = False
        for name, rhs in raw.items():
            if name in rhs.used_names():
                reduced = rhs.substitute({k: v for k, v in raw.items() if k != name})
            else:
                reduced = reduce(rhs)
            if reduced != rhs:
                raw[name] = reduced
                reduce.bind(name, reduced)
                changed = True
        if not changed:
            return raw
    raise InconsistencyError("cyclic bindings did not reduce")


def apply_bindings(pa: ParamAlgebra, stage: str, bindings) -> ParamAlgebra:
    reduced = _reduce_binding_map(dict(bindings))
    tensor = substitute_tensor(pa.tensor, reduced) if reduced else pa.tensor
    return ParamAlgebra(
        n=pa.n, f=pa.f, params=pa.params, tensor=tensor,
        applied=pa.applied + ((stage, tuple(sorted(reduced.items()))),),
    )


def replay(pa: ParamAlgebra) -> ParamAlgebra:
    """Re-apply the recorded bindings to a fresh parametric extension."""
    fresh = parametric_extension(pa.n, pa.f)
    for stage, bindings in pa.applied:
        fresh = apply_bindings(fresh, stage, bindings)
    return fresh


# -- basis-index helpers ------------------------------------------------------


def _label(pa: ParamAlgebra, i: int) -> str:
    return pa.tensor.basis_labels[i]


def _of_kind(pa: ParamAlgebra, kind: str) -> list:
    # the kind (S, H, P or B) of a basis element is the first letter of its label
    return [i for i, label in enumerate(pa.tensor.basis_labels) if label[0] == kind]


def triple_label(pa: ParamAlgebra, i: int, j: int, k: int) -> str:
    return "{" + ",".join(_label(pa, x) for x in (i, j, k)) + "}"


def jacobi_vector(t: StructTensor, i: int, j: int, k: int) -> list:
    """[[e_i,e_j],e_k] + [e_j,[e_i,e_k]] - [e_i,[e_j,e_k]] componentwise: the
    Leibniz residual with the derivation's sign, from a one-triple pass."""
    parts = dict(next(t._residuals([(i, j, k)]))[1])
    return [-parts.get(comp, t.zero) for comp in range(t.dim)]


def _nonzero_report(source: str, labelled) -> list:
    """The report of the nonzero (label, poly) pairs, or none if all vanish."""
    polys = tuple((label, p) for label, p in labelled if not p.is_zero())
    return [ConstraintReport(source=source, residual_polys=polys)] if polys else []


def jacobi_residual_system(pa: ParamAlgebra, triples=None) -> list:
    """Jacobi residual reports; all dim^3 basis triples by default."""
    return list(_jacobi_reports(pa, triples))


def _jacobi_reports(pa: ParamAlgebra, triples=None, source: str = "jacobi "):
    # a report per nonzero residual, in the order asked for, as the pass
    # yields them; it holds only the residuals of partners still to come
    for ijk, parts in pa.tensor._residuals(triples):
        if parts:
            polys = tuple((_label(pa, comp), -p) for comp, p in parts)
            yield ConstraintReport(source=source + triple_label(pa, *ijk), residual_polys=polys)


# The kind triples of the derivation's nine-row Jacobi table; what each forces
_TABLE_KINDS = {
    ("S", "P", "H"),  # sigma2 = 0
    ("S", "B", "H"),  # sigma1 = 0
    ("P", "H", "S"),  # tau2 = 0
    ("B", "H", "S"),  # tau1 = 0
    ("S", "P", "P"),  # C = C^T
    ("S", "B", "B"),  # D = D^T
    ("S", "B", "P"),  # E = -A^T
    ("S", "S", "P"),  # nu = 0
    ("S", "S", "B"),  # mu = 0
}


def table_triples(pa: ParamAlgebra) -> list:
    triples = product(range(pa.tensor.dim), repeat=3)
    return [ijk for ijk in triples if tuple(_label(pa, x)[0] for x in ijk) in _TABLE_KINDS]


# -- extraction ---------------------------------------------------------------


def extract_forced_bindings(reports) -> list:
    """Linearly forced bindings from the reports' residual polynomials.

    A residual that is a nonzero rational multiple of one indeterminate
    forces that name to 0; a residual linear in several names binds the
    preferred name to minus the rest.  Every binding is verified by
    substitution into its source residual; contradictory bindings raise
    InconsistencyError.  Nonlinear residuals pass through untouched.
    """
    found: dict[str, PolyQ] = {}
    reduce = None
    for report in reports:
        for _, raw in report.residual_polys:
            # reduce by the bindings already found in this pass, so that a
            # name determined twice through different routes refines the
            # system instead of reporting a spurious contradiction
            poly = reduce(raw) if reduce else raw
            if poly.is_zero():
                continue
            lin = poly.as_linear()
            if lin is None:
                continue
            const, coeffs = lin
            if not coeffs:
                raise InconsistencyError(
                    f"residual of {report.source} is the nonzero constant {const}"
                )
            name = min(
                coeffs, key=lambda nm: (_PRIORITY.get(_prefix(nm), 99), _neg_lex(nm))
            )
            # poly = pivot*name + rest, so name := -rest/pivot = name - poly/pivot
            rhs = PolyQ.var(poly.names, name) - poly * (1 / coeffs[name])
            if not poly.substitute({name: rhs}).is_zero():
                raise InconsistencyError(f"binding {name} failed re-substitution")
            found[name] = rhs
            reduce = reduce or _Substituter(raw, {})
            reduce.bind(name, rhs)
    return sorted(found.items())


def _neg_lex(name: str):
    # among equal-priority candidates prefer the lexicographically greatest
    # name (binds the lower-triangle entry of a symmetry constraint)
    return tuple(-ord(ch) for ch in name)


def annotate_forced(reports, bindings) -> list:
    """Attach to each report the bindings drawn from names its residuals
    mention; substituting the full binding set annihilates every linear
    residual of an annotated report."""
    bound = dict(bindings)
    out = []
    for report in reports:
        names = _used_names(poly for _, poly in report.residual_polys)
        forced = tuple(sorted((nm, bound[nm]) for nm in names if nm in bound))
        out.append(replace(report, forced=forced))
    return out


def _fixed_point(pa: ParamAlgebra, stage: str, residual_fn, reports):
    """Extract-substitute until no linear residual remains.  reports is the
    first round's residual system, which the stage has already computed;
    each later round calls residual_fn on the newly bound tensor.  Returns
    the new ParamAlgebra and every binding found, in round order."""
    all_bindings: list = []
    while True:
        bindings = extract_forced_bindings(reports)
        if not bindings:
            break
        all_bindings.extend(bindings)
        pa = apply_bindings(pa, stage, bindings)
        reports = residual_fn(pa)
    if not all_bindings:
        pa = apply_bindings(pa, stage, ())
    return pa, all_bindings


def _checked_shear(pa: ParamAlgebra, shifts, cleared, bound, what: str) -> list:
    """Change basis to S~_al = S_al + shifts[al] . (H, P, B) by
    extension_shear.  Checks that the constants cleared(tensor) reads vanish
    in the new basis and that binding the bound names to zero gives the
    same tensor in both bases, so recording the bindings keeps the history
    replayable; returns them."""
    t = pa.tensor
    changed = extension_shear(t, pa.n, pa.f, shifts)
    if any(not p.is_zero() for p in cleared(changed)):
        raise CascadeError(f"{what} failed to clear its target constants")
    bindings = [(name, t.zero) for name in bound]
    zeros = dict(bindings)
    if substitute_tensor(t, zeros) != substitute_tensor(changed, zeros):
        raise CascadeError(f"{what} is not a pure reparameterization")
    return bindings


# -- gamma elimination --------------------------------------------------------


def _gammas(t: StructTensor, n: int, f: int) -> list:
    """Per generator, the H-components (gamma1, gamma2) of [S_al, P] and
    [S_al, B]: column H of the left action display below its corner."""
    return [[row[0] for row in left_action_display(t, n, f, al)[1:]] for al in range(f)]


def gamma_eliminate(pa: ParamAlgebra) -> ParamAlgebra:
    """Change basis to S~ = S + sum(gamma1 B) - sum(gamma2 P), check that the
    H-components of [S~, P] and [S~, B] vanish identically, and return the
    generic form with gamma = 0 recorded as the stage's bindings.

    The shear coefficients are read from the tensor's current H-components,
    so a second call is the identity transformation.
    """
    n, f = pa.n, pa.f
    gammas = _gammas(pa.tensor, n, f)
    names = [f"{base}_{al}_{i}" for al in range(1, f + 1)
             for base in ("gamma1", "gamma2") for i in range(1, n + 1)]
    current = [p for gamma in gammas for p in gamma]
    if all(p.is_zero() for p in current):
        return apply_bindings(pa, "gamma_eliminate", ())
    if any(p != PolyQ.var(pa.params, name) for p, name in zip(current, names)):
        raise CascadeError(
            "gamma elimination expects the generic tensor (H-components "
            "must be the free gamma indeterminates or zero)"
        )
    bindings = _checked_shear(
        pa,
        [[pa.tensor.zero] + [-p for p in gamma[n:]] + gamma[:n] for gamma in gammas],
        cleared=lambda t: [p for gamma in _gammas(t, n, f) for p in gamma],
        bound=names,
        what="gamma elimination",
    )
    return apply_bindings(pa, "gamma_eliminate", bindings)


# -- annihilator products -----------------------------------------------------


def annihilator_residual_system(pa: ParamAlgebra) -> list:
    """Residuals of [[S,Y]+[Y,S], Z] over all basis Y, Z, plus the
    right-action closure triples {P_i, B_j, S} and {B_i, P_j, S} that pin
    the lower-right block of R_S."""
    if "jacobi" not in pa.stage_names():
        raise OrderingError("annihilator stage requires the jacobi stage first")
    t = pa.tensor
    reports = []
    for s in _of_kind(pa, "S"):
        for y in range(t.dim):
            u = [t.entry(s, y, m) + t.entry(y, s, m) for m in range(t.dim)]
            support = [(m, um) for m, um in enumerate(u) if not um.is_zero()]
            if not support:
                continue
            for z in range(t.dim):
                vec = t.contract((um, m, z) for m, um in support)
                source = (
                    f"[[{_label(pa, s)},{_label(pa, y)}]+"
                    f"[{_label(pa, y)},{_label(pa, s)}],{_label(pa, z)}]"
                )
                reports += _nonzero_report(source, zip(t.basis_labels, vec))
    closure = [(x, y, s) for s in _of_kind(pa, "S") for p in _of_kind(pa, "P")
               for b in _of_kind(pa, "B") for (x, y) in ((p, b), (b, p))]
    return reports + list(_jacobi_reports(pa, closure, "closure jacobi "))


# -- commutation --------------------------------------------------------------


def _commutator_report(source: str, a, b) -> list:
    return _matrix_report(source, linalg.mat_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a)))


def _matrix_report(source: str, m) -> list:
    return _nonzero_report(
        source, ((f"({u},{v})", p) for u, row in enumerate(m) for v, p in enumerate(row))
    )


def _block_reports(pa: ParamAlgebra) -> tuple:
    """heisenberg.block_side_conditions of the tensor's block forms, each
    pair's residuals as its report: (al, be, X-commutator reports) for
    al < be, and (al, be, (X_al - a_al I) rho_be reports) for every (al, be)."""
    commutators, eigenvectors = block_side_conditions(*block_forms(pa.tensor, pa.n, pa.f)[:3])
    return (
        [(al, be, _matrix_report(f"X{al + 1} X{be + 1} - X{be + 1} X{al + 1}", comm))
         for al, be, comm in commutators],
        [(al, be, _nonzero_report(f"(X{al + 1} - a_{al + 1} I) rho^{be + 1}",
                                  ((f"[{u}]", p) for u, p in enumerate(residual))))
         for al, be, residual in eigenvectors],
    )


def commutation_residual_system(pa: ParamAlgebra) -> list:
    """Residuals of L_a L_b - L_b L_a and L_a R_b - R_b L_a, each followed
    by the same pair's block forms: the X-commutators and the eigenvector
    system (X - aI) rho.  Only the block forms are Leibniz identities: the
    left Leibniz identity gives [L_a, L_b] = r_ab L_H and [L_a, R_b] =
    r_ab R_H, which are nonzero in the S columns, so on a_1 = 1 the full
    comparisons also bind every r_ab with a < b."""
    stages = pa.stage_names()
    if "jacobi" not in stages or "annihilator" not in stages:
        raise OrderingError("commutation stage requires jacobi and annihilator")
    t = pa.tensor
    lmats = [t.left_mult_matrix(t.unit_vector(s)) for s in _of_kind(pa, "S")]
    rmats = [t.right_mult_matrix(t.unit_vector(s)) for s in _of_kind(pa, "S")]
    reports = []
    for pairs, right, op in zip(_block_reports(pa), (lmats, rmats), "LR"):
        for al, be, block in pairs:
            reports += _commutator_report(
                f"L_S{al + 1} {op}_S{be + 1} = {op}_S{be + 1} L_S{al + 1}",
                lmats[al], right[be],
            )
            reports += block
    return reports


# -- the S1 triple identity on r ---------------------------------------------


def verify_arar(pa: ParamAlgebra) -> list:
    """The H-coefficient of the Jacobi residual on (S_1, S_a, S_b) equals
    -2 (a_1 r_ab - a_a r_1b + a_b r_1a); verified as a PolyQ identity for
    every pair and reported in normalized form."""
    if pa.f < 2:
        raise CascadeError("the S1 triple identity needs f >= 2")
    stages = pa.stage_names()
    if "annihilator" not in stages:
        raise OrderingError("arar stage requires the annihilator stage first")
    t = pa.tensor
    a, _, _, r = block_forms(t, pa.n, pa.f)
    s, h = _of_kind(pa, "S"), _of_kind(pa, "H")[0]
    residuals = t._residuals([(s[0], s[al], s[be]) for al in range(pa.f) for be in range(pa.f)])
    reports = []
    for al in range(pa.f):
        for be in range(pa.f):
            parts = dict(next(residuals)[1])
            raw = parts.pop(h, t.zero)  # the Leibniz residual, the Jacobi one negated
            if parts:
                raise CascadeError(
                    "unexpected non-H component in the (S1,S,S) residual"
                )
            expected = a[0] * r[al][be] - a[al] * r[0][be] + a[be] * r[0][al]
            if raw != expected * 2:
                raise CascadeError(
                    f"(S1,S{al + 1},S{be + 1}) residual does not match the "
                    "a-r combination identity"
                )
            reports.append(
                ConstraintReport(
                    source=f"arar (S1,S{al + 1},S{be + 1})",
                    residual_polys=(("H", expected),) if not expected.is_zero() else (),
                )
            )
    return reports


# -- cascade driver -----------------------------------------------------------


@dataclass(frozen=True)
class AuditResult:
    """matched: (component, side label), the residual being a rational multiple
    of that side condition; unmatched: (component, residual PolyQ)."""
    triples_checked: int
    zero_residuals: int
    matched: tuple
    unmatched: tuple

    def ok(self) -> bool:
        return not self.unmatched

    def all_zero(self) -> bool:
        return self.ok() and not self.matched


@dataclass(frozen=True)
class CascadeResult:
    n: int
    f: int
    branch: int | None
    pa: ParamAlgebra
    stages: tuple
    side_conditions: tuple
    audit: AuditResult | None

    def stage(self, name: str) -> StageRecord:
        for record in self.stages:
            if record.name == name:
                return record
        raise KeyError(name)

    def final_bindings(self) -> dict:
        return self.pa.final_bindings()


def _monic(p: PolyQ) -> PolyQ:
    # the largest monomial key is the leading term
    lead = p.terms[max(p.terms)]
    return p if lead == 1 else p * (1 / Fraction(lead))


def final_residual_audit(pa: ParamAlgebra, side_conditions) -> AuditResult:
    """Check every Jacobi residual of the constrained tensor against the
    side conditions: each nonzero residual polynomial must be a rational
    multiple of a reported side-condition polynomial, so that imposing the
    side conditions makes every residual the zero polynomial."""
    side = {}
    for label, p in side_conditions:
        if not p.is_zero():
            side[_monic(p)] = label
    matched = []
    unmatched = []
    reported = 0
    for report in _jacobi_reports(pa):
        reported += 1
        triple = report.source.removeprefix("jacobi ")
        for comp, p in report.residual_polys:
            label = side.get(_monic(p))
            if label is None:
                unmatched.append((f"{triple}/{comp}", p))
            else:
                matched.append((f"{triple}/{comp}", label))
    checked = pa.tensor.dim ** 3
    return AuditResult(
        triples_checked=checked,
        zero_residuals=checked - reported,
        matched=tuple(matched),
        unmatched=tuple(unmatched),
    )


def run_cascade(n: int, f: int, branch: int | None = 1) -> CascadeResult:
    """Full derivation: gamma elimination, jacobi table, a-normalization,
    annihilator products, commutation, and (f >= 2) the r identity.

    branch selects the a-normalization: 1 or 0 for a_1, None to keep the
    a's symbolic (then no normalization bindings are applied and the
    final audit is skipped).
    """
    if branch not in (1, 0, None):
        raise CascadeError("branch must be 1, 0, or None")
    pa = parametric_extension(n, f)
    stages: list[StageRecord] = []

    def record(name: str, bindings, reports=()) -> None:
        stages.append(
            StageRecord(name=name, reports=tuple(reports), bindings=tuple(bindings))
        )

    pa = gamma_eliminate(pa)
    record("gamma_eliminate", pa.applied[-1][1])

    # the fixed point's first round is the table-triple subset of the full
    # pass, in the same (i, j, k) order
    triples = table_triples(pa)
    table = {"jacobi " + triple_label(pa, *triple) for triple in triples}
    first = jacobi_residual_system(pa)
    pa, bindings = _fixed_point(
        pa, "jacobi", lambda q: jacobi_residual_system(q, triples),
        [report for report in first if report.source in table],
    )
    record("jacobi", bindings, annotate_forced(first, bindings))

    if branch is not None:
        zero = PolyQ.zero(pa.params)
        bindings = [("a_1", PolyQ.const(pa.params, branch))]
        bindings += [(f"a_{al}", zero) for al in range(2, f + 1)]
        pa = apply_bindings(pa, "a_normalize", bindings)
        record("a_normalize", bindings)

    first = annihilator_residual_system(pa)
    pa, bindings = _fixed_point(pa, "annihilator", annihilator_residual_system, first)
    record("annihilator", bindings, annotate_forced(first, bindings))

    reports = commutation_residual_system(pa)
    bindings = extract_forced_bindings(reports)
    pa = apply_bindings(pa, "commutation", bindings)
    record("commutation", bindings, reports)

    arar_reports: list = []
    if f >= 2:
        first = verify_arar(pa)
        pa, bindings = _fixed_point(pa, "arar", verify_arar, first)
        arar_reports = annotate_forced(first, bindings)
        record("arar", bindings, arar_reports)

    side = [
        (f"{report.source}{comp}", p)
        for pairs in _block_reports(pa)
        for _, _, block in pairs
        for report in block
        for comp, p in report.residual_polys
    ]
    bound = dict(pa.bindings_in_order())
    for report in arar_reports:
        for comp, p in report.residual_polys:
            recomputed = p.substitute(bound)
            if not recomputed.is_zero():
                side.append((report.source, recomputed))

    audit = None
    if branch is not None:
        audit = final_residual_audit(pa, side)
    return CascadeResult(
        n=n,
        f=f,
        branch=branch,
        pa=pa,
        stages=tuple(stages),
        side_conditions=tuple(side),
        audit=audit,
    )


def instantiate(pa: ParamAlgebra, values: dict) -> "StructTensor":
    """Evaluate the parametric tensor at exact scalar values for its free
    parameters; bound parameters take their derived values automatically."""
    point = {name: linalg.to_scalar(v) for name, v in values.items()}
    constants = pa.tensor.constants_dict()
    missing = {
        name
        for entry in constants.values()
        for name in entry.used_names()
        if name not in point
    }
    if missing:
        raise CascadeError(f"unbound free parameters: {sorted(missing)}")
    return StructTensor(
        pa.tensor.dim,
        {key: entry.evaluate(point) for key, entry in constants.items()},
        basis_labels=pa.tensor.basis_labels,
    )


def a_normalize_basis(a_values, n: int):
    """Change-of-basis rows realizing the a-normalization for a concrete
    a-vector: Gaussian elimination on the S-block sends a to (1, 0, ..., 0)
    (or leaves it zero).  Rows are new basis vectors in old coordinates."""
    a = [linalg.to_scalar(v) for v in a_values]
    s_rows = linalg.identity(len(a))
    pivot = next((i for i, v in enumerate(a) if not v.is_zero()), None)
    if pivot is not None:
        inv = a[pivot].inv()
        s_rows = [[x * inv for x in s_rows[pivot]]] + [
            [x - a[i] * inv * y for x, y in zip(s_rows[i], s_rows[pivot])]
            for i in range(len(a))
            if i != pivot
        ]
    return extension_basis_rows(s_rows, 1, linalg.identity(2 * n))
