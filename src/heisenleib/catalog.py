"""The classified extension families of H(1) over C and R.

Each entry packages one displayed family: its field membership, parameter
slots with domain constraints, a builder to ExtensionSpec, and the
displayed left-action matrices that the built tensor must reproduce
exactly.  Entry ids:

    H1a1C-diag   a=1, X = diag(A, -A), A >= 0          (C and R)
    H1a1C-jordan a=1, X = ((0,1),(0,0))                (C and R)
    H1a1R        a=1, X = ((0,C),(-C,0)), C > 0        (R)
    H1a0C-r0/r1/rm1   a=0, X = diag(1,-1), r fixed     (r0, r1: C and R)
    H1a0R-r0/r1/rm1   a=0, X = ((0,1),(-1,0)), r fixed (R)
    H2a1C        f=2, X2 = diag(1,-1)                  (C and R)
    H2a1R        f=2, X2 = ((0,1),(-1,0))              (R)

Verification is end to end: build through the validating extension
builder, check the Leibniz identity, the Lie/non-Lie flag, the displayed
matrices, the nilradical certificate, and the dimension bound.  An
entry's build_displays is hand-written on purpose, not built through
heisenberg.action_display: it states the paper's matrices independently,
so the display check does not compare that writer with itself.
Condensation witnesses exhibit the real-to-complex collapses as explicit
change-of-basis matrices over Q(i) that map tensors to tensors exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable

from . import linalg
from .algebra import (
    Fingerprint,
    StructTensor,
    change_basis,
    basis_rows_to_coordinate_map,
    fingerprint,
)
from .certify import NilradicalCertificate, certify_nilradical, mubar_bound_check
from .heisenberg import (
    ExtensionSpec,
    build_extension,
    extension_basis_rows,
    extract_extension_data,
    heisenberg_subspace,
    left_action_display,
)
from .scalars import Scalar


class CatalogError(ValueError):
    """Unknown entry or out-of-domain parameter."""


class NoWitnessError(CatalogError):
    """The requested pair has no documented condensation witness."""


class WitnessMismatchError(CatalogError):
    """A documented condensation witness failed exact tensor equality."""


@dataclass(frozen=True)
class ParamSlot:
    name: str
    domain: str  # human-readable constraint, e.g. "A >= 0"

    def check(self, value: Fraction) -> bool:
        if self.domain == "A >= 0":
            return value >= 0
        if self.domain == "C > 0":
            return value > 0
        raise CatalogError(f"unknown domain constraint {self.domain}")


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    fields: frozenset
    n: int
    f: int
    param_slots: tuple
    label: str
    build_spec: Callable  # checked params -> ExtensionSpec
    build_displays: Callable  # checked params -> displayed left-action matrices

    def default_params(self) -> dict:
        return {slot.name: Fraction(1) for slot in self.param_slots}

    def check_params(self, params: dict) -> dict:
        clean = {}
        for slot in self.param_slots:
            if slot.name not in params:
                raise CatalogError(f"{self.id} needs parameter {slot.name}")
            value = Fraction(params[slot.name])
            if not slot.check(value):
                raise CatalogError(
                    f"{self.id}: {slot.name} = {value} violates {slot.domain}"
                )
            clean[slot.name] = value
        extra = set(params) - {slot.name for slot in self.param_slots}
        if extra:
            raise CatalogError(f"{self.id} takes no parameter {sorted(extra)}")
        return clean

    def spec(self, params: dict | None = None) -> ExtensionSpec:
        clean = self.check_params(params or self.default_params())
        return self.build_spec(clean)


_ROT = [[0, 1], [-1, 0]]
_DIAG = [[1, 0], [0, -1]]


def _a0_spec(x, r):
    """Builder of the a=0 extension with action x and [S, S] = r H."""
    return lambda p: ExtensionSpec.make(1, 1, [0], [x], r=[[r]])


def _fixed_display(rows):
    return lambda p: [linalg.smat(rows)]


_A0_DIAG = _fixed_display([[0, 0, 0], [0, 1, 0], [0, 0, -1]])
_A0_ROT = _fixed_display([[0, 0, 0], [0, 0, 1], [0, -1, 0]])

_ENTRIES = (
    CatalogEntry(
        "H1a1C-diag", frozenset({"C", "R"}), 1, 1,
        (ParamSlot("A", "A >= 0"),),
        "a=1 family with diagonal sp(2) action",
        lambda p: ExtensionSpec.make(1, 1, [1], [[[p["A"], 0], [0, -p["A"]]]]),
        lambda p: [
            linalg.smat([[2, 0, 0], [0, 1 + p["A"], 0], [0, 0, 1 - p["A"]]])
        ],
    ),
    CatalogEntry(
        "H1a1C-jordan", frozenset({"C", "R"}), 1, 1, (),
        "a=1 family with unipotent Jordan-block action",
        lambda p: ExtensionSpec.make(1, 1, [1], [[[0, 1], [0, 0]]]),
        _fixed_display([[2, 0, 0], [0, 1, 1], [0, 0, 1]]),
    ),
    CatalogEntry(
        "H1a1R", frozenset({"R"}), 1, 1,
        (ParamSlot("C", "C > 0"),),
        "a=1 real family with rotation action",
        lambda p: ExtensionSpec.make(1, 1, [1], [[[0, p["C"]], [-p["C"], 0]]]),
        lambda p: [
            linalg.smat([[2, 0, 0], [0, 1, p["C"]], [0, -p["C"], 1]])
        ],
    ),
    CatalogEntry(
        "H1a0C-r0", frozenset({"C", "R"}), 1, 1, (),
        "a=0 diagonal action, r=0 (Lie)",
        _a0_spec(_DIAG, 0), _A0_DIAG,
    ),
    CatalogEntry(
        "H1a0C-r1", frozenset({"C", "R"}), 1, 1, (),
        "a=0 diagonal action, r=1 (non-Lie Leibniz)",
        _a0_spec(_DIAG, 1), _A0_DIAG,
    ),
    CatalogEntry(
        "H1a0C-rm1", frozenset({"R"}), 1, 1, (),
        "a=0 diagonal action, r=-1 (non-Lie Leibniz, real class)",
        _a0_spec(_DIAG, -1), _A0_DIAG,
    ),
    CatalogEntry(
        "H1a0R-r0", frozenset({"R"}), 1, 1, (),
        "a=0 rotation action, r=0 (Lie, real class)",
        _a0_spec(_ROT, 0), _A0_ROT,
    ),
    CatalogEntry(
        "H1a0R-r1", frozenset({"R"}), 1, 1, (),
        "a=0 rotation action, r=1 (non-Lie Leibniz, real class)",
        _a0_spec(_ROT, 1), _A0_ROT,
    ),
    CatalogEntry(
        "H1a0R-rm1", frozenset({"R"}), 1, 1, (),
        "a=0 rotation action, r=-1 (non-Lie Leibniz, real class)",
        _a0_spec(_ROT, -1), _A0_ROT,
    ),
    CatalogEntry(
        "H2a1C", frozenset({"C", "R"}), 1, 2, (),
        "two-dimensional extension, diagonal X2 (Lie)",
        lambda p: ExtensionSpec.make(
            1, 2, [1, 0], [[[0, 0], [0, 0]], [[1, 0], [0, -1]]]
        ),
        lambda p: [
            linalg.smat([[2, 0, 0], [0, 1, 0], [0, 0, 1]]),
            linalg.smat([[0, 0, 0], [0, 1, 0], [0, 0, -1]]),
        ],
    ),
    CatalogEntry(
        "H2a1R", frozenset({"R"}), 1, 2, (),
        "two-dimensional extension, rotation X2 (Lie, real class)",
        lambda p: ExtensionSpec.make(1, 2, [1, 0], [[[0, 0], [0, 0]], _ROT]),
        lambda p: [
            linalg.smat([[2, 0, 0], [0, 1, 0], [0, 0, 1]]),
            linalg.smat([[0, 0, 0], [0, 0, 1], [0, -1, 0]]),
        ],
    ),
)

_BY_ID = {entry.id: entry for entry in _ENTRIES}

# documented sampling policy for parameterized families
PARAMETER_SAMPLES = {
    "A": (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)),
    "C": (Fraction(1), Fraction(2)),
}


def catalog_entries(field: str) -> list:
    """Entries of the classification over the given field, sorted by id."""
    if field not in ("C", "R"):
        raise CatalogError(f"field must be C or R, got {field!r}")
    return sorted(
        (entry for entry in _ENTRIES if field in entry.fields),
        key=lambda entry: entry.id,
    )


def get_entry(entry_id: str) -> CatalogEntry:
    try:
        return _BY_ID[entry_id]
    except KeyError:
        known = ", ".join(sorted(_BY_ID))
        raise CatalogError(f"unknown entry {entry_id!r}; known ids: {known}") from None


def entry_parameter_grid(entry: CatalogEntry) -> list:
    """The documented boundary/sample parameter values of an entry."""
    grid = [{}]
    for slot in entry.param_slots:
        grid = [
            {**point, slot.name: value}
            for point in grid
            for value in PARAMETER_SAMPLES[slot.name]
        ]
    return grid


def _param_view(params: dict) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in params.items()))


def build_entry(entry_id: str, params: dict | None = None) -> StructTensor:
    """Build the entry tensor; parameters are checked against their domain."""
    entry = get_entry(entry_id)
    return build_extension(entry.spec(params))


@dataclass(frozen=True)
class VerificationReport:
    entry_id: str
    params: tuple
    field: str
    dim: int
    expected_dim: int
    leibniz_ok: bool
    lie_flag: bool
    expected_lie: bool
    display_ok: bool
    certificate: NilradicalCertificate
    mubar_ok: bool

    def ok(self) -> bool:
        return (
            self.leibniz_ok
            and self.dim == self.expected_dim
            and self.lie_flag == self.expected_lie
            and self.display_ok
            and self.certificate.proved()
            and self.mubar_ok
        )


def verify_entry(
    entry_id: str, params: dict | None = None, field: str | None = None
) -> VerificationReport:
    """Build and fully check one entry at one parameter point."""
    entry = get_entry(entry_id)
    if field is None:
        field = "C" if "C" in entry.fields else "R"
    if field not in entry.fields:
        raise CatalogError(f"{entry_id} is not a {field}-entry")
    clean = entry.check_params(params or entry.default_params())
    spec = entry.build_spec(clean)
    tensor = build_extension(spec)
    displays = entry.build_displays(clean)
    display_ok = all(
        linalg.mat_eq(left_action_display(tensor, entry.n, entry.f, al), displays[al])
        for al in range(entry.f)
    )
    nilradical = heisenberg_subspace(entry.n, entry.f)
    certificate = certify_nilradical(tensor, nilradical, field=field)
    return VerificationReport(
        entry_id=entry_id,
        params=_param_view(clean),
        field=field,
        dim=tensor.dim,
        expected_dim=2 * entry.n + 1 + entry.f,
        leibniz_ok=tensor.is_leibniz(),
        lie_flag=tensor.is_lie(),
        expected_lie=all(v.is_zero() for row in spec.r for v in row),
        display_ok=display_ok,
        certificate=certificate,
        mubar_ok=mubar_bound_check(tensor, nilradical),
    )


def verify_field(field: str) -> list:
    """Verification reports for every entry over the field at every
    documented parameter sample."""
    reports = []
    for entry in catalog_entries(field):
        for point in entry_parameter_grid(entry):
            reports.append(verify_entry(entry.id, point, field=field))
    return reports


# -- distinctness -------------------------------------------------------------


def jordan_block_rank(tensor: StructTensor, n: int, f: int) -> tuple:
    """Auxiliary invariant: rank of (L_S restricted to span(P,B)) - a I per
    generator.  Separates the diagonal and Jordan a=1 families at A = 0,
    where the base fingerprint ties; it is a change-of-basis invariant of
    the pair (algebra, chosen complement)."""
    return tuple(linalg.rank(x) for x in extract_extension_data(tensor, n, f).X)


@dataclass(frozen=True)
class DistinctnessItem:
    entry_id: str
    params: tuple
    fingerprint: Fingerprint
    aux_rank: tuple


@dataclass(frozen=True)
class DistinctnessPair:
    left: str
    right: str
    separated_by: str | None


@dataclass(frozen=True)
class DistinctnessReport:
    field: str
    items: tuple
    pairs: tuple

    def flagged(self) -> list:
        return [p for p in self.pairs if p.separated_by is None]


def _separator(a: DistinctnessItem, b: DistinctnessItem) -> str | None:
    for name in (f.name for f in fields(Fingerprint)):
        if getattr(a.fingerprint, name) != getattr(b.fingerprint, name):
            return name
    if a.aux_rank != b.aux_rank:
        return "aux_rank"
    return None


def distinctness_report(field: str) -> DistinctnessReport:
    """Pairwise fingerprint evidence across the field's entries at
    representative parameters.  Ties are flagged, never asserted away."""
    items = []
    for entry in catalog_entries(field):
        for point in entry_parameter_grid(entry):
            tensor = build_entry(entry.id, point)
            items.append(
                DistinctnessItem(
                    entry_id=entry.id,
                    params=_param_view(point),
                    fingerprint=fingerprint(tensor),
                    aux_rank=jordan_block_rank(tensor, entry.n, entry.f),
                )
            )
    pairs = []
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            a, b = items[i], items[j]
            if a.entry_id == b.entry_id:
                continue
            pairs.append(
                DistinctnessPair(
                    left=f"{a.entry_id}{dict(a.params) or ''}",
                    right=f"{b.entry_id}{dict(b.params) or ''}",
                    separated_by=_separator(a, b),
                )
            )
    return DistinctnessReport(field=field, items=tuple(items), pairs=tuple(pairs))


# -- condensation witnesses ---------------------------------------------------

_I = Scalar.quadratic(0, 1, -1)
_HALF_I = Scalar.quadratic(0, Fraction(1, 2), -1)


def heisenberg_rescale_rows(n: int, f: int, mu: Scalar) -> list:
    """Basis rows of the H(n) rescaling P~ = mu P, B~ = mu B, H~ = mu^2 H.

    Leaves the X action unchanged and divides r by mu^2."""
    return extension_basis_rows(
        linalg.identity(f), mu * mu, linalg.mat_scale(linalg.identity(2 * n), mu)
    )


# P~ = P + iB, B~ = -(i/2) P - (1/2) B: diagonalizes the rotation to
# diag(1, -1) while preserving the Heisenberg product up to H~ = -H
_ROTATION_TO_DIAG = [[1, _I], [-_HALF_I, Fraction(-1, 2)]]


def _rows_H1a0R_to_H1a0C():
    """S~ = iS, H~ = -H, P~ = P + iB, B~ = -(i/2) P - (1/2) B: keeps
    [S,S] = r H~ for the same r."""
    return extension_basis_rows([[_I]], -1, _ROTATION_TO_DIAG)


def _rows_H1a1R_to_diag():
    """S~ = S, H~ = H, P~ = P - iB, B~ = -(i/2) P + (1/2) B: sends the
    rotation family at C to the diagonal family at A = iC."""
    return extension_basis_rows([[1]], 1, [[1, -_I], [-_HALF_I, Fraction(1, 2)]])


def _rows_H2a1R_to_H2a1C():
    """S~1 = S1, S~2 = iS2, H~ = -H, P~ = P + iB, B~ = -(i/2) P - (1/2) B."""
    return extension_basis_rows([[1, 0], [0, _I]], -1, _ROTATION_TO_DIAG)


@dataclass(frozen=True)
class CondensationWitness:
    real_id: str
    complex_id: str
    params: tuple
    matrix: tuple  # the coordinate map P, rows
    basis_rows: tuple  # new basis vectors in old coordinates
    target_tensor: StructTensor
    target_params: tuple
    verified: bool


# the documented pairs, in order, and the basis rows of each witness
_WITNESS_ROWS = {
    ("H1a0R-r0", "H1a0C-r0"): _rows_H1a0R_to_H1a0C,
    ("H1a0R-r1", "H1a0C-r1"): _rows_H1a0R_to_H1a0C,
    ("H1a0R-rm1", "H1a0C-rm1"): _rows_H1a0R_to_H1a0C,
    # mu^2 = r = -1: rescale H(1) by mu = i
    ("H1a0C-rm1", "H1a0C-r1"): lambda: heisenberg_rescale_rows(1, 1, _I),
    # first _rows_H1a0R_to_H1a0C, then the rescaling written in the intermediate basis
    ("H1a0R-rm1", "H1a0C-r1"): lambda: linalg.mat_mul(
        heisenberg_rescale_rows(1, 1, _I), _rows_H1a0R_to_H1a0C()
    ),
    ("H1a1R", "H1a1C-diag"): _rows_H1a1R_to_diag,
    ("H2a1R", "H2a1C"): _rows_H2a1R_to_H2a1C,
}

DOCUMENTED_CONDENSATIONS = tuple(_WITNESS_ROWS)


def _witness_rows(real_id: str, complex_id: str, params: dict):
    """(basis rows of the witness, parameters of its target)."""
    if real_id == complex_id:
        entry = get_entry(real_id)
        rows = extension_basis_rows(linalg.identity(entry.f), 1, linalg.identity(2 * entry.n))
        return rows, params
    key = (real_id, complex_id)
    if key not in _WITNESS_ROWS:
        raise NoWitnessError(f"no documented condensation witness for {key}")
    # only the rotation family has a C slot; its target is A = iC
    return _WITNESS_ROWS[key](), {"A*": params["C"]} if "C" in params else params


def condensation_witness(
    real_id: str, complex_id: str, params: dict | None = None
) -> CondensationWitness:
    """Change-of-basis matrix over Q(i) sending the real entry to its
    complex condensation target, verified by exact tensor equality.

    For the a=1 rotation family the scale of S is pinned by [S, H] = 2H,
    so the target is the diagonal family at the derived parameter A = iC
    (reported as "A*"): that member is built by the diagonal entry's own
    builder, skipping the check of the real-domain A slot.
    """
    real_entry = get_entry(real_id)
    params = real_entry.check_params(params or real_entry.default_params())
    source = build_extension(real_entry.build_spec(params))
    basis_rows, target_params = _witness_rows(real_id, complex_id, params)
    if "A*" in target_params:
        a_star = _I * Scalar(target_params["A*"])
        target = build_extension(get_entry(complex_id).build_spec({"A": a_star}))
        target_param_view = _param_view({"A*": a_star})
    else:
        target = build_entry(complex_id, target_params or None)
        target_param_view = _param_view(target_params)
    p = basis_rows_to_coordinate_map(basis_rows)
    moved = change_basis(source, p, basis_labels=target.basis_labels)
    verified = moved == target
    if not verified:
        raise WitnessMismatchError(
            f"condensation witness for ({real_id}, {complex_id}) failed "
            "exact tensor equality"
        )
    return CondensationWitness(
        real_id=real_id,
        complex_id=complex_id,
        params=_param_view(params),
        matrix=tuple(tuple(row) for row in p),
        basis_rows=tuple(tuple(row) for row in basis_rows),
        target_tensor=target,
        target_params=target_param_view,
        verified=True,
    )
