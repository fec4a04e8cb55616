"""Batch command-line front door.

Subcommands: verify, series, annihilator, fingerprint, nilradical, derive,
catalog (list | build | verify), witness.  Output is deterministic; the
machine format emits one line-delimited record per check so diffs stay
trivial.  Exit status: 0 all checks pass, 1 check failure, 2 parse error,
3 validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import algebra, catalog, constraints, fileio
from .certify import certify_nilradical, mubar_bound_check
from .heisenberg import build_extension, heisenberg_subspace
from .scalars import Scalar, ScalarError, ScalarParseError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_VALIDATION_ERROR = 3

DEFAULT_MAX_DIM = 16


class CliError(Exception):
    def __init__(self, message: str, status: int):
        super().__init__(message)
        self.status = status


def max_dim() -> int:
    raw = os.environ.get("HEISENLEIB_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError:
        raise CliError(
            f"HEISENLEIB_MAX_DIM must be an integer, got {raw!r}",
            EXIT_VALIDATION_ERROR,
        ) from None
    if value < 1:
        raise CliError("HEISENLEIB_MAX_DIM must be positive", EXIT_VALIDATION_ERROR)
    return value


def _check_dim(dim: int) -> None:
    cap = max_dim()
    if dim > cap:
        raise CliError(f"dimension {dim} exceeds the configured cap {cap}", EXIT_VALIDATION_ERROR)


class Output:
    """Collects report lines; text is human-oriented, machine is one
    key=value record per line."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines: list[str] = []

    def record(self, text: str, **fields):
        if self.fmt == "machine":
            # a space in a value would split a field, and a line break the record
            body = " ".join(
                k + "=" + str(v).replace(" ", "_").replace("\n", "_").replace("\r", "_")
                for k, v in fields.items()
            )
            self.lines.append(body)
        else:
            self.lines.append(text)

    def render(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")


def _emit(out: Output, path: str | None) -> None:
    text = out.render()
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str, from_doc):
    try:
        return from_doc(fileio.load_json(path))
    except fileio.FileFormatError as exc:
        raise CliError(f"{path}: {exc}", EXIT_PARSE_ERROR) from None


def _load_algebra(path: str) -> algebra.StructTensor:
    t = _load(path, fileio.algebra_from_doc)
    _check_dim(t.dim)
    return t


def _parse_params(items) -> dict:
    params = {}
    for item in items or ():
        if "=" not in item:
            raise CliError(
                f"--param needs name=value, got {item!r}", EXIT_PARSE_ERROR
            )
        name, _, value = item.partition("=")
        if name in params:
            raise CliError(f"--param {name} given twice", EXIT_PARSE_ERROR)
        try:
            scalar = Scalar.parse(value)
            params[name] = scalar.as_fraction()
        except (ScalarParseError, ScalarError, ValueError) as exc:
            raise CliError(f"--param {name}: {exc}", EXIT_PARSE_ERROR) from None
    return params


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _vector(out: Output, label: str, key: str, row) -> None:
    out.record(f"  {label}: {' '.join(map(str, row))}", **{key: ";".join(map(str, row))})


# -- subcommands ---------------------------------------------------------------


def cmd_verify(args, out: Output) -> int:
    t = _load_algebra(args.input)
    defects = t.leibniz_defects()
    leibniz_ok = not defects
    if leibniz_ok:
        lie = t.is_lie()
        nilpotent = algebra.is_nilpotent_algebra(t)
        out.record(
            f"leibniz: ok, lie: {_yesno(lie)}, nilpotent: {_yesno(nilpotent)}",
            check="verify",
            leibniz="ok",
            lie=_yesno(lie),
            nilpotent=_yesno(nilpotent),
        )
        return EXIT_OK
    i, j, k = defects[0]
    labels = t.basis_labels
    out.record(
        f"leibniz: FAILED at triple ({labels[i]},{labels[j]},{labels[k]}) "
        f"and {len(defects) - 1} more",
        check="verify",
        leibniz="failed",
        first_triple=f"{labels[i]},{labels[j]},{labels[k]}",
        defects=str(len(defects)),
    )
    return EXIT_CHECK_FAILED


def cmd_series(args, out: Output) -> int:
    t = _load_algebra(args.input)
    if not t.is_leibniz():
        out.record("not a Leibniz algebra", check="series", status="failed")
        return EXIT_CHECK_FAILED
    derived, lower = algebra._both_series(t)
    ddims = ",".join(str(s.dim) for s in derived)
    ldims = ",".join(str(s.dim) for s in lower)
    solvable = derived[-1].dim == 0
    nilpotent = lower[-1].dim == 0
    out.record(
        f"derived dims: [{ddims}]  lower-central dims: [{ldims}]  "
        f"solvable: {_yesno(solvable)}  nilpotent: {_yesno(nilpotent)}",
        check="series",
        derived=f"[{ddims}]",
        lower_central=f"[{ldims}]",
        solvable=_yesno(solvable),
        nilpotent=_yesno(nilpotent),
    )
    return EXIT_OK


def cmd_annihilator(args, out: Output) -> int:
    t = _load_algebra(args.input)
    ann = algebra.left_annihilator(t)
    out.record(
        f"left annihilator dimension: {ann.dim}",
        check="annihilator",
        dim=str(ann.dim),
    )
    for row in ann.rows:
        _vector(out, "basis vector", "basis_vector", row)
    return EXIT_OK


def cmd_fingerprint(args, out: Output) -> int:
    t = _load_algebra(args.input)
    if not t.is_leibniz():
        out.record("not a Leibniz algebra", check="fingerprint", status="failed")
        return EXIT_CHECK_FAILED
    fp = algebra.fingerprint(t)
    out.record(
        f"dim: {fp.dim}  derived: {list(fp.derived_dims)}  "
        f"lower-central: {list(fp.lower_central_dims)}  "
        f"ann_left: {fp.ann_left_dim}  center: {fp.center_dim}  "
        f"lie: {_yesno(fp.is_lie)}  solvable: {_yesno(fp.is_solvable)}  "
        f"nilpotent: {_yesno(fp.is_nilpotent)}",
        check="fingerprint",
        dim=str(fp.dim),
        derived=",".join(map(str, fp.derived_dims)),
        lower_central=",".join(map(str, fp.lower_central_dims)),
        ann_left=str(fp.ann_left_dim),
        center=str(fp.center_dim),
        lie=_yesno(fp.is_lie),
        solvable=_yesno(fp.is_solvable),
        nilpotent=_yesno(fp.is_nilpotent),
    )
    return EXIT_OK


def cmd_nilradical(args, out: Output) -> int:
    spec = _load(args.input, fileio.extension_spec_from_doc)
    _check_dim(spec.dim())
    try:
        tensor = build_extension(spec)
    except ValueError as exc:
        raise CliError(f"invalid extension data: {exc}", EXIT_VALIDATION_ERROR) from None
    nilradical = heisenberg_subspace(spec.n, spec.f)
    cert = certify_nilradical(tensor, nilradical, field=args.field)
    out.record(
        f"ideal: {_yesno(cert.ideal)}  nilpotent: {_yesno(cert.nilpotent)}  "
        f"contains [L,L]: {_yesno(cert.contains_derived)}  "
        f"maximality: {cert.maximality.status}",
        check="nilradical",
        ideal=_yesno(cert.ideal),
        nilpotent=_yesno(cert.nilpotent),
        contains_derived=_yesno(cert.contains_derived),
        maximality=cert.maximality.status,
    )
    if cert.maximality.witness is not None:
        _vector(out, "witness", "witness", cert.maximality.witness)
    if cert.maximality.note:
        out.record(f"  note: {cert.maximality.note}", note=cert.maximality.note)
    bound = mubar_bound_check(tensor, nilradical)
    out.record(
        f"dimension bound 2 dim(nr) >= dim(L): {_yesno(bound)}",
        check="mubar_bound",
        ok=_yesno(bound),
    )
    return EXIT_OK if cert.proved() and bound else EXIT_CHECK_FAILED


def cmd_derive(args, out: Output) -> int:
    branch = None if args.a1 == "free" else int(args.a1)
    _check_dim(2 * args.n + 1 + args.f)
    result = constraints.run_cascade(args.n, args.f, branch)
    for stage in result.stages:
        out.record(
            f"stage {stage.name}: {len(stage.bindings)} bindings",
            stage=stage.name,
            bindings=str(len(stage.bindings)),
        )
        for name, rhs in stage.bindings:
            rhs = str(rhs)  # each polynomial is rendered once, for either format
            out.record(f"  {name} := {rhs}", bind=name, to=rhs)
        if args.residuals:
            for report in stage.reports:
                for comp, poly in report.residual_polys:
                    poly = str(poly)
                    out.record(
                        f"  residual {report.source} [{comp}]: {poly}",
                        residual=report.source,
                        component=comp,
                        poly=poly,
                    )
    for label, poly in result.side_conditions:
        poly = str(poly)
        out.record(f"side condition {label}: {poly} = 0", side_condition=label, poly=poly)
    free = result.pa.free_params()
    out.record(
        f"free parameters: {' '.join(free)}",
        free_params=",".join(free),
    )
    if result.audit is not None:
        out.record(
            f"final audit: {result.audit.triples_checked} triples, "
            f"{len(result.audit.matched)} side-condition residuals, "
            f"{len(result.audit.unmatched)} unmatched",
            check="audit",
            triples=str(result.audit.triples_checked),
            matched=str(len(result.audit.matched)),
            unmatched=str(len(result.audit.unmatched)),
        )
        if not result.audit.ok():
            return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_catalog_list(args, out: Output) -> int:
    fields = [args.field] if args.field else ["C", "R"]
    for field in fields:
        for entry in catalog.catalog_entries(field):
            slots = (
                ", ".join(f"{s.name} ({s.domain})" for s in entry.param_slots)
                or "none"
            )
            out.record(
                f"[{field}] {entry.id}: f={entry.f}, params: {slots} -- {entry.label}",
                field=field,
                id=entry.id,
                f=str(entry.f),
                params=";".join(s.name for s in entry.param_slots),
            )
    return EXIT_OK


def cmd_catalog_build(args, out: Output) -> int:
    path, args.output = args.output, None  # -o names the built algebra; reports go to stdout
    tensor = catalog.build_entry(args.id, _parse_params(args.param) or None)
    doc = fileio.algebra_to_doc(tensor)
    if path:
        try:
            fileio.save_json(path, doc)
        except OSError as exc:
            raise CliError(f"{path}: {exc.strerror}", EXIT_PARSE_ERROR) from None
        out.record(
            f"wrote {args.id} ({tensor.dim}-dimensional) to {path}",
            built=args.id,
            dim=str(tensor.dim),
            path=path,
        )
    else:
        out.record(json.dumps(doc, indent=1, sort_keys=True), built=args.id)
    return EXIT_OK


def cmd_catalog_verify(args, out: Output) -> int:
    # an entry is verified over its own fields; verify_entry refuses any other
    selected = [catalog.get_entry(args.id)] if args.id else None
    fields = [args.field] if args.field else sorted(selected[0].fields) if args.id else ["C", "R"]
    status = EXIT_OK
    for field in fields:
        for entry in selected or catalog.catalog_entries(field):
            for point in catalog.entry_parameter_grid(entry):
                report = catalog.verify_entry(entry.id, point, field=field)
                params = (
                    ",".join(f"{k}={v}" for k, v in report.params) or "-"
                )
                ok = report.ok()
                out.record(
                    f"[{field}] {entry.id} params {params}: "
                    f"leibniz {_yesno(report.leibniz_ok)}, "
                    f"dim {report.dim}, lie {_yesno(report.lie_flag)} "
                    f"(expected {_yesno(report.expected_lie)}), "
                    f"display {_yesno(report.display_ok)}, "
                    f"nilradical {report.certificate.maximality.status}, "
                    f"bound {_yesno(report.mubar_ok)} -> "
                    f"{'ok' if ok else 'FAILED'}",
                    field=field,
                    id=entry.id,
                    params=params,
                    leibniz=_yesno(report.leibniz_ok),
                    dim=str(report.dim),
                    lie=_yesno(report.lie_flag),
                    expected_lie=_yesno(report.expected_lie),
                    display=_yesno(report.display_ok),
                    nilradical=report.certificate.maximality.status,
                    bound=_yesno(report.mubar_ok),
                    result="ok" if ok else "failed",
                )
                if not ok:
                    status = EXIT_CHECK_FAILED
    return status


def cmd_witness(args, out: Output) -> int:
    params = _parse_params(args.param)
    witness = catalog.condensation_witness(args.real_id, args.complex_id, params or None)
    out.record(
        f"witness {args.real_id} -> {args.complex_id}: verified exact equality",
        check="witness",
        real=args.real_id,
        complex=args.complex_id,
        verified="yes",
        target_params=",".join(f"{k}={v}" for k, v in witness.target_params) or "-",
    )
    for row in witness.matrix:
        _vector(out, "P row", "p_row", row)
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------


@functools.cache  # parse_args keeps no state in it: one per process
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "machine"), default="text",
        help="report format (machine = line-delimited records)",
    )
    common.add_argument("-o", "--output", metavar="PATH", help="write report to PATH")

    parser = argparse.ArgumentParser(
        prog="heisenleib",
        description="exact toolkit for Leibniz algebras with Heisenberg nilradical",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler in (
        ("verify", cmd_verify),
        ("series", cmd_series),
        ("annihilator", cmd_annihilator),
        ("fingerprint", cmd_fingerprint),
    ):
        p = sub.add_parser(name, parents=[common], help=f"{name} an algebra file")
        p.add_argument("input", help="algebra JSON file")
        p.set_defaults(handler=handler)

    p = sub.add_parser(
        "nilradical", parents=[common],
        help="certify the nilradical of an extension",
    )
    p.add_argument("input", help="extension-spec JSON file")
    p.add_argument("--field", choices=("C", "R"), default=None)
    p.set_defaults(handler=cmd_nilradical)

    p = sub.add_parser(
        "derive", parents=[common], help="run the symbolic constraint cascade"
    )
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--f", type=int, default=1)
    p.add_argument(
        "--a1", choices=("0", "1", "free"), default="1",
        help="a_1 normalization branch",
    )
    p.add_argument(
        "--residuals", action="store_true", help="include residual polynomials"
    )
    p.set_defaults(handler=cmd_derive)

    p = sub.add_parser("catalog", help="catalog operations")
    csub = p.add_subparsers(dest="catalog_command", required=True)
    c = csub.add_parser("list", parents=[common], help="list entries")
    c.add_argument("--field", choices=("C", "R"), default=None)
    c.set_defaults(handler=cmd_catalog_list)
    c = csub.add_parser(
        "build", parents=[common], help="build an entry to an algebra file"
    )
    c.add_argument("id")
    c.add_argument("--param", action="append", metavar="NAME=VALUE")
    c.set_defaults(handler=cmd_catalog_build)
    c = csub.add_parser("verify", parents=[common], help="verify entries")
    c.add_argument("--field", choices=("C", "R"), default=None)
    c.add_argument("--id", default=None)
    c.set_defaults(handler=cmd_catalog_verify)

    p = sub.add_parser(
        "witness", parents=[common], help="condensation change-of-basis witness"
    )
    p.add_argument("real_id")
    p.add_argument("complex_id")
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.set_defaults(handler=cmd_witness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = Output(args.format)
    try:
        try:
            status = args.handler(args, out)
        except (CliError, catalog.CatalogError, constraints.CascadeError) as exc:
            out.record(f"error: {exc}", error=str(exc))
            status = (
                exc.status if isinstance(exc, CliError)
                else EXIT_CHECK_FAILED if isinstance(exc, catalog.WitnessMismatchError)
                else EXIT_VALIDATION_ERROR
            )
        _emit(out, args.output)
    except OSError as exc:  # writing the -o report; inputs go through load_json
        message = f"{args.output}: {exc.strerror}"
        out = Output(args.format)
        out.record(f"error: {message}", error=message)
        _emit(out, None)
        return EXIT_PARSE_ERROR
    return status


if __name__ == "__main__":
    sys.exit(main())
