"""JSON file formats for algebras and extension data.

Algebra files:
    {"dim": n, "basis": [labels], "field": "Q" | {"sqrt": d},
     "constants": [{"i": i, "j": j, "k": k, "c": "p/q"}, ...]}
listing only the nonzero c_ijk with zero-based indices and scalar strings
in the exact-scalar text format.  The field tag's d passes the same check
as a d in that text, scalars.check_input_d.

Extension-spec files:
    {"n": n, "f": f, "a": [...], "X": [[4n^2 row-major entries], ...],
     "rho": [[2n entries], ...], "r": [[f x f rows]]}
where an X matrix may also be given as 2n rows of 2n entries.
"""

from __future__ import annotations

import json

from .algebra import StructTensor
from .heisenberg import ExtensionSpec
from .scalars import (
    IncompatibleFieldError, Scalar, ScalarError, ScalarParseError, check_input_d, common_field,
)


class FileFormatError(ValueError):
    """Input file does not match the documented format.

    context identifies the offending field for error messages.
    """

    def __init__(self, message: str, context: str = ""):
        super().__init__(message if not context else f"{context}: {message}")
        self.context = context


def _parse_scalar(text, context: str) -> Scalar:
    if not isinstance(text, str):
        raise FileFormatError(f"expected a scalar string, got {text!r}", context)
    try:
        return Scalar.parse(text)
    except ScalarParseError as exc:
        raise FileFormatError(str(exc), context) from None


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _require_list(value, length: int, message: str, context: str) -> list:
    if not isinstance(value, list) or len(value) != length:
        raise FileFormatError(message, context)
    return value


def _file_field(scalars, context: str) -> int | None:
    """common_field of the scalars, with two different d a format error."""
    try:
        return common_field(scalars)
    except IncompatibleFieldError as exc:
        raise FileFormatError(str(exc), context) from None


def _check_field(value, scalars, context: str) -> None:
    if value == "Q":
        d = None
    elif isinstance(value, dict) and set(value) == {"sqrt"}:
        d = value["sqrt"]
        if not _is_int(d):
            raise FileFormatError("sqrt tag must be an integer", context)
        try:
            check_input_d(d)
        except ScalarError as exc:
            raise FileFormatError(f"sqrt tag: {exc}", context) from None
    else:
        raise FileFormatError(f"bad field tag {value!r}", context)
    found = _file_field(scalars, context)
    if found is not None and found != d:
        tag = "Q" if d is None else f"sqrt({d})"
        raise FileFormatError(f"scalar over sqrt({found}) in a {tag} file", context)


def algebra_to_doc(t: StructTensor) -> dict:
    constants = sorted(t.constants_dict().items())
    d = common_field(value for _, value in constants)
    return {
        "dim": t.dim,
        "basis": list(t.basis_labels),
        "field": "Q" if d is None else {"sqrt": d},
        "constants": [{"i": i, "j": j, "k": k, "c": str(v)} for (i, j, k), v in constants],
    }


def algebra_from_doc(doc) -> StructTensor:
    if not isinstance(doc, dict):
        raise FileFormatError("top level must be a JSON object")
    for key in ("dim", "basis", "field", "constants"):
        if key not in doc:
            raise FileFormatError("missing key", key)
    dim = doc["dim"]
    if not _is_int(dim) or dim < 1:
        raise FileFormatError(f"dim must be a positive integer, got {dim!r}", "dim")
    basis = doc["basis"]
    if not isinstance(basis, list) or len(basis) != dim or not all(
        isinstance(x, str) for x in basis
    ):
        raise FileFormatError("basis must list dim label strings", "basis")
    if not isinstance(doc["constants"], list):
        raise FileFormatError("constants must be a list", "constants")
    constants = {}
    scalars = []
    for pos, item in enumerate(doc["constants"]):
        context = f"constants[{pos}]"
        if not isinstance(item, dict) or not {"i", "j", "k", "c"} <= set(item):
            raise FileFormatError("entry needs keys i, j, k, c", context)
        i, j, k = item["i"], item["j"], item["k"]
        for name, idx in (("i", i), ("j", j), ("k", k)):
            if not _is_int(idx) or not 0 <= idx < dim:
                raise FileFormatError(
                    f"index {name}={idx!r} outside 0..{dim - 1}", context
                )
        value = _parse_scalar(item["c"], context)
        if (i, j, k) in constants:
            raise FileFormatError(f"duplicate constant ({i},{j},{k})", context)
        constants[(i, j, k)] = value
        scalars.append(value)
    _check_field(doc["field"], scalars, "field")
    return StructTensor(dim, constants, basis_labels=basis)


def extension_spec_to_doc(spec: ExtensionSpec) -> dict:
    return {
        "n": spec.n,
        "f": spec.f,
        "a": [str(v) for v in spec.a],
        "X": [[str(v) for row in m for v in row] for m in spec.X],
        "rho": [[str(v) for v in vec] for vec in spec.rho],
        "r": [[str(v) for v in row] for row in spec.r],
    }


def extension_spec_from_doc(doc) -> ExtensionSpec:
    if not isinstance(doc, dict):
        raise FileFormatError("top level must be a JSON object")
    for key in ("n", "f", "a", "X", "rho", "r"):
        if key not in doc:
            raise FileFormatError("missing key", key)
    n, f = doc["n"], doc["f"]
    if not _is_int(n) or n < 1:
        raise FileFormatError(f"n must be a positive integer, got {n!r}", "n")
    if not _is_int(f) or f < 1:
        raise FileFormatError(f"f must be a positive integer, got {f!r}", "f")
    a = _require_list(doc["a"], f, f"a must list f = {f} scalars", "a")
    a = [_parse_scalar(v, f"a[{i}]") for i, v in enumerate(a)]
    xs = []
    for al, flat in enumerate(
        _require_list(doc["X"], f, f"X must list f = {f} matrices", "X")
    ):
        context = f"X[{al}]"
        if not isinstance(flat, list):
            raise FileFormatError("expected a list of entries", context)
        if flat and isinstance(flat[0], list):  # accept nested rows too
            shape = f"nested rows must be 2n lists of 2n entries, n = {n}"
            rows = _require_list(flat, 2 * n, shape, context)
            flat = [v for row in rows for v in _require_list(row, 2 * n, shape, context)]
        if len(flat) != 4 * n * n:  # name n, since str(4n^2) may pass the digit limit
            raise FileFormatError(
                f"expected 4n^2 row-major entries, n = {n}, got {len(flat)}", context
            )
        values = [_parse_scalar(v, context) for v in flat]
        xs.append(
            [values[row * 2 * n : (row + 1) * 2 * n] for row in range(2 * n)]
        )
    rho = []
    for al, vec in enumerate(
        _require_list(doc["rho"], f, f"rho must list f = {f} vectors", "rho")
    ):
        context = f"rho[{al}]"
        vec = _require_list(vec, 2 * n, f"expected {2 * n} entries", context)
        rho.append([_parse_scalar(v, context) for v in vec])
    r = []
    for i, row in enumerate(_require_list(doc["r"], f, "r must be an f x f array", "r")):
        row = _require_list(row, f, "r must be an f x f array", "r")
        r.append([_parse_scalar(v, f"r[{i}][{j}]") for j, v in enumerate(row)])
    scalars = a + [v for part in (*xs, rho, r) for row in part for v in row]
    _file_field(scalars, "scalars")
    return ExtensionSpec.make(n, f, a, xs, rho, r)


def load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except OSError as exc:  # missing, a directory or unreadable
        raise FileFormatError(exc.strerror) from None
    except (ValueError, RecursionError) as exc:
        # not UTF-8, nested too deep, or an integer past the digit limit
        raise FileFormatError(str(exc)) from None


def save_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
