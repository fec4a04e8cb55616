import re

import pytest

from heisenleib.algebra import StructTensor
from heisenleib.catalog import build_entry
from heisenleib.cli import main
from heisenleib.fileio import (
    FileFormatError,
    algebra_from_doc,
    algebra_to_doc,
    extension_spec_from_doc,
    extension_spec_to_doc,
    load_json,
    save_json,
)
from heisenleib.heisenberg import ExtensionSpec, heisenberg
from heisenleib.scalars import (
    MAX_SQRT_D, IncompatibleFieldError, Scalar, ScalarError, ScalarParseError,
)


def test_algebra_roundtrip():
    t = build_entry("H1a0C-r1")
    doc = algebra_to_doc(t)
    assert doc["field"] == "Q"
    assert doc["dim"] == 4
    assert algebra_from_doc(doc) == t


def test_algebra_roundtrip_quadratic():
    from heisenleib.catalog import condensation_witness

    target = condensation_witness("H1a1R", "H1a1C-diag").target_tensor
    doc = algebra_to_doc(target)
    assert doc["field"] == {"sqrt": -1}
    assert algebra_from_doc(doc) == target


def test_heisenberg_doc_shape():
    doc = algebra_to_doc(heisenberg(1))
    assert doc["basis"] == ["H", "P1", "B1"]
    assert len(doc["constants"]) == 2


@pytest.mark.parametrize(
    "mutate,context",
    [
        (lambda d: d.pop("dim"), "dim"),
        (lambda d: d.update(dim=0), "dim"),
        (lambda d: d.update(basis=["x"]), "basis"),
        (lambda d: d["constants"].append({"i": 9, "j": 0, "k": 0, "c": "1/1"}), "i="),
        (lambda d: d["constants"].append({"i": 0, "j": 0, "k": 0, "c": "oops"}), "c"),
        (lambda d: d.update(field={"sqrt": 4}), "field"),
        (lambda d: d.update(field="R"), "field"),
        (lambda d: d.update(dim=True, basis=["x"], constants=[]), "dim=True"),
        (lambda d: d["constants"][0].update(i=False), "i=False"),
        # d just above the text bound, and rationals outside p/q
        (lambda d: d.update(field={"sqrt": 1000001}), "field"),
        (lambda d: d["constants"][0].update(c="0.5"), "c=0.5"),
        (lambda d: d["constants"][0].update(c="1e200000"), "c=1e200000"),
    ],
)
def test_algebra_doc_errors(mutate, context):
    doc = algebra_to_doc(heisenberg(1))
    mutate(doc)
    with pytest.raises(FileFormatError):
        algebra_from_doc(doc)


@pytest.mark.parametrize("d", [0, 1, 4, -4, 1000001])
def test_one_rule_for_d(d):
    # the text, the constructor and the field tag refuse the same d; the
    # bound |d| <= 10^6 is for input only, so the constructor takes 1000001
    for text in (f"0*sqrt({d})", f"1/2+1*sqrt({d})"):
        with pytest.raises(ScalarParseError):
            Scalar.parse(text)
    if abs(d) > MAX_SQRT_D:
        assert Scalar(1, 0, d) == Scalar.one()
    else:
        with pytest.raises(ScalarError):
            Scalar(1, 0, d)
    doc = algebra_to_doc(heisenberg(1))
    doc["field"] = {"sqrt": d}
    with pytest.raises(FileFormatError) as info:
        algebra_from_doc(doc)
    assert info.value.context == "field"


def test_field_consistency():
    doc = algebra_to_doc(heisenberg(1))
    doc["constants"][0]["c"] = "0/1+1/1*sqrt(2)"
    with pytest.raises(FileFormatError, match="field"):
        algebra_from_doc(doc)


def test_mixed_field_tensor_refuses_to_write():
    t = StructTensor(4, {(0, 0, 1): Scalar.sqrt_d(2), (2, 2, 3): Scalar.sqrt_d(3)})
    with pytest.raises(IncompatibleFieldError):
        algebra_to_doc(t)


_SQRT2, _SQRT3 = "0/1+1/1*sqrt(2)", "0/1+1/1*sqrt(3)"


def _heisenberg_doc(field, *values):
    doc = algebra_to_doc(heisenberg(1))
    doc["field"] = field
    for item, value in zip(doc["constants"], values):
        item["c"] = value
    return doc


@pytest.mark.parametrize(
    "command,doc,context,named",
    [
        ("verify", _heisenberg_doc("Q", _SQRT2), "field", "sqrt(2)"),
        ("verify", _heisenberg_doc({"sqrt": 2}, _SQRT3), "field", "sqrt(3)"),
        ("verify", _heisenberg_doc({"sqrt": 2}, _SQRT2, _SQRT3), "field", "sqrt(3)"),
        ("nilradical", {"n": 1, "f": 1, "a": ["0/1"], "X": [[_SQRT2, "0/1", "0/1", _SQRT3]],
                        "rho": [["0/1", "0/1"]], "r": [["0/1"]]}, "scalars", "sqrt(3)"),
    ],
)
def test_field_mismatch_is_a_format_error(capsys, tmp_path, command, doc, context, named):
    from_doc = algebra_from_doc if command == "verify" else extension_spec_from_doc
    with pytest.raises(FileFormatError) as info:
        from_doc(doc)
    assert info.value.context == context
    assert named in str(info.value)
    path = tmp_path / "input.json"
    save_json(str(path), doc)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert f"{context}: " in captured.out + captured.err


def test_extension_spec_roundtrip():
    spec = ExtensionSpec.make(
        1, 2, [1, 0], [[[0, 0], [0, 0]], [[1, 0], [0, -1]]]
    )
    doc = extension_spec_to_doc(spec)
    assert extension_spec_from_doc(doc) == spec


def test_extension_spec_accepts_nested_rows():
    spec = ExtensionSpec.make(1, 1, [0], [[[0, 1], [-1, 0]]], r=[[1]])
    doc = extension_spec_to_doc(spec)
    doc["X"] = [[["0/1", "1/1"], ["-1/1", "0/1"]]]
    assert extension_spec_from_doc(doc) == spec


def test_extension_spec_errors():
    doc = {"n": 1, "f": 1, "a": ["0/1"], "X": [["1/1"]], "rho": [["0/1", "0/1"]],
           "r": [["0/1"]]}
    with pytest.raises(FileFormatError, match="row-major"):
        extension_spec_from_doc(doc)


SPEC_N1F1 = {"n": 1, "f": 1, "a": ["0/1"], "X": [["1/1", "0/1", "0/1", "-1/1"]],
             "rho": [["0/1", "0/1"]], "r": [["1/1"]]}


@pytest.mark.parametrize(
    "changes,context",
    [
        ({"n": True, "f": True}, "n"),
        ({"f": True}, "f"),
        ({"a": 5}, "a"),
        ({"X": [5]}, "X[0]"),
        ({"X": [[["1/1", "0/1"], 5]]}, "X[0]"),
        ({"rho": [5]}, "rho[0]"),
        ({"r": 5}, "r"),
        ({"r": [5]}, "r"),
        ({"a": ["0.5"]}, "a[0]"),
        ({"r": [["1e9"]]}, "r[0][0]"),
        # ragged nested rows whose entries add up to 2n x 2n
        ({"X": [[["1", "0", "0"], ["-1"]]]}, "X[0]"),
        ({"X": [[["1", "0", "0", "-1"]]]}, "X[0]"),
        ({"X": [[["1", "0"], ["0", "-1"], []]]}, "X[0]"),
    ],
)
def test_extension_spec_shape_errors(changes, context):
    assert extension_spec_from_doc(SPEC_N1F1).n == 1
    with pytest.raises(FileFormatError, match=rf"^{re.escape(context)}:"):
        extension_spec_from_doc({**SPEC_N1F1, **changes})


def test_load_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"dim\": 3,\n", encoding="utf-8")
    with pytest.raises(FileFormatError, match="line"):
        load_json(str(path))


def test_save_load(tmp_path):
    path = tmp_path / "h.json"
    doc = algebra_to_doc(heisenberg(1))
    save_json(str(path), doc)
    assert load_json(str(path)) == doc
