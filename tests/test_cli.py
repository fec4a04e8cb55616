import hashlib

import pytest

from heisenleib import linalg
from heisenleib.cli import main
from heisenleib.fileio import algebra_to_doc, extension_spec_to_doc, save_json
from heisenleib.heisenberg import ExtensionSpec, build_extension, heisenberg


@pytest.fixture
def h1_file(tmp_path):
    path = tmp_path / "h1.json"
    save_json(str(path), algebra_to_doc(heisenberg(1)))
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    # redirect [P, B] from H to B: the (P, B, P) residual becomes H
    doc = algebra_to_doc(heisenberg(1))
    for item in doc["constants"]:
        if item["i"] == 1:
            item["k"] = 2
    path = tmp_path / "broken.json"
    save_json(str(path), doc)
    return str(path)


def run(capsys, *argv):
    status = main(list(argv))
    return status, capsys.readouterr().out


def test_verify_h1(capsys, h1_file):
    status, out = run(capsys, "verify", h1_file)
    assert status == 0
    assert "leibniz: ok, lie: yes, nilpotent: yes" in out


def test_verify_broken(capsys, broken_file):
    status, out = run(capsys, "verify", broken_file)
    assert status == 1
    assert "FAILED at triple" in out


def test_verify_malformed(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json", encoding="utf-8")
    status, out = run(capsys, "verify", str(path))
    assert status == 2
    assert "malformed JSON" in out


UNDECODABLE = {
    "not-utf8": b"\xff\xfe{}",
    "deep-nesting": b"[" * 200_000 + b"]" * 200_000,
    "long-integer": b'{"dim": ' + b"9" * 5000 + b"}",
}


@pytest.mark.parametrize("command", ["verify", "series", "annihilator", "fingerprint",
                                     "nilradical"])
@pytest.mark.parametrize("name", sorted(UNDECODABLE))
def test_undecodable_input_exit_2(capsys, tmp_path, name, command):
    # a UnicodeDecodeError, RecursionError or int-digit ValueError from the
    # decoder is a parse error with one error line, not a traceback
    path = tmp_path / "input.json"
    path.write_bytes(UNDECODABLE[name])
    status, out = run(capsys, command, str(path))
    assert status == 2
    assert out.startswith(f"error: {path}: ") and out.count("\n") == 1


@pytest.mark.parametrize("name,content", [
    ("malformed", b"{\n"),
    ("missing", None),
    ("not-utf8", UNDECODABLE["not-utf8"]),
    ("document", b'{"dim": 0, "basis": [], "field": "Q", "constants": []}'),
], ids=["malformed", "missing", "not-utf8", "document"])
def test_input_error_names_path_once(capsys, tmp_path, name, content):
    path = tmp_path / f"{name}.json"
    if content is not None:
        path.write_bytes(content)
    status, out = run(capsys, "verify", str(path))
    assert status == 2 and out.startswith(f"error: {path}: ") and out.count(str(path)) == 1
    if name == "missing":
        assert out == f"error: {path}: No such file or directory\n"
    if name == "document":
        assert out.startswith(f"error: {path}: dim: ")


def test_series_and_fingerprint(capsys, h1_file):
    status, out = run(capsys, "series", h1_file)
    assert status == 0 and "derived dims: [1,0]" in out
    status, out = run(capsys, "fingerprint", h1_file, "--format", "machine")
    assert status == 0
    assert "derived=1,0" in out and "lie=yes" in out


def test_annihilator(capsys, h1_file):
    status, out = run(capsys, "annihilator", h1_file)
    assert status == 0 and "dimension: 1" in out


def test_catalog_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "entry.json"
    status, _ = run(capsys, "catalog", "build", "H1a1C-diag",
                    "--param", "A=1/2", "-o", str(out_file))
    assert status == 0
    status, out = run(capsys, "verify", str(out_file))
    assert status == 0
    assert "leibniz: ok" in out


def test_catalog_roundtrip_every_entry(capsys, tmp_path):
    # build X -o f then verify f exits 0 for every in-domain entry
    from heisenleib.catalog import catalog_entries

    seen = set()
    for field in ("C", "R"):
        for entry in catalog_entries(field):
            if entry.id in seen:
                continue
            seen.add(entry.id)
            out_file = tmp_path / f"{entry.id}.json"
            argv = ["catalog", "build", entry.id, "-o", str(out_file)]
            for name, value in entry.default_params().items():
                argv += ["--param", f"{name}={value}"]
            status, _ = run(capsys, *argv)
            assert status == 0
            status, _ = run(capsys, "verify", str(out_file))
            assert status == 0


@pytest.mark.parametrize(
    "argv,text",
    [
        (("catalog", "build", "H1a1C-diag", "--param", "A=-1"), "violates"),
        (("witness", "H1a1R", "H1a1C-diag", "--param", "C=-1"), "violates"),
        (("catalog", "build", "H1a1C-diag", "--param", "C=1"), "needs parameter A"),
        (("witness", "H1a1R", "H1a1C-diag", "--param", "A=1"), "needs parameter C"),
    ],
    ids=["catalog", "witness", "catalog-missing", "witness-missing"],
)
def test_catalog_build_out_of_domain(capsys, argv, text):
    status, out = run(capsys, *argv)
    assert status == 3
    assert text in out


@pytest.mark.parametrize(
    "argv",
    [
        ("catalog", "build", "H1a1C-diag", "--param", "A=1/1*sqrt(2)"),
        ("witness", "H1a1R", "H1a1C-diag", "--param", "C=1/1*sqrt(2)"),
    ],
)
def test_quadratic_param_exit_2(capsys, argv):
    status, out = run(capsys, *argv)
    assert status == 2
    assert "Traceback" not in out


@pytest.mark.parametrize(
    "argv",
    [("catalog", "build", "H9"), ("witness", "H9", "H1a0C-r1")],
    ids=["catalog", "witness"],
)
def test_catalog_build_unknown_id(capsys, argv):
    status, out = run(capsys, *argv)
    assert status == 3
    assert "known ids" in out


def test_catalog_verify_field(capsys):
    status, out = run(capsys, "catalog", "verify", "--field", "C", "--format", "machine")
    assert status == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 8  # 5 entries, diag swept over 4 A-samples
    assert all("result=ok" in line for line in lines)


def test_catalog_verify_single_id(capsys):
    status, out = run(capsys, "catalog", "verify", "--field", "R", "--id", "H1a0R-rm1")
    assert status == 0 and "H1a0R-rm1" in out


def test_catalog_verify_id_over_its_own_fields(capsys):
    status, out = run(capsys, "catalog", "verify", "--id", "H1a1R", "--format", "machine")
    assert status == 0
    lines = [line for line in out.splitlines() if line]
    assert lines and all("field=R id=H1a1R" in line and "result=ok" in line for line in lines)
    # an entry of both fields is verified over both, as with the two --field calls
    status, out = run(capsys, "catalog", "verify", "--id", "H1a0C-r0")
    both = [run(capsys, "catalog", "verify", "--field", fd, "--id", "H1a0C-r0") for fd in "CR"]
    assert status == 0 and out == "".join(text for _, text in both)
    status, out = run(capsys, "catalog", "verify", "--id", "H9")
    assert status == 3 and "unknown entry 'H9'; known ids: " in out
    status, out = run(capsys, "catalog", "verify", "--field", "C", "--id", "H1a1R")
    assert status == 3 and out == "error: H1a1R is not a C-entry\n"


def test_nilradical_command(capsys, tmp_path):
    spec = ExtensionSpec.make(1, 1, [0], [[[1, 0], [0, -1]]], r=[[1]])
    path = tmp_path / "ext.json"
    save_json(str(path), extension_spec_to_doc(spec))
    status, out = run(capsys, "nilradical", str(path))
    assert status == 0
    assert "maximality: proved" in out


@pytest.mark.parametrize(
    "spec,text",
    [
        (ExtensionSpec.make(1, 1, [0], [[[0, 1], [0, 0]]]), "X_1 is nilpotent"),
        # a proportional pair at a = 0: X2 - 2 X1 = 0 is nilpotent
        (ExtensionSpec.make(1, 2, [0, 0], [[[1, 0], [0, -1]], [[2, 0], [0, -2]]]),
         "X_1, X_2 admit the nilpotent combination"),
        # over Q(i): i X1 + X2 = 0 for X1 = diag(i, -i), X2 = diag(1, -1)
        (ExtensionSpec.make(1, 2, [0, 0], [[["0/1+1/1*sqrt(-1)", 0], [0, "0/1-1/1*sqrt(-1)"]],
                                           [[1, 0], [0, -1]]]),
         "X_1, X_2 admit the nilpotent combination"),
    ],
    ids=["nilpotent-x", "proportional-pair", "complex-proportional-pair"],
)
def test_nilradical_invalid_spec(capsys, tmp_path, spec, text):
    path = tmp_path / "bad.json"
    save_json(str(path), extension_spec_to_doc(spec))
    status, out = run(capsys, "nilradical", str(path))
    assert status == 3
    assert text in out


@pytest.mark.parametrize(
    "command,doc",
    [
        ("verify", {"dim": True, "basis": ["x"], "field": "Q", "constants": []}),
        ("verify", {"dim": 2, "basis": ["x", "y"], "field": "Q",
                    "constants": [{"i": False, "j": 1, "k": 1, "c": "1/1"}]}),
        ("nilradical", {"n": True, "f": True, "a": ["0/1"], "X": [["1/1", "0/1", "0/1", "-1/1"]],
                        "rho": [["0/1", "0/1"]], "r": [["1/1"]]}),
        ("nilradical", {"n": 1, "f": 1, "a": 5, "X": [["1/1", "0/1", "0/1", "-1/1"]],
                        "rho": [["0/1", "0/1"]], "r": [["0/1"]]}),
        ("nilradical", {"n": 1, "f": 1, "a": ["0/1"], "X": [5],
                        "rho": [["0/1", "0/1"]], "r": [["0/1"]]}),
        ("nilradical", {"n": 1, "f": 1, "a": ["0/1"], "X": [["1/1", "0/1", "0/1", "-1/1"]],
                        "rho": [5], "r": [["0/1"]]}),
        ("nilradical", {"n": 1, "f": 1, "a": ["0/1"], "X": [["1/1", "0/1", "0/1", "-1/1"]],
                        "rho": [["0/1", "0/1"]], "r": [5]}),
        # d just above the text bound, and rationals outside p/q
        ("verify", {"dim": 3, "basis": ["H", "P1", "B1"], "field": {"sqrt": 1000001},
                    "constants": [{"i": 1, "j": 2, "k": 0, "c": "1/1"}]}),
        ("verify", {"dim": 3, "basis": ["H", "P1", "B1"], "field": {"sqrt": 1000001},
                    "constants": [{"i": 1, "j": 2, "k": 0, "c": "1/1*sqrt(1000001)"}]}),
        ("verify", {"dim": 3, "basis": ["H", "P1", "B1"], "field": "Q",
                    "constants": [{"i": 1, "j": 2, "k": 0, "c": "1e999"}]}),
        ("nilradical", {"n": 1, "f": 1, "a": ["0.5"], "X": [["1/1", "0/1", "0/1", "-1/1"]],
                        "rho": [["0/1", "0/1"]], "r": [["0/1"]]}),
        # scalars over two different fields, sqrt(2) and sqrt(3)
        ("nilradical", {"n": 1, "f": 1, "a": ["0/1"],
                        "X": [["0/1+1/1*sqrt(2)", "0/1", "0/1", "0/1+1/1*sqrt(3)"]],
                        "rho": [["0/1", "0/1"]], "r": [["0/1"]]}),
    ],
)
def test_malformed_shapes_exit_2(capsys, tmp_path, command, doc):
    path = tmp_path / "input.json"
    save_json(str(path), doc)
    status, out = run(capsys, command, str(path))
    assert status == 2
    assert "Traceback" not in out


def test_doubled_sign_in_a_file_exits_2(capsys, tmp_path):
    # one sign per number: "+-3" is not a coefficient
    doc = algebra_to_doc(heisenberg(1))
    doc["constants"][0]["c"] = "1/2+-3*sqrt(2)"
    path = tmp_path / "signs.json"
    save_json(str(path), doc)
    status = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert status == 2 and "constants[0]: " in captured.out + captured.err


def test_nilradical_refuses_ragged_x_rows(capsys, tmp_path):
    # 4 entries, so flattening them read as diag(1, -1); but not 2 rows of 2
    path = tmp_path / "ragged.json"
    save_json(str(path), {"n": 1, "f": 1, "a": ["0"], "X": [[["1", "0", "0"], ["-1"]]],
                          "rho": [["0", "0"]], "r": [["0"]]})
    status = main(["nilradical", str(path)])
    captured = capsys.readouterr()
    assert status == 2 and "X[0]: nested rows" in captured.out + captured.err


def test_nilradical_undecided(capsys, tmp_path):
    import warnings

    x1 = [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, -1, 0], [0, 0, 0, -2]]
    x2 = [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, -2, 0], [0, 0, 0, -1]]
    spec = ExtensionSpec.make(2, 2, [0, 0], [x1, x2])
    path = tmp_path / "undecided.json"
    save_json(str(path), extension_spec_to_doc(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        status, out = run(capsys, "nilradical", str(path))
    assert status == 1
    assert "maximality: undecided" in out


def test_derive_dim_cap(capsys, monkeypatch):
    monkeypatch.setenv("HEISENLEIB_MAX_DIM", "6")
    status, out = run(capsys, "derive", "--n", "2", "--f", "2")
    assert status == 3 and "cap" in out


def test_derive_machine(capsys):
    status, out = run(capsys, "derive", "--n", "1", "--f", "1", "--a1", "1",
                      "--format", "machine")
    assert status == 0
    assert "stage=jacobi" in out
    assert "bind=sigma2_1_1 to=0" in out
    assert "unmatched=0" in out


# sha256 of the derive transcript with residuals, in machine format: a
# change to how the cascade tensor is built or reduced must keep every line
@pytest.mark.parametrize(
    "n,f,a1,digest",
    [
        (1, 1, "0", "a610bef492ad649f1866f53b4e19f9614a6e746bc2f62d50cccf394161f7b1fa"),
        (1, 1, "1", "32cb8ce60b0727094d5e5778628aa519f7b67b5ab3b3fc5d5aca43719a87781d"),
        (1, 1, "free", "f9f9abf99d43553d8169823b283e79669d54f5e1c7bacb87dd643bd4e8e913ef"),
        (1, 2, "0", "4ab1b786c21c7df563a06cf811719640b9ddf737f73ee264bf3d19b652b8f9da"),
        (1, 2, "1", "08e76a2ecd74bf7003da0e7c28d0df42214547f11ae00741870a7fbdf2f54232"),
        (1, 2, "free", "75400dca8832f61f6bcd9c28c7d48b2946851f4e328aa95427f4036c19db6c6e"),
        (2, 1, "0", "413cd62d6d14642227643c768abd6ebbe097242953dbaaa4f6422469a2214bce"),
        (2, 1, "1", "27cc2a30aea2425c7c8f17d7374e160fd0bd7a667a56284b77d75c98c81d3dfa"),
        (2, 1, "free", "e43df19c9977965722c1a1cabd887c5a54b1a178fad5cd16f8e33c21f0d7defe"),
        (2, 2, "0", "c6fa090a0f870a1eae6c268a9ab841f70f9921bc8bf5d91fa57b0d7936ff3f8b"),
        (2, 2, "1", "d5671e39fc75fb4ca27c1b80096edd973ea7239d138b2d2594951e5e4b9b8d3d"),
        (2, 2, "free", "f507be777f5e3320279648cfb66042810f0be2def50c16b5e976f11edc2dc409"),
        (2, 3, "0", "a50c6acb6ca67b3560b9aa327310ffec4c55600ad72abbb9fb3a6f34d69b02c9"),
        (2, 3, "1", "17c6d772a5c26aa2c0e0b4dfbe043fbbdaf255d32e29f6e7415cd66247d283da"),
        (2, 3, "free", "0e8bb84a655a4e206f597c0ad58ca315a7361c3d897072753305a8aa41de88cf"),
        # the 504-wide universe, where int and Fraction coefficients mix most
        (3, 4, "0", "0da836e5d42c21eb87814c00bc535a167129eb4dc5085a092d60d8105e184683"),
        (3, 4, "1", "a3f9551f3834776e2dc0b061477233d6c06246e10d317110f006f130ccdfde80"),
        # the 1,035-wide universe, where keys sized by width were largest
        (4, 5, "0", "15350ff722729b5f96d2a85ff367e5c2e68796cd2d3e198f640ee5cc33fd1163"),
        (4, 5, "1", "5a315bcba14ac844450e5732c641271fdcfbc475bb7c6846f6099fd3aa5689ce"),
    ],
)
def test_derive_transcript_digest(capsys, n, f, a1, digest):
    status, out = run(capsys, "derive", "--n", str(n), "--f", str(f), "--a1", a1,
                      "--residuals", "--format", "machine")
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_witness_command(capsys):
    status, out = run(capsys, "witness", "H1a0R-r1", "H1a0C-r1")
    assert status == 0
    assert "verified exact equality" in out


def test_witness_undocumented(capsys):
    status, out = run(capsys, "witness", "H1a0R-r1", "H2a1C")
    assert status == 3


def test_witness_mismatch_exit_1(capsys, monkeypatch):
    from heisenleib import catalog

    def identity_rows(real_id, complex_id, params):
        return linalg.identity(4), dict(params)

    monkeypatch.setattr(catalog, "_witness_rows", identity_rows)
    status, out = run(capsys, "witness", "H1a0C-rm1", "H1a0C-r1")
    assert status == 1
    assert "failed exact tensor equality" in out


UNKNOWN_H9 = (
    "unknown entry 'H9'; known ids: H1a0C-r0, H1a0C-r1, H1a0C-rm1, H1a0R-r0, "
    "H1a0R-r1, H1a0R-rm1, H1a1C-diag, H1a1C-jordan, H1a1R, H2a1C, H2a1R"
)


def one_error_record(fmt, message) -> str:
    return f"error: {message}\n" if fmt == "text" else "error=" + message.replace(" ", "_") + "\n"


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("argv,status,message", [
    (("catalog", "build", "H9"), 3, UNKNOWN_H9),
    (("catalog", "verify", "--id", "H9"), 3, UNKNOWN_H9),
    (("witness", "H9", "H1a0C-r1"), 3, UNKNOWN_H9),
    (("witness", "H1a0R-r1", "H2a1C"), 3,
     "no documented condensation witness for ('H1a0R-r1', 'H2a1C')"),
    (("witness", "H1a0C-rm1", "H1a0C-r1"), 1,
     "condensation witness for (H1a0C-rm1, H1a0C-r1) failed exact tensor equality"),
    (("derive", "--n", "0"), 3, "n must be >= 1, got 0"),
    (("derive", "--n", "1", "--f", "5"), 3, "f = 5 outside 1..2"),
], ids=["build-unknown", "verify-unknown", "witness-unknown", "witness-undocumented",
        "witness-mismatch", "derive-n0", "derive-f5"])
def test_library_errors_exit_codes(capsys, monkeypatch, argv, status, message, fmt):
    from heisenleib import catalog

    if status == 1:  # identity rows cannot map H1a0C-rm1 onto H1a0C-r1
        def identity_rows(real_id, complex_id, params):
            return linalg.identity(4), params

        monkeypatch.setattr(catalog, "_witness_rows", identity_rows)
    code, out = run(capsys, *argv, "--format", fmt)
    assert code == status
    assert out == one_error_record(fmt, message)


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("argv,name", [
    (("catalog", "build", "H1a1C-diag", "--param", "A=1", "--param", "A=2"), "A"),
    (("catalog", "build", "H1a1C-diag", "--param", "A=1", "--param", "A=1"), "A"),
    (("witness", "H1a1R", "H1a1C-diag", "--param", "C=1", "--param", "C=2"), "C"),
], ids=["build", "build-same-value", "witness"])
def test_repeated_param_refused(capsys, argv, name, fmt):
    code, out = run(capsys, *argv, "--format", fmt)
    assert code == 2
    assert out == one_error_record(fmt, f"--param {name} given twice")


def test_output_to_file(capsys, tmp_path, h1_file):
    report = tmp_path / "report.txt"
    status, out = run(capsys, "verify", h1_file, "-o", str(report))
    assert status == 0 and out == ""
    assert "leibniz: ok" in report.read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("argv", [
    ("catalog", "list"),
    ("catalog", "build", "H1a0C-r1"),
    ("verify", "{h1}"),
    ("witness", "H9", "H1a0C-r1"),  # an exit 3 whose error record cannot be written either
], ids=["catalog-list", "catalog-build", "verify", "witness-error"])
def test_unwritable_output_exit_2(capsys, tmp_path, h1_file, argv, where, fmt):
    target = tmp_path / "missing" / "out.txt" if where == "missing-directory" else tmp_path
    argv = [a.format(h1=h1_file) for a in argv]
    status, out = run(capsys, *argv, "-o", str(target), "--format", fmt)
    assert status == 2
    reason = "No such file or directory" if where == "missing-directory" else "Is a directory"
    if fmt == "text":
        assert out == f"error: {target}: {reason}\n"
    else:
        assert out == "error=" + f"{target}: {reason}".replace(" ", "_") + "\n"


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("argv,status", [
    (("H9",), 3),
    (("H1a1C-diag", "--param", "A"), 2),
], ids=["unknown-id", "bad-param"])
def test_catalog_build_error_goes_to_stdout(capsys, tmp_path, argv, status, fmt):
    # -o names the algebra file; a refused build leaves it uncreated
    target = tmp_path / "entry.json"
    code, out = run(capsys, "catalog", "build", *argv, "-o", str(target), "--format", fmt)
    assert code == status and not target.exists()
    assert out.startswith("error: " if fmt == "text" else "error=") and out.count("\n") == 1


def test_output_determinism(capsys):
    _, first = run(capsys, "catalog", "verify", "--field", "C", "--format", "machine")
    _, second = run(capsys, "catalog", "verify", "--field", "C", "--format", "machine")
    assert first == second


def test_max_dim_env(capsys, tmp_path, monkeypatch):
    doc = algebra_to_doc(heisenberg(3))
    path = tmp_path / "h3.json"
    save_json(str(path), doc)
    monkeypatch.setenv("HEISENLEIB_MAX_DIM", "5")
    status, out = run(capsys, "verify", str(path))
    assert status == 3
    assert "cap" in out
    monkeypatch.setenv("HEISENLEIB_MAX_DIM", "16")
    status, _ = run(capsys, "verify", str(path))
    assert status == 0


@pytest.mark.parametrize("fmt,record", [
    ("text", "error: dimension 6 exceeds the configured cap 5\n"),
    ("machine", "error=dimension_6_exceeds_the_configured_cap_5\n"),
])
def test_dimension_cap_one_record(capsys, tmp_path, monkeypatch, fmt, record):
    # dim 6 from each input: H(2) by one generator, as an algebra file, as
    # a spec file and as the cascade at (n, f) = (2, 1)
    x = [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, -1, 0], [0, 0, 0, -2]]
    spec = ExtensionSpec.make(2, 1, [0], [x], r=[[1]])
    algebra, spec_path = str(tmp_path / "alg.json"), str(tmp_path / "spec.json")
    save_json(algebra, algebra_to_doc(build_extension(spec)))
    save_json(spec_path, extension_spec_to_doc(spec))
    monkeypatch.setenv("HEISENLEIB_MAX_DIM", "5")
    for argv in (["verify", algebra], ["nilradical", spec_path], ["derive", "--n", "2"]):
        assert run(capsys, *argv, "--format", fmt) == (3, record)
    # parsing comes first: a malformed file over the cap is a parse error
    doc = algebra_to_doc(build_extension(spec))
    doc["constants"][0]["c"] = "one"
    save_json(algebra, doc)
    status, out = run(capsys, "verify", algebra, "--format", fmt)
    assert status == 2 and "constants[0]" in out


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("brk", ["\n", "\r"])
def test_line_break_in_a_value_keeps_one_record(capsys, tmp_path, fmt, brk):
    path = str(tmp_path / f"bad{brk}name=x.json")
    status, out = run(capsys, "verify", path, "--format", fmt)
    assert status == 2
    if fmt == "machine":
        assert len(out.splitlines()) == 1 and out.startswith("error=")
        assert "bad_name=x.json:_No_such_file" in out
    else:
        assert f"bad{brk}name=x.json: No such file" in out


def test_parser_is_shared_without_leaking_options(capsys):
    from heisenleib import cli

    cli.build_parser.cache_clear()
    fresh = run(capsys, "catalog", "build", "H1a1C-diag")
    with_param = run(capsys, "catalog", "build", "H1a1C-diag", "--param", "A=1/2")
    again = run(capsys, "catalog", "build", "H1a1C-diag")
    assert with_param != fresh and again == fresh
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_nilpotent_combination_prints_scalars_as_text(capsys, tmp_path, fmt):
    spec = ExtensionSpec.make(1, 2, [0, 0], [[[1, 0], [0, -1]], [[2, 0], [0, -2]]])
    path = tmp_path / "bad.json"
    save_json(str(path), extension_spec_to_doc(spec))
    status, out = run(capsys, "nilradical", str(path), "--format", fmt)
    assert status == 3
    assert "Scalar(" not in out
    assert "combination (-2/1, 1/1)" in out.replace("_", " ")
