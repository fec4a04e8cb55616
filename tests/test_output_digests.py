"""SHA-256 digests of the CLI's output over fixed inputs.

Each group hashes the name, exit code and stdout of its cases, so a change
that is meant to keep every output byte-identical shows here when it does
not.  Inputs are built by the test itself from the catalog, a seeded
integer change of basis and a fixed list of extension specs; files are
named relative to a temporary working directory, so error records that name
a path read the same on every machine.  The machine format of `derive
--residuals` is pinned in test_cli.py.
"""

import hashlib
import random
import warnings

import pytest

from heisenleib import catalog, linalg
from heisenleib.algebra import change_basis
from heisenleib.cli import main
from heisenleib.fileio import algebra_to_doc, save_json
from heisenleib.heisenberg import heisenberg

FORMATS = ("text", "machine")


def _outputs(capsys, cases) -> list:
    out = []
    for name, argv in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            status = main(list(argv))
        out.append(f"{name}\0{status}\0{capsys.readouterr().out}\0")
    return out


def _digest(capsys, cases) -> str:
    return _sha("".join(_outputs(capsys, cases)))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _save(path: str, doc) -> str:
    save_json(path, doc)
    return path


def _spec(n, a, xs, rho=None, r=None) -> dict:
    f = len(a)
    return {
        "n": n,
        "f": f,
        "a": a,
        "X": xs,
        "rho": rho or [["0"] * (2 * n) for _ in range(f)],
        "r": r or [["0"] * f for _ in range(f)],
    }


# name -> extension-spec document: accepted, refused and undecided data
SPECS = {
    "n1-rotation": _spec(1, ["0"], [["0", "1", "-1", "0"]], r=[["1"]]),
    "n1-diag-a1": _spec(1, ["1"], [["1/2", "0", "0", "-1/2"]]),
    "n1-zero-x": _spec(1, ["0"], [["0", "0", "0", "0"]]),
    "n1-f2-a10": _spec(1, ["1", "0"], [["1", "0", "0", "-1"], ["2", "0", "0", "-2"]]),
    "n1-f2-proportional": _spec(1, ["0", "0"], [["1", "0", "0", "-1"], ["2", "0", "0", "-2"]]),
    "n1-nilpotent": _spec(1, ["0"], [["0", "1", "0", "0"]]),
    "n1-qi": _spec(1, ["0"], [["0+1/1*sqrt(-1)", "0", "0", "0-1/1*sqrt(-1)"]], r=[["1"]]),
    "n1-not-sp2": _spec(1, ["0"], [["1", "0", "0", "1"]]),
    "n1-a-half": _spec(1, ["1/2"], [["1", "0", "0", "-1"]]),
    "n1-a1-rho": _spec(1, ["1"], [["1", "0", "0", "-1"]], rho=[["1", "0"]]),
    "n1-a1-r": _spec(1, ["1"], [["1", "0", "0", "-1"]], r=[["1"]]),
    "n1-a2": _spec(1, ["1", "1"], [["1", "0", "0", "-1"], ["2", "0", "0", "-2"]]),
    "n1-f3": _spec(1, ["0", "0", "0"], [["1", "0", "0", "-1"]] * 3),
    "n2-diag": _spec(2, ["0"], [["1", "0", "0", "0", "0", "2", "0", "0",
                                 "0", "0", "-1", "0", "0", "0", "0", "-2"]]),
    "n2-rho": _spec(2, ["0"], [["1", "0", "0", "0", "0", "0", "0", "0",
                                "0", "0", "-1", "0", "0", "0", "0", "0"]], rho=[["0", "1", "0", "0"]]),
    "n2-rho-outside": _spec(2, ["0"], [["1", "0", "0", "0", "0", "0", "0", "0",
                                        "0", "0", "-1", "0", "0", "0", "0", "0"]],
                            rho=[["1", "0", "0", "0"]]),
    "n2-undecided": _spec(
        2, ["0", "0"],
        [["1", "0", "0", "0", "0", "0", "0", "0", "0", "0", "-1", "0", "0", "0", "0", "0"],
         ["0", "0", "0", "0", "0", "1", "0", "0", "0", "0", "0", "0", "0", "0", "0", "-1"]],
    ),
    "n2-cross-rho": _spec(
        2, ["0", "0"],
        [["1", "0", "0", "0", "0", "0", "0", "0", "0", "0", "-1", "0", "0", "0", "0", "0"],
         ["0", "0", "0", "0", "0", "1", "0", "0", "0", "0", "0", "0", "0", "0", "0", "-1"]],
        rho=[["0", "1", "0", "0"], ["0", "0", "0", "0"]],
    ),
    "n2-noncommuting": _spec(
        2, ["0", "0"],
        [["1", "0", "0", "0", "0", "0", "0", "0", "0", "0", "-1", "0", "0", "0", "0", "0"],
         ["0", "1", "0", "0", "1", "0", "0", "0", "0", "0", "0", "-1", "0", "0", "-1", "0"]],
    ),
}


def _seeded_basis(rng, dim: int):
    while True:
        p = linalg.smat([[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)])
        if not linalg.det(p).is_zero():
            return p


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HEISENLEIB_MAX_DIM", raising=False)
    return tmp_path


def test_catalog_digest(capsys, workdir):
    cases = [
        (f"{command} {fmt}", ["catalog", command, "--format", fmt])
        for command in ("list", "verify")
        for fmt in FORMATS
    ]
    assert _digest(capsys, cases) == (
        "cc3db046410fd7ba2e07ce5e2b7f8197a55d6cb6ce9818b4fa4c3eace0273650"
    )


def test_witness_digest(capsys, workdir):
    cases = [
        (f"{real} {cplx} {fmt}", ["witness", real, cplx, "--format", fmt])
        for real, cplx in catalog.DOCUMENTED_CONDENSATIONS
        for fmt in FORMATS
    ]
    assert _digest(capsys, cases) == (
        "023d2df8b1eb665f3662da36e28a9f0922e382e6144124a910dfb1b5b6207619"
    )


def test_derive_residuals_text_digest(capsys, workdir):
    points = [(1, 1, "0"), (1, 1, "1"), (1, 2, "0"), (1, 2, "1"), (1, 2, "free"), (2, 2, "1")]
    cases = [
        (f"{n},{f},{a1}", ["derive", "--n", str(n), "--f", str(f), "--a1", a1, "--residuals"])
        for n, f, a1 in points
    ]
    assert _digest(capsys, cases) == (
        "2968647a616819609931f802770de31a7181cc3c8fa271bfd0bac5081eb4b4b3"
    )


def test_algebra_commands_digest(capsys, workdir):
    rng = random.Random(20261019)
    paths = []
    for field in ("C", "R"):
        for entry in catalog.catalog_entries(field):
            t = catalog.build_entry(entry.id)
            moved = change_basis(t, _seeded_basis(rng, t.dim))
            paths.append(_save(f"{field}-{entry.id}.json", algebra_to_doc(moved)))
    doc = algebra_to_doc(heisenberg(1))
    for item in doc["constants"]:  # [P, B] = B: not Leibniz
        if item["i"] == 1:
            item["k"] = 2
    paths.append(_save("broken.json", doc))
    cases = [
        (f"{command} {path} {fmt}", [command, path, "--format", fmt])
        for path in paths
        for command in ("verify", "series", "annihilator", "fingerprint")
        for fmt in FORMATS
    ]
    assert _digest(capsys, cases) == (
        "10b6c715eb468ed4350c8d4e31382e3f69c08c598d9cd4355f54d756cb56e66e"
    )


def test_nilradical_digest(capsys, workdir):
    cases = [
        (f"{name} {field} {fmt}", ["nilradical", _save(f"{name}.json", doc), "--format", fmt]
         + (["--field", field] if field else []))
        for name, doc in SPECS.items()
        for field in (None, "C")
        for fmt in FORMATS
    ]
    assert _digest(capsys, cases) == (
        "76fa9859e0bd5058e0c154f7267e792dd57ac55e6bcba3a47549173c98b89b77"
    )


@pytest.mark.parametrize(
    "field,digest",
    [
        ("C", "10d19a9462330aa50117cb0fc4a53427e6ee98054c3b1cc9c8855fc89affe09b"),
        ("R", "081e6cf54ff034ff6caab77471f9f42132f4992557c7677d2c7c7d853597ae2a"),
    ],
)
def test_distinctness_digest(field, digest):
    assert _sha(repr(catalog.distinctness_report(field))) == digest


def test_error_paths_digest(capsys, workdir, monkeypatch):
    (workdir / "junk.json").write_text("not json", encoding="utf-8")
    _save("nokey.json", {"dim": 3, "basis": ["a", "b", "c"], "field": "Q"})
    _save("h1.json", algebra_to_doc(heisenberg(1)))
    cases = [
        ("missing", ["verify", "missing.json"]),
        ("junk", ["series", "junk.json"]),
        ("nokey", ["fingerprint", "nokey.json"]),
        ("spec-as-algebra", ["verify", _save("spec.json", SPECS["n1-rotation"])]),
        ("algebra-as-spec", ["nilradical", "h1.json"]),
        ("unknown-id", ["catalog", "verify", "--id", "H9"]),
        ("unknown-build", ["catalog", "build", "H9"]),
        ("out-of-domain", ["catalog", "build", "H1a1C-diag", "--param", "A=-1"]),
        ("param-twice", ["catalog", "build", "H1a1C-diag", "--param", "A=1", "--param", "A=2"]),
        ("param-no-eq", ["witness", "H1a0R-r0", "H1a0C-r0", "--param", "A"]),
        ("witness-undocumented", ["witness", "H1a1R", "H1a0C-r0"]),
        ("witness-unknown", ["witness", "H1a1R", "H9"]),
        ("derive-n0", ["derive", "--n", "0"]),
        ("derive-f-bound", ["derive", "--n", "1", "--f", "3"]),
        ("unwritable", ["catalog", "list", "-o", "no/such/dir/out.txt"]),
    ]
    cases = [
        (f"{name} {fmt}", argv + ["--format", fmt]) for name, argv in cases for fmt in FORMATS
    ]
    outputs = _outputs(capsys, cases)
    for value in ("zero", "0"):
        monkeypatch.setenv("HEISENLEIB_MAX_DIM", value)
        outputs += _outputs(capsys, [(f"max-dim={value}", ["verify", "h1.json"])])
    assert _sha("".join(outputs)) == (
        "ac06101682d9a4c2b320a3be5ec408b58e332a6303fa7ddf5a2101cf0bbcc660"
    )
