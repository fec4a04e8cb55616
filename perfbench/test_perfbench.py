"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py

They check the input generator against the program, that every traced
wrapper fires where the prediction table says its layer matters and that
the predicted zero counts hold, that two traced runs of one seed give the
same counts, that a wrong output makes the command fail, and that the
command refuses to run without the program.  Running every workload twice
under tracing takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import exact
import predictions
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_UNITS = ("count", "bytes")


def invoke(workload: str, seed: int, trace: int, root: Path = run.ROOT):
    """Run the command from `root`; returns (exit code, parsed result or None)."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of every workload with one seed."""
    return {w: (invoke(w, 7, 1), invoke(w, 7, 1)) for w in workloads.WORKLOADS}


@pytest.fixture(scope="module")
def program():
    return run.load_program()


def test_generator_matches_program_change_basis(program):
    hl = program.heisenleib
    fileio = sys.modules["heisenleib.fileio"]
    for seed in (1, 2):
        for name, source, perturbed, moved, dim, labels, d, p in workloads.random_basis_inputs(seed):
            c, _ = workloads.SOURCES[source]()
            if perturbed:
                c = exact.perturb(c, labels)
            original = fileio.algebra_from_doc(exact.algebra_doc(c, dim, labels, None))
            coords = [[hl.Scalar.parse(exact.to_text(x, d)) for x in row] for row in p]
            expected = hl.change_basis(original, coords)
            assert fileio.algebra_from_doc(exact.algebra_doc(moved, dim, labels, d)) == expected, name


def test_sources_match_program_builders(program):
    hl = program.heisenleib
    fileio = sys.modules["heisenleib.fileio"]
    n2f2 = hl.ExtensionSpec.make(
        2, 2, [1, 0],
        [[[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]],
         [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]]],
    )
    built = {
        "H1a0C-r1": program.catalog.build_entry("H1a0C-r1"),
        "H1a1C-jordan": program.catalog.build_entry("H1a1C-jordan"),
        "H2a1C": program.catalog.build_entry("H2a1C"),
        "H2a1R": program.catalog.build_entry("H2a1R"),
        "H3": hl.heisenberg(3),
        "H2n2f-diag": hl.build_extension(n2f2),
    }
    assert set(built) == set(workloads.SOURCES)
    for name, build in workloads.SOURCES.items():
        c, labels = build()
        assert fileio.algebra_from_doc(exact.algebra_doc(c, len(labels), labels, None)) == built[name]


def test_perturbed_sources_are_not_leibniz(program):
    fileio = sys.modules["heisenleib.fileio"]
    for name, build in workloads.SOURCES.items():
        c, labels = build()
        t = fileio.algebra_from_doc(exact.algebra_doc(exact.perturb(c, labels), len(labels), labels, None))
        h, p1, b1 = (labels.index(x) for x in ("H", "P1", "B1"))
        assert (h, p1, b1) in t.leibniz_defects(), name


def test_metric_names_match_benchmark_json(traced):
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for workload, ((code, result), _) in traced.items():
        assert code == 0 and result["correct"], workload
        assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer, workload
    code, result = invoke("certify", 1, 0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_wrapper_fires_where_predicted(traced):
    for workload, names in predictions.FIRES.items():
        metrics = traced[workload][0][1]["metrics"]
        silent = [name for name in names if not metrics[name]["value"] > 0]
        assert not silent, f"{workload}: {silent}"


def test_zero_count_predictions_hold(traced):
    for workload, names in predictions.ZERO.items():
        metrics = traced[workload][0][1]["metrics"]
        nonzero = {name: metrics[name]["value"] for name in names if metrics[name]["value"] != 0}
        assert not nonzero, f"{workload}: {nonzero}"


def test_traced_counts_repeat_for_a_seed(traced):
    for workload, ((_, first), (_, second)) in traced.items():
        counts = [
            {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in COUNT_UNITS}
            for result in (first, second)
        ]
        assert counts[0] == counts[1], workload
        assert first["attempted"] == second["attempted"]


def _corrupt(goldens: dict) -> dict:
    bad = json.loads(json.dumps(goldens))
    bad["catalog_verify"]["C H2a1C"]["stdout"] = bad["catalog_verify"]["C H2a1C"]["stdout"].replace(
        "lie=yes", "lie=no", 1)
    bad["witness"]["H2a1R H2a1C"]["exit"] = 1
    bad["distinctness"]["R"] = "0 of 98"
    return bad


def test_corrupted_golden_fails_the_affected_jobs(program, tmp_path):
    goldens = json.loads((run.HERE / "goldens.json").read_text(encoding="utf-8"))
    jobs = workloads.certify_jobs(program, _corrupt(goldens), str(tmp_path), 1)
    failures = run.run_pass(jobs, run.Speed()).failures
    assert sorted(name for name, _ in failures) == [
        "catalog_verify C H2a1C", "distinctness R", "witness H2a1R H2a1C",
    ]


def test_corrupted_expected_flag_fails_the_job(program, tmp_path):
    goldens = json.loads((run.HERE / "goldens.json").read_text(encoding="utf-8"))
    bad = json.loads(json.dumps(goldens))
    bad["random_basis"]["H1a0C-r1"]["fingerprint"] = bad["random_basis"]["H1a0C-r1"][
        "fingerprint"].replace("center=1", "center=0")
    jobs = [j for j in workloads.random_basis_jobs(program, bad, str(tmp_path), 1)
            if "H1a0C-r1" in j.name or "H1a1C-jordan" in j.name]
    failures = run.run_pass(jobs, run.Speed()).failures
    assert sorted(name for name, _ in failures) == sorted(j.name for j in jobs if "H1a0C-r1" in j.name)
    # a perturbed input checked as if it were Leibniz, and a refused spec
    # checked as if it were accepted, must fail too
    perturbed = next(j for j in jobs if "perturbed" in j.name)
    code, text = perturbed.run()
    assert code == 1 and workloads.expect_exact(0, "")(code, text) is not None
    assert workloads.expect_fields(0, "maximality=proved")(3, "error=invalid_extension_data") is not None


def _checkout(tmp_path: Path, with_program: bool) -> Path:
    root = tmp_path / "checkout"
    root.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", root)
    shutil.copytree(run.HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if with_program:
        shutil.copytree(run.ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_command_exits_nonzero_on_a_wrong_output(tmp_path):
    root = _checkout(tmp_path, with_program=True)
    path = root / "perfbench" / "goldens.json"
    path.write_text(json.dumps(_corrupt(json.loads(path.read_text(encoding="utf-8")))),
                    encoding="utf-8")
    code, result = invoke("certify", 1, 0, root)
    assert code == 1
    assert result["correct"] is False and result["failed"] == 3


def test_command_refuses_to_run_without_the_program(tmp_path):
    root = _checkout(tmp_path, with_program=False)
    for workload in workloads.WORKLOADS:
        code, result = invoke(workload, 1, 0, root)
        assert code != 0 and result is None
    assert not (root / ".perfbench").exists()
