"""The three workloads: fixed job lists built from a seed.

A job is one thing a user of the toolkit runs and waits for: a CLI call
through heisenleib.cli.main, or a public library call where the CLI has no
command.  Every job carries its own output check.  Inputs that the program
reads from files are written to a work directory during set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import exact

# catalog verify runs one job per entry id and field: 5 C-entries and 11
# R-entries, 23 parameter points in all
CATALOG_IDS = {
    "C": ("H1a0C-r0", "H1a0C-r1", "H1a1C-diag", "H1a1C-jordan", "H2a1C"),
    "R": (
        "H1a0C-r0", "H1a0C-r1", "H1a0C-rm1", "H1a0R-r0", "H1a0R-r1",
        "H1a0R-rm1", "H1a1C-diag", "H1a1C-jordan", "H1a1R", "H2a1C", "H2a1R",
    ),
}

# (n, f, a1 branch) of each derive job; the inputs do not depend on the seed
DERIVE_JOBS = ((2, 2, 1), (2, 2, 0), (2, 3, 1), (2, 3, 0), (3, 4, 1))

# Source tensors for random_basis, in the program's basis order.
SOURCES = {
    "H1a0C-r1": lambda: exact.extension(1, [0], [[[1, 0], [0, -1]]], r=[[1]]),
    "H1a1C-jordan": lambda: exact.extension(1, [1], [[[0, 1], [0, 0]]]),
    "H2a1C": lambda: exact.extension(1, [1, 0], [[[0, 0], [0, 0]], [[1, 0], [0, -1]]]),
    "H2a1R": lambda: exact.extension(1, [1, 0], [[[0, 0], [0, 0]], [[0, 1], [-1, 0]]]),
    "H3": lambda: exact.heisenberg(3),
    "H2n2f-diag": lambda: exact.extension(
        2,
        [1, 0],
        [
            [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]],
            [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]],
        ],
    ),
}

# One random_basis pass: (source, field as d or None for Q, perturbed).
# The slots are fixed so that every seed gives the same mix of sizes and
# fields; the seed picks the basis.  Two slots of ten are perturbed into
# non-Leibniz inputs.
RANDOM_BASIS_SLOTS = (
    ("H1a0C-r1", -1, False),
    ("H1a0C-r1", None, False),
    ("H1a1C-jordan", 2, True),
    ("H1a1C-jordan", None, False),
    ("H2a1C", 5, False),
    ("H2a1C", None, True),
    ("H2a1R", 2, False),
    ("H2a1R", None, False),
    ("H3", None, False),
    ("H2n2f-diag", -1, False),
)


@dataclass
class Job:
    name: str
    run: Callable[[], tuple]
    # returns None when the output is right, else the reason it is wrong
    check: Callable[[int, str], "str | None"]


def cli_job(program, name: str, argv: list, check) -> Job:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # looked up at call time, so a traced run sees its wrapper
            code = program.cli.main(argv)
        return code, out.getvalue()

    return Job(name, run, check)


def expect_exact(want_code: int, want_text: str):
    def check(code, text):
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        if text != want_text:
            return "stdout differs from the golden"
        return None

    return check


def expect_sha(want_code: int, want_sha: str):
    def check(code, text):
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        if hashlib.sha256(text.encode()).hexdigest() != want_sha:
            return "stdout hash differs from the golden"
        return None

    return check


def expect_fields(want_code: int, *fragments):
    def check(code, text):
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        missing = [f for f in fragments if f not in text]
        if missing:
            return f"stdout lacks {missing}"
        return None

    return check


# -- certify -----------------------------------------------------------------------


def _int_matrix(rng, rows, cols, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def _symmetric(rng, n, lo=-3, hi=3):
    m = _int_matrix(rng, n, n, lo, hi)
    return [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


def random_sp(rng, n: int):
    """Random integer X = ((A, B), (C, -A^T)) in sp(2n), B and C symmetric,
    resampled until tr(X^2) != 0 (so X is not nilpotent)."""
    while True:
        a = _int_matrix(rng, n, n)
        b, c = _symmetric(rng, n), _symmetric(rng, n)
        x = [a[i] + b[i] for i in range(n)] + [
            c[i] + [-a[j][i] for j in range(n)] for i in range(n)
        ]
        if sum(x[i][k] * x[k][i] for i in range(2 * n) for k in range(2 * n)):
            return x


def _spec_doc(n, a, xs, r):
    f = len(a)
    return {
        "n": n,
        "f": f,
        "a": [f"{v}/1" for v in a],
        "X": [[f"{v}/1" for row in x for v in row] for x in xs],
        "rho": [["0/1"] * (2 * n) for _ in range(f)],
        "r": [[f"{v}/1" for v in row] for row in r],
    }


def spec_inputs(rng) -> list:
    """(name, spec document, expected exit, expected stdout fragments) of
    the nilradical jobs: five accepted and five refused extension data."""
    out = []
    for n in (1, 2, 3):
        doc = _spec_doc(n, [0], [random_sp(rng, n)], [[rng.randint(-1, 1)]])
        out.append((f"f1-n{n}", doc, 0, ("maximality=proved", "check=mubar_bound ok=yes")))
    for n in (1, 2, 3):
        c = _symmetric(rng, n)
        while not any(any(row) for row in c):
            c = _symmetric(rng, n)
        x = [[0] * n + c[i] for i in range(n)] + [[0] * (2 * n) for _ in range(n)]
        doc = _spec_doc(n, [0], [x], [[rng.randint(-1, 1)]])
        out.append((f"nilpotent-n{n}", doc, 3, ("error=invalid_extension_data", "is_nilpotent")))
    for k in range(2):
        x1 = _nonsingular_sp2(rng)
        lam = rng.choice((-3, -2, -1, 2, 3))
        x2 = [[lam * v for v in row] for row in x1]
        doc = _spec_doc(1, [0, 0], [x1, x2], [[0, 0], [0, 0]])
        out.append((f"proportional-{k}", doc, 3, ("error=invalid_extension_data", "admit_the_nilpotent_combination")))
    for k in range(2):
        x2 = _nonsingular_sp2(rng)
        mu = rng.randint(-2, 2)
        x1 = [[mu * v for v in row] for row in x2]
        doc = _spec_doc(1, [1, 0], [x1, x2], [[0, 0], [0, 0]])
        out.append((f"a10-{k}", doc, 0, ("maximality=proved", "check=mubar_bound ok=yes")))
    return out


def _nonsingular_sp2(rng):
    while True:
        p, q, r = (rng.randint(-3, 3) for _ in range(3))
        if p * p + q * r:
            return [[p, q], [r, -p]]


def certify_jobs(program, goldens: dict, workdir: str, seed: int) -> list:
    rng = random.Random(f"certify-{seed}")
    jobs = []
    for field, ids in CATALOG_IDS.items():
        for entry_id in ids:
            key = f"{field} {entry_id}"
            want = goldens["catalog_verify"][key]
            argv = ["catalog", "verify", "--field", field, "--id", entry_id, "--format", "machine"]
            jobs.append(cli_job(program, f"catalog_verify {key}", argv,
                                expect_exact(want["exit"], want["stdout"])))
    for real_id, complex_id in program.catalog.DOCUMENTED_CONDENSATIONS:
        key = f"{real_id} {complex_id}"
        want = goldens["witness"][key]
        jobs.append(cli_job(program, f"witness {key}",
                            ["witness", real_id, complex_id, "--format", "machine"],
                            expect_exact(want["exit"], want["stdout"])))
    for field in ("C", "R"):
        jobs.append(distinctness_job(program, field, goldens["distinctness"][field]))
    for name, doc, code, fragments in spec_inputs(rng):
        path = os.path.join(workdir, f"spec-{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        jobs.append(cli_job(program, f"nilradical {name}",
                            ["nilradical", path, "--format", "machine"],
                            expect_fields(code, *fragments)))
    return jobs


def distinctness_job(program, field: str, want: str) -> Job:
    def run():
        report = program.heisenleib.distinctness_report(field)
        return 0, f"{len(report.flagged())} of {len(report.pairs)}"

    return Job(f"distinctness {field}", run, expect_exact(0, want))


# -- derive ------------------------------------------------------------------------


def derive_argv(n, f, branch) -> list:
    return ["derive", "--n", str(n), "--f", str(f), "--a1", str(branch),
            "--residuals", "--format", "machine"]


def derive_jobs(program, goldens: dict, workdir: str, seed: int) -> list:
    jobs = []
    for n, f, branch in DERIVE_JOBS:
        want = goldens["derive"][f"{n},{f},{branch}"]
        jobs.append(cli_job(program, f"derive n{n}f{f}a{branch}", derive_argv(n, f, branch),
                            expect_sha(want["exit"], want["sha256"])))
    return jobs


# -- random_basis ------------------------------------------------------------------


def random_basis_inputs(seed: int) -> list:
    """(slot name, source name, perturbed, moved tensor, dim, labels, d, P)
    for every slot of one pass; P is the coordinate map of the new basis."""
    rng = random.Random(f"random_basis-{seed}")
    out = []
    for pos, (source, d, perturbed) in enumerate(RANDOM_BASIS_SLOTS):
        c, labels = SOURCES[source]()
        if perturbed:
            c = exact.perturb(c, labels)
        dim = len(labels)
        q, p = exact.random_shear_basis(rng, dim, d)
        moved = exact.move(c, dim, q, p, d)
        name = f"{pos}:{source}/{'Q' if d is None else f'sqrt{d}'}{'/perturbed' if perturbed else ''}"
        out.append((name, source, perturbed, moved, dim, labels, d, p))
    return out


def random_basis_jobs(program, goldens: dict, workdir: str, seed: int) -> list:
    jobs = []
    for pos, (name, source, perturbed, moved, dim, labels, d, _) in enumerate(
        random_basis_inputs(seed)
    ):
        path = os.path.join(workdir, f"moved-{pos}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(exact.algebra_doc(moved, dim, labels, d), handle)
        want = goldens["random_basis"][source]
        jobs.append(moved_job(program, name, path, perturbed, want))
    return jobs


def moved_job(program, name: str, path: str, perturbed: bool, want: dict) -> Job:
    """verify FILE, then fingerprint FILE when the input is Leibniz.  The
    verify flags and the fingerprint are basis invariants, so they must
    equal the source's in its original basis."""
    verify = cli_job(program, name, ["verify", path, "--format", "machine"], None)
    fingerprint = cli_job(program, name, ["fingerprint", path, "--format", "machine"], None)

    def run():
        code, text = verify.run()
        if code != 0:
            return code, text
        code, more = fingerprint.run()
        return code, text + more

    if perturbed:
        check = expect_fields(1, "check=verify leibniz=failed")
    else:
        check = expect_exact(0, want["verify"] + want["fingerprint"])
    return Job(name, run, check)


WORKLOADS = {
    "certify": certify_jobs,
    "derive": derive_jobs,
    "random_basis": random_basis_jobs,
}
