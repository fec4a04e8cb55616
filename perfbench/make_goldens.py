"""Capture the golden outputs the benchmark checks jobs against.

    python3 perfbench/make_goldens.py

Runs every fixed-input job once on the program in src/ and writes
perfbench/goldens.json: the exit code and SHA-256 of each derive job's
stdout, the exact stdout of each catalog verify and witness job, the
distinctness flagged-pair counts, and the verify and fingerprint output of
each random_basis source in its original basis.  Regenerate only when a
change to the program's output is intended, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import run
import exact
import workloads


def main() -> int:
    program = run.load_program()
    goldens = {"derive": {}, "catalog_verify": {}, "witness": {}, "distinctness": {},
               "random_basis": {}}

    def capture(argv):
        job = workloads.cli_job(program, "golden", argv, None)
        return job.run()

    for n, f, branch in workloads.DERIVE_JOBS:
        code, text = capture(workloads.derive_argv(n, f, branch))
        goldens["derive"][f"{n},{f},{branch}"] = {
            "exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
    for field, ids in workloads.CATALOG_IDS.items():
        for entry_id in ids:
            code, text = capture(["catalog", "verify", "--field", field, "--id", entry_id,
                                  "--format", "machine"])
            goldens["catalog_verify"][f"{field} {entry_id}"] = {"exit": code, "stdout": text}
    for real_id, complex_id in program.catalog.DOCUMENTED_CONDENSATIONS:
        code, text = capture(["witness", real_id, complex_id, "--format", "machine"])
        goldens["witness"][f"{real_id} {complex_id}"] = {"exit": code, "stdout": text}
    for field in ("C", "R"):
        report = program.heisenleib.distinctness_report(field)
        goldens["distinctness"][field] = f"{len(report.flagged())} of {len(report.pairs)}"
    with tempfile.TemporaryDirectory() as tmp:
        for source, build in workloads.SOURCES.items():
            c, labels = build()
            path = os.path.join(tmp, f"{source}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(exact.algebra_doc(c, len(labels), labels, None), handle)
            record = {}
            for command in ("verify", "fingerprint"):
                code, text = capture([command, path, "--format", "machine"])
                if code != 0:
                    raise SystemExit(f"{command} {source} exited {code}: {text}")
                record[command] = text
            goldens["random_basis"][source] = record
    with open(os.path.join(run.HERE, "goldens.json"), "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
