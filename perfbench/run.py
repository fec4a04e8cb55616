"""Benchmark of the heisenleib toolkit, end to end and layer by layer.

    python3 perfbench/run.py --workload certify|derive|random_basis \
        --seed N --seconds S --trace 0|1

The program is imported from the src/ directory beside perfbench/.
One process, one client, no threads: a closed loop that runs the
workload's fixed job list (a "pass") again and again until --seconds
have passed, checking every job's output.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Timings are reported at reference speed (see Speed): every 0.5 s an
interval timer reads the machine's speed off a fixed stdlib loop, and each
job's time is scaled by the readings taken while it ran.  The lines above
the result also give every timing as measured.

--trace 0 reports the end-to-end metrics.  --trace 1 first runs untraced
passes for half of --seconds, then exactly one traced pass, and reports
the per-layer metrics of that pass (so counts repeat exactly for a seed)
plus trace.overhead_frac, the traced pass time over the median untraced
pass time, minus one.  Spans are written to .perfbench/ in the checkout.

Exit status: 0 when every job's output was right, 1 when some job failed
(the result line is still printed), 2 when the program cannot be loaded
or the arguments are wrong (no result line).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import types
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
TIMINGS = ("setup_s", "wall_s", "job_s.p50", "job_s.tail")
# The machine's speed switches between levels about 1.7x apart within
# seconds and drifts over minutes, for the program and a fixed stdlib loop
# (reference_kernel_s) alike.  Timings are reported at reference speed: as
# measured, times REFERENCE_S over the kernel's time read during the job.
REFERENCE_S = 0.010
READ_EVERY_S = 0.5
WINDOW_S = 1.0

# The tail is the highest percentile with at least ten samples beyond it at
# the usual sample count of a 25 s run: certify ~13 passes of 35 jobs (p95),
# random_basis ~3 passes of 10 jobs (p66).  derive runs one pass of 5 jobs,
# too few for any percentile above the median, so its tail is the slowest
# job (the n = 3, f = 4 derivation).
TAIL_PERCENTILE = {"certify": 95, "random_basis": 66, "derive": 100}


class LoadError(Exception):
    pass


def program_source() -> Path:
    src = ROOT / "src"
    if not (src / "heisenleib" / "__init__.py").is_file():
        raise LoadError(f"no heisenleib package under {src}")
    return src


def load_program() -> types.SimpleNamespace:
    """Import heisenleib from src/ afresh (dropping any earlier import)."""
    src = program_source()
    for name in [m for m in sys.modules if m == "heisenleib" or m.startswith("heisenleib.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    package = importlib.import_module("heisenleib")
    if Path(package.__file__).resolve().parent != (src / "heisenleib").resolve():
        raise LoadError(f"heisenleib was imported from {package.__file__}, not {src}")
    return types.SimpleNamespace(
        heisenleib=package,
        cli=importlib.import_module("heisenleib.cli"),
        catalog=importlib.import_module("heisenleib.catalog"),
    )


def reference_kernel_s() -> float:
    """Seconds for a fixed stdlib-Fraction loop with the garbage collector
    off: a reading of the machine's current speed that no change to the
    program can move."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = Fraction(0)
        for i in range(1, 1000):
            acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Reference-kernel readings every READ_EVERY_S, taken by an interval
    timer inside whatever job is running (one process, no threads); the
    time they take is removed from the job's time.  A job's time at
    reference speed is its measured time times REFERENCE_S over the mean
    reading within WINDOW_S of it: the speed switches between levels about
    1.7x apart within seconds, and a job's time follows the mean of the
    speed it ran at."""

    def __init__(self):
        self.readings = []  # (perf_counter at the reading, kernel seconds)
        self.paused = 0.0  # seconds spent taking readings

    def read(self, *_signal_args) -> None:
        seconds = reference_kernel_s()
        self.readings.append((perf_counter(), seconds))
        self.paused += seconds

    def __enter__(self):
        self.read()
        signal.signal(signal.SIGALRM, self.read)
        signal.setitimer(signal.ITIMER_REAL, READ_EVERY_S, READ_EVERY_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.read()

    def timed(self, fn):
        """(result, start, end, seconds excluding readings) of fn()."""
        paused = self.paused
        start = perf_counter()
        result = fn()
        end = perf_counter()
        return result, start, end, end - start - (self.paused - paused)

    def scale(self, start: float, end: float, seconds: float) -> float:
        near = [r for t, r in self.readings if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:  # the timer was held off by one long call
            near = [min(self.readings, key=lambda reading: abs(reading[0] - start))[1]]
        return seconds * REFERENCE_S / statistics.fmean(near)


@dataclass
class Pass:
    measured: list  # seconds per job, as measured
    spans: list  # (start, end) of each job
    failures: list  # (job name, reason)
    scaled: list = None  # seconds per job at reference speed


def set_up(workload: str, seed: int, goldens: dict, workdir: Path, speed: Speed):
    """Import plus input generation, repeated; returns the last program and
    jobs and the set-ups as a Pass."""
    measured, spans = [], []
    for k in range(SETUP_REPEATS):
        target = workdir / f"setup{k}"
        target.mkdir(parents=True)
        speed.read()  # a set-up is short: read right next to each one

        def once():
            program = load_program()
            return program, workloads.WORKLOADS[workload](program, goldens, str(target), seed)

        (program, jobs), start, end, seconds = speed.timed(once)
        measured.append(seconds)
        spans.append((start, end))
    speed.read()
    return program, jobs, Pass(measured, spans, [])


def run_pass(jobs, speed: Speed, tracer=None) -> Pass:
    """One pass over the job list; checks every output."""
    measured, spans, failures = [], [], []
    for job in jobs:
        if tracer is not None:
            tracer.start_job(job.name)
        try:
            (code, text), start, end, seconds = speed.timed(job.run)
            reason = None
        except Exception as exc:  # a job that raises is a failed job
            code, text, reason = None, "", f"raised {type(exc).__name__}: {exc}"
            start = end = perf_counter()
            seconds = 0.0
        measured.append(seconds)
        spans.append((start, end))
        if tracer is not None:
            tracer.end_job()
        if reason is None:
            reason = job.check(code, text)
        if reason is not None:
            failures.append((job.name, reason))
    return Pass(measured, spans, failures)


def scale_passes(passes, speed: Speed) -> None:
    for p in passes:
        p.scaled = [speed.scale(start, end, t) for (start, end), t in zip(p.spans, p.measured)]


def percentile(values, p: float) -> float:
    """Linear interpolation between the closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure(jobs, seconds: float, speed: Speed) -> list:
    """Passes until `seconds` have passed (at least one)."""
    passes = []
    deadline = perf_counter() + seconds
    while True:
        passes.append(run_pass(jobs, speed))
        if perf_counter() >= deadline:
            return passes


def timings(passes, setup: Pass, attr: str, workload: str) -> dict:
    """Timing metrics from the `attr` job times of the passes and set-ups."""
    per_pass = [getattr(p, attr) for p in passes]
    out = {
        "setup_s": statistics.median(getattr(setup, attr)),
        "wall_s": statistics.median(sum(times) for times in per_pass),
        # the median job of the list, each job taken at its median over passes
        "job_s.p50": statistics.median(statistics.median(t) for t in zip(*per_pass)),
        "job_s.tail": percentile([t for times in per_pass for t in times],
                                 TAIL_PERCENTILE[workload]),
    }
    if workload == "derive":
        # the derivations at each (n, f), both branches summed
        for size in sorted({(n, f) for n, f, _ in workloads.DERIVE_JOBS}):
            positions = [k for k, (n, f, _) in enumerate(workloads.DERIVE_JOBS) if (n, f) == size]
            out[f"derive_s.n{size[0]}f{size[1]}"] = statistics.median(
                sum(times[k] for k in positions) for times in per_pass
            )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program_source()
    goldens = json.loads((HERE / "goldens.json").read_text(encoding="utf-8"))
    bench_dir = ROOT / ".perfbench"
    workdir = bench_dir / f"inputs-{os.getpid()}"
    speed = Speed()
    traced = None
    try:
        with speed:
            program, jobs, setup = set_up(args.workload, args.seed, goldens, workdir, speed)
            if args.trace:
                passes = measure(jobs, args.seconds / 2, speed)
                tracer = layertrace.Tracer()
                tracer.install()
                try:
                    traced = run_pass(jobs, speed, tracer)
                finally:
                    tracer.uninstall()
            else:
                passes = measure(jobs, args.seconds, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    scale_passes(passes + [setup] + ([traced] if traced else []), speed)
    if traced:
        tracer.write(str(bench_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"))

    failures = [f for p in passes + ([traced] if traced else []) for f in p.failures]
    attempted = sum(len(p.measured) for p in passes) + (len(traced.measured) if traced else 0)
    scaled = timings(passes, setup, "scaled", args.workload)
    measured = timings(passes, setup, "measured", args.workload)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if traced:
        metrics = tracer.metrics()
        metrics["trace.overhead_frac"] = {
            "value": sum(traced.scaled) / scaled["wall_s"] - 1, "unit": "ratio",
        }
    else:
        metrics = {name: {"value": scaled[name], "unit": "s"} for name in TIMINGS}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} untraced passes, "
          f"{attempted} jobs, job_s.tail = p{TAIL_PERCENTILE[args.workload]}, reference "
          f"kernel median {statistics.median(r for _, r in speed.readings) * 1e3:.2f} ms (nominal "
          f"{REFERENCE_S * 1e3:.0f} ms)")
    print(f"  {'metric':<16} {'at ref speed':>12} {'as measured':>12}")
    for name in scaled:
        print(f"  {name:<16} {scaled[name]:>12.6g} {measured[name]:>12.6g} s")
    print(f"  {'peak_rss_mb':<16} {peak_rss_mb:>12.6g} MB")
    print(f"  {'fail_frac':<16} {len(failures) / attempted:>12.6g}")
    for name, reason in failures:
        print(f"  FAILED {name}: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except LoadError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
