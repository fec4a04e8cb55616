"""Per-layer tracing by wrapping the program's entry points from outside.

Coarse entry points (cli, fileio, catalog, certify, heisenberg, algebra,
linalg, constraints) record one span per call: name, start, end, parent
span and job.  Hot arithmetic (Scalar and PolyQ operations, the squarefree
d check) is aggregated per parent span as count, total and self time,
never one span per call.  A span's self time is its duration minus the
time covered by its child spans and the hot operations directly under it.

A function is wrapped at every site it is bound: the module that defines
it, every heisenleib module that imported it by name, and the package's
re-exports.  Methods are wrapped on their class.  Tracer.install patches
and Tracer.uninstall restores the originals.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); "Class.method" wraps a method on its class
COARSE = (
    ("heisenleib.cli", "main", "cli.main"),
    ("heisenleib.fileio", "load_json", "fileio.load"),
    ("heisenleib.fileio", "algebra_from_doc", "fileio.parse"),
    ("heisenleib.fileio", "extension_spec_from_doc", "fileio.parse"),
    ("heisenleib.catalog", "verify_entry", "catalog.verify_entry"),
    ("heisenleib.catalog", "condensation_witness", "catalog.condensation_witness"),
    ("heisenleib.catalog", "distinctness_report", "catalog.distinctness_report"),
    ("heisenleib.certify", "certify_nilradical", "certify.certify_nilradical"),
    ("heisenleib.certify", "matrix_nilpotent", "certify.matrix_nilpotent"),
    ("heisenleib.certify", "sp2_nilpotency_locus", "certify.sp2_nilpotency_locus"),
    ("heisenleib.heisenberg", "build_extension", "heisenberg.build_extension"),
    ("heisenleib.heisenberg", "symplectic_check", "heisenberg.symplectic_check"),
    ("heisenleib.algebra", "StructTensor.leibniz_defects", "algebra.leibniz"),
    ("heisenleib.algebra", "fingerprint", "algebra.fingerprint"),
    ("heisenleib.algebra", "change_basis", "algebra.change_basis"),
    ("heisenleib.algebra", "bracket_span", "algebra.bracket_span"),
    ("heisenleib.algebra", "Subspace.contains", "algebra.contains"),
    ("heisenleib.linalg", "rref", "linalg.rref"),
    ("heisenleib.linalg", "inverse", "linalg.inverse"),
    ("heisenleib.linalg", "det", "linalg.det"),
    ("heisenleib.linalg", "mat_mul", "linalg.mat_mul"),
    ("heisenleib.constraints", "run_cascade", "constraints.run_cascade"),
    ("heisenleib.constraints", "gamma_eliminate", "constraints.gamma_eliminate"),
    ("heisenleib.constraints", "jacobi_residual_system", "constraints.jacobi"),
    ("heisenleib.constraints", "annihilator_residual_system", "constraints.annihilator"),
    ("heisenleib.constraints", "commutation_residual_system", "constraints.commutation"),
    ("heisenleib.constraints", "extract_forced_bindings", "constraints.extract"),
    ("heisenleib.constraints", "apply_bindings", "constraints.apply_bindings"),
    ("heisenleib.constraints", "verify_arar", "constraints.arar"),
    ("heisenleib.constraints", "final_residual_audit", "constraints.audit"),
    ("heisenleib.constraints", "annotate_forced", "constraints.annotate"),
)

SCALAR_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__mul__": "mul", "__rmul__": "mul", "__neg__": "neg", "inv": "inv",
    "__truediv__": "div", "__rtruediv__": "div",
}
POLY_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul", "__pow__": "pow",
    "substitute": "substitute", "__str__": "str",
}
HOT = (
    tuple(("heisenleib.scalars", f"Scalar.{m}", f"scalars.{op}") for m, op in SCALAR_OPS.items())
    + (("heisenleib.scalars", "_check_d", "scalars.d_check"),)
    + tuple(("heisenleib.poly", f"PolyQ.{m}", f"poly.{op}") for m, op in POLY_OPS.items())
)

RESIDUAL_SYSTEMS = (
    "constraints.jacobi", "constraints.annihilator", "constraints.commutation",
    "constraints.arar",
)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, job, name, start, end, self_s, tag)
        self.stack = []  # open spans: [id, name, start, child_s]
        self.hot_stack = []  # child time of each open hot operation
        self.hot = {}  # (parent span id, op) -> [count, total_s, self_s]
        self.counters = defaultdict(int)
        self.job = None
        self._next_id = 0
        self._patches = []
        self._checked = {}  # id -> tensor given to leibniz_defects in this job

    # -- jobs ------------------------------------------------------------------

    def start_job(self, name: str) -> None:
        self.job = name
        self._checked = {}

    def end_job(self) -> None:
        self.job = None
        self._checked = {}

    # -- wrappers --------------------------------------------------------------

    def coarse(self, name, fn, tag=None, after=None):
        tracer, stack, spans = self, self.stack, self.spans

        def wrapper(*args, **kwargs):
            tracer._next_id += 1
            frame = [tracer._next_id, name, 0.0, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = frame[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[3] += duration
                spans.append((
                    frame[0], parent[0] if parent else None, tracer.job, name,
                    start, end, duration - frame[3], tag(args) if tag else None,
                ))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def hot_op(self, key, fn, after=None):
        hot_stack, stack, hot = self.hot_stack, self.stack, self.hot

        def wrapper(*args, **kwargs):
            hot_stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = hot_stack.pop()
                if hot_stack:
                    hot_stack[-1] += duration
                elif stack:
                    stack[-1][3] += duration
                slot = (stack[-1][0] if stack else 0, key)
                agg = hot.get(slot)
                if agg is None:
                    hot[slot] = [1, duration, duration - child]
                else:
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += duration - child
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- result hooks ----------------------------------------------------------

    def _after(self, name):
        counters = self.counters
        if name == "algebra.leibniz":
            def after(args, result):
                tensor = args[0]
                if self._checked.get(id(tensor)) is tensor:
                    counters["algebra.leibniz.repeat_calls"] += 1
                self._checked[id(tensor)] = tensor
            return after
        if name == "certify.certify_nilradical":
            def after(args, result):
                counters["certify.issued"] += 1
                counters["certify.undecided"] += result.maximality.status == "undecided"
            return after
        if name == "constraints.extract":
            def after(args, result):
                counters["constraints.extract.empty_calls"] += not result
            return after
        if name == "constraints.audit":
            def after(args, result):
                counters["constraints.audit.triples"] += result.triples_checked
                counters["constraints.audit.zero_triples"] += result.zero_residuals
            return after
        if name in RESIDUAL_SYSTEMS:
            def after(args, result):
                counters["constraints.residual_polys"] += sum(
                    len(report.residual_polys) for report in result
                )
            return after
        if name == "fileio.load":
            def after(args, result):
                counters["fileio.bytes_in"] += os.path.getsize(args[0])
            return after
        if name in ("scalars.add", "scalars.sub", "scalars.mul", "scalars.neg",
                    "scalars.inv", "scalars.div"):
            def after(args, result):
                if getattr(result, "d", None) is not None:
                    counters["scalars.quadratic_ops"] += 1
            return after
        if name == "poly.mul":
            def after(args, result):
                if result is NotImplemented:
                    return
                counters["poly.mul.terms_out"] += len(result.terms)
                width = len(result.names)
                if width > counters["poly.width_max"]:
                    counters["poly.width_max"] = width
            return after
        return None

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "heisenleib" or name.startswith("heisenleib.")]
        tag_dim = lambda args: args[0].dim  # noqa: E731
        for module_name, attr, name in COARSE:
            tag = tag_dim if name == "algebra.leibniz" else None
            self._patch(modules, module_name, attr,
                        lambda fn, n=name, t=tag: self.coarse(n, fn, t, self._after(n)))
        for module_name, attr, name in HOT:
            self._patch(modules, module_name, attr,
                        lambda fn, n=name: self.hot_op(n, fn, self._after(n)))

    def _patch(self, modules, module_name, attr, make):
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, make(original))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for module in modules:
            for bound, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, bound, original))
                    setattr(module, bound, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics over every traced job."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        leibniz_by_dim = defaultdict(lambda: [0, 0.0])
        for _, _, _, name, start, end, own, tag in self.spans:
            calls[name] += 1
            self_s[name] += own
            if name == "algebra.leibniz":
                leibniz_by_dim[tag][0] += 1
                leibniz_by_dim[tag][1] += end - start
        op_calls = defaultdict(int)
        op_self = defaultdict(float)
        for (_, key), (count, _, own) in self.hot.items():
            op_calls[key] += count
            op_self[key] += own
        c = self.counters
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        scalar_keys = [f"scalars.{op}" for op in sorted(set(SCALAR_OPS.values()))]
        ops = sum(op_calls[k] for k in scalar_keys)
        scalar_self = sum(op_self[k] for k in scalar_keys) + op_self["scalars.d_check"]
        put("scalars.ops", ops, "count")
        put("scalars.self_s", scalar_self, "s")
        put("scalars.ns_per_op", scalar_self / ops * 1e9 if ops else 0.0, "ns")
        put("scalars.quadratic_ops", c["scalars.quadratic_ops"], "count")
        put("scalars.d_checks", op_calls["scalars.d_check"], "count")

        mul_calls = op_calls["poly.mul"]
        put("poly.mul.calls", mul_calls, "count")
        put("poly.mul.self_s", op_self["poly.mul"], "s")
        put("poly.mul.us_per_call", op_self["poly.mul"] / mul_calls * 1e6 if mul_calls else 0.0, "us")
        put("poly.mul.terms_out", c["poly.mul.terms_out"], "count")
        put("poly.add.calls", op_calls["poly.add"], "count")
        put("poly.add.self_s", op_self["poly.add"], "s")
        put("poly.substitute.calls", op_calls["poly.substitute"], "count")
        put("poly.substitute.self_s", op_self["poly.substitute"], "s")
        put("poly.str.self_s", op_self["poly.str"], "s")
        put("poly.width_max", c["poly.width_max"], "count")

        for op in ("rref", "inverse", "det", "mat_mul"):
            put(f"linalg.{op}.calls", calls[f"linalg.{op}"], "count")
            put(f"linalg.{op}.self_s", self_s[f"linalg.{op}"], "s")

        put("algebra.leibniz.calls", calls["algebra.leibniz"], "count")
        put("algebra.leibniz.repeat_calls", c["algebra.leibniz.repeat_calls"], "count")
        put("algebra.leibniz.self_s", self_s["algebra.leibniz"], "s")
        for dim in (4, 5, 7):
            count, total = leibniz_by_dim[dim]
            put(f"algebra.leibniz.ms_per_call.dim{dim}", total / count * 1e3 if count else 0.0, "ms")
        for op in ("fingerprint", "change_basis", "bracket_span", "contains"):
            put(f"algebra.{op}.calls", calls[f"algebra.{op}"], "count")
            put(f"algebra.{op}.self_s", self_s[f"algebra.{op}"], "s")

        for op in ("build_extension", "symplectic_check"):
            put(f"heisenberg.{op}.calls", calls[f"heisenberg.{op}"], "count")
            put(f"heisenberg.{op}.self_s", self_s[f"heisenberg.{op}"], "s")

        for op in ("certify_nilradical", "matrix_nilpotent"):
            put(f"certify.{op}.calls", calls[f"certify.{op}"], "count")
            put(f"certify.{op}.self_s", self_s[f"certify.{op}"], "s")
        put("certify.sp2_nilpotency_locus.calls", calls["certify.sp2_nilpotency_locus"], "count")
        issued = c["certify.issued"]
        put("certify.undecided", c["certify.undecided"] / issued if issued else 0.0, "ratio")

        for op in ("gamma_eliminate", "arar", "audit", "annotate"):
            put(f"constraints.{op}.self_s", self_s[f"constraints.{op}"], "s")
        for op in ("jacobi", "annihilator", "commutation", "extract", "apply_bindings"):
            put(f"constraints.{op}.calls", calls[f"constraints.{op}"], "count")
            put(f"constraints.{op}.self_s", self_s[f"constraints.{op}"], "s")
        put("constraints.extract.empty_calls", c["constraints.extract.empty_calls"], "count")
        put("constraints.audit.triples", c["constraints.audit.triples"], "count")
        put("constraints.audit.zero_triples", c["constraints.audit.zero_triples"], "count")
        put("constraints.residual_polys", c["constraints.residual_polys"], "count")

        put("catalog.verify_entry.calls", calls["catalog.verify_entry"], "count")
        put("catalog.verify_entry.self_s", self_s["catalog.verify_entry"], "s")
        put("catalog.condensation_witness.self_s", self_s["catalog.condensation_witness"], "s")
        put("catalog.distinctness_report.self_s", self_s["catalog.distinctness_report"], "s")

        put("fileio.load.calls", calls["fileio.load"], "count")
        put("fileio.load.self_s", self_s["fileio.load"] + self_s["fileio.parse"], "s")
        put("fileio.bytes_in", c["fileio.bytes_in"], "bytes")

        put("cli.main.calls", calls["cli.main"], "count")
        put("cli.main.self_s", self_s["cli.main"], "s")
        return out

    def write(self, path: str) -> None:
        """Spans, then the hot aggregates, as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, job, name, start, end, own, tag in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "job": job, "name": name,
                    "start": start, "end": end, "self_s": own, "tag": tag,
                }) + "\n")
            for (parent, key), (count, total, own) in self.hot.items():
                handle.write(json.dumps({
                    "hot": key, "parent": parent, "count": count,
                    "total_s": total, "self_s": own,
                }) + "\n")
