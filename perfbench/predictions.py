"""Where each layer's wrappers must fire and where its counts are predicted
to be zero, written down before any optimisation so that a later change
can be held to it (the table of which end-to-end metric each layer should
move is in README.md).  test_perfbench.py checks these against the traced
pass of each workload.
"""

# Metrics that must be nonzero in the traced pass of the workload: each
# wrapper has to fire where the README table says its layer matters.
FIRES = {
    "certify": (
        "scalars.ops", "scalars.quadratic_ops", "scalars.d_checks",
        "linalg.rref.calls", "linalg.inverse.calls", "linalg.det.calls", "linalg.mat_mul.calls",
        "algebra.leibniz.calls", "algebra.leibniz.repeat_calls", "algebra.fingerprint.calls",
        "algebra.change_basis.calls", "algebra.bracket_span.calls", "algebra.contains.calls",
        "heisenberg.build_extension.calls", "heisenberg.symplectic_check.calls",
        "certify.certify_nilradical.calls", "certify.matrix_nilpotent.calls",
        "certify.sp2_nilpotency_locus.calls",
        "catalog.verify_entry.calls", "catalog.condensation_witness.self_s",
        "catalog.distinctness_report.self_s",
        "fileio.load.calls", "fileio.bytes_in", "cli.main.calls",
    ),
    "derive": (
        "poly.mul.calls", "poly.mul.terms_out", "poly.add.calls", "poly.substitute.calls",
        "poly.str.self_s", "poly.width_max", "linalg.mat_mul.calls",
        "constraints.gamma_eliminate.self_s", "constraints.arar.self_s",
        "constraints.audit.self_s", "constraints.annotate.self_s",
        "constraints.jacobi.calls", "constraints.annihilator.calls",
        "constraints.commutation.calls", "constraints.extract.calls",
        "constraints.extract.empty_calls", "constraints.apply_bindings.calls",
        "constraints.audit.triples", "constraints.audit.zero_triples",
        "constraints.residual_polys", "cli.main.calls",
    ),
    "random_basis": (
        "scalars.ops", "scalars.quadratic_ops", "scalars.d_checks", "linalg.rref.calls",
        "algebra.leibniz.calls", "algebra.leibniz.repeat_calls",
        "algebra.leibniz.ms_per_call.dim4", "algebra.leibniz.ms_per_call.dim5",
        "algebra.leibniz.ms_per_call.dim7", "algebra.fingerprint.calls",
        "algebra.bracket_span.calls", "fileio.load.calls", "fileio.bytes_in", "cli.main.calls",
    ),
}

_SCALARS = ("scalars.ops", "scalars.quadratic_ops", "scalars.d_checks")
_POLY = ("poly.mul.calls", "poly.add.calls", "poly.substitute.calls", "poly.width_max")
_HEISENBERG_CERTIFY = (
    "heisenberg.build_extension.calls", "heisenberg.symplectic_check.calls",
    "certify.certify_nilradical.calls", "certify.matrix_nilpotent.calls",
    "certify.sp2_nilpotency_locus.calls",
)
_CONSTRAINTS = (
    "constraints.jacobi.calls", "constraints.annihilator.calls",
    "constraints.commutation.calls", "constraints.extract.calls",
    "constraints.apply_bindings.calls", "constraints.audit.triples",
    "constraints.residual_polys",
)
_CATALOG = ("catalog.verify_entry.calls",)

# Metrics predicted to be exactly zero in the traced pass of the workload.
ZERO = {
    "certify": _POLY + _CONSTRAINTS,
    "derive": _SCALARS + _HEISENBERG_CERTIFY + _CATALOG + (
        "linalg.rref.calls", "linalg.inverse.calls", "linalg.det.calls",
        "algebra.leibniz.calls", "algebra.fingerprint.calls", "algebra.change_basis.calls",
        "algebra.bracket_span.calls", "algebra.contains.calls",
        "fileio.load.calls", "fileio.bytes_in",
    ),
    "random_basis": _POLY + _HEISENBERG_CERTIFY + _CONSTRAINTS + _CATALOG + (
        "linalg.inverse.calls", "linalg.det.calls", "linalg.mat_mul.calls",
        "algebra.change_basis.calls", "algebra.contains.calls",
    ),
}
