import dataclasses
import hashlib
from fractions import Fraction

import pytest

from heisenleib import constraints, linalg

from heisenleib.catalog import build_entry
from heisenleib.constraints import (
    CascadeError,
    ConstraintReport,
    OrderingError,
    a_normalize_basis,
    annihilator_residual_system,
    apply_bindings,
    commutation_residual_system,
    extract_forced_bindings,
    gamma_eliminate,
    jacobi_residual_system,
    parametric_extension,
    replay,
    run_cascade,
    table_triples,
    verify_arar,
)
from heisenleib.heisenberg import block_forms, extension_shear
from heisenleib.poly import PolyQ
from heisenleib.scalars import Scalar

from reference_kernel import reference_reduce_binding_map


def names_of(n, f):
    return parametric_extension(n, f).params


class TestParametricExtension:
    def test_indeterminate_count_n1_f1(self):
        # 9 left-action slots, 9 right-action slots, r, mu, nu
        pa = parametric_extension(1, 1)
        assert len(pa.params) == 21

    def test_f2_has_r_mu_nu_for_all_pairs(self):
        pa = parametric_extension(1, 2)
        for al in (1, 2):
            for be in (1, 2):
                assert f"r_{al}_{be}" in pa.params
                assert f"mu_{al}_{be}_1" in pa.params
                assert f"nu_{al}_{be}_1" in pa.params

    def test_n2_vector_and_block_slots(self):
        pa = parametric_extension(2, 1)
        assert "sigma1_1_2" in pa.params
        assert "A_1_2_2" in pa.params and "A_1_1_2" in pa.params
        assert pa.tensor.dim == 6

    def test_f_out_of_bounds(self):
        with pytest.raises(CascadeError):
            parametric_extension(1, 3)

    def test_heisenberg_block_numeric(self):
        pa = parametric_extension(1, 1)
        # [P, B] = H with no symbolic contamination
        entry = pa.tensor.entry(2, 3, 1)
        assert entry == PolyQ.const(pa.params, 1)


class TestGammaEliminate:
    def test_h_components_vanish(self):
        pa = gamma_eliminate(parametric_extension(1, 1))
        # H-components of [S, P] and [S, B] are the zero polynomial
        assert pa.tensor.entry(0, 2, 1).is_zero()
        assert pa.tensor.entry(0, 3, 1).is_zero()

    def test_gamma_already_zero_is_identity(self):
        pa = gamma_eliminate(parametric_extension(1, 1))
        again = gamma_eliminate(pa)
        assert again.tensor == pa.tensor

    def test_rho_survives(self):
        pa = gamma_eliminate(parametric_extension(1, 1))
        assert pa.tensor.entry(2, 0, 1) == PolyQ.var(pa.params, "rho1_1_1")


class TestJacobiSystem:
    def test_worked_example_literal_sigma2(self):
        # the (S, P, H) residual's H-coefficient is literally sigma2
        pa = gamma_eliminate(parametric_extension(1, 1))
        reports = jacobi_residual_system(pa, [(0, 2, 1)])
        assert len(reports) == 1
        polys = dict(reports[0].residual_polys)
        assert polys["H"] == PolyQ.var(pa.params, "sigma2_1_1")

    def test_pure_nilradical_triple_free(self):
        pa = gamma_eliminate(parametric_extension(1, 1))
        assert jacobi_residual_system(pa, [(1, 2, 3)]) == []

    def test_f2_nu_forced(self):
        # basis order (S1, S2, H, P, B): the (S1, S2, P) triple is (0, 1, 3)
        pa = gamma_eliminate(parametric_extension(1, 2))
        reports = jacobi_residual_system(pa, [(0, 1, 3)])
        bindings = extract_forced_bindings(reports)
        assert ("nu_1_2_1", PolyQ.zero(pa.params)) in bindings

    def test_table_rows_extract_to_nine_row_content(self):
        pa = gamma_eliminate(parametric_extension(1, 1))
        reports = jacobi_residual_system(pa, table_triples(pa))
        bindings = dict(extract_forced_bindings(reports))
        zero = PolyQ.zero(pa.params)
        for name in ("sigma1_1_1", "sigma2_1_1", "tau1_1_1", "tau2_1_1",
                     "mu_1_1_1", "nu_1_1_1"):
            assert bindings[name] == zero
        assert bindings["E_1_1_1"] == -PolyQ.var(pa.params, "A_1_1_1")

    def test_symmetry_rows_at_n2(self):
        pa = gamma_eliminate(parametric_extension(2, 1))
        reports = jacobi_residual_system(pa, table_triples(pa))
        bindings = dict(extract_forced_bindings(reports))
        # C = C^T and D = D^T bind the lower-triangle entries
        assert bindings["C_1_2_1"] == PolyQ.var(pa.params, "C_1_1_2")
        assert bindings["D_1_2_1"] == PolyQ.var(pa.params, "D_1_1_2")
        # E = -A^T entrywise
        assert bindings["E_1_2_1"] == -PolyQ.var(pa.params, "A_1_1_2")


class TestExtraction:
    def test_monomial_to_zero(self):
        names = ("x", "y")
        report = ConstraintReport(
            source="t", residual_polys=(("H", PolyQ.var(names, "x") * 3),)
        )
        assert extract_forced_bindings([report]) == [("x", PolyQ.zero(names))]

    def test_linear_solve(self):
        names = ("E", "A")
        poly = PolyQ.var(names, "E") + PolyQ.var(names, "A")
        report = ConstraintReport(source="t", residual_polys=(("H", poly),))
        assert extract_forced_bindings([report]) == [
            ("E", -PolyQ.var(names, "A"))
        ]

    def test_bilinear_passes_through(self):
        names = ("A1", "C2", "A2", "C1")
        poly = PolyQ.var(names, "A1") * PolyQ.var(names, "C2") - PolyQ.var(
            names, "A2"
        ) * PolyQ.var(names, "C1")
        report = ConstraintReport(source="t", residual_polys=(("H", poly),))
        assert extract_forced_bindings([report]) == []

    def test_sequential_refinement_finds_b(self):
        # two routes to N force b = -a instead of a contradiction
        names = ("a_1", "b_1", "A_1_1_1", "F_1_1_1", "N_1_1_1")
        v = lambda nm: PolyQ.var(names, nm)
        eq1 = v("a_1") + v("b_1") + v("A_1_1_1") + v("F_1_1_1")
        eq2 = v("F_1_1_1") + v("N_1_1_1")
        eq3 = v("a_1") + v("b_1") - v("A_1_1_1") + v("N_1_1_1")
        reports = [
            ConstraintReport(source="t", residual_polys=(("1", eq1), ("2", eq2), ("3", eq3)))
        ]
        bindings = dict(extract_forced_bindings(reports))
        assert bindings["b_1"] == -v("a_1")


class TestAnnihilatorSystem:
    def setup_method(self):
        pa = gamma_eliminate(parametric_extension(1, 1))
        reports = jacobi_residual_system(pa, table_triples(pa))
        self.pa = apply_bindings(pa, "jacobi", extract_forced_bindings(reports))

    def test_ordering_guard(self):
        with pytest.raises(OrderingError):
            annihilator_residual_system(parametric_extension(1, 1))

    def test_g_equals_minus_c(self):
        reports = annihilator_residual_system(self.pa)
        bindings = dict(extract_forced_bindings(reports))
        assert bindings["G_1_1_1"] == -PolyQ.var(self.pa.params, "C_1_1_1")
        assert bindings["M_1_1_1"] == -PolyQ.var(self.pa.params, "D_1_1_1")
        assert bindings["b_1"] == -PolyQ.var(self.pa.params, "a_1")

    def test_commutation_ordering_guard(self):
        with pytest.raises(OrderingError):
            commutation_residual_system(self.pa)


class TestCommutationSystem:
    def test_eigenvector_system_at_f1(self):
        result = run_cascade(1, 1, branch=0)
        sources = {
            report.source
            for report in commutation_residual_system(result.pa)
        }
        assert "(X1 - a_1 I) rho^1" in sources
        labels = dict(result.side_conditions)
        v = lambda nm: PolyQ.var(result.pa.params, nm)
        # the displayed residual pair: A rho1 + C rho2 and D rho1 - A rho2
        assert labels["(X1 - a_1 I) rho^1[0]"] == v("rho1_1_1") * v("A_1_1_1") + v(
            "rho2_1_1"
        ) * v("C_1_1_1")
        assert labels["(X1 - a_1 I) rho^1[1]"] == v("rho1_1_1") * v("D_1_1_1") - v(
            "rho2_1_1"
        ) * v("A_1_1_1")

    def test_cross_products_at_f2(self):
        result = run_cascade(1, 2, branch=0)
        v = lambda nm: PolyQ.var(result.pa.params, nm)
        comm = {
            label: poly
            for label, poly in result.side_conditions
            if label.startswith("X1 X2")
        }
        # [X1, X2] = ((C1 D2 - C2 D1, 2(A1 C2 - A2 C1)),
        #             (-2(A1 D2 - A2 D1), -(C1 D2 - C2 D1)))
        assert comm["X1 X2 - X2 X1(0,0)"] == v("C_1_1_1") * v("D_2_1_1") - v(
            "C_2_1_1"
        ) * v("D_1_1_1")
        assert comm["X1 X2 - X2 X1(0,1)"] == 2 * (
            v("A_1_1_1") * v("C_2_1_1") - v("A_2_1_1") * v("C_1_1_1")
        )
        assert comm["X1 X2 - X2 X1(1,0)"] == -2 * (
            v("A_1_1_1") * v("D_2_1_1") - v("A_2_1_1") * v("D_1_1_1")
        )


class TestArar:
    def test_identity_holds_symbolically(self):
        # with a kept symbolic the residual matches the a-r combination
        result = run_cascade(1, 2, branch=None)
        reports = verify_arar(result.pa)
        assert len(reports) == 4

    def test_specializations_at_branch1(self):
        result = run_cascade(1, 2, branch=1)
        fb = result.final_bindings()
        zero = PolyQ.zero(result.pa.params)
        for name in ("r_1_1", "r_1_2", "r_2_1", "r_2_2"):
            assert fb[name] == zero

    def test_f1_rejected(self):
        result = run_cascade(1, 1, branch=1)
        with pytest.raises(CascadeError):
            verify_arar(result.pa)

    def test_branch0_keeps_r_free(self):
        result = run_cascade(1, 2, branch=0)
        free = set(result.pa.free_params())
        assert {"r_1_1", "r_1_2", "r_2_1", "r_2_2"} <= free


class TestHShear:
    """On a_1 = 1 the H-shear S~_b = S_b - (r_1b / 2) H clears r_1b.  The
    commutation stage already binds r_1b := 0, because it compares L_1 L_b
    with L_b L_1 on the whole algebra, where the Leibniz identity gives only
    [L_1, L_b] = L_[S_1, S_b] = r_1b L_H, which is nonzero in the S columns."""

    @pytest.mark.parametrize("n,f", [(1, 2), (2, 3), (3, 4)])
    def test_commutation_stage_binds_r_1b(self, n, f):
        """Guard: the cascade has no H-shear step of its own.  A change that
        moves these bindings out of the commutation stage must restore a
        checked H-shear (constraints._checked_shear on the shifts
        -(r_1b / 2) H), or r_1b stays free on branch 1."""
        result = run_cascade(n, f, branch=1)
        zero = PolyQ.zero(result.pa.params)
        names = [f"r_1_{be}" for be in range(2, f + 1)]
        final = result.final_bindings()
        commutation = dict(result.stage("commutation").bindings)
        for name in names:
            assert final[name] == zero
            assert commutation[name] == zero
        assert result.stage("arar").bindings == ()

    def test_shifted_witness_is_a_reparameterization(self):
        """H2a1C with S2 shifted by H: the same Lie algebra with r_12 = 2,
        where [L_1, L_2] and [L_1, R_2] are the nonzero operators L_[S1,S2]
        and R_[S1,S2], so L_1 L_2 = L_2 L_1 is not an identity."""
        t = build_entry("H2a1C")
        zero = [Scalar.zero()] * 3
        shift = [zero, [Scalar.one()] + zero[1:]]
        moved = extension_shear(t, 1, 2, shift)
        assert moved.is_lie()
        a, _, _, r = block_forms(moved, 1, 2)
        assert a == [Scalar.one(), Scalar.zero()]
        assert r == [[Scalar.zero(), Scalar.rational(2)], [Scalar.rational(-2), Scalar.zero()]]

        s1, s2 = moved.unit_vector(0), moved.unit_vector(1)
        l1, l2 = moved.left_mult_matrix(s1), moved.left_mult_matrix(s2)
        r2 = moved.right_mult_matrix(s2)
        bracket = moved.bracket(s1, s2)
        comm = linalg.mat_sub(linalg.mat_mul(l1, l2), linalg.mat_mul(l2, l1))
        assert linalg.mat_eq(comm, moved.left_mult_matrix(bracket))
        h = moved.basis_labels.index("H")
        assert not comm[h][0].is_zero()
        comm = linalg.mat_sub(linalg.mat_mul(l1, r2), linalg.mat_mul(r2, l1))
        assert linalg.mat_eq(comm, moved.right_mult_matrix(bracket))
        assert not linalg.is_zero_matrix(comm)

        back = [zero, [-Scalar.one()] + zero[1:]]
        assert extension_shear(moved, 1, 2, back) == t


class TestCascade:
    @pytest.mark.parametrize("n,f", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_surviving_parameters_branch1(self, n, f):
        result = run_cascade(n, f, branch=1)
        free = set(result.pa.free_params())
        expected = set()
        for al in range(1, f + 1):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    expected.add(f"A_{al}_{i}_{j}")
                    if i <= j:
                        expected.add(f"C_{al}_{i}_{j}")
                        expected.add(f"D_{al}_{i}_{j}")
        assert free == expected
        assert result.audit.ok()

    @pytest.mark.parametrize("n,f", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_surviving_parameters_branch0(self, n, f):
        result = run_cascade(n, f, branch=0)
        free = set(result.pa.free_params())
        expected = set()
        for al in range(1, f + 1):
            for be in range(1, f + 1):
                expected.add(f"r_{al}_{be}")
            for i in range(1, n + 1):
                expected.add(f"rho1_{al}_{i}")
                expected.add(f"rho2_{al}_{i}")
                for j in range(1, n + 1):
                    expected.add(f"A_{al}_{i}_{j}")
                    if i <= j:
                        expected.add(f"C_{al}_{i}_{j}")
                        expected.add(f"D_{al}_{i}_{j}")
        assert free == expected
        assert result.audit.ok()

    def test_f1_branch1_all_residuals_zero(self):
        result = run_cascade(1, 1, branch=1)
        assert result.audit.all_zero()

    def test_audit_entries(self):
        # matched residuals are named by their side condition, unmatched
        # ones kept as polynomials, never rendered to text
        result = run_cascade(2, 2, branch=1)
        labels = {label for label, _ in result.side_conditions}
        assert result.audit.matched and not result.audit.unmatched
        assert all(label in labels for _, label in result.audit.matched)
        bare = constraints.final_residual_audit(result.pa, [])
        assert not bare.matched
        assert [comp for comp, _ in bare.unmatched] == [comp for comp, _ in result.audit.matched]
        assert all(isinstance(p, PolyQ) and not p.is_zero() for _, p in bare.unmatched)

    def test_maximal_extension_n2_f3(self):
        # f = n + 1 = 3: the largest case the bound admits
        result = run_cascade(2, 3, branch=1)
        assert result.audit.ok()
        free = set(result.pa.free_params())
        assert len(free) == 3 * (4 + 3 + 3)
        assert all(nm.split("_")[0] in ("A", "C", "D") for nm in free)

    def test_replay_reproduces_tensor(self):
        result = run_cascade(1, 2, branch=1)
        assert replay(result.pa).tensor == result.pa.tensor

    def test_forced_bindings_annihilate_sources(self):
        pa = gamma_eliminate(parametric_extension(1, 1))
        reports = jacobi_residual_system(pa, table_triples(pa))
        bindings = dict(extract_forced_bindings(reports))
        for report in reports:
            for _, poly in report.residual_polys:
                if poly.as_linear() is not None:
                    assert poly.substitute(bindings).is_zero()

    def test_stage_reports_carry_forced_bindings(self):
        result = run_cascade(1, 1, branch=1)
        jacobi = result.stage("jacobi")
        report = next(
            r for r in jacobi.reports if r.source == "jacobi {S1,P1,H}"
        )
        assert ("sigma2_1_1", PolyQ.zero(result.pa.params)) in report.forced
        # substituting the stage's bindings annihilates the source residual
        bindings = dict(jacobi.bindings)
        for _, poly in report.residual_polys:
            assert poly.substitute(bindings).is_zero()


def _render_cascade(result) -> str:
    """Every stage record (bindings, report sources, residuals, forced
    bindings), the side conditions, the free parameters and the audit
    counts, one item a line."""
    lines = []
    for record in result.stages:
        lines.append(f"stage {record.name}")
        lines.extend(f"bind {name} = {rhs}" for name, rhs in record.bindings)
        for report in record.reports:
            lines.append(f"report {report.source}")
            lines.extend(f"poly {comp}: {p}" for comp, p in report.residual_polys)
            lines.extend(f"forced {name} = {rhs}" for name, rhs in report.forced)
    lines.extend(f"side {label}: {p}" for label, p in result.side_conditions)
    lines.append("free " + " ".join(result.pa.free_params()))
    audit = result.audit
    if audit is not None:
        lines.append(f"audit {audit.triples_checked} {audit.zero_residuals} "
                     f"{len(audit.matched)} {len(audit.unmatched)}")
    return "\n".join(lines)


# sha256 of _render_cascade: a change to how the cascade computes its stages
# must keep every stage record, report, side condition and audit count
@pytest.mark.parametrize(
    "n,f,branch,digest",
    [
        (1, 1, 1, "e4469c8fe23feb2909d4517f8116f9a17366a267a2d1a92ff94ccc5d4b5d3a2e"),
        (1, 1, 0, "ec4dad10ba64d7f89ecea3f189c1739ddfc1c72e5bda7a110fe3a1fc8393c77d"),
        (1, 2, 0, "88764dff5fcbc39e07aaf7b4962c63140fde29a50819ad94b60499e9e8cbe46a"),
        (1, 2, 1, "78652aa538e03964bdd1559dbe37b6a879e5beddab18cbb3699d6f324bc986ec"),
        (1, 2, None, "29ff97551e457a157104b0f2a1e588263a750aa3aeff6df9324d1e32396c0197"),
        (2, 2, 0, "5f4e936b283d7c715d3ff0ae882b99c79d4f02db5410ca5d0e61833091323194"),
        (2, 2, 1, "7e60dc57899e75e6d85215622077e2a9d81c37d3c70dcd55ad007cb410762f92"),
    ],
)
def test_stage_records_digest(n, f, branch, digest):
    text = _render_cascade(run_cascade(n, f, branch))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_residual_system_once_per_round(monkeypatch):
    calls = {"annihilator": 0, "arar": 0}

    def counted(stage, fn):
        def wrapper(pa):
            calls[stage] += 1
            return fn(pa)
        return wrapper

    monkeypatch.setattr(constraints, "annihilator_residual_system",
                        counted("annihilator", annihilator_residual_system))
    monkeypatch.setattr(constraints, "verify_arar", counted("arar", verify_arar))
    result = run_cascade(1, 2, 1)
    rounds = {
        stage: sum(1 for name, bindings in result.pa.applied if name == stage and bindings)
        for stage in calls
    }
    # two binding rounds for the annihilator, none for arar at (1, 2, 1)
    assert rounds == {"annihilator": 2, "arar": 0}
    assert calls == {stage: count + 1 for stage, count in rounds.items()}


class TestInstantiation:
    """The derived normal form instantiates to the builder's tensors."""

    def test_branch0_instantiates_to_catalog_entry(self):
        from heisenleib.catalog import build_entry
        from heisenleib.constraints import instantiate

        result = run_cascade(1, 1, branch=0)
        tensor = instantiate(
            result.pa,
            {"A_1_1_1": 1, "C_1_1_1": 0, "D_1_1_1": 0,
             "rho1_1_1": 0, "rho2_1_1": 0, "r_1_1": 1},
        )
        assert tensor == build_entry("H1a0C-r1")

    def test_branch1_instantiates_to_built_extension(self):
        from heisenleib.constraints import instantiate
        from heisenleib.heisenberg import ExtensionSpec, build_extension

        result = run_cascade(1, 1, branch=1)
        tensor = instantiate(
            result.pa, {"A_1_1_1": Fraction(1, 2), "C_1_1_1": 2, "D_1_1_1": 3}
        )
        spec = ExtensionSpec.make(
            1, 1, [1], [[[Fraction(1, 2), 2], [3, Fraction(-1, 2)]]]
        )
        assert tensor == build_extension(spec)

    def test_branch1_f2_instantiates(self):
        from heisenleib.catalog import build_entry
        from heisenleib.constraints import instantiate

        result = run_cascade(1, 2, branch=1)
        values = {
            "A_1_1_1": 0, "C_1_1_1": 0, "D_1_1_1": 0,
            "A_2_1_1": 1, "C_2_1_1": 0, "D_2_1_1": 0,
        }
        assert instantiate(result.pa, values) == build_entry("H2a1C")

    def test_missing_value_rejected(self):
        from heisenleib.constraints import instantiate

        result = run_cascade(1, 1, branch=1)
        with pytest.raises(CascadeError, match="unbound"):
            instantiate(result.pa, {"A_1_1_1": 1})


def test_a_normalize_basis():
    from heisenleib import linalg
    from heisenleib.algebra import change_basis, basis_rows_to_coordinate_map
    from heisenleib.heisenberg import (
        ExtensionSpec,
        assemble_extension,
        extract_extension_data,
    )

    # concrete non-normalized a-vector: S-block Gaussian elimination makes
    # a = (1, 0) after the change of basis
    x1 = [[1, 0], [0, -1]]
    x2 = [[2, 0], [0, -2]]
    spec = ExtensionSpec.make(1, 2, [Fraction(3), Fraction(1)], [x1, x2])
    t = assemble_extension(spec)
    rows = a_normalize_basis(spec.a, 1)
    moved = change_basis(t, basis_rows_to_coordinate_map(rows))
    data = extract_extension_data(moved, 1, 2)
    assert [str(v) for v in data.a] == ["1/1", "0/1"]

    # an all-zero a-vector is left alone
    rows = a_normalize_basis([0, 0], 1)
    assert linalg.mat_eq(rows, linalg.identity(2 * 1 + 1 + 2))


class TestReduceBindingMapOnCycles:
    """What _reduce_binding_map returns when bindings refer to each other in
    a cycle; a binding's own name is never substituted into its right-hand
    side, which decides these answers."""

    names = ("x", "y", "z")

    def v(self, name):
        return PolyQ.var(self.names, name)

    def test_two_cycle_collapses_onto_the_first_name(self):
        x, y = self.v("x"), self.v("y")
        assert constraints._reduce_binding_map({"x": y, "y": x}) == {"x": x, "y": x}

    def test_two_cycle_with_an_offset_is_inconsistent(self):
        x, y = self.v("x"), self.v("y")
        with pytest.raises(constraints.InconsistencyError):
            constraints._reduce_binding_map({"x": y + 1, "y": x})

    def test_self_reference_is_kept(self):
        rhs = self.v("x") + self.v("y")
        assert constraints._reduce_binding_map({"x": rhs}) == {"x": rhs}

    def test_three_cycle_collapses_onto_the_last_name(self):
        x, y, z = self.v("x"), self.v("y"), self.v("z")
        reduced = constraints._reduce_binding_map({"x": y, "y": z, "z": x})
        assert reduced == {"x": z, "y": z, "z": z}

    def test_self_mention_among_other_bindings(self):
        # x's right-hand side mentions x, so it is reduced by y alone
        x, y, z = self.v("x"), self.v("y"), self.v("z")
        raw = {"x": x + y, "y": z}
        want = reference_reduce_binding_map(dict(raw))
        assert constraints._reduce_binding_map(raw) == want == {"x": x + z, "y": z}

    @pytest.mark.parametrize("make", [
        lambda x, y, z: {"x": y, "y": x},
        lambda x, y, z: {"x": y + 1, "y": x},
        lambda x, y, z: {"x": x + y},
        lambda x, y, z: {"x": y, "y": z, "z": x},
    ], ids=["two_cycle", "offset", "self", "three_cycle"])
    def test_cycles_match_the_per_rhs_reducer(self, make):
        raw = make(*(self.v(name) for name in self.names))
        try:
            want = reference_reduce_binding_map(dict(raw))
        except constraints.InconsistencyError:
            with pytest.raises(constraints.InconsistencyError):
                constraints._reduce_binding_map(dict(raw))
        else:
            assert constraints._reduce_binding_map(dict(raw)) == want


@pytest.mark.parametrize("n,f", [(1, 1), (1, 2), (2, 2), (2, 3)])
@pytest.mark.parametrize("branch", [1, 0])
def test_reduce_binding_map_matches_the_per_rhs_reducer(monkeypatch, n, f, branch):
    """Every raw binding map that apply_bindings reduces in the cascade
    reduces as the fresh per-right-hand-side substitution did."""
    seen = []
    reduce = constraints._reduce_binding_map

    def recording(raw):
        seen.append(dict(raw))
        return reduce(raw)

    monkeypatch.setattr(constraints, "_reduce_binding_map", recording)
    run_cascade(n, f, branch=branch)
    assert any(len(raw) > 1 for raw in seen)
    for raw in seen:
        got, want = reduce(dict(raw)), reference_reduce_binding_map(dict(raw))
        assert got == want and list(got) == list(want)
        assert [str(p) for p in got.values()] == [str(p) for p in want.values()]


def reference_annotate_forced(reports, bindings) -> list:
    """annotate_forced through public PolyQ readers only: each report's
    names decoded from the exponent tuples of sorted_terms()."""
    bound = dict(bindings)
    out = []
    for report in reports:
        used = {
            poly.names[i]
            for _, poly in report.residual_polys
            for exp, _ in poly.sorted_terms()
            for i, e in enumerate(exp)
            if e
        }
        forced = tuple(sorted((name, bound[name]) for name in used if name in bound))
        out.append(dataclasses.replace(report, forced=forced))
    return out


@pytest.mark.parametrize("n,f", [(2, 2), (3, 4)])
@pytest.mark.parametrize("branch", [1, 0])
def test_annotate_forced_matches_a_reference(monkeypatch, n, f, branch):
    """Every report the cascade annotates carries the forced bindings that a
    decoding of its residuals through sorted_terms() gives."""
    seen = []
    annotate = constraints.annotate_forced

    def recording(reports, bindings):
        out = annotate(reports, bindings)
        seen.append((list(reports), list(bindings), out))
        return out

    monkeypatch.setattr(constraints, "annotate_forced", recording)
    run_cascade(n, f, branch=branch)
    assert len(seen) == 3  # jacobi, annihilator, arar
    assert any(report.forced for _, _, out in seen for report in out)
    for reports, bindings, out in seen:
        assert out == reference_annotate_forced(reports, bindings)
