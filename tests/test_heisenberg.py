import importlib
import warnings

import pytest

from heisenleib import linalg
from heisenleib.algebra import StructTensor, Subspace, lower_central_series
from heisenleib.catalog import (
    build_entry,
    catalog_entries,
    entry_parameter_grid,
    get_entry,
)
from heisenleib.certify import certify_nilradical, matrix_nilpotent
from heisenleib.constraints import instantiate, run_cascade
from heisenleib.heisenberg import (
    UNDECIDED,
    ANormalizationViolation,
    CommutationViolation,
    ExtensionSpec,
    FBoundViolation,
    NilindependenceUndecidedWarning,
    NilindependenceViolation,
    NullspaceViolation,
    SymplecticViolation,
    action_display,
    assemble_extension,
    block_forms,
    build_extension,
    eigenvector_check,
    eigenvector_residual,
    extract_extension_data,
    heisenberg,
    heisenberg_subspace,
    left_action_display,
    max_extension_bound,
    right_action_display,
    symplectic_check,
)
from heisenleib.linalg import smat, svec
from heisenleib.poly import PolyQ
from heisenleib.scalars import Scalar

from reference_kernel import is_zero_vector

DIAG = [[1, 0], [0, -1]]
ROT = [[0, 1], [-1, 0]]


class TestHeisenberg:
    def test_h1_products(self):
        t = heisenberg(1)
        assert t.dim == 3
        assert t.bracket(t.unit_vector(1), t.unit_vector(2)) == svec([1, 0, 0])
        assert t.bracket(t.unit_vector(2), t.unit_vector(1)) == svec([-1, 0, 0])
        assert t.is_lie()

    def test_h2_kronecker_delta(self):
        t = heisenberg(2)
        assert t.dim == 5
        p1, b2 = t.unit_vector(1), t.unit_vector(4)
        assert is_zero_vector(t.bracket(p1, b2))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lower_central_dims(self, n):
        assert [s.dim for s in lower_central_series(heisenberg(n))] == [1, 0]

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            heisenberg(0)


class TestSymplecticCheck:
    def test_diag(self):
        assert symplectic_check(smat(DIAG), 1)

    def test_rotation(self):
        assert symplectic_check(smat(ROT), 1)

    def test_identity_fails(self):
        assert not symplectic_check(linalg.identity(2), 1)

    def test_block_conditions_at_n2(self):
        # A arbitrary, C = C^T, D = D^T, lower right = -A^T
        a = [[1, 2], [3, 4]]
        c = [[5, 6], [6, 7]]
        d = [[8, 9], [9, 10]]
        x = smat(
            [
                [1, 2, 5, 6],
                [3, 4, 6, 7],
                [8, 9, -1, -3],
                [9, 10, -2, -4],
            ]
        )
        assert symplectic_check(x, 2)
        x[2][2] = Scalar.rational(1)  # break lower-right = -A^T
        assert not symplectic_check(x, 2)

    def test_shape_error(self):
        with pytest.raises(linalg.ShapeError):
            symplectic_check(smat([[1, 0], [0, -1]]), 2)


class TestEigenvectorCheck:
    def test_zero_rho_vacuous(self):
        assert eigenvector_check(smat(DIAG), svec([0, 0]), 0)

    def test_eigenvector(self):
        assert eigenvector_check(smat(DIAG), svec([1, 0]), 1)

    def test_not_eigenvector(self):
        assert not eigenvector_check(smat(DIAG), svec([1, 1]), 1)


def test_max_extension_bound():
    assert max_extension_bound(1) == 2
    assert max_extension_bound(2) == 3
    assert max_extension_bound(10) == 11


class TestValidation:
    def test_f_bound(self):
        spec = ExtensionSpec.make(1, 3, [1, 0, 0], [DIAG, DIAG, DIAG])
        with pytest.raises(FBoundViolation):
            spec.validate()

    def test_symplectic_violation(self):
        spec = ExtensionSpec.make(1, 1, [0], [[[1, 0], [0, 1]]], r=[[1]])
        with pytest.raises(SymplecticViolation):
            spec.validate()

    def test_commutation_violation(self):
        spec = ExtensionSpec.make(1, 2, [1, 0], [DIAG, ROT])
        with pytest.raises(CommutationViolation):
            spec.validate()

    def test_a_normalization(self):
        with pytest.raises(ANormalizationViolation):
            ExtensionSpec.make(1, 1, [2], [DIAG]).validate()
        with pytest.raises(ANormalizationViolation):
            ExtensionSpec.make(1, 2, [1, 1], [[[0, 0], [0, 0]], DIAG]).validate()

    def test_a1_forces_rho_and_r(self):
        with pytest.raises(ANormalizationViolation):
            ExtensionSpec.make(1, 1, [1], [DIAG], rho=[[1, 0]]).validate()
        with pytest.raises(ANormalizationViolation):
            ExtensionSpec.make(1, 1, [1], [DIAG], r=[[1]]).validate()

    def test_nullspace_violation(self):
        spec = ExtensionSpec.make(1, 1, [0], [DIAG], rho=[[1, 0]])
        with pytest.raises(NullspaceViolation):
            spec.validate()

    def test_cross_nullspace_violation_at_n2(self):
        # the own-nullspace condition holds but the cross condition
        # X2 rho1 = 0 fails, which would break the Leibniz identity
        x1 = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]]
        x2 = [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]]
        spec = ExtensionSpec.make(2, 2, [0, 0], [x1, x2], rho=[[0, 1, 0, 0], [0, 0, 0, 0]])
        with pytest.raises(NullspaceViolation):
            spec.validate()

    def test_a1_one_computes_no_eigenvector_residual(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return eigenvector_residual(*args)

        # the package's name heisenberg is the function, so fetch the module itself
        module = importlib.import_module("heisenleib.heisenberg")
        monkeypatch.setattr(module, "eigenvector_residual", counting)
        ExtensionSpec.make(1, 2, [1, 0], [DIAG, [[2, 0], [0, -2]]]).validate()
        assert calls == []
        # the a = 0 branch reads every (X_al, rho_be) pair
        ExtensionSpec.make(1, 1, [0], [DIAG], r=[[1]]).validate()
        assert len(calls) == 1

    def test_nilpotent_x_rejected(self):
        spec = ExtensionSpec.make(1, 1, [0], [[[0, 0], [0, 0]]], r=[[1]])
        with pytest.raises(NilindependenceViolation):
            spec.validate()
        jordan = ExtensionSpec.make(1, 1, [0], [[[0, 1], [0, 0]]])
        with pytest.raises(NilindependenceViolation):
            jordan.validate()

    def test_pair_nilindependence_rejected(self):
        # commuting proportional pair at a = 0
        spec = ExtensionSpec.make(
            1, 2, [0, 0], [DIAG, [[2, 0], [0, -2]]], r=[[0, 0], [0, 0]]
        )
        with pytest.raises(NilindependenceViolation):
            spec.validate()

    def test_nilpotent_combination_outcomes(self):
        # a_1 = 1 leaves only S2 with zero H-eigenvalue
        jordan = [[0, 1], [0, 0]]
        spec = ExtensionSpec.make(1, 2, [1, 0], [DIAG, jordan])
        assert spec.nilpotent_combination() == (Scalar.zero(), Scalar.one())
        assert ExtensionSpec.make(1, 1, [1], [jordan]).nilpotent_combination() is None
        # det(c1 X1 + c2 X2) = -c1^2 - c2^2: no real point, a point over Q(i)
        sym = [[0, 1], [1, 0]]
        spec = ExtensionSpec.make(1, 2, [0, 0], [DIAG, sym])
        assert spec.nilpotent_combination("R") is None
        c1, c2 = spec.nilpotent_combination("C")
        assert matrix_nilpotent(linalg.mat_add(linalg.mat_scale(smat(DIAG), c1),
                                               linalg.mat_scale(smat(sym), c2)))
        x1 = [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, -1, 0], [0, 0, 0, -2]]
        x2 = [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, -2, 0], [0, 0, 0, -1]]
        spec = ExtensionSpec.make(2, 2, [0, 0], [x1, x2])
        assert spec.nilpotent_combination() is UNDECIDED
        # a plane with entries in Q(i): a linear dependence, or undecided
        # for independent (non-commuting) matrices
        i = Scalar.quadratic(0, 1, -1)
        spec = ExtensionSpec.make(1, 2, [0, 0], [[[i, 0], [0, -i]], DIAG])
        assert spec.nilpotent_combination() == (i, Scalar.one())
        spec = ExtensionSpec.make(1, 2, [0, 0], [[[i, 0], [0, -i]], sym])
        assert spec.nilpotent_combination("C") is UNDECIDED

    def test_undecided_scale_warns(self):
        x1 = [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, -1, 0], [0, 0, 0, -2]]
        x2 = [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, -2, 0], [0, 0, 0, -1]]
        spec = ExtensionSpec.make(2, 2, [0, 0], [x1, x2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spec.validate()
        assert any(
            issubclass(w.category, NilindependenceUndecidedWarning) for w in caught
        )


class TestBuildExtension:
    def test_h1a0c_products(self):
        t = build_extension(ExtensionSpec.make(1, 1, [0], [DIAG], r=[[1]]))
        s, h, p, b = (t.unit_vector(i) for i in range(4))
        assert t.bracket(s, p) == svec([0, 0, 1, 0])
        assert t.bracket(s, b) == svec([0, 0, 0, -1])
        assert t.bracket(p, s) == svec([0, 0, -1, 0])
        assert t.bracket(b, s) == svec([0, 0, 0, 1])
        assert t.bracket(s, s) == svec([0, 1, 0, 0])
        assert t.is_leibniz()

    def test_a1_offdiagonal_c_block(self):
        # row convention of the worked derivation: [S, P_i] picks up row i
        # of (aI + A | C), so C = 1 puts the B-term in [S, P]
        t = build_extension(ExtensionSpec.make(1, 1, [1], [[[0, 1], [0, 0]]]))
        s, p, b = t.unit_vector(0), t.unit_vector(2), t.unit_vector(3)
        assert t.bracket(s, p) == svec([0, 0, 1, 1])
        assert t.bracket(s, b) == svec([0, 0, 0, 1])
        assert t.is_leibniz() and t.is_lie()

    def test_dimension(self):
        t = build_extension(
            ExtensionSpec.make(1, 2, [1, 0], [[[0, 0], [0, 0]], DIAG])
        )
        assert t.dim == 2 * 1 + 1 + 2

    def test_rho_nonzero_at_n2_is_leibniz(self):
        # singular but non-nilpotent X with rho in its nullspace
        x = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]]
        spec = ExtensionSpec.make(
            2, 1, [0], [x], rho=[[0, 1, 0, 0]], r=[[5]]
        )
        t = build_extension(spec)
        assert t.is_leibniz()
        assert not t.is_lie()

    def test_lie_iff_r_and_rho_vanish(self):
        x = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]]
        cases = [
            ([[0, 0, 0, 0]], [[0]], True),   # r = 0, rho = 0
            ([[0, 1, 0, 0]], [[0]], False),  # rho != 0 alone breaks antisymmetry
            ([[0, 0, 0, 0]], [[1]], False),  # r != 0 alone breaks antisymmetry
        ]
        for rho, r, expect in cases:
            t = build_extension(ExtensionSpec.make(2, 1, [0], [x], rho=rho, r=r))
            assert t.is_lie() is expect

    def test_bound_holds_for_all_valid_specs(self):
        # f <= n + 1 makes 2 dim(nr) >= dim automatic; spot-check the
        # extremal f = n + 1 builds at n = 1 and n = 2
        from heisenleib.certify import mubar_bound_check

        t = build_extension(
            ExtensionSpec.make(1, 2, [1, 0], [[[0, 0], [0, 0]], DIAG])
        )
        assert mubar_bound_check(t, heisenberg_subspace(1, 2))
        x2 = [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, -1, 0], [0, 0, 0, -2]]
        x3 = [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, -2, 0], [0, 0, 0, -1]]
        zero4 = [[0] * 4 for _ in range(4)]
        spec = ExtensionSpec.make(2, 3, [1, 0, 0], [zero4, x2, x3])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t = build_extension(spec)
        assert t.is_leibniz()
        assert mubar_bound_check(t, heisenberg_subspace(2, 3))

    def test_display_round_trip(self):
        spec = ExtensionSpec.make(1, 1, [1], [[[2, 0], [0, -2]]])
        t = build_extension(spec)
        assert left_action_display(t, 1, 1, 0) == smat(
            [[2, 0, 0], [0, 3, 0], [0, 0, -1]]
        )
        assert right_action_display(t, 1, 1, 0) == smat(
            [[-2, 0, 0], [0, -3, 0], [0, 0, 1]]
        )

    def test_extract_round_trip(self):
        spec = ExtensionSpec.make(1, 2, [1, 0], [[[0, 0], [0, 0]], ROT])
        t = build_extension(spec)
        assert extract_extension_data(t, 1, 2) == spec

    def test_extract_round_trip_rho_r(self):
        spec = ExtensionSpec.make(
            2, 1, [0], [[[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]]],
            rho=[[0, 1, 0, 0]], r=[[-1]],
        )
        t = build_extension(spec)
        assert extract_extension_data(t, 2, 1) == spec

    @pytest.mark.parametrize(
        "entry_id,params",
        [
            (entry_id, params)
            for entry_id in sorted({e.id for fld in "CR" for e in catalog_entries(fld)})
            for params in entry_parameter_grid(get_entry(entry_id))
        ],
    )
    def test_extract_round_trip_catalog(self, entry_id, params):
        entry = get_entry(entry_id)
        t = build_entry(entry_id, params)
        assert extract_extension_data(t, entry.n, entry.f) == entry.spec(params)

    @pytest.mark.parametrize(
        "strays,message",
        [
            ([(0, 2, 0)], "bracket leaves the nilradical"),
            ([(2, 0, 0)], "bracket leaves the nilradical"),
            ([(0, 1, 2)], "left action is not in the block normal form"),
            ([(0, 0, 2)], r"\[S,S\] is not a multiple of H"),
            ([(0, 0, 2), (0, 1, 2)], "left action is not in the block normal form"),
        ],
    )
    def test_extract_rejects_off_block_constants(self, strays, message):
        t = _with_strays(ExtensionSpec.make(1, 1, [1], [DIAG]), strays)
        with pytest.raises(ValueError, match=message):
            extract_extension_data(t, 1, 1)

    def test_certify_notes_off_block_form(self):
        t = _with_strays(ExtensionSpec.make(1, 1, [1], [DIAG]), [(0, 1, 2)])
        cert = certify_nilradical(t, heisenberg_subspace(1, 1), field="R")
        assert cert.ideal and cert.nilpotent and cert.contains_derived
        assert cert.maximality.status == "undecided"
        assert cert.maximality.note == (
            "not in block normal form: left action is not in the block normal form"
        )

    @pytest.mark.parametrize("branch", [1, 0, None])
    def test_block_forms_agree_on_both_entry_kinds(self, branch):
        pa = run_cascade(1, 2, branch).pa
        point = {
            name: Scalar.rational(i + 2, 3) for i, name in enumerate(pa.free_params())
        }
        symbolic = block_forms(pa.tensor, 1, 2)
        numeric = block_forms(instantiate(pa, point), 1, 2)

        def evaluate(value):
            if isinstance(value, list):
                return [evaluate(v) for v in value]
            return value.evaluate(point)

        assert [evaluate(block) for block in symbolic] == list(numeric)

    def test_ss_bracket_lands_in_annihilator(self):
        from heisenleib.algebra import left_annihilator

        t = build_extension(ExtensionSpec.make(1, 1, [0], [DIAG], r=[[-1]]))
        ann = left_annihilator(t)
        assert ann.contains(t.bracket(t.unit_vector(0), t.unit_vector(0)))

    def test_assemble_bypass_builds_invalid(self):
        # the validation bypass exists for certifier testing
        spec = ExtensionSpec.make(1, 1, [0], [[[0, 1], [0, 0]]])
        t = assemble_extension(spec)
        assert t.dim == 4 and t.is_leibniz()

    def test_heisenberg_subspace(self):
        w = heisenberg_subspace(1, 1)
        assert w.ambient_dim == 4 and w.dim == 3
        assert w.contains(svec([0, 1, 0, 0]))
        assert not w.contains(svec([1, 0, 0, 0]))

    def test_heisenberg_subspace_needs_no_elimination(self, monkeypatch):
        def refuse(rows):
            raise AssertionError("identity rows are already in reduced echelon form")

        points = [(n, f) for n in range(1, 4) for f in range(1, n + 2)]
        with monkeypatch.context() as patched:
            patched.setattr(linalg, "rref", refuse)
            built = [heisenberg_subspace(n, f) for n, f in points]
        for (n, f), subspace in zip(points, built):
            dim = 2 * n + 1 + f
            assert subspace == Subspace.span(linalg.identity(dim)[f:], dim)


def _with_strays(spec, strays):
    """The assembled tensor of spec with the constant 1 added at each stray
    (i, j, k)."""
    t = assemble_extension(spec)
    constants = t.constants_dict()
    for key in strays:
        constants[key] = Scalar.one()
    return StructTensor(t.dim, constants, basis_labels=t.basis_labels)


class TestActionDisplay:
    @pytest.mark.parametrize("n", [1, 2])
    def test_spec_displays_come_from_the_blocks(self, n):
        # unvalidated data with every block nonzero, so no entry hides; the
        # expected displays are written out here, not through the writer
        m, f = 2 * n, 2
        x = [[[10 * al + m * u + w + 1 for w in range(m)] for u in range(m)] for al in range(f)]
        rho = [[al - u - 1 for u in range(m)] for al in range(f)]
        spec = ExtensionSpec.make(n, f, ["1/2", -3], x, rho=rho, r=[[1, 2], [3, 4]])
        t = assemble_extension(spec)
        zero = Scalar.zero()
        zeros = [zero] * m
        for al, (a, xa, rho_a) in enumerate(zip(spec.a, spec.X, spec.rho)):
            ax = [[v + a if u == w else v for w, v in enumerate(row)] for u, row in enumerate(xa)]
            left = [[2 * a] + zeros] + [[zero] + row for row in ax]
            right = [[-2 * a] + zeros] + [
                [c] + [-v for v in row] for c, row in zip(rho_a, ax)
            ]
            minus_x = [[-v for v in row] for row in xa]
            assert left_action_display(t, n, f, al) == left
            assert action_display(2 * a, zeros, zeros, xa, a) == left
            assert right_action_display(t, n, f, al) == right
            assert action_display(-2 * a, zeros, rho_a, minus_x, -a) == right

    def test_diag_lands_on_the_pb_diagonal_only(self):
        m = 4
        names = tuple(f"e{u}{w}" for u in range(m + 1) for w in range(m + 1)) + ("d",)
        entry = [[PolyQ.var(names, f"e{u}{w}") for w in range(m + 1)] for u in range(m + 1)]
        diag = PolyQ.var(names, "d")
        blocks = [row[1:] for row in entry[1:]]
        rows = action_display(
            entry[0][0], entry[0][1:], [row[0] for row in entry[1:]], blocks, diag
        )
        assert rows == [
            [v + diag if u == w >= 1 else v for w, v in enumerate(row)]
            for u, row in enumerate(entry)
        ]
        assert blocks == [row[1:] for row in entry[1:]]  # the inputs are not written


class TestMubarakzjanovBound:
    @pytest.mark.parametrize(
        "f,expected", [(1, True), (2, True)]
    )
    def test_valid_extensions(self, f, expected):
        from heisenleib.certify import mubar_bound_check

        if f == 1:
            spec = ExtensionSpec.make(1, 1, [0], [DIAG])
        else:
            spec = ExtensionSpec.make(1, 2, [1, 0], [[[0, 0], [0, 0]], DIAG])
        t = build_extension(spec)
        assert mubar_bound_check(t, heisenberg_subspace(1, f)) is expected

    def test_bound_arithmetic(self):
        # pure dimension arithmetic: dim N = 3 against dim L = 4, 5, 7
        from heisenleib.algebra import StructTensor, Subspace
        from heisenleib.certify import mubar_bound_check

        for dim, expected in ((4, True), (5, True), (7, False)):
            t = StructTensor(dim, {})
            w = Subspace.span([linalg.identity(dim)[i] for i in range(3)], dim)
            assert mubar_bound_check(t, w) is expected
