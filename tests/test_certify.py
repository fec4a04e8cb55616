import pytest

from heisenleib import linalg
from heisenleib.algebra import StructTensor, Subspace, _closure_checks, subspace_closure_checks
from heisenleib.catalog import build_entry
from heisenleib.certify import (
    CertifyError,
    NotSubalgebraError,
    certify_nilradical,
    commuting_sp2_proportionality,
    matrix_nilpotent,
    sp2_nilpotency_locus,
    subspace_nilpotent,
)
from heisenleib.heisenberg import (
    ExtensionSpec,
    assemble_extension,
    build_extension,
    heisenberg_subspace,
)
from heisenleib.linalg import smat, svec
from heisenleib.scalars import IncompatibleFieldError, Scalar

from reference_kernel import nilpotency_power_oracle

DIAG = smat([[1, 0], [0, -1]])
ROT = smat([[0, 1], [-1, 0]])


class TestMatrixNilpotent:
    def test_strictly_triangular(self):
        assert matrix_nilpotent(smat([[0, 1], [0, 0]]))

    def test_diag_not(self):
        assert not matrix_nilpotent(DIAG)

    def test_square_to_zero(self):
        assert matrix_nilpotent(smat([[1, 1], [-1, -1]]))

    def test_non_square(self):
        with pytest.raises(linalg.ShapeError):
            matrix_nilpotent(smat([[1, 2, 3]]))

    def test_agrees_with_power_oracle(self):
        import random

        rng = random.Random(7)
        for _ in range(300):
            dim = rng.randint(1, 4)
            m = [
                [Scalar.rational(rng.randint(-2, 2)) for _ in range(dim)]
                for _ in range(dim)
            ]
            assert matrix_nilpotent(m) == nilpotency_power_oracle(m)


class TestNilpotencyLocus:
    def test_diag_vs_rotation(self):
        locus = sp2_nilpotency_locus(DIAG, ROT)
        assert not locus.nilindependent_over_C
        assert not locus.nilindependent_over_R
        c1, c2 = locus.witness
        combo = linalg.mat_add(linalg.mat_scale(DIAG, c1), linalg.mat_scale(ROT, c2))
        assert matrix_nilpotent(combo)
        # det(c1 X1 + c2 X2) = -c1^2 + c2^2
        assert str(locus.quadratic) in ("-c1^2+c2^2", "c2^2-c1^2")

    def test_degenerate_zero_partner(self):
        zero = smat([[0, 0], [0, 0]])
        locus = sp2_nilpotency_locus(DIAG, zero)
        assert not locus.nilindependent_over_R
        c1, c2 = locus.witness
        assert c1.is_zero() and not c2.is_zero()

    def test_proportional_pair_collapses(self):
        locus = sp2_nilpotency_locus(ROT, linalg.mat_scale(ROT, Scalar.rational(2)))
        assert not locus.nilindependent_over_R
        c1, c2 = locus.witness
        combo = linalg.mat_add(
            linalg.mat_scale(ROT, c1),
            linalg.mat_scale(linalg.mat_scale(ROT, Scalar.rational(2)), c2),
        )
        assert matrix_nilpotent(combo)

    def test_real_nilindependent_pair(self):
        # diag(1,-1) and the symmetric off-diagonal matrix span a plane
        # meeting the nilpotent cone only over C
        sym = smat([[0, 1], [1, 0]])
        locus = sp2_nilpotency_locus(DIAG, sym)
        assert locus.nilindependent_over_R
        assert not locus.nilindependent_over_C
        assert locus.witness_field == "C"
        c1, c2 = locus.witness
        combo = linalg.mat_add(linalg.mat_scale(DIAG, c1), linalg.mat_scale(sym, c2))
        assert matrix_nilpotent(combo)
        assert c1.d == -1 or c2.d == -1

    def test_irrational_real_witness(self):
        # det(c1 diag(1,-1) + c2 [[0,2],[1,0]]) = -c1^2 - 2 c2^2 ... sign
        # makes it definite; use [[0,2],[1,0]] vs rotation instead
        m = smat([[0, 2], [1, 0]])
        locus = sp2_nilpotency_locus(DIAG, m)
        c1, c2 = locus.witness
        combo = linalg.mat_add(linalg.mat_scale(DIAG, c1), linalg.mat_scale(m, c2))
        assert matrix_nilpotent(combo)

    def test_non_symplectic_rejected(self):
        with pytest.raises(CertifyError):
            sp2_nilpotency_locus(linalg.identity(2), DIAG)

    def test_real_witness_is_complex_witness(self):
        # whenever the pair fails over R it also fails over C
        import itertools

        vals = (-1, 0, 1)
        mats = [
            smat([[a, c], [d, -a]])
            for a, c, d in itertools.product(vals, repeat=3)
        ]
        for x1, x2 in itertools.product(mats[:9], mats[:9]):
            locus = sp2_nilpotency_locus(x1, x2)
            if not locus.nilindependent_over_R:
                assert not locus.nilindependent_over_C


class TestProportionality:
    def test_scalar_multiple(self):
        x1 = smat([[1, 2], [3, -1]])
        x2 = smat([[2, 4], [6, -2]])
        result = commuting_sp2_proportionality(x1, x2)
        assert result.commute and result.proportional

    def test_noncommuting(self):
        result = commuting_sp2_proportionality(DIAG, ROT)
        assert not result.commute
        assert result.commutator == ((Scalar.zero(), Scalar.rational(2)),
                                     (Scalar.rational(2), Scalar.zero()))

    def test_equal_matrices(self):
        result = commuting_sp2_proportionality(DIAG, DIAG)
        assert result.commute and result.proportional

    def test_zero_rejected(self):
        with pytest.raises(CertifyError):
            commuting_sp2_proportionality(DIAG, smat([[0, 0], [0, 0]]))


class TestSubspaceNilpotent:
    def test_h1_inside_extension(self):
        t = build_entry("H1a0C-r1")
        assert subspace_nilpotent(t, heisenberg_subspace(1, 1))

    def test_whole_algebra_not(self):
        t = build_entry("H1a0C-r1")
        assert not subspace_nilpotent(t, Subspace.full(4))

    def test_central_line(self):
        t = build_entry("H1a0C-r1")
        assert subspace_nilpotent(t, Subspace.span([svec([0, 1, 0, 0])], 4))

    def test_not_subalgebra_rejected(self):
        # [S, S] = H escapes span(S, P)
        t = build_entry("H1a0C-r1")
        w = Subspace.span([svec([1, 0, 0, 0]), svec([0, 0, 1, 0])], 4)
        with pytest.raises(NotSubalgebraError):
            subspace_nilpotent(t, w)


class TestCertifyNilradical:
    def test_h1a0c_proved(self):
        t = build_entry("H1a0C-r1")
        cert = certify_nilradical(t, heisenberg_subspace(1, 1), field="C")
        assert cert.ideal and cert.nilpotent and cert.contains_derived
        assert cert.maximality.status == "proved"
        assert cert.proved()

    def test_h2a1c_proved(self):
        t = build_entry("H2a1C")
        cert = certify_nilradical(t, heisenberg_subspace(1, 2), field="C")
        assert cert.proved()

    def test_nilpotent_x_refuted_with_witness(self):
        spec = ExtensionSpec.make(1, 1, [0], [[[0, 1], [0, 0]]])
        t = assemble_extension(spec)  # validation bypass
        cert = certify_nilradical(t, heisenberg_subspace(1, 1), field="R")
        assert cert.maximality.status == "refuted"
        assert cert.maximality.witness == (
            Scalar.one(), Scalar.zero(), Scalar.zero(), Scalar.zero(),
        )
        assert not cert.proved()

    def test_f1_any_n_proved(self):
        x = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]]
        spec = ExtensionSpec.make(2, 1, [0], [x], rho=[[0, 1, 0, 0]])
        t = build_extension(spec)
        cert = certify_nilradical(t, heisenberg_subspace(2, 1), field="R")
        assert cert.proved()

    def test_undecided_beyond_scale(self):
        x1 = [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, -1, 0], [0, 0, 0, -2]]
        x2 = [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, -2, 0], [0, 0, 0, -1]]
        spec = ExtensionSpec.make(2, 2, [0, 0], [x1, x2])
        t = assemble_extension(spec)
        cert = certify_nilradical(t, heisenberg_subspace(2, 2), field="R")
        assert cert.maximality.status == "undecided"
        assert cert.ideal and cert.nilpotent and cert.contains_derived

    def test_nonstandard_subspace_skips_maximality(self):
        # span(S1, H, P) in H2a1C is not the Heisenberg subspace, so
        # maximality is not decided
        t = build_entry("H2a1C")
        sub = Subspace.span([t.unit_vector(i) for i in (0, 2, 3)], t.dim)
        cert = certify_nilradical(t, sub, field="C")
        assert cert.maximality.status == "undecided"
        assert cert.maximality.note.startswith("base checks failed")
        assert not cert.proved()

    def test_complex_proportional_pair_refuted(self):
        # i X1 + X2 = 0 over Q(i): decided by the linear dependence of X1, X2
        i = Scalar.quadratic(0, 1, -1)
        spec = ExtensionSpec.make(1, 2, [0, 0], [[[i, 0], [0, -i]], [[1, 0], [0, -1]]])
        cert = certify_nilradical(assemble_extension(spec), heisenberg_subspace(1, 2))
        assert cert.maximality.status == "refuted"
        assert cert.maximality.witness == (i, Scalar.one()) + (Scalar.zero(),) * 3

    @pytest.mark.parametrize("d,field", [(-1, "C"), (-3, "C"), (2, "R"), (None, "R")])
    def test_detected_field(self, d, field):
        s = Scalar.one() if d is None else Scalar.sqrt_d(d)
        spec = ExtensionSpec.make(1, 1, [0], [[[s, 0], [0, -s]]])
        t, sub = build_extension(spec), heisenberg_subspace(1, 1)
        cert = certify_nilradical(t, sub)
        assert cert.proved()
        assert cert.maximality.note.endswith(f"nilpotent element over {field}")
        assert cert == certify_nilradical(t, sub, field=field)

    def test_default_field_refuses_two_fields(self):
        t = assemble_extension(ExtensionSpec.make(1, 1, [0], [[[1, 0], [0, -1]]]))
        constants = t.constants_dict()
        constants[(0, 0, 1)] = Scalar.sqrt_d(2)
        constants[(0, 0, 2)] = Scalar.sqrt_d(3)
        mixed = StructTensor(t.dim, constants, basis_labels=t.basis_labels)
        with pytest.raises(IncompatibleFieldError):
            certify_nilradical(mixed, heisenberg_subspace(1, 1))

    def test_closure_checks_run_once(self, monkeypatch):
        from heisenleib import certify

        calls = []

        def counted(t, w):
            calls.append(w)
            return _closure_checks(t, w)

        monkeypatch.setattr(certify, "_closure_checks", counted)
        cert = certify_nilradical(
            build_entry("H1a0C-r1"), heisenberg_subspace(1, 1), field="C"
        )
        assert cert.proved()
        assert len(calls) == 1

    def test_certificate_subchecks_reassertable(self):
        from heisenleib.algebra import bracket_span

        t = build_entry("H1a0R-r1")
        nr = heisenberg_subspace(1, 1)
        cert = certify_nilradical(t, nr, field="R")
        assert cert.proved()
        assert subspace_closure_checks(t, nr).is_two_sided_ideal == cert.ideal
        assert subspace_nilpotent(t, nr) == cert.nilpotent
        full = Subspace.full(t.dim)
        assert bracket_span(t, full, full).is_contained_in(nr) == cert.contains_derived
