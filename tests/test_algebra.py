from fractions import Fraction

import pytest

from heisenleib import linalg
from heisenleib.algebra import (
    EntryKindError,
    StructTensor,
    Subspace,
    basis_rows_to_coordinate_map,
    center,
    change_basis,
    derived_series,
    element_nilpotent,
    fingerprint,
    is_solvable,
    left_annihilator,
    lower_central_series,
    subspace_closure_checks,
)
from heisenleib.catalog import build_entry
from heisenleib.constraints import gamma_eliminate, parametric_extension
from heisenleib.heisenberg import heisenberg
from heisenleib.linalg import smat, svec
from heisenleib.poly import PolyQ
from heisenleib.scalars import IncompatibleFieldError, Scalar

from reference_kernel import is_zero_vector

ZERO, ONE = Scalar.zero(), Scalar.one()


def abelian(dim):
    return StructTensor(dim, {})


@pytest.fixture
def h1():
    return heisenberg(1)


@pytest.fixture
def h1a0c_r1():
    return build_entry("H1a0C-r1")


class TestBracket:
    def test_pb_is_h(self, h1):
        # basis order (H, P, B)
        p, b = h1.unit_vector(1), h1.unit_vector(2)
        assert h1.bracket(p, b) == svec([1, 0, 0])

    def test_hp_is_zero(self, h1):
        h, p = h1.unit_vector(0), h1.unit_vector(1)
        assert is_zero_vector(h1.bracket(h, p))

    def test_bilinear_expansion(self, h1):
        x = svec([0, 2, 1])  # 2P + B
        b = h1.unit_vector(2)
        assert h1.bracket(x, b) == svec([2, 0, 0])

    def test_shape_error(self, h1):
        with pytest.raises(linalg.ShapeError):
            h1.bracket([ONE], [ONE])

    @pytest.mark.parametrize("key", [(-1, 0, 0), (0, 2, 0), (0, 0, -2)])
    def test_constant_index_out_of_range(self, key):
        # a negative index must not wrap around to a valid basis element
        with pytest.raises(linalg.ShapeError):
            StructTensor(2, {key: ONE})


class TestLeibnizResidual:
    def test_h1_triple_zero(self, h1):
        assert is_zero_vector(h1.leibniz_residual(1, 2, 0))

    def test_catalog_triple_zero(self, h1a0c_r1):
        # (S, P, B) in basis order (S, H, P, B)
        assert is_zero_vector(h1a0c_r1.leibniz_residual(0, 2, 3))

    def test_single_product_tensor(self):
        t = StructTensor(2, {(0, 1, 1): ONE})
        assert t.is_leibniz()
        assert is_zero_vector(t.leibniz_residual(0, 0, 1))
        assert is_zero_vector(t.leibniz_residual(1, 0, 1))
        perturbed = StructTensor(2, {(0, 1, 1): ONE, (1, 1, 0): ONE})
        assert not is_zero_vector(perturbed.leibniz_residual(0, 1, 1))
        assert not perturbed.is_leibniz()

    @pytest.mark.parametrize(
        "constants",
        [
            # sqrt(2) and sqrt(3) never meet in a product: every residual
            # vanishes, yet the constants span no single field
            {(0, 0, 1): Scalar.sqrt_d(2), (2, 2, 3): Scalar.sqrt_d(3)},
            # residual (0, 0, 0) multiplies sqrt(2) by sqrt(3)
            {(0, 0, 1): Scalar.sqrt_d(2), (0, 1, 2): Scalar.sqrt_d(3)},
        ],
    )
    def test_mixed_fields_raise(self, constants):
        t = StructTensor(4, constants)
        with pytest.raises(IncompatibleFieldError):
            t.leibniz_defects()


class TestLieFlags:
    def test_heisenberg_is_lie(self):
        for n in (1, 2):
            t = heisenberg(n)
            assert t.is_leibniz() and t.is_lie()

    def test_r1_entry_not_lie(self, h1a0c_r1):
        assert h1a0c_r1.is_leibniz()
        assert not h1a0c_r1.is_lie()

    def test_abelian(self):
        t = abelian(3)
        assert t.is_leibniz() and t.is_lie()

    @pytest.mark.parametrize("entry_id", ["H1a0C-r1", "H1a1R", "H2a1C", "H2a1R"])
    def test_polyq_entries_match_their_scalar_original(self, entry_id):
        # PolyQ constants take the generic branch of leibniz_defects and is_lie
        names = ("u",)
        original = build_entry(entry_id)
        broken = StructTensor(original.dim, {**original.constants_dict(), (0, 0, 0): ONE})
        for t in (original, broken):
            poly = StructTensor(
                t.dim,
                {key: PolyQ.const(names, v.as_fraction()) for key, v in t.constants_dict().items()},
                basis_labels=t.basis_labels,
                zero=PolyQ.zero(names),
            )
            assert poly.leibniz_defects() == t.leibniz_defects()
            assert (poly.is_leibniz(), poly.is_lie()) == (t.is_leibniz(), t.is_lie())
        assert original.is_leibniz() and not broken.is_leibniz()


class TestSeries:
    def test_h1_derived(self, h1):
        assert [s.dim for s in derived_series(h1)] == [1, 0]

    def test_abelian_derived(self):
        assert [s.dim for s in derived_series(abelian(3))] == [0]

    def test_r1_derived(self, h1a0c_r1):
        assert [s.dim for s in derived_series(h1a0c_r1)] == [3, 1, 0]

    def test_h1_lower_central(self, h1):
        assert [s.dim for s in lower_central_series(h1)] == [1, 0]

    def test_r1_lower_central_stabilizes(self, h1a0c_r1):
        assert [s.dim for s in lower_central_series(h1a0c_r1)] == [3, 3]

    def test_abelian_lower_central(self):
        assert [s.dim for s in lower_central_series(abelian(2))] == [0]

    def test_is_solvable(self, h1, h1a0c_r1):
        assert is_solvable(h1) and is_solvable(h1a0c_r1) and is_solvable(abelian(2))
        # sl(2): [h, e] = 2e, [h, f] = -2f, [e, f] = h is perfect
        two = Scalar.rational(2)
        sl2 = StructTensor(3, {
            (2, 0, 0): two, (0, 2, 0): -two, (2, 1, 1): -two, (1, 2, 1): two,
            (0, 1, 2): ONE, (1, 0, 2): -ONE,
        })
        assert sl2.is_lie()
        assert [s.dim for s in derived_series(sl2)] == [3, 3]
        assert not is_solvable(sl2)


class TestLeftAnnihilator:
    def test_h1(self, h1):
        ann = left_annihilator(h1)
        assert ann.dim == 1
        assert ann.contains(svec([1, 0, 0]))

    def test_abelian(self):
        assert left_annihilator(abelian(3)).dim == 3

    def test_r1_entry(self, h1a0c_r1):
        ann = left_annihilator(h1a0c_r1)
        assert ann.dim == 1
        assert ann.contains(svec([0, 1, 0, 0]))  # H

    def test_is_two_sided_ideal(self, h1a0c_r1):
        checks = subspace_closure_checks(h1a0c_r1, left_annihilator(h1a0c_r1))
        assert checks.is_two_sided_ideal


class TestElementNilpotent:
    def test_h_central(self, h1a0c_r1):
        assert element_nilpotent(h1a0c_r1, svec([0, 1, 0, 0]))

    def test_s_not_nilpotent(self, h1a0c_r1):
        assert not element_nilpotent(h1a0c_r1, svec([1, 0, 0, 0]))

    def test_p_in_h1(self, h1):
        assert element_nilpotent(h1, svec([0, 1, 0]))

    def test_needs_both_operators_nilpotent(self):
        # [e1, e2] = e2, left Leibniz and not Lie: at e1, L = diag(0, 1) is
        # not nilpotent while R = 0 is; at e2 both are
        t = StructTensor(2, {(0, 1, 1): ONE})
        assert t.is_leibniz() and not t.is_lie()
        e1, e2 = t.unit_vector(0), t.unit_vector(1)
        assert t.left_mult_matrix(e1) == smat([[0, 0], [0, 1]])
        assert t.right_mult_matrix(e1) == smat([[0, 0], [0, 0]])
        assert not element_nilpotent(t, e1)
        assert element_nilpotent(t, e2)


class TestMultiplicationOperators:
    """L_x and R_x against matrices built entry by entry from entry()."""

    @staticmethod
    def expected(t, x, left):
        n = t.dim
        return [
            [
                sum((x[a] * (t.entry(a, b, k) if left else t.entry(b, a, k)) for a in range(n)),
                    t.zero)
                for b in range(n)
            ]
            for k in range(n)
        ]

    @pytest.mark.parametrize("left", [True, False], ids=["L", "R"])
    def test_polynomial_tensor(self, left):
        pa = gamma_eliminate(parametric_extension(1, 2))
        t = pa.tensor
        n = t.dim
        vectors = [t.unit_vector(i) for i in range(n)]
        one = t.zero + 1
        vectors.append([one * (i + 1) for i in range(n)])
        vectors.append([t.entry(0, i, i) + i for i in range(n)])  # symbolic coefficients
        for x in vectors:
            got = t.left_mult_matrix(x) if left else t.right_mult_matrix(x)
            assert got == self.expected(t, x, left)

    @pytest.mark.parametrize("left", [True, False], ids=["L", "R"])
    def test_scalar_tensor(self, h1a0c_r1, left):
        t = h1a0c_r1
        x = svec([2, Fraction(1, 3), 0, -1])
        got = t.left_mult_matrix(x) if left else t.right_mult_matrix(x)
        assert got == self.expected(t, x, left)


class TestChangeBasis:
    def test_identity(self, h1a0c_r1):
        assert change_basis(h1a0c_r1, linalg.identity(4)) == h1a0c_r1

    def test_heisenberg_scaling(self, h1):
        # P~ = mu P, B~ = mu B, H~ = mu^2 H preserves the relations
        mu = Scalar.rational(3)
        rows = smat([[9, 0, 0], [0, 3, 0], [0, 0, 3]])
        p = basis_rows_to_coordinate_map(rows)
        assert change_basis(h1, p) == h1

    def test_s_scaling_divides_x_and_r(self):
        t = build_entry("H1a0C-r1")
        lam = Scalar.rational(2)
        rows = linalg.identity(4)
        rows[0][0] = lam.inv()  # S~ = S / lam
        moved = change_basis(t, basis_rows_to_coordinate_map(rows))
        # X entries divided by lam: [S~, P] = (1/lam) P
        assert moved.bracket(moved.unit_vector(0), moved.unit_vector(2)) == svec(
            [0, 0, Fraction(1, 2), 0]
        )
        # [S~, S~] = (r / lam^2) H
        assert moved.bracket(moved.unit_vector(0), moved.unit_vector(0)) == svec(
            [0, Fraction(1, 4), 0, 0]
        )

    def test_bracket_commutes_with_coordinate_map(self, h1a0c_r1):
        p = smat([[1, 2, 0, 1], [0, 1, 1, 0], [2, 0, 1, 0], [0, 0, 0, 3]])
        moved = change_basis(h1a0c_r1, p)
        x = svec([1, -2, 3, 5])
        y = svec([0, 1, 1, -1])
        lhs = moved.bracket(linalg.mat_vec(p, x), linalg.mat_vec(p, y))
        rhs = linalg.mat_vec(p, h1a0c_r1.bracket(x, y))
        assert lhs == rhs

    def test_functoriality(self, h1a0c_r1):
        p = smat([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 2, 1]])
        q = smat([[2, 0, 0, 0], [0, 1, 3, 0], [0, 0, 1, 0], [1, 0, 0, 1]])
        once = change_basis(change_basis(h1a0c_r1, p), q)
        combined = change_basis(h1a0c_r1, linalg.mat_mul(q, p))
        assert once == combined

    def test_singular_rejected(self, h1):
        with pytest.raises(linalg.SingularMatrixError):
            change_basis(h1, smat([[1, 0, 0], [1, 0, 0], [0, 0, 1]]))


class TestFingerprint:
    def test_h1(self, h1):
        fp = fingerprint(h1)
        assert fp.dim == 3
        assert fp.derived_dims == (1, 0)
        assert fp.lower_central_dims == (1, 0)
        assert fp.ann_left_dim == 1
        assert fp.is_lie and fp.is_nilpotent and fp.is_solvable

    def test_r1_entry(self, h1a0c_r1):
        fp = fingerprint(h1a0c_r1)
        assert fp.dim == 4
        assert fp.derived_dims == (3, 1, 0)
        assert fp.ann_left_dim == 1
        assert not fp.is_lie and fp.is_solvable and not fp.is_nilpotent

    def test_abelian(self):
        fp = fingerprint(abelian(3))
        assert fp.derived_dims == (0,)
        assert fp.ann_left_dim == 3
        assert fp.is_lie

    def test_invariant_under_change_of_basis(self, h1a0c_r1):
        p = smat([[1, 0, 2, 0], [0, 3, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1]])
        assert fingerprint(change_basis(h1a0c_r1, p)) == fingerprint(h1a0c_r1)

    def test_nilpotent_implies_solvable(self, h1):
        fp = fingerprint(h1)
        assert (not fp.is_nilpotent) or fp.is_solvable


class TestClosureChecks:
    def test_center_is_ideal(self, h1):
        checks = subspace_closure_checks(h1, Subspace.span([svec([1, 0, 0])], 3))
        assert checks.is_two_sided_ideal

    def test_nilradical_two_sided(self, h1a0c_r1):
        w = Subspace.span([svec([0, 1, 0, 0]), svec([0, 0, 1, 0]), svec([0, 0, 0, 1])], 4)
        assert subspace_closure_checks(h1a0c_r1, w).is_two_sided_ideal

    def test_span_p_subalgebra_not_ideal(self, h1):
        checks = subspace_closure_checks(h1, Subspace.span([svec([0, 1, 0])], 3))
        assert checks.is_subalgebra
        assert not checks.is_left_ideal


class TestSubspace:
    def test_canonical_equality(self):
        a = Subspace.span([svec([1, 1, 0]), svec([0, 1, 1])], 3)
        b = Subspace.span([svec([1, 0, -1]), svec([2, 3, 1])], 3)
        assert a == b

    def test_contains(self):
        w = Subspace.span([svec([1, 0, 1])], 3)
        assert w.contains(svec([2, 0, 2]))
        assert not w.contains(svec([1, 0, 0]))
        assert w.contains(svec([0, 0, 0]))

    def test_sum(self):
        a = Subspace.span([svec([1, 0, 0])], 3)
        b = Subspace.span([svec([0, 1, 0])], 3)
        assert a.sum(b).dim == 2

    def test_full_needs_no_elimination(self, monkeypatch):
        def refuse(rows):
            raise AssertionError("the identity is already in reduced echelon form")

        with monkeypatch.context() as patched:
            patched.setattr(linalg, "rref", refuse)
            full = [Subspace.full(n) for n in range(9)]
        assert full == [Subspace.span(linalg.identity(n), n) for n in range(9)]


def test_center_of_h1(h1):
    assert center(h1).dim == 1


def test_series_requires_scalar_entries():
    from heisenleib.constraints import parametric_extension

    pa = parametric_extension(1, 1)
    with pytest.raises(EntryKindError):
        derived_series(pa.tensor)
