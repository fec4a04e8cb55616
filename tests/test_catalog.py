import dataclasses
from fractions import Fraction

import pytest

from heisenleib import catalog, linalg
from heisenleib.algebra import change_basis, basis_rows_to_coordinate_map
from heisenleib.catalog import (
    DOCUMENTED_CONDENSATIONS,
    CatalogEntry,
    CatalogError,
    NoWitnessError,
    build_entry,
    catalog_entries,
    condensation_witness,
    distinctness_report,
    entry_parameter_grid,
    get_entry,
    heisenberg_rescale_rows,
    jordan_block_rank,
    verify_entry,
    verify_field,
)
from heisenleib.heisenberg import ExtensionSpec, build_extension
from heisenleib.linalg import svec
from heisenleib.scalars import Scalar

from reference_kernel import s_scale_rows


class TestEntries:
    def test_complex_list(self):
        ids = [e.id for e in catalog_entries("C")]
        assert ids == [
            "H1a0C-r0", "H1a0C-r1", "H1a1C-diag", "H1a1C-jordan", "H2a1C",
        ]

    def test_real_list(self):
        ids = [e.id for e in catalog_entries("R")]
        assert len(ids) == 11
        assert "H1a1R" in ids and "H1a0R-rm1" in ids and "H2a1R" in ids

    def test_complex_f1_a1_families(self):
        entries = [
            e for e in catalog_entries("C") if e.f == 1 and e.id.startswith("H1a1")
        ]
        assert len(entries) == 2

    def test_real_f1_a1_families(self):
        entries = [
            e for e in catalog_entries("R") if e.f == 1 and e.id.startswith("H1a1")
        ]
        assert len(entries) == 3

    def test_real_a0_r0_families(self):
        entries = [
            e
            for e in catalog_entries("R")
            if e.f == 1 and e.id.endswith("-r0") and "a0" in e.id
        ]
        assert len(entries) == 2

    def test_unknown_entry_lists_ids(self):
        with pytest.raises(CatalogError, match="known ids"):
            get_entry("H9x9")

    def test_bad_field(self):
        with pytest.raises(CatalogError):
            catalog_entries("Q")


class TestBuildEntry:
    def test_diag_at_zero(self):
        t = build_entry("H1a1C-diag", {"A": Fraction(0)})
        s = t.unit_vector(0)
        assert t.bracket(s, t.unit_vector(2)) == svec([0, 0, 1, 0])
        assert t.bracket(s, t.unit_vector(3)) == svec([0, 0, 0, 1])
        assert t.bracket(s, t.unit_vector(1)) == svec([0, 2, 0, 0])

    def test_h1a0r_rm1(self):
        t = build_entry("H1a0R-rm1")
        s = t.unit_vector(0)
        assert t.bracket(s, t.unit_vector(2)) == svec([0, 0, 0, 1])  # [S,P] = B
        assert t.bracket(s, t.unit_vector(3)) == svec([0, 0, -1, 0])  # [S,B] = -P
        assert t.bracket(s, s) == svec([0, -1, 0, 0])  # [S,S] = -H

    def test_h2a1c_actions(self):
        from heisenleib.heisenberg import left_action_display

        t = build_entry("H2a1C")
        assert t.dim == 5
        assert left_action_display(t, 1, 2, 0) == linalg.smat(
            [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
        )
        assert left_action_display(t, 1, 2, 1) == linalg.smat(
            [[0, 0, 0], [0, 1, 0], [0, 0, -1]]
        )

    def test_domain_enforced(self):
        with pytest.raises(CatalogError):
            build_entry("H1a1C-diag", {"A": Fraction(-1)})
        with pytest.raises(CatalogError):
            build_entry("H1a1R", {"C": Fraction(0)})

    def test_unknown_param(self):
        with pytest.raises(CatalogError):
            build_entry("H1a0C-r1", {"A": Fraction(1)})


class TestVerifyEntry:
    def test_r1_is_not_lie(self):
        report = verify_entry("H1a0C-r1", field="C")
        assert report.ok()
        assert report.lie_flag is False

    def test_diag_is_lie(self):
        report = verify_entry("H1a1C-diag", {"A": Fraction(2)}, field="C")
        assert report.ok()
        assert report.lie_flag is True

    def test_h2a1r_dim5_lie(self):
        report = verify_entry("H2a1R", field="R")
        assert report.ok()
        assert report.dim == 5 and report.lie_flag

    def test_expected_lie_read_off_the_built_spec(self, monkeypatch):
        # an a=0 entry whose builder gives r = 1 expects a non-Lie algebra
        entry = get_entry("H1a0C-r0")
        patched = dataclasses.replace(entry, build_spec=catalog._a0_spec(catalog._DIAG, 1))
        monkeypatch.setitem(catalog._BY_ID, entry.id, patched)
        report = verify_entry(entry.id)
        assert report.expected_lie is False
        assert report.ok()

    def test_field_membership_enforced(self):
        with pytest.raises(CatalogError):
            verify_entry("H1a1R", field="C")

    def test_full_sweeps_pass(self):
        for field in ("C", "R"):
            for report in verify_field(field):
                assert report.ok(), report

    def test_lie_boundary_exact(self):
        # lie exactly on the r = 0 entries
        for field in ("C", "R"):
            for entry in catalog_entries(field):
                for point in entry_parameter_grid(entry):
                    report = verify_entry(entry.id, point, field=field)
                    expect = not entry.id.endswith(("-r1", "-rm1"))
                    assert report.lie_flag is expect

    def test_certificates_proved_everywhere(self):
        for field in ("C", "R"):
            for report in verify_field(field):
                assert report.certificate.maximality.status == "proved"

    def test_verification_computes_no_fingerprint(self, monkeypatch):
        def refuse(tensor):
            raise AssertionError("no verification result reads a fingerprint")

        monkeypatch.setattr(catalog, "fingerprint", refuse)
        for field in ("C", "R"):
            assert all(report.ok() for report in verify_field(field))

    def test_parameters_checked_once(self, monkeypatch):
        checked = []
        original = CatalogEntry.check_params

        def counting(self, params):
            checked.append(self.id)
            return original(self, params)

        monkeypatch.setattr(CatalogEntry, "check_params", counting)
        verify_entry("H1a1C-diag", {"A": Fraction(1, 2)}, field="C")
        assert checked == ["H1a1C-diag"]
        for real_id, complex_id in DOCUMENTED_CONDENSATIONS:
            checked.clear()
            condensation_witness(real_id, complex_id)
            # a catalog target is built from its own entry, which checks its own copy
            assert checked.count(real_id) == 1, (real_id, complex_id)
        checked.clear()
        condensation_witness("H1a1R", "H1a1C-diag", {"C": Fraction(2)})
        assert checked == ["H1a1R"]


class TestParameterGrid:
    def test_diag_samples(self):
        grid = entry_parameter_grid(get_entry("H1a1C-diag"))
        assert [p["A"] for p in grid] == [
            Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3),
        ]

    def test_parameter_free(self):
        assert entry_parameter_grid(get_entry("H2a1C")) == [{}]


class TestDistinctness:
    def test_r0_vs_r1_separated_by_lie(self):
        report = distinctness_report("C")
        pair = next(
            p
            for p in report.pairs
            if {p.left, p.right} == {"H1a0C-r0", "H1a0C-r1"}
        )
        assert pair.separated_by == "is_lie"

    def test_dim_separates_f2(self):
        report = distinctness_report("C")
        pair = next(
            p
            for p in report.pairs
            if "H2a1C" in (p.left, p.right) and "H1a0C-r0" in (p.left, p.right)
        )
        assert pair.separated_by == "dim"

    def test_jordan_vs_diag_zero_needs_aux(self):
        report = distinctness_report("C")
        pair = next(
            p
            for p in report.pairs
            if p.left == "H1a1C-diag{'A': '0'}" and p.right == "H1a1C-jordan"
        )
        assert pair.separated_by == "aux_rank"

    def test_real_r_pm1_pairs_flagged(self):
        # the four r = +-1 real classes are not separated by the invariant
        # list; the report must flag them rather than assert distinctness
        report = distinctness_report("R")
        flagged = {
            frozenset((p.left, p.right)) for p in report.flagged()
        }
        assert frozenset(("H1a0C-r1", "H1a0R-r1")) in flagged
        assert frozenset(("H1a0C-rm1", "H1a0R-rm1")) in flagged

    @pytest.mark.parametrize(
        "left, right, signs",
        [
            # H' = -H, B' = -B keeps [P, B] = H and X and flips r
            ("H1a0C-r1", "H1a0C-rm1", (1, -1, 1, -1)),
            # for the rotation X, S' = -S as well
            ("H1a0R-r1", "H1a0R-rm1", (-1, -1, 1, -1)),
        ],
    )
    def test_r_pm1_pairs_isomorphic(self, left, right, signs):
        # the real catalog lists these classes twice; pinned here until the
        # paper's text decides which entry to keep
        rows = linalg.smat([[s if i == j else 0 for j, _ in enumerate(signs)]
                            for i, s in enumerate(signs)])
        t, u = build_entry(left), build_entry(right)
        assert t.basis_labels == ("S1", "H", "P1", "B1")
        assert t != u
        assert change_basis(t, basis_rows_to_coordinate_map(rows)) == u

    def test_aux_rank_values(self):
        assert jordan_block_rank(build_entry("H1a1C-diag", {"A": Fraction(0)}), 1, 1) == (0,)
        assert jordan_block_rank(build_entry("H1a1C-jordan"), 1, 1) == (1,)
        assert jordan_block_rank(build_entry("H2a1C"), 1, 2) == (0, 2)


class TestNormalizationRows:
    def test_s_scale_divides_x_and_r(self):
        t = build_entry("H1a0C-r1")
        lam = Scalar.rational(3)
        moved = change_basis(
            t, basis_rows_to_coordinate_map(s_scale_rows(1, 1, 0, lam))
        )
        s = moved.unit_vector(0)
        assert moved.bracket(s, moved.unit_vector(2)) == svec(
            [0, 0, Fraction(1, 3), 0]
        )
        assert moved.bracket(s, s) == svec([0, Fraction(1, 9), 0, 0])

    def test_heisenberg_rescale_fixes_r(self):
        # mu^2 = r rescales [S,S] = r H to H~
        spec = ExtensionSpec.make(1, 1, [0], [[[1, 0], [0, -1]]], r=[[4]])
        t = build_extension(spec)
        mu = Scalar.rational(2)
        moved = change_basis(
            t, basis_rows_to_coordinate_map(heisenberg_rescale_rows(1, 1, mu))
        )
        assert moved == build_entry("H1a0C-r1")


class TestCondensationWitnesses:
    @pytest.mark.parametrize("pair", DOCUMENTED_CONDENSATIONS)
    def test_documented_pairs_verify(self, pair):
        witness = condensation_witness(*pair)
        assert witness.verified

    def test_exact_equality_checked_here(self):
        witness = condensation_witness("H1a0R-r1", "H1a0C-r1")
        source = build_entry("H1a0R-r1")
        target = build_entry("H1a0C-r1")
        p = [list(row) for row in witness.matrix]
        assert change_basis(source, p, basis_labels=target.basis_labels) == target

    def test_identity_pair(self):
        witness = condensation_witness("H1a0C-r1", "H1a0C-r1")
        assert linalg.mat_eq([list(r) for r in witness.matrix], linalg.identity(4))

    def test_rotation_family_target_parameter(self):
        witness = condensation_witness("H1a1R", "H1a1C-diag", {"C": Fraction(2)})
        assert witness.target_params == (("A*", "0/1+2/1*sqrt(-1)"),)
        assert witness.verified

    def test_witness_entries_over_q_i(self):
        witness = condensation_witness("H2a1R", "H2a1C")
        ds = {x.d for row in witness.matrix for x in row if x.d is not None}
        assert ds == {-1}

    def test_undocumented_pair(self):
        with pytest.raises(NoWitnessError):
            condensation_witness("H1a0R-r1", "H2a1C")


class TestWitnessTable:
    def test_documented_pairs_in_order(self):
        # benchmark goldens and their generator iterate in this order
        assert DOCUMENTED_CONDENSATIONS == (
            ("H1a0R-r0", "H1a0C-r0"),
            ("H1a0R-r1", "H1a0C-r1"),
            ("H1a0R-rm1", "H1a0C-rm1"),
            ("H1a0C-rm1", "H1a0C-r1"),
            ("H1a0R-rm1", "H1a0C-r1"),
            ("H1a1R", "H1a1C-diag"),
            ("H2a1R", "H2a1C"),
        )

    @pytest.mark.parametrize("pair", DOCUMENTED_CONDENSATIONS)
    def test_every_pair_resolves(self, pair):
        entry = get_entry(pair[0])
        params = entry.default_params()
        rows, target_params = catalog._witness_rows(*pair, params)
        assert linalg.shape(rows) == (build_entry(pair[0]).dim,) * 2
        assert not linalg.det(rows).is_zero()
        assert target_params == ({"A*": params["C"]} if pair[0] == "H1a1R" else params)

    @pytest.mark.parametrize("pair", [
        ("H1a0C-r1", "H1a0R-r1"),  # a documented pair reversed
        ("H1a0R-r1", "H2a1C"),
        ("H1a1R", "H1a1C-jordan"),
        ("H1a0R-r1", "H9"),
    ])
    def test_undocumented_pairs_raise(self, pair):
        with pytest.raises(NoWitnessError, match="no documented condensation witness"):
            catalog._witness_rows(*pair, {})
        with pytest.raises(NoWitnessError):
            condensation_witness(*pair)
