"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every assertion is exact (structural equality of scalars, polynomials,
tensors, and subspaces); the only tolerances are the stated wall-clock
bounds.  Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import itertools
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from heisenleib import linalg
from heisenleib.algebra import change_basis, fingerprint, left_annihilator
from heisenleib.catalog import (
    DOCUMENTED_CONDENSATIONS,
    build_entry,
    catalog_entries,
    condensation_witness,
    entry_parameter_grid,
    verify_entry,
)
from heisenleib.certify import (
    commuting_sp2_proportionality,
    matrix_nilpotent,
    sp2_nilpotency_locus,
)
from heisenleib.constraints import run_cascade
from heisenleib.heisenberg import heisenberg
from heisenleib.algebra import lower_central_series
from heisenleib.poly import PolyQ
from heisenleib.scalars import Scalar

from reference_kernel import nilpotency_power_oracle, vec_add


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {number} {name}: PASS", file=sys.stderr)


def test_c1_heisenberg_correctness():
    with criterion(1, "heisenberg-correctness"):
        for n in (1, 2, 3):
            start = time.monotonic()
            t = heisenberg(n)
            assert t.is_leibniz()
            assert t.is_lie()
            assert [s.dim for s in lower_central_series(t)] == [1, 0]
            assert time.monotonic() - start < 1.0


def test_c2_catalog_verification():
    with criterion(2, "catalog-verification"):
        start = time.monotonic()
        total = 0
        for field in ("C", "R"):
            for entry in catalog_entries(field):
                for point in entry_parameter_grid(entry):
                    report = verify_entry(entry.id, point, field=field)
                    assert report.leibniz_ok
                    assert report.dim == (4 if entry.f == 1 else 5)
                    assert report.certificate.maximality.status == "proved"
                    assert report.certificate.proved()
                    assert report.mubar_ok
                    assert report.display_ok
                    assert report.ok()
                    total += 1
        # C: diag x4, jordan, r0, r1, H2a1C = 8 points
        # R: those plus rm1/rotation entries and H1a1R x2, H2a1R = 15 points
        assert total == 8 + 15
        assert time.monotonic() - start < 10.0


def test_c3_lie_boundary():
    with criterion(3, "lie-non-lie-boundary"):
        for field in ("C", "R"):
            for entry in catalog_entries(field):
                for point in entry_parameter_grid(entry):
                    tensor = build_entry(entry.id, point)
                    r_nonzero = entry.id.endswith(("-r1", "-rm1"))
                    assert tensor.is_lie() == (not r_nonzero)


def _expected_final_bindings(n, f, branch, params):
    zero = PolyQ.zero(params)
    one = PolyQ.const(params, 1)
    var = lambda nm: PolyQ.var(params, nm)
    expected = {}
    for al in range(1, f + 1):
        for i in range(1, n + 1):
            for base in ("gamma1", "gamma2", "sigma1", "sigma2", "tau1", "tau2"):
                expected[f"{base}_{al}_{i}"] = zero
            for be in range(1, f + 1):
                expected[f"mu_{al}_{be}_{i}"] = zero
                expected[f"nu_{al}_{be}_{i}"] = zero
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                # table rows: E = -A^T plus the symmetrizations of C and D
                expected[f"E_{al}_{i}_{j}"] = -var(f"A_{al}_{j}_{i}")
                if i > j:
                    expected[f"C_{al}_{i}_{j}"] = var(f"C_{al}_{j}_{i}")
                    expected[f"D_{al}_{i}_{j}"] = var(f"D_{al}_{j}_{i}")
                # annihilator rows: G = -C, M = -D, F = -A, plus the
                # right-action closure row N = A^T
                ci, cj = min(i, j), max(i, j)
                expected[f"G_{al}_{i}_{j}"] = -var(f"C_{al}_{ci}_{cj}")
                expected[f"M_{al}_{i}_{j}"] = -var(f"D_{al}_{ci}_{cj}")
                expected[f"F_{al}_{i}_{j}"] = -var(f"A_{al}_{i}_{j}")
                expected[f"N_{al}_{i}_{j}"] = var(f"A_{al}_{j}_{i}")
    # a-normalization and b = -a
    expected["a_1"] = one if branch == 1 else zero
    expected["b_1"] = -one if branch == 1 else zero
    for al in range(2, f + 1):
        expected[f"a_{al}"] = zero
        expected[f"b_{al}"] = zero
    if branch == 1:
        # a1 = 1 consequences: rho = 0, r antisymmetric, and the three
        # specializations of the S1-triple identity force r = 0 outright
        for al in range(1, f + 1):
            for i in range(1, n + 1):
                expected[f"rho1_{al}_{i}"] = zero
                expected[f"rho2_{al}_{i}"] = zero
            for be in range(1, f + 1):
                expected[f"r_{al}_{be}"] = zero
    return expected


def _stage_prefixes(result, stage_name):
    return {name.split("_", 1)[0] for name, _ in result.stage(stage_name).bindings}


def test_c4_constraint_cascade():
    with criterion(4, "constraint-cascade"):
        for n, f in ((1, 1), (1, 2), (2, 1), (2, 2)):
            start = time.monotonic()
            for branch in (1, 0):
                result = run_cascade(n, f, branch=branch)
                expected = _expected_final_bindings(n, f, branch, result.pa.params)
                assert result.final_bindings() == expected
                # stage attribution: the jacobi stage realizes the nine
                # identity-table rows, the annihilator stage the product
                # rows (plus the right-action closure row N = A^T)
                jac = _stage_prefixes(result, "jacobi")
                assert jac <= {"sigma1", "sigma2", "tau1", "tau2",
                               "C", "D", "E", "mu", "nu"}
                assert {"sigma1", "sigma2", "tau1", "tau2", "E", "mu", "nu"} <= jac
                ann = _stage_prefixes(result, "annihilator")
                assert {"G", "M", "b", "F", "N"} <= ann
                if branch == 1:
                    assert {"rho1", "rho2", "r"} <= ann
                # eigenvector identity X rho = a rho is reported at a1 = 0
                # (at a1 = 1, rho = 0 empties it), commutators at f = 2
                sources = {r.source for r in result.stage("commutation").reports}
                if branch == 0:
                    assert any(s.startswith("(X") for s in sources)
                if f == 2:
                    arar = result.stage("arar")
                    assert len(arar.reports) == f * f
                # after all bindings plus the side conditions, every Jacobi
                # residual is the zero polynomial
                assert result.audit.ok()
                if f == 1 and branch == 1:
                    assert result.audit.all_zero()
            if f == 2:
                # the S1-triple identity holds literally with a kept
                # symbolic: the normalized residual is a1 r_ab - a_a r_1b
                # + a_b r_1a with b = -a already in force
                sym = run_cascade(n, f, branch=None)
                var = lambda nm: PolyQ.var(sym.pa.params, nm)
                for report in sym.stage("arar").reports:
                    al, be = (int(x[1]) for x in
                              report.source.split("(")[1].rstrip(")").split(",")[1:])
                    got = dict(report.residual_polys)["H"]
                    want = (
                        var("a_1") * var(f"r_{al}_{be}")
                        - var(f"a_{al}") * var(f"r_1_{be}")
                        + var(f"a_{be}") * var(f"r_1_{al}")
                    )
                    assert got == want
            if n == 2:
                assert time.monotonic() - start < 60.0


def test_c5_worked_example_fidelity():
    with criterion(5, "worked-example-fidelity"):
        result = run_cascade(1, 1, branch=1)
        jacobi = result.stage("jacobi")
        report = next(
            r for r in jacobi.reports if r.source == "jacobi {S1,P1,H}"
        )
        polys = dict(report.residual_polys)
        assert polys["H"] == PolyQ.var(result.pa.params, "sigma2_1_1")
        assert list(polys) == ["H"]


def test_c6_two_dimensional_a0_impossibility():
    with criterion(6, "a1-zero-impossibility-dim5"):
        # symbolic: the commutation residuals at n=1, f=2 are exactly the
        # proportionality cross products (up to the factor 2)
        result = run_cascade(1, 2, branch=0)
        sides = dict(result.side_conditions)
        v = lambda nm: PolyQ.var(result.pa.params, nm)
        cross_cd = v("C_1_1_1") * v("D_2_1_1") - v("C_2_1_1") * v("D_1_1_1")
        cross_ac = v("A_1_1_1") * v("C_2_1_1") - v("A_2_1_1") * v("C_1_1_1")
        cross_ad = v("A_1_1_1") * v("D_2_1_1") - v("A_2_1_1") * v("D_1_1_1")
        assert sides["X1 X2 - X2 X1(0,0)"] == cross_cd
        assert sides["X1 X2 - X2 X1(0,1)"] == 2 * cross_ac
        assert sides["X1 X2 - X2 X1(1,0)"] == -2 * cross_ad

        # exhaustive: every commuting nonzero symplectic pair with entries
        # in -2..2 is proportional and admits a nilpotent combination
        vals = range(-2, 3)
        mats = [
            linalg.smat([[a, c], [d, -a]])
            for a, c, d in itertools.product(vals, repeat=3)
            if (a, c, d) != (0, 0, 0)
        ]
        commuting_pairs = 0
        for x1, x2 in itertools.product(mats, repeat=2):
            prop = commuting_sp2_proportionality(x1, x2)
            if not prop.commute:
                continue
            commuting_pairs += 1
            assert prop.proportional
            locus = sp2_nilpotency_locus(x1, x2)
            assert not locus.nilindependent_over_R
            assert not locus.nilindependent_over_C
            c1, c2 = locus.witness
            combo = linalg.mat_add(
                linalg.mat_scale(x1, c1), linalg.mat_scale(x2, c2)
            )
            assert matrix_nilpotent(combo)
        assert commuting_pairs >= len(mats)  # at least the diagonal pairs


def test_c7_condensation_witnesses():
    with criterion(7, "condensation-witnesses"):
        for real_id, complex_id in DOCUMENTED_CONDENSATIONS:
            witness = condensation_witness(real_id, complex_id)
            assert witness.verified
            # re-assert the exact equality here, independent of the builder
            source = build_entry(real_id)
            p = [list(row) for row in witness.matrix]
            moved = change_basis(
                source, p, basis_labels=witness.target_tensor.basis_labels
            )
            assert moved == witness.target_tensor


def test_c8_complex_4dim_cross_check():
    with criterion(8, "complex-4dim-cross-check"):
        ids = {e.id for e in catalog_entries("C") if e.f == 1}
        assert ids == {"H1a1C-diag", "H1a1C-jordan", "H1a0C-r0", "H1a0C-r1"}


def _random_scalar(rng, d=None):
    a = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    if d is None:
        return Scalar(a)
    b = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    return Scalar(a, b, d if b != 0 else None)


def test_c9_property_suites():
    with criterion(9, "randomized-property-suites"):
        cases = 0
        rng = random.Random(20260810)

        # field axioms in Q(sqrt(d)) for d in {-1, 2, 5}
        for d in (-1, 2, 5):
            for _ in range(1500):
                x = _random_scalar(rng, d)
                y = _random_scalar(rng, d)
                z = _random_scalar(rng, d)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z
                if not x.is_zero():
                    assert x * x.inv() == Scalar.one()
                cases += 1

        # annihilator membership of [x,x] and [x,y]+[y,x]
        tensors = [
            build_entry("H1a0C-r1"),
            build_entry("H1a0R-rm1"),
            build_entry("H1a1C-jordan"),
            build_entry("H2a1R"),
        ]
        anns = [left_annihilator(t) for t in tensors]
        for _ in range(800):
            for t, ann in zip(tensors, anns):
                x = [_random_scalar(rng) for _ in range(t.dim)]
                y = [_random_scalar(rng) for _ in range(t.dim)]
                assert ann.contains(t.bracket(x, x))
                assert ann.contains(
                    vec_add(t.bracket(x, y), t.bracket(y, x))
                )
                cases += 1

        # matrix_nilpotent against the power-iteration oracle
        for _ in range(1800):
            dim = rng.randint(1, 4)
            m = [
                [Scalar.rational(rng.randint(-3, 3), rng.randint(1, 2))
                 for _ in range(dim)]
                for _ in range(dim)
            ]
            assert matrix_nilpotent(m) == nilpotency_power_oracle(m)
            cases += 1

        # fingerprint invariance under random rational change of basis
        base = [build_entry("H1a0C-r1"), build_entry("H2a1C")]
        prints = [fingerprint(t) for t in base]
        for _ in range(300):
            for t, fp in zip(base, prints):
                while True:
                    p = [
                        [Scalar.rational(rng.randint(-2, 2)) for _ in range(t.dim)]
                        for _ in range(t.dim)
                    ]
                    if not linalg.det(p).is_zero():
                        break
                assert fingerprint(change_basis(t, p)) == fp
                cases += 1

        assert cases >= 10_000
