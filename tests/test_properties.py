"""Property tests for the invariants that quantify over inputs."""

import itertools
import random
import warnings

import pytest
from hypothesis import assume, given, settings, strategies as st

from heisenleib import linalg
from heisenleib.algebra import (
    Subspace,
    bracket_span,
    change_basis,
    derived_series,
    fingerprint,
    left_annihilator,
    lower_central_series,
    subspace_closure_checks,
)
from heisenleib.catalog import build_entry, catalog_entries, entry_parameter_grid
from heisenleib.certify import (
    certify_nilradical,
    commuting_sp2_proportionality,
    matrix_nilpotent,
    sp2_nilpotency_locus,
)
from heisenleib.heisenberg import (
    ExtensionSpec,
    ExtensionValidationError,
    NilindependenceUndecidedWarning,
    build_extension,
    heisenberg,
    heisenberg_subspace,
)
from heisenleib.poly import PolyQ
from heisenleib.scalars import Scalar

from reference_kernel import nilpotency_power_oracle, vec_add
from test_boundary_fuzz import SMALL, sp_matrix
from test_pair_kernels import dim7_extension, quadratic_basis

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def scalars(d):
    return st.builds(lambda a, b: Scalar(a, b, d if b != 0 else None),
                     fractions, fractions)


@pytest.mark.parametrize("d", [-1, 2, 5])
class TestFieldAxioms:
    @given(data=st.data())
    @settings(max_examples=60)
    def test_mul_associative(self, d, data):
        x = data.draw(scalars(d))
        y = data.draw(scalars(d))
        z = data.draw(scalars(d))
        assert (x * y) * z == x * (y * z)

    @given(data=st.data())
    @settings(max_examples=60)
    def test_distributive(self, d, data):
        x = data.draw(scalars(d))
        y = data.draw(scalars(d))
        z = data.draw(scalars(d))
        assert x * (y + z) == x * y + x * z

    @given(data=st.data())
    @settings(max_examples=60)
    def test_inverse(self, d, data):
        x = data.draw(scalars(d))
        if not x.is_zero():
            assert x * x.inv() == Scalar.one()


NAMES = ("u", "v", "w")
polys = st.builds(
    lambda terms: PolyQ(NAMES, terms),
    st.dictionaries(
        st.tuples(*(st.integers(0, 3) for _ in NAMES)),
        st.fractions(min_value=-9, max_value=9, max_denominator=5),
        max_size=5,
    ),
)


class TestPolyProperties:
    @given(p=polys, q=polys)
    @settings(max_examples=80)
    def test_addition_commutes_structurally(self, p, q):
        assert p + q == q + p

    @given(p=polys, q=polys)
    @settings(max_examples=60)
    def test_degree_of_product(self, p, q):
        if not p.is_zero() and not q.is_zero():
            assert (p * q).degree() == p.degree() + q.degree()

    @given(p=polys, q=polys, data=st.data())
    @settings(max_examples=60)
    def test_substitution_then_evaluation(self, p, q, data):
        point = {
            name: Scalar(data.draw(fractions)) for name in NAMES
        }
        lhs = p.substitute({"u": q}).evaluate(point)
        rhs = p.evaluate({**point, "u": q.evaluate(point)})
        assert lhs == rhs


def random_scalar(rng, span=3):
    return Scalar.rational(rng.randint(-span, span), rng.randint(1, span))


def random_vector(rng, dim):
    return [random_scalar(rng) for _ in range(dim)]


def catalog_sample():
    seen = []
    for field in ("C", "R"):
        for entry in catalog_entries(field):
            for point in entry_parameter_grid(entry):
                key = (entry.id, tuple(sorted(point.items())))
                if key not in seen:
                    seen.append(key)
                    yield build_entry(entry.id, point)


class TestAnnihilatorMembership:
    def test_squares_and_symmetrized_products(self):
        rng = random.Random(2024)
        tensors = list(catalog_sample())
        for t in tensors:
            ann = left_annihilator(t)
            for _ in range(40):
                x = random_vector(rng, t.dim)
                y = random_vector(rng, t.dim)
                assert ann.contains(t.bracket(x, x))
                sym = vec_add(t.bracket(x, y), t.bracket(y, x))
                assert ann.contains(sym)

    def test_annihilator_is_two_sided_ideal(self):
        for t in catalog_sample():
            checks = subspace_closure_checks(t, left_annihilator(t))
            assert checks.is_two_sided_ideal


class TestSeriesContainment:
    def test_derived_inside_lower_central(self):
        for t in catalog_sample():
            derived = derived_series(t)
            lower = lower_central_series(t)
            for i in range(min(len(derived), len(lower))):
                assert derived[i].is_contained_in(lower[i])

    def test_nilpotent_implies_solvable(self):
        for t in catalog_sample():
            fp = fingerprint(t)
            assert (not fp.is_nilpotent) or fp.is_solvable

    def test_series_dims_non_increasing(self):
        for t in catalog_sample():
            fp = fingerprint(t)
            for dims in (fp.derived_dims, fp.lower_central_dims):
                assert all(a >= b for a, b in zip(dims, dims[1:]))


def random_invertible(rng, dim):
    while True:
        m = [[random_scalar(rng, 2) for _ in range(dim)] for _ in range(dim)]
        if not linalg.det(m).is_zero():
            return m


class TestChangeBasisProperties:
    def test_fingerprint_invariance(self):
        rng = random.Random(11)
        t = build_entry("H1a0C-r1")
        fp = fingerprint(t)
        for _ in range(25):
            p = random_invertible(rng, t.dim)
            assert fingerprint(change_basis(t, p)) == fp

    @pytest.mark.parametrize("d", [-1, 2, 5, -3])
    @pytest.mark.parametrize("source", ["H2a1C", "H2a1R", "H3", "H2n2f-diag"])
    def test_fingerprint_invariance_over_quadratic_fields(self, source, d):
        # the dense Q(sqrt d) bases that the int-pair elimination and view
        # brackets serve, up to dim 7
        rng = random.Random(f"fingerprint {source} {d}")
        t = {"H3": lambda: heisenberg(3), "H2n2f-diag": dim7_extension}.get(
            source, lambda: build_entry(source))()
        fp = fingerprint(t)
        for _ in range(3):
            assert fingerprint(change_basis(t, quadratic_basis(rng, t.dim, d))) == fp

    def test_functoriality(self):
        rng = random.Random(12)
        t = build_entry("H2a1R")
        for _ in range(10):
            p = random_invertible(rng, t.dim)
            q = random_invertible(rng, t.dim)
            assert change_basis(change_basis(t, p), q) == change_basis(
                t, linalg.mat_mul(q, p)
            )


class TestNilpotencyAgainstOracle:
    def test_random_small_matrices(self):
        rng = random.Random(13)
        for _ in range(400):
            dim = rng.randint(1, 4)
            m = [
                [Scalar.rational(rng.randint(-2, 2)) for _ in range(dim)]
                for _ in range(dim)
            ]
            assert matrix_nilpotent(m) == nilpotency_power_oracle(m)


class TestCommutingPairsProportional:
    def test_rational_grid(self):
        # commuting nonzero sp(2) pairs are proportional: exhaustive small grid
        vals = (-1, 0, 1)
        mats = [
            linalg.smat([[a, c], [d, -a]])
            for a, c, d in itertools.product(vals, repeat=3)
            if (a, c, d) != (0, 0, 0)
        ]
        commuting = 0
        for x1, x2 in itertools.product(mats, repeat=2):
            result = commuting_sp2_proportionality(x1, x2)
            if result.commute:
                commuting += 1
                assert result.proportional
        assert commuting > 0

    def test_locus_witness_always_verifies(self):
        rng = random.Random(14)
        for _ in range(200):
            x1 = linalg.smat([[rng.randint(-3, 3) for _ in range(2)]])
            a, c = x1[0][0], x1[0][1]
            d = Scalar.rational(rng.randint(-3, 3))
            x1 = [[a, c], [d, -a]]
            a2, c2, d2 = (Scalar.rational(rng.randint(-3, 3)) for _ in range(3))
            x2 = [[a2, c2], [d2, -a2]]
            locus = sp2_nilpotency_locus(x1, x2)
            c1, c2_ = locus.witness
            combo = linalg.mat_add(
                linalg.mat_scale(x1, c1), linalg.mat_scale(x2, c2_)
            )
            assert matrix_nilpotent(combo)


class TestBuiltExtensionInvariants:
    def test_every_catalog_tensor_is_leibniz(self):
        for t in catalog_sample():
            assert t.is_leibniz()

    def test_derived_lands_in_nilradical(self):
        from heisenleib.heisenberg import heisenberg_subspace

        for field in ("C", "R"):
            for entry in catalog_entries(field):
                t = build_entry(entry.id, entry.default_params())
                full = Subspace.full(t.dim)
                nr = heisenberg_subspace(entry.n, entry.f)
                assert bracket_span(t, full, full).is_contained_in(nr)


# -- maximality does not depend on the field, for data the builder accepts ----

@st.composite
def extension_specs(draw):
    """Extension data whose X's commute: multiples of one sp(2n) element,
    possibly over Q(i), or at n = 2 diagonal ones; rho from the common
    kernel of the X's and r free when a_1 = 0.  The builder refuses some
    draws (a nilpotent combination) and warns on others (undecided)."""
    n = draw(st.integers(1, 2))
    f = draw(st.integers(1, n + 1))
    a1 = draw(st.sampled_from([0, 1]))
    if n == 2 and draw(st.booleans()):
        xs = []
        for _ in range(f):
            p, q = draw(SMALL), draw(SMALL)
            xs.append([[p, 0, 0, 0], [0, q, 0, 0], [0, 0, -p, 0], [0, 0, 0, -q]])
    else:
        unit = Scalar(1, draw(SMALL), -1) if draw(st.booleans()) else Scalar(1)
        x1 = [[unit * v for v in row] for row in draw(sp_matrix(n))]
        xs = [x1] + [[[v * mu for v in row] for row in x1]
                     for mu in draw(st.lists(SMALL, min_size=f - 1, max_size=f - 1))]
    rho = [[0] * (2 * n) for _ in range(f)]
    r = [[0] * f for _ in range(f)]
    if a1 == 0:
        stacked = [list(map(linalg.to_scalar, row)) for x in xs for row in x]
        kernel = linalg.nullspace(stacked)
        if kernel:
            rho = [[v * draw(SMALL) for v in kernel[0]] for _ in range(f)]
        r = [[draw(SMALL) for _ in range(f)] for _ in range(f)]
    return ExtensionSpec.make(n, f, [a1] + [0] * (f - 1), xs, rho, r)


def accepted(spec):
    """The tensor build_extension makes of spec, or None when it refuses."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NilindependenceUndecidedWarning)
        try:
            return build_extension(spec)
        except ExtensionValidationError:
            return None


def assert_field_independent(spec, t) -> str:
    """Certify t over R and over C, assert the verdicts agree, return the status."""
    sub = heisenberg_subspace(spec.n, spec.f)
    real, complex_ = (certify_nilradical(t, sub, field) for field in ("R", "C"))
    assert real.maximality.status == complex_.maximality.status
    assert real.maximality.witness == complex_.maximality.witness
    # only the field named in the "proved" note differs
    assert real.maximality.note.replace(" over R", " over C") == complex_.maximality.note
    assert (real.ideal, real.nilpotent, real.contains_derived) == (
        complex_.ideal, complex_.nilpotent, complex_.contains_derived)
    return real.maximality.status


class TestMaximalityFieldIndependence:
    """The plane decision of nilpotent_combination reads the sp(2) locus
    over R or over C.  Data the builder accepts never reaches it: commuting
    sp(2) matrices are proportional, so the builder refuses every plane at
    n = 1, and a line or a larger span is decided without the field."""

    @given(spec=extension_specs())
    @settings(max_examples=150, deadline=None)
    def test_accepted_specs(self, spec):
        t = accepted(spec)
        assume(t is not None)
        assert_field_independent(spec, t)

    def test_catalog_points_and_the_undecided_spec(self):
        specs = [
            entry.spec(point)
            for field in ("C", "R")
            for entry in catalog_entries(field)
            for point in entry_parameter_grid(entry)
        ]
        x1 = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]]
        x2 = [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]]
        specs.append(ExtensionSpec.make(2, 2, [0, 0], [x1, x2]))
        statuses = set()
        for spec in specs:
            t = accepted(spec)
            assert t is not None
            statuses.add(assert_field_independent(spec, t))
        assert statuses == {"proved", "undecided"}
