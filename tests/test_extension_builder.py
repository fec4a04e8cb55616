"""The extension builder without Scalar elimination.

ExtensionSpec.nilpotent_combination reads the basis of c . a = 0 off a and
sums each combination over its nonzero coefficients; the differential
tests compare basis and combinations against
reference_hyperplane_combinations (linalg.nullspace([a]) and the full sum
of c_al X_al) on the catalog, on the spec shapes of the benchmark's
certify workload and on drawn a-vectors over Q and three quadratic
fields.  The decision that follows reads only those two lists.

ExtensionSpec.validate evaluates block_side_conditions on the int images
of linalg.integer_image.  The ring-map tests check that image against
Scalar arithmetic over Q and four quadratic fields, and the refusal tests
use data whose commutator or residual is nonzero only in its sqrt(d)
part, so a version that drops the sqrt(d) block fails them; X and rho
with entries in two quadratic fields are refused before those checks.
algebra.left_annihilator reads its rows off the sparse store; the rows it
hands to linalg.nullspace are compared against the entry-by-entry rows.
"""

import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenleib import algebra, linalg
from heisenleib.algebra import change_basis, left_annihilator
from heisenleib.catalog import build_entry, catalog_entries, entry_parameter_grid
from heisenleib.heisenberg import (
    CommutationViolation,
    ExtensionSpec,
    NullspaceViolation,
    build_extension,
    heisenberg,
)
from heisenleib.scalars import IncompatibleFieldError, Scalar

from reference_kernel import (
    reference_hyperplane_combinations,
    reference_left_annihilator_rows,
    reference_validate,
)
from test_reference_kernel import random_invertible, random_matrix, validation_outcome

CATALOG_SPECS = [
    pytest.param(entry.spec(point), id=f"{entry.id}-{i}")
    for field in ("C", "R")
    for entry in catalog_entries(field)
    for i, point in enumerate(entry_parameter_grid(entry))
]

QUADRATIC = [-1, 2, -3]


def exact_repr(matrix) -> list:
    # repr shows a Scalar's field as well as its value
    return [[repr(v) for v in row] for row in matrix]


def assert_matches_reference(spec):
    basis, combos = spec._hyperplane_combinations()
    ref_basis, ref_combos = reference_hyperplane_combinations(spec)
    assert exact_repr(basis) == exact_repr(ref_basis)
    assert [exact_repr(y) for y in combos] == [exact_repr(y) for y in ref_combos]


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_catalog_specs_match_reference(spec):
    assert_matches_reference(spec)


def random_sp(rng, n):
    """Integer X = ((A, B), (C, -A^T)), B and C symmetric, with tr X^2 != 0."""
    while True:
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        c = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        x = [a[i] + [b[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)] + [
            [c[min(i, j)][max(i, j)] for j in range(n)] + [-a[j][i] for j in range(n)]
            for i in range(n)
        ]
        if sum(x[i][k] * x[k][i] for i in range(2 * n) for k in range(2 * n)):
            return x


def certify_shapes(rng):
    """The nilradical spec shapes of the certify workload: f = 1 at n = 1..3,
    nilpotent X = ((0, C), (0, 0)), proportional pairs at a = 0 and pairs
    X1 = mu X2 at a = (1, 0)."""
    specs = [ExtensionSpec.make(n, 1, [0], [random_sp(rng, n)], r=[[1]]) for n in (1, 2, 3)]
    for n in (1, 2, 3):
        c = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        c = [[c[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        x = [[0] * n + c[i] for i in range(n)] + [[0] * (2 * n) for _ in range(n)]
        specs.append(ExtensionSpec.make(n, 1, [0], [x]))
    x = random_sp(rng, 1)
    lam = rng.choice((-3, -2, -1, 2, 3))
    specs.append(ExtensionSpec.make(1, 2, [0, 0], [x, [[lam * v for v in row] for row in x]]))
    mu = rng.randint(-2, 2)
    specs.append(ExtensionSpec.make(1, 2, [1, 0], [[[mu * v for v in row] for row in x], x]))
    return specs


@pytest.mark.parametrize("seed", range(8))
def test_certify_shapes_match_reference(seed):
    for spec in certify_shapes(random.Random(f"certify shapes {seed}")):
        assert_matches_reference(spec)


def field_scalars(d):
    part = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    if d is None:
        return part.map(Scalar)
    return st.builds(lambda a, b: Scalar(a, b, d if b else None), part, part)


@pytest.mark.parametrize("d", [None, *QUADRATIC])
@pytest.mark.parametrize("f, lead", [(f, lead) for f in range(1, 5) for lead in range(f + 1)])
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_drawn_a_vectors_match_reference(d, f, lead, data):
    # a_lead is the first nonzero entry (lead = f: a = 0); over Q(sqrt d)
    # the pivot has a nonzero sqrt part half of the time
    entries = st.one_of(st.just(Scalar.zero()), field_scalars(d))
    a = [Scalar.zero()] * min(lead, f) + [data.draw(entries) for _ in range(f - lead - 1)]
    if lead < f:
        pivot = data.draw(field_scalars(d).filter(lambda v: not v.is_zero()))
        if d is not None and data.draw(st.booleans()):
            pivot = Scalar(pivot.a, pivot.b or 1, d)
        a.insert(lead, pivot)
    xs = []
    for _ in range(f):
        p, q, r = (data.draw(entries) for _ in range(3))
        xs.append([[p, q], [r, -p]])
    spec = ExtensionSpec.make(1, f, a, xs)
    assert len(spec.a) == f and all(v.is_zero() for v in spec.a[:lead])
    assert_matches_reference(spec)


def image(m, d):
    return linalg.integer_image(m, d)


def den(m, d):
    return linalg.cleared_matrix(m, d)[0]


def vector_image(v, d):
    # the first column of the column's image, as validate maps each rho_be
    return [row[0] for row in linalg.integer_image([[x] for x in v], d)]


def scaled(k, m):
    return [[k * x for x in row] for row in m]


@pytest.mark.parametrize("d", [None, -1, 2, -3, 5])
def test_integer_image_is_an_injective_ring_map(d):
    rng = random.Random(f"integer image {d}")
    for _ in range(40):
        r, k, c = (rng.randint(1, 3) for _ in range(3))
        a, b = random_matrix(rng, d, r, k), random_matrix(rng, d, k, c)
        a2 = random_matrix(rng, d, r, k)
        ab, diff = linalg.mat_mul(a, b), linalg.mat_sub(a, a2)
        size = 1 if d is None else 2
        assert linalg.shape(image(a, d)) == (size * r, size * k)
        # up to the clearing factors D, products and differences carry over
        assert scaled(den(ab, d), linalg.mat_mul(image(a, d), image(b, d))) == scaled(
            den(a, d) * den(b, d), image(ab, d)
        )
        assert scaled(den(a, d) * den(a2, d), image(diff, d)) == scaled(
            den(diff, d),
            linalg.mat_sub(scaled(den(a2, d), image(a, d)), scaled(den(a, d), image(a2, d))),
        )
        for m in (a, diff, linalg.zeros(r, k)):
            assert (not any(map(any, image(m, d)))) == linalg.is_zero_matrix(m)
        v = random_matrix(rng, d, 1, k)[0]
        av = linalg.mat_vec(a, v)
        assert [den([av], d) * x for x in linalg.mat_vec(image(a, d), vector_image(v, d))] == [
            den(a, d) * den([v], d) * x for x in vector_image(av, d)
        ]


@pytest.mark.parametrize("d", QUADRATIC + [5])
def test_integer_image_keeps_a_sqrt_only_matrix(d):
    root = Scalar.sqrt_d(d)
    m = [[Scalar.zero(), root / 2], [Scalar.zero(), Scalar.zero()]]
    assert any(map(any, image(m, d)))
    assert any(vector_image([Scalar.zero(), root], d))
    assert image(m, d) == [[0, 0, 0, d], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]


def test_commutator_in_the_sqrt_part_only_is_refused():
    # over Q(i) at n = 2: X_1 rational, X_2 = i Y with [X_1, Y] != 0, so
    # [X_1, X_2] = i [X_1, Y] has rational part 0; X_2 is nilpotent, so a
    # check that drops the sqrt(d) block refuses it for nilpotency instead
    i = Scalar.sqrt_d(-1)
    x1 = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]]
    x2 = [[0, 0, 0, i], [0, 0, i, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    spec = ExtensionSpec.make(2, 2, [1, 0], [x1, x2])
    x1x2, x2x1 = linalg.mat_mul(spec.X[0], spec.X[1]), linalg.mat_mul(spec.X[1], spec.X[0])
    comm = linalg.mat_sub(x1x2, x2x1)
    assert all(v.a == 0 for row in comm for v in row) and not linalg.is_zero_matrix(comm)
    with pytest.raises(CommutationViolation) as caught:
        spec.validate()
    assert str(caught.value) == "X_1 and X_2 do not commute"


@pytest.mark.parametrize(
    "x, rho",
    [
        ([[1, 0], [0, -1]], [Scalar.sqrt_d(-1), 0]),
        ([[Scalar.sqrt_d(2), 0], [0, -Scalar.sqrt_d(2)]], [1, 0]),
        ([[0, 1], [1, 0]], [0, Scalar.sqrt_d(-3)]),
    ],
)
def test_residual_in_the_sqrt_part_only_is_refused(x, rho):
    # X rho is nonzero only in its sqrt(d) part, and X is not nilpotent, so
    # a check that drops the sqrt(d) block accepts the spec
    spec = ExtensionSpec.make(1, 1, [0], [x], rho=[rho])
    residual = linalg.mat_vec(linalg.smat(x), linalg.svec(rho))
    assert all(v.a == 0 for v in residual) and any(not v.is_zero() for v in residual)
    with pytest.raises(NullspaceViolation) as caught:
        spec.validate()
    assert str(caught.value) == "rho_1 is not in the nullspace of X_1"


def test_two_quadratic_fields_are_refused_before_the_side_conditions():
    # the int images need one field for X and rho; rho_1 in Q(sqrt 2) and
    # rho_2 in Q(sqrt 3) lie in the kernel of a rational X, so no residual
    # combines the two fields and only that rule refuses them
    x = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]]
    rho = [[0, Scalar.sqrt_d(2), 0, 0], [0, 0, 0, Scalar.sqrt_d(3)]]
    spec = ExtensionSpec.make(2, 2, [0, 0], [x, [[2 * v for v in row] for row in x]], rho)
    with pytest.raises(IncompatibleFieldError):
        spec.validate()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", QUADRATIC)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_quadratic_validation_matches_reference(n, d, data):
    # X in sp(2n) over Q(sqrt d), commuting (multiples of one matrix) or not,
    # rho and r zero or not: the integer path keeps class, message and order
    f = data.draw(st.integers(1, n + 1))
    entries = st.one_of(st.just(Scalar.zero()), field_scalars(d))
    later = st.sampled_from([0, 0, 1])
    a = [data.draw(st.sampled_from([0, 1]))] + [data.draw(later) for _ in range(f - 1)]

    def sp_member():
        p, q, s = ([[data.draw(entries) for _ in range(n)] for _ in range(n)] for _ in range(3))
        return [p[i] + [q[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)] + [
            [s[min(i, j)][max(i, j)] for j in range(n)] + [-p[j][i] for j in range(n)]
            for i in range(n)
        ]

    if data.draw(st.booleans()):
        m = sp_member()
        xs = [[[k * v for v in row] for row in m] for k in (data.draw(entries) for _ in range(f))]
    else:
        xs = [sp_member() for _ in range(f)]
    rho = [[data.draw(entries) if data.draw(st.booleans()) else 0 for _ in range(2 * n)]
           for _ in range(f)]
    r = [[data.draw(later) for _ in range(f)] for _ in range(f)]
    spec = ExtensionSpec.make(n, f, a, xs, rho, r)
    assert validation_outcome(spec.validate) == validation_outcome(lambda: reference_validate(spec))


def test_validation_eliminates_nothing(monkeypatch):
    calls = []
    for name in ("rref", "nullspace"):
        original = getattr(linalg, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(linalg, name, counting)
    for param in CATALOG_SPECS:
        spec = param.values[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec.validate()
        spec.nilpotent_combination("R")
        spec.nilpotent_combination("C")
    assert calls == []


def random_basis_sources():
    """The source tensors of the benchmark's random_basis workload."""
    x1 = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]]
    x2 = [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]]
    return [
        build_entry("H1a0C-r1"),
        build_entry("H1a1C-jordan"),
        build_entry("H2a1C"),
        build_entry("H2a1R"),
        heisenberg(3),
        build_extension(ExtensionSpec.make(2, 2, [1, 0], [x1, x2])),
    ]


def assert_rows_match_reference(t, monkeypatch):
    seen = []
    original = linalg.nullspace

    def recording(rows):
        seen.append(rows)
        return original(rows)

    monkeypatch.setattr(linalg, "nullspace", recording)
    got = left_annihilator(t)
    monkeypatch.setattr(linalg, "nullspace", original)
    want = reference_left_annihilator_rows(t)
    assert len(seen) == 1 and exact_repr(seen[0]) == exact_repr(want)
    assert got == algebra.Subspace.span(original(want), t.dim)


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_left_annihilator_rows_on_the_catalog(spec, monkeypatch):
    assert_rows_match_reference(build_extension(spec), monkeypatch)


@pytest.mark.parametrize("d", [None, -1, 2, 5])
def test_left_annihilator_rows_on_random_bases(d, monkeypatch):
    rng = random.Random(f"left annihilator rows {d}")
    for t in random_basis_sources():
        assert_rows_match_reference(t, monkeypatch)
        assert_rows_match_reference(change_basis(t, random_invertible(rng, t.dim, d)), monkeypatch)
