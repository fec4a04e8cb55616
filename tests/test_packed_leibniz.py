"""Differential tests of the packed Leibniz kernel behind
StructTensor.leibniz_defects, of is_lie on the integer view and of
StructTensor.bracket on the integer view.

The kernel is compared with reference_integer_defects (the ring-product
loop it replaced) and with DenseTensor's Scalar loops, over Q, Q(i),
Q(sqrt 2), Q(sqrt 5) and Q(sqrt -3): generated tensors of dims 1-8,
sparse and dense, with denominators past 10^6, catalog algebras in
random bases with and without a perturbed constant, the empty tensor,
defects that sit only in the sqrt part, and inputs built so that a slot
width one size too small would let a carry cancel a nonzero residual.
bracket is compared with reference_contract, the one-product-at-a-time
Scalar contraction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heisenleib import linalg
from heisenleib.algebra import StructTensor, change_basis
from heisenleib.catalog import build_entry
from heisenleib.heisenberg import ExtensionSpec, build_extension, heisenberg
from heisenleib.linalg import ShapeError
from heisenleib.scalars import IncompatibleFieldError, Scalar

from reference_kernel import DenseTensor, reference_contract, reference_integer_defects

FIELDS = [None, -1, 2, 5, -3]  # d of Q(sqrt d); None is Q
QUADRATIC = [d for d in FIELDS if d is not None]


def random_scalar(rng, d, den_max):
    """p/q + r/s*sqrt(d) with q, s up to den_max; a zero sqrt part in about
    half the draws."""
    a = Fraction(rng.randint(-9, 9), rng.randint(1, den_max))
    if d is None or rng.random() < 0.5:
        return Scalar(a)
    b = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, den_max))
    return Scalar(a, b, d)


def random_basis(rng, n, d, den_max):
    while True:
        p = [[random_scalar(rng, d, den_max) for _ in range(n)] for _ in range(n)]
        if not linalg.det(p).is_zero():
            return p


def h2n2f_diag():
    x1 = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]]
    x2 = [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]]
    return build_extension(ExtensionSpec.make(2, 2, [1, 0], [x1, x2]))


# Leibniz sources of dims 3 to 8: H(1), H(2) and H(3), two catalog entries,
# the dim-7 extension, and an extension of H(3) by one element
SOURCES = [
    lambda: heisenberg(1),
    lambda: build_entry("H1a0C-r1"),
    lambda: heisenberg(2),
    lambda: build_entry("H2a1R"),
    h2n2f_diag,
    lambda: heisenberg(3),
    lambda: build_extension(ExtensionSpec.make(3, 1, [1], [[[0] * 6 for _ in range(6)]])),
]


@st.composite
def generated(draw, d):
    """A Scalar tensor over Q(sqrt d) and how it was made.  Denominators up
    to 10^7 go into sparse tensors and into tensors of dim at most 5: past
    that the lcm of all denominators, which every constant of the integer
    view carries, runs to thousands of bits."""
    kind = draw(st.sampled_from(["sparse", "dense", "basis", "perturbed"]))
    if kind in ("sparse", "dense"):
        n = draw(st.integers(1, 8))
    else:
        source = draw(st.sampled_from(SOURCES))()
        n = source.dim
    den_max = draw(st.sampled_from([1, 3, 10**7] if kind == "sparse" or n <= 5 else [1, 3]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind in ("sparse", "dense"):
        keys = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
        if kind == "sparse":
            keys = rng.sample(keys, min(len(keys), rng.randint(0, 3 * n)))
        return kind, StructTensor(n, {key: random_scalar(rng, d, den_max) for key in keys})
    t = change_basis(source, random_basis(rng, n, d, den_max))
    if kind == "perturbed":
        key = tuple(rng.randrange(n) for _ in range(3))
        t = StructTensor(n, {**t.constants_dict(), key: t.entry(*key) + random_scalar(rng, d, 5)})
    return kind, t


def antisymmetric(t) -> bool:
    """c_ij^k + c_ji^k = 0 for every stored constant, as Scalar sums."""
    return all(
        (value + t.entry(j, i, k)).is_zero() for (i, j, k), value in t.constants_dict().items()
    )


@pytest.mark.parametrize("d", FIELDS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_packed_defects_match_references(d, data):
    kind, t = data.draw(generated(d))
    defects = t.leibniz_defects()
    assert defects == reference_integer_defects(t)
    if kind == "sparse" or t.dim <= 5:
        dense = DenseTensor(t).leibniz_defects()
        assert defects == dense
        assert t.is_lie() == (not dense and antisymmetric(t))
    if kind == "basis":
        assert defects == []


@pytest.mark.parametrize("n", range(1, 9))
def test_empty_tensor(n):
    t = StructTensor(n, {})
    assert t.leibniz_defects() == reference_integer_defects(t) == []
    assert t.is_lie()


@pytest.mark.parametrize("d", QUADRATIC)
def test_defects_only_in_the_sqrt_part(d):
    # T + sqrt(d) E with T Leibniz and rational and E one product [e_0, e_1]
    # = e_2: E's own residual vanishes, so every residual of the sum is
    # sqrt(d) times the part linear in E
    rng = random.Random(d)
    t = change_basis(heisenberg(2), random_basis(rng, 5, None, 10**7))
    key = (0, 1, 2)
    t = StructTensor(5, {**t.constants_dict(), key: t.entry(*key) + Scalar.sqrt_d(d)})
    defects = t.leibniz_defects()
    assert defects
    assert defects == reference_integer_defects(t) == DenseTensor(t).leibniz_defects()
    for ijk in defects:
        assert all(e.a == 0 for e in t.leibniz_residual(*ijk))


def carry_tensor(n, d, width, big):
    """An n-dim tensor of integers, every one of size at most big, whose
    (0, 0, 0) residual -[[e_0, e_0], e_0] is (2^width, -1, 0, ..., 0).

    [e_0, e_0] = big (e_1 + ... + e_{n-2}) + e_{n-1}; [e_m, e_0] = -q_m e_0
    with q_1 + ... + q_{n-2} = q and [e_{n-1}, e_0] = -r e_0 + e_1, for
    2^width = q big + r.  Over Q(sqrt d) one more product [e_1, e_1] =
    sqrt(d) e_1 puts the tensor in Z[sqrt d] without touching the triple."""
    q, r = divmod(1 << width, big)
    assert q <= (n - 2) * big, "the construction needs more room"
    constants = {(0, 0, m): Scalar(big) for m in range(1, n - 1)}
    constants[0, 0, n - 1] = Scalar(1)
    for m in range(1, n - 1):
        q_m = min(q, big)
        q -= q_m
        if q_m:
            constants[m, 0, 0] = Scalar(-q_m)
    constants[n - 1, 0, 0] = Scalar(-r)
    constants[n - 1, 0, 1] = Scalar(1)
    if d is not None:
        constants[1, 1, 1] = Scalar.sqrt_d(d)
    return StructTensor(n, constants)


def narrow_widths(n, d, big):
    """Slot widths one size too small: from M instead of M^2, and without
    the 3*dim factor (M = big, d = 0 over Q), where the construction fits."""
    spread = 1 + abs(d or 0)
    widths = [(3 * n * spread * big).bit_length() + 1]
    no_count = (spread * big * big).bit_length() + 1
    if (1 << no_count) // big <= (n - 2) * big:
        widths.append(no_count)
    return widths


@pytest.mark.parametrize("d", FIELDS)
def test_mixed_magnitudes_carry(d):
    # entries near 10^12 next to entries of size 1: the (0, 0, 0) residual
    # (2^w, -1, 0, ...) packs to 2^w - 2^w = 0 at slot width w, so a kernel
    # whose slots were that narrow would miss the defect
    n, big = 8, 10**12 + 39
    widths = narrow_widths(n, d, big)
    assert len(widths) == (2 if d in (None, -1) else 1)
    for width in widths:
        t = carry_tensor(n, d, width, big)
        assert DenseTensor(t).leibniz_residual(0, 0, 0)[:2] == [Scalar(1 << width), Scalar(-1)]
        defects = t.leibniz_defects()
        assert (0, 0, 0) in defects
        assert defects == reference_integer_defects(t) == DenseTensor(t).leibniz_defects()


def test_lie_verdict_makes_no_scalar_sums(monkeypatch):
    moved = change_basis(heisenberg(3), random_basis(random.Random(5), 7, -1, 10))
    assert any(v.d == -1 for v in moved.constants_dict().values())
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__"):
        original = getattr(Scalar, name)

        def counting(self, other, original=original):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(Scalar, name, counting)
    assert moved.is_lie()
    assert calls == []


def vectors(d, n):
    """Coordinate vectors over Q(sqrt d) (or Q), with zeros and denominators
    past 10^6."""
    coeff = st.integers(-5, 5) | st.builds(
        Fraction, st.integers(-(10**7), 10**7), st.integers(1, 10**7)
    )
    scalar = st.builds(
        lambda a, b: Scalar(a, b, d if b else None),
        coeff,
        coeff if d is not None else st.just(0),
    )
    return st.lists(scalar, min_size=n, max_size=n)


@pytest.mark.parametrize("tensor_d", FIELDS)
@pytest.mark.parametrize("vector_d", ["same", "rational"])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_bracket_matches_reference_contract(tensor_d, vector_d, data):
    _, t = data.draw(generated(tensor_d))
    d = tensor_d if vector_d == "same" else None
    x, y = data.draw(vectors(d, t.dim)), data.draw(vectors(d, t.dim))
    terms = [
        (xi * yj, i, j)
        for i, xi in enumerate(x)
        if not xi.is_zero()
        for j, yj in enumerate(y)
        if not yj.is_zero()
    ]
    assert t.bracket(x, y) == reference_contract(t.constants_dict(), t.dim, t.zero, terms)


@pytest.mark.parametrize("d", QUADRATIC)
def test_bracket_of_quadratic_vectors_on_a_rational_tensor(d):
    rng = random.Random(d)
    t = change_basis(build_entry("H2a1R"), random_basis(rng, 5, None, 10**7))
    x = [random_scalar(rng, d, 10**7) for _ in range(5)]
    y = [random_scalar(rng, d, 10**7) for _ in range(5)]
    x[0] = Scalar(1, Fraction(1, 10**7 + 19), d)
    terms = [(xi * yj, i, j) for i, xi in enumerate(x) for j, yj in enumerate(y)]
    assert t.bracket(x, y) == reference_contract(t.constants_dict(), 5, t.zero, terms)


def test_bracket_refuses_wrong_lengths_and_two_fields():
    t = heisenberg(1)
    with pytest.raises(ShapeError):
        t.bracket([Scalar.one()], [Scalar.one()])
    quadratic = t.map_entries(lambda v: v * Scalar.sqrt_d(2))
    with pytest.raises(IncompatibleFieldError):
        quadratic.bracket([Scalar.sqrt_d(3)] * 3, [Scalar.one()] * 3)
