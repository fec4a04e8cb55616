"""Structure-constant Leibniz algebras and their basic invariants.

A StructTensor holds the nonzero constants of a bilinear product
[e_i, e_j] = sum_k c_{ij}^k e_k in a sparse store that no other module
sees: they read constants through entry() and constants_dict(), and two
loops multiply stored constants.  contract() gathers each coordinate's
(coeff, constant) pairs, which poly's one sum of products adds for PolyQ
entries, and Scalars multiply and add in order; _residuals(), the
Leibniz-residual pass for PolyQ entries, reads the store's rows straight
into poly's product sums.  Entries are either Scalar (exact field
elements) or PolyQ (symbolic parameters); one entry kind per tensor.
Whether the product satisfies the Leibniz identity is checked, never
assumed: leibniz_residual exposes the defect of each basis triple.

For Scalar entries leibniz_defects decides the same residuals over
integers.  The tensor's private integer view is the map
{(i, j): {k: D*c_ij^k}} of its constants times the lcm D of all
denominators, ints over Q and (rational, sqrt) int pairs over
Q(sqrt d), kept with d and D (constants with two different d raise
IncompatibleFieldError); a rational tensor that meets Q(sqrt d) lifts
it to the pairs (x, 0).  Each residual component is quadratic in the
constants, so scaling by D keeps its zero set, and a + b*sqrt(d) = 0
iff a = b = 0.  The packed kernel holds each product row as ints with
one w-bit slot per coordinate (Kronecker substitution).  It is exact:
for M the largest absolute integer part in the view (d = 0 over Q), a
residual component sums at most 3*dim products of size at most
(1 + |d|)*M^2, so w = bitlength(3*dim*(1 + |d|)*M^2) + 1 keeps it
inside (-2^(w-1), 2^(w-1)); base-2^w digits that small are unique, so
the packed residual is 0 iff every component is.  The defects are
memoized per tensor; is_lie reads antisymmetry off the view, part by
part, which the public bracket does not read.

bracket_span, behind both series, brackets on the same view: [u, v]
with u, v and the constants cleared is a nonzero multiple of [u, v], so
it spans the same line.  u and v are the cleared rows the subspaces hold,
and the brackets go to the fraction-free elimination of
linalg.canonical_rref, whose result is the next subspace's cleared form,
so no Scalar is built between one bracket_span and the next.  The bracket,
_view_bracket, holds u and v as ints over Q and as (rational, sqrt) int
pairs over Q(sqrt d), and sums each coordinate in one int list per part,
with the ring products written inline.  fingerprint spans [L, L] once for
both series, and finds the center inside the left annihilator: one
elimination, on the view, of the rows ([e_0, b], ..., [e_(n-1), b] | b)
over its rows b.  change_basis brackets there too, with both matrices
cleared, and divides each new constant once by the scale factors; a PolyQ
tensor brackets on itself, in the same loop.

A Subspace is its reduced row echelon form, held in one canonical
cleared form (d, den, rows) from bracket to membership: rows / den is the
RREF, den > 0 and the gcd of den and every component is 1, so equal
subspaces have equal forms, and the Scalar rows are built only when read.
Membership is read off the rows, and containment is read off the
generating brackets: span(S) lies in W iff every s in S does, so the
closure checks and certify's [L, L] in N (bracket_span_within) test each
bracket on the view for membership instead of eliminating the span; a
rational W meets vectors over Q(sqrt d) with its rows lifted to (x, 0).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import partial, reduce
from itertools import chain, product, starmap
from operator import add, mul

from . import linalg
from .linalg import ShapeError
from .poly import PolyQ, _ProductSums, _sum_of_products
from .scalars import IncompatibleFieldError, Scalar, common_field, from_cleared, integer_pairs

_NO_PRODUCT: dict = {}


class EntryKindError(TypeError):
    """Operation requires Scalar entries but the tensor is symbolic."""


class StructTensor:
    """Structure constants of a finite-dimensional bilinear product.

    Storage is the map {(i, j): {k: c_ij^k}} of the nonzero constants only,
    in (i, j, k) order; a product [e_i, e_j] that vanishes has no key.
    """

    __slots__ = ("dim", "basis_labels", "zero", "_c", "_view", "_defects")

    def __init__(self, dim: int, constants: dict, basis_labels=None, zero=None):
        """Build from a sparse {(i, j, k): entry} map; zero entries are
        dropped and indices outside 0..dim-1 raise ShapeError."""
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        if basis_labels is None:
            basis_labels = tuple(f"e{i}" for i in range(dim))
        basis_labels = tuple(basis_labels)
        if len(basis_labels) != dim:
            raise ValueError("basis label count != dim")
        if zero is None:
            zero = Scalar.zero()
        c: dict = {}
        for (i, j, k), value in constants.items():
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ShapeError(
                    f"constant index ({i}, {j}, {k}) outside 0..{dim - 1}"
                )
            if not value.is_zero():
                c.setdefault((i, j), {})[k] = value
        self._fill(
            dim, basis_labels, zero,
            {ij: dict(sorted(row.items())) for ij, row in sorted(c.items())},
        )

    def _fill(self, dim, basis_labels, zero, c) -> None:
        # the integer view and the defect memo start empty
        for slot, value in zip(self.__slots__, (dim, basis_labels, zero, c, None, None)):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise AttributeError("StructTensor is immutable")

    def _check_indices(self, *indices) -> None:
        for idx in indices:
            if not 0 <= idx < self.dim:
                raise IndexError(f"basis index {idx} out of range")

    def entry(self, i: int, j: int, k: int):
        """The constant c_ij^k (the tensor's zero when it is not stored)."""
        self._check_indices(i, j, k)
        return self._c.get((i, j), _NO_PRODUCT).get(k, self.zero)

    def constants_dict(self) -> dict:
        """Sparse view {(i, j, k): entry} of the nonzero constants."""
        return {
            (i, j, k): value
            for (i, j), row in self._c.items()
            for k, value in row.items()
        }

    def map_entries(self, fn) -> StructTensor:
        """The tensor with fn applied to every nonzero constant (results of
        the same entry kind; those that vanish are dropped)."""
        return StructTensor(
            self.dim,
            {key: fn(value) for key, value in self.constants_dict().items()},
            basis_labels=self.basis_labels,
            zero=self.zero,
        )

    def is_scalar(self) -> bool:
        return isinstance(self.zero, Scalar)

    def _require_scalar(self, what: str):
        if not self.is_scalar():
            raise EntryKindError(f"{what} requires Scalar entries")

    # -- products ------------------------------------------------------------

    def contract(self, terms) -> list:
        """Sum of coeff * [e_i, e_j] over (coeff, i, j) terms, as a coordinate
        vector; with _residuals, one of the two loops that multiply stored
        constants: it gathers each coordinate's (coeff, constant) pairs, which
        poly's kernel sums for PolyQ entries; other entries sum the products
        in order."""
        pairs: dict = {}
        for coeff, i, j in terms:
            for k, ck in self._c.get((i, j), _NO_PRODUCT).items():
                pairs.setdefault(k, []).append((coeff, ck))
        total = (partial(_sum_of_products, self.zero) if type(self.zero) is PolyQ
                 else lambda factors: reduce(add, starmap(mul, factors)))
        return [total(pairs[k]) if k in pairs else self.zero for k in range(self.dim)]

    def bracket(self, x, y) -> list:
        """[x, y] for coordinate vectors x, y; bilinear in both arguments."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ShapeError(
                f"coordinate vectors must have length {self.dim}, got {len(x)}, {len(y)}"
            )
        xs = [i for i, v in enumerate(x) if not v.is_zero()]
        ys = [j for j, v in enumerate(y) if not v.is_zero()]
        return self.contract((x[i] * y[j], i, j) for i in xs for j in ys)

    def leibniz_residual(self, i: int, j: int, k: int) -> list:
        """[e_i,[e_j,e_k]] - [[e_i,e_j],e_k] - [e_j,[e_i,e_k]]; zero iff the
        triple satisfies the Leibniz identity."""
        self._check_indices(i, j, k)
        row = self._c.get
        return self.contract(
            chain(
                ((c, i, m) for m, c in row((j, k), _NO_PRODUCT).items()),
                ((-c, m, k) for m, c in row((i, j), _NO_PRODUCT).items()),
                ((-c, j, m) for m, c in row((i, k), _NO_PRODUCT).items()),
            )
        )

    def _residuals(self, triples=None):
        """Yield (triple, ((p, component p), ...)) for each of a list of
        triples, all dim^3 in (i, j, k) order by default, with the nonzero
        components of its Leibniz residual; PolyQ entries only.  With
        N(i,j,k) = [e_i,[e_j,e_k]] the residual is N(i,j,k) - N(j,i,k) -
        [[e_i,e_j],e_k], so each product of N(i,j,k) is formed once for
        (i, j, k) and (j, i, k) when both are asked for, and none at i = j,
        where the N terms cancel.  Every index is checked first; only the
        residuals of partners still to come are held."""
        row, sums, later = self._c.get, _ProductSums(self.zero), {}
        if triples is None:
            triples, wanted = product(range(self.dim), repeat=3), None
        else:
            wanted = set(triples)
            for ijk in wanted:
                self._check_indices(*ijk)
        for i, j, k in triples:
            parts = later.pop((i, j, k), None)
            if parts is None:
                both = i != j and (wanted is None or (j, i, k) in wanted)
                r, s = {}, ({} if both else None)
                for x, y, mine, other in ((i, j, r, s), (j, i, s, r)):
                    if mine is not None:  # -[[e_x,e_y],e_k] into R(x,y,k)
                        for m, a in row((x, y), _NO_PRODUCT).items():
                            sums.add(a, row((m, k), _NO_PRODUCT), None, mine)
                    if i != j:  # N(x,y,k) into R(x,y,k) and out of R(y,x,k)
                        for m, a in row((y, k), _NO_PRODUCT).items():
                            sums.add(a, row((x, m), _NO_PRODUCT), mine, other)
                parts = sums.read(r)
                if both:
                    later[j, i, k] = sums.read(s)
            yield (i, j, k), parts

    def leibniz_defects(self) -> list[tuple[int, int, int]]:
        """Triples whose residual is nonzero (empty iff Leibniz), in (i, j, k)
        order.  Scalar tensors are checked by the packed kernel on their
        integer view, PolyQ tensors by _residuals; the answer is computed once
        per tensor and each call returns a fresh list."""
        if self._defects is None:
            defects = (_packed_defects(self.dim, *self._integer_view()[::2]) if self.is_scalar()
                       else tuple(ijk for ijk, parts in self._residuals() if parts))
            object.__setattr__(self, "_defects", defects)
        return list(self._defects)

    def _integer_view(self, *others) -> tuple:
        """(d, D, view): the field Q(sqrt d) of the constants and of the Scalars
        or subspaces in the iterables others (d None for Q), D the lcm of the
        constants' denominators, and the view {(i, j): {k: D * c_ij^k}} of ints
        over Q and (rational, sqrt) int pairs over Q(sqrt d).  The tensor's own
        view is built once and kept; a rational tensor that meets a quadratic d
        lifts it to the pairs (x, 0) under the same D.  Read by leibniz_defects
        (through _packed_defects), is_lie, _view_brackets, _center_in and
        _change_basis_with_inverse."""
        if self._view is None:
            values = [v for row in self._c.values() for v in row.values()]
            own = common_field(values)
            den, cleared = integer_pairs(values, own)
            cleared = iter(cleared)
            view = {ij: {k: next(cleared) for k in row} for ij, row in self._c.items()}
            object.__setattr__(self, "_view", (own, den, view))
        own, den, view = self._view
        d = common_field(chain(*others))
        if d is None or d == own:
            return self._view
        if own is not None:
            raise IncompatibleFieldError(f"cannot combine sqrt({own}) with sqrt({d})")
        return d, den, {ij: {k: (x, 0) for k, x in row.items()} for ij, row in view.items()}

    def is_leibniz(self) -> bool:
        return not self.leibniz_defects()

    def is_lie(self) -> bool:
        """Leibniz plus antisymmetric constants (on a Scalar tensor's view, part by part)."""
        if not self.is_leibniz():
            return False
        d, rows, zero = None, self._c, self.zero
        if self.is_scalar():
            d, _, rows = self._integer_view()
            zero = 0 if d is None else (0, 0)
        return all(
            not any(map(add, value, other)) if d is not None else value + other == zero
            for (i, j), row in rows.items()
            for k, value in row.items()
            for other in (rows.get((j, i), _NO_PRODUCT).get(k, zero),)
        )

    # -- multiplication operators ---------------------------------------------

    def left_mult_matrix(self, x) -> list:
        """Matrix of L_x acting on coordinates: (L_x)_{kj} = sum_i x_i c_{ij}^k."""
        return self._mult_matrix(x, left=True)

    def right_mult_matrix(self, x) -> list:
        """Matrix of R_x: (R_x)_{ki} = sum_j x_j c_{ij}^k."""
        return self._mult_matrix(x, left=False)

    def _mult_matrix(self, x, left: bool) -> list:
        support = [(a, xa) for a, xa in enumerate(x) if not xa.is_zero()]
        return linalg.transpose([
            self.contract((xa, a, b) if left else (xa, b, a) for a, xa in support)
            for b in range(self.dim)
        ])

    def unit_vector(self, i: int) -> list:
        """e_i, with the one of the tensor's entry kind in slot i."""
        v = [self.zero] * self.dim
        v[i] = self.zero + 1
        return v

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructTensor):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.basis_labels == other.basis_labels
            and self._c == other._c
        )

    def __hash__(self):
        return hash((self.dim, self.basis_labels))

    def __repr__(self):
        kind = "Scalar" if self.is_scalar() else "PolyQ"
        return f"StructTensor(dim={self.dim}, entries={kind})"


def _packed_defects(n: int, d, view: dict) -> tuple:
    """Leibniz defects of the integer view over Q(sqrt d), d None for Q.  Row (a, b),
    c_ab^l = x_l + y_l*sqrt(d), is held as P = X + Y*2^(w*n) and P' = d*Y + X*2^(w*n) for
    X = sum_l x_l 2^(w*l) and Y likewise (Y = 0 and d = 0 over Q), so (x + y*sqrt(d)) times
    the row is x*P + y*P', rational parts in the low half and sqrt parts in the high one."""
    rows = {ab: [(l, c, 0) if d is None else (l, *c) for l, c in row.items()]
            for ab, row in view.items()}
    d = d or 0
    top = max((abs(v) for row in rows.values() for _, x, y in row for v in (x, y)), default=0)
    w = (3 * n * (1 + abs(d)) * top * top).bit_length() + 1
    left = [[0] * (2 * n) for _ in range(n)]  # left[a][b] = P(a, b), left[a][n + b] = P'(a, b)
    terms = [[((), ())] * n for _ in range(n)]  # the columns and factors of row (a, b)
    for (a, b), row in rows.items():
        px = sum(x << w * l for l, x, _ in row)
        py = sum(y << w * l for l, _, y in row)
        left[a][b], left[a][n + b] = px + (py << w * n), d * py + (px << w * n)
        nonzero = [(l, x) for l, x, _ in row if x] + [(n + l, y) for l, _, y in row if y]
        terms[a][b] = tuple(zip(*nonzero))
    right = [[left[m][k + n * h] for h in (0, 1) for m in range(n)] for k in range(n)]
    return tuple(
        (i, j, k)
        for i, j, k in product(range(n), repeat=3)
        if _dot(terms[j][k], left[i]) != _dot(terms[i][j], right[k]) + _dot(terms[i][k], left[j])
    )


def _dot(terms, packed) -> int:
    columns, factors = terms
    return sum(map(mul, factors, map(packed.__getitem__, columns)))


class Subspace:
    """Subspace of F^n in reduced echelon form (canonical representative),
    held as the cleared form (d, den, rows) of linalg.canonical_form and its
    pivot columns: equality and the hash compare the form, and the Scalar
    rows are built when first read.  d is that of the field Q(sqrt d) the
    RREF lives in, None for Q, as for a Scalar."""

    __slots__ = ("ambient_dim", "d", "_den", "_ints", "_pivots", "_rows")

    def __init__(self, ambient_dim: int, rows):
        """From Scalar rows of length ambient_dim in RREF, kept as given; ValueError
        unless the pivot columns increase and the columns at them are den * I."""
        rows = tuple(map(tuple, rows))
        if any(len(row) != ambient_dim for row in rows):
            raise ShapeError("row length != ambient dimension")
        d = common_field(chain.from_iterable(rows))
        den, ints = linalg.cleared_matrix(rows, d) if rows else (1, ())
        zero, one = (0, den) if d is None else ((0, 0), (den, 0))
        pivots = [next((j for j, x in enumerate(row) if x != zero), -1) for row in ints]
        unit = [[one if p == q else zero for q in pivots] for p in pivots]
        if any(p >= q for p, q in zip([-1] + pivots, pivots)) or unit != [
                [row[p] for p in pivots] for row in ints]:
            raise ValueError("Subspace rows are not a reduced row echelon form")
        self._fill(ambient_dim, d, den, ints, pivots, rows)

    @classmethod
    def _cleared(cls, ambient_dim: int, d, den: int, ints, pivots) -> Subspace:
        """From a cleared form and its pivot columns; no Scalar is built."""
        w = object.__new__(cls)
        w._fill(ambient_dim, d, den, ints, pivots, None)
        return w

    def _fill(self, ambient_dim, d, den, ints, pivots, rows) -> None:
        ints, pivots = tuple(map(tuple, ints)), tuple(pivots)
        for slot, value in zip(self.__slots__, (ambient_dim, d, den, ints, pivots, rows)):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @classmethod
    def span(cls, vectors, ambient_dim: int) -> Subspace:
        vectors = [list(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ShapeError("vector length != ambient dimension")
        d, cleared = linalg.cleared_rows(vectors)
        return cls._cleared(ambient_dim, *linalg.canonical_rref(cleared, ambient_dim, d))

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls._cleared(ambient_dim, None, 1, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> Subspace:
        n = ambient_dim
        return cls._cleared(n, None, 1, [[int(i == j) for j in range(n)] for i in range(n)], range(n))

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            rows = (tuple(from_cleared(row, self._den, self.d)) for row in self._ints)
            object.__setattr__(self, "_rows", tuple(rows))
        return self._rows

    @property
    def dim(self) -> int:
        return len(self._ints)

    def basis_vectors(self) -> list:
        return [list(row) for row in self.rows]

    def _key(self) -> tuple:
        return self.ambient_dim, self._den, self.d, self._ints

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{self.__class__.__qualname__}(ambient_dim={self.ambient_dim!r}, rows={self.rows!r})"

    def contains(self, v) -> bool:
        """Whether v lies in W, for a vector v of Scalars; for a Subspace v,
        whether all of v does, which holds iff each of its rows does.  Two
        quadratic fields raise IncompatibleFieldError before any arithmetic."""
        if isinstance(v, Subspace):
            if v.ambient_dim != self.ambient_dim:
                raise ShapeError("vector length != ambient dimension")
            d = common_field((self, v))
            return self._holds(d, v._rows_in(d))
        v = list(v)
        if len(v) != self.ambient_dim:
            raise ShapeError("vector length != ambient dimension")
        d = common_field([self, *v])
        return self._holds(d, [integer_pairs(v, d)[1]])

    def is_contained_in(self, other: Subspace) -> bool:
        return other.contains(self)

    def sum(self, other: Subspace) -> Subspace:
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("ambient dimension mismatch")
        d = common_field((self, other))
        rows = self._rows_in(d) + other._rows_in(d)
        return Subspace._cleared(self.ambient_dim, *linalg.canonical_rref(rows, self.ambient_dim, d))

    def _rows_in(self, d) -> list:
        """The cleared rows in the ring of d, W's d or a quadratic one."""
        if d == self.d:
            return list(self._ints)
        return [[(x, 0) for x in row] for row in self._ints]

    def _holds(self, d, vectors) -> bool:
        """Whether each vector, cleared into the ring of d (W's d, or W is
        rational and its rows are lifted into that ring), lies in W: iff
        den * v = sum of v[pivot] * row, compared at the free columns (at
        the pivots it holds by construction)."""
        zero, minus = (0, -self._den) if d is None else ((0, 0), (-self._den, 0))
        ints = self._rows_in(d)
        columns = [  # sum of v[pivot] * row[j], minus den * v[j], at each free column j
            [(p, row[j]) for p, row in zip(self._pivots, ints) if row[j] != zero] + [(j, minus)]
            for j in range(self.ambient_dim) if j not in self._pivots
        ]
        return all(_images(columns, v, d) == [zero] * len(columns) for v in vectors)


@dataclass(frozen=True)
class ClosureChecks:
    is_subalgebra: bool
    is_left_ideal: bool
    is_two_sided_ideal: bool


@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism-invariant summary; a necessary-condition separator only."""

    dim: int
    derived_dims: tuple
    lower_central_dims: tuple
    ann_left_dim: int
    center_dim: int
    is_lie: bool
    is_solvable: bool
    is_nilpotent: bool


def bracket_span(t: StructTensor, a: Subspace, b: Subspace) -> Subspace:
    """span([u, v] : u in basis(a), v in basis(b)); complete by bilinearity.

    Each bracket is taken on the integer view of the cleared rows of a and
    b, so it is a nonzero multiple of [u, v] and spans the same line; the
    cleared brackets go to the elimination as they are, and the result
    stays in cleared form."""
    d, brackets = _view_brackets(t, a, b)
    return Subspace._cleared(t.dim, *linalg.canonical_rref(list(brackets), t.dim, d))


def bracket_span_within(t: StructTensor, a: Subspace, b: Subspace, w: Subspace) -> bool:
    """Whether bracket_span(t, a, b) lies in w, with no elimination: a span
    lies in w iff each of its generators does, so each bracket [u, v] of
    basis rows is tested for membership in w on the integer view, up to
    the first that is not in it."""
    d, brackets = _view_brackets(t, a, b, w)
    return w._holds(d, brackets)


def _view_brackets(t: StructTensor, a: Subspace, b: Subspace, *others) -> tuple:
    """(d, the lazy brackets [u, v] on the integer view over the cleared rows
    u of a and v of b), for d the field of t, a, b and the other subspaces."""
    t._require_scalar("bracket span")
    if any(w.ambient_dim != t.dim for w in (a, b, *others)):
        raise ShapeError("subspace ambient dimension != tensor dimension")
    d, _, view = t._integer_view((a, b, *others))
    vs = b._rows_in(d)
    return d, (_view_bracket(view, d, u, v) for u in a._rows_in(d) for v in vs)


def _view_bracket(rows: dict, d, u, v) -> list:
    """[u, v] on an integer view for u, v cleared into the same ring: ints
    over Q (d None), and over Q(sqrt d) (rational, sqrt) int pairs, with
    each coordinate summed in one int list per part.  The one contraction
    of the integer view behind bracket_span, bracket_span_within,
    _center_in and _change_basis_with_inverse."""
    n = len(u)
    if d is None:
        acc = [0] * n
        vs = [(j, y) for j, y in enumerate(v) if y]
        for i, x in enumerate(u):
            if x:
                for j, y in vs:
                    c = x * y
                    for k, ck in rows.get((i, j), _NO_PRODUCT).items():
                        acc[k] += c * ck
        return acc
    acc_a, acc_b = [0] * n, [0] * n
    vs = [(j, ya, yb) for j, (ya, yb) in enumerate(v) if ya or yb]
    for i, (xa, xb) in enumerate(u):
        if xa or xb:
            for j, ya, yb in vs:
                ca, cb = xa * ya + d * xb * yb, xa * yb + xb * ya
                dcb = d * cb
                for k, ck in rows.get((i, j), _NO_PRODUCT).items():
                    a, b = ck
                    acc_a[k] += ca * a + dcb * b
                    acc_b[k] += ca * b + cb * a
    return list(zip(acc_a, acc_b))


def _series(t: StructTensor, w: Subspace, step=None, first=None) -> list[Subspace]:
    """Shared shape of both series of the subalgebra w: iterate step, by
    default the lower central step [w, -], until zero or stabilization.
    Each term contains the next, so the list, cut at dim + 1 terms, ends
    even when two equal subspaces compare unequal.

    The returned list starts at [w, w] (first, if given); a stabilized nonzero
    term appears twice at the end, a vanishing series ends with the zero subspace.
    """
    t._require_scalar("series computation")
    step = step or (lambda current: bracket_span(t, w, current))
    current = bracket_span(t, w, w) if first is None else first
    terms = [current]
    while current.dim > 0 and len(terms) <= t.dim:
        nxt = step(current)
        terms.append(nxt)
        if nxt == current:
            break
        current = nxt
    return terms


def derived_series(t: StructTensor) -> list[Subspace]:
    """[L,L], [[L,L],[L,L]], ...; reaches zero iff the algebra is solvable."""
    return _series(t, Subspace.full(t.dim), lambda w: bracket_span(t, w, w))


def lower_central_series(t: StructTensor) -> list[Subspace]:
    """[L,L], [L,[L,L]], ...; reaches zero iff the algebra is nilpotent."""
    return _series(t, Subspace.full(t.dim))


def _both_series(t: StructTensor) -> tuple[list[Subspace], list[Subspace]]:
    """(derived_series(t), lower_central_series(t)) from one [L, L]."""
    derived = derived_series(t)
    return derived, _series(t, Subspace.full(t.dim), first=derived[0])


def is_solvable(t: StructTensor) -> bool:
    return derived_series(t)[-1].dim == 0


def is_nilpotent_algebra(t: StructTensor) -> bool:
    return lower_central_series(t)[-1].dim == 0


def left_annihilator(t: StructTensor) -> Subspace:
    """{x : [x, y] = 0 for all y}: the nullspace of the rows (j, k) -> (c_ij^k)_i."""
    t._require_scalar("left annihilator")
    rows = [[t.zero] * t.dim for _ in range(t.dim**2)]
    for (i, j, k), c in t.constants_dict().items():
        rows[j * t.dim + k][i] = c
    return Subspace.span(linalg.nullspace(rows), t.dim)


def center(t: StructTensor) -> Subspace:
    """{x : [x, y] = 0 = [y, x] for all y}."""
    t._require_scalar("center")
    return _center_in(t, left_annihilator(t))


def _center_in(t: StructTensor, ann: Subspace) -> Subspace:
    """The center inside ann = left_annihilator(t): reducing the rows ([e_0, b],
    ..., [e_(n-1), b] | b), one per row b of ann, each cleared and bracketed on
    the integer view, solves sum_b a_b [e_j, b] = 0 for all j; the reduced rows
    whose bracket part vanishes end in the RREF rows of the sum_b a_b b."""
    n = t.dim
    d, _, view = t._integer_view((ann,))
    units = Subspace.full(n)._rows_in(d)
    rows = [[x for e in units for x in _view_bracket(view, d, e, b)] + list(b)
            for b in ann._rows_in(d)]
    d, den, red, pivots = linalg.canonical_rref(rows, n * n + n, d)
    kept = [(row[n * n:], p - n * n) for row, p in zip(red, pivots) if p >= n * n]
    center = linalg.canonical_form([row for row, _ in kept], den, d)
    return Subspace._cleared(n, *center, [p for _, p in kept])


def element_nilpotent(t: StructTensor, x) -> bool:
    """True iff both multiplication operators L_x and R_x are nilpotent."""
    t._require_scalar("element nilpotency")
    return linalg.matrix_nilpotent(t.left_mult_matrix(x)) and linalg.matrix_nilpotent(
        t.right_mult_matrix(x)
    )


def change_basis(t: StructTensor, p, basis_labels=None) -> StructTensor:
    """Tensor of the same algebra under the coordinate map P.

    P sends old coordinates to new ones, so the defining property is
    bracket_new(Px, Py) = P bracket_old(x, y); equivalently the m-th new
    basis vector has old coordinates given by column m of P^{-1}.
    """
    t._require_scalar("change of basis")
    q = linalg.inverse(p)
    return _change_basis_with_inverse(t, p, q, basis_labels)


def _change_basis_with_inverse(t: StructTensor, p, q, basis_labels=None) -> StructTensor:
    """c'(m,l)^k = sum P(k,a) c(i,j)^a Q(i,m) Q(j,l) for Q = P^{-1}: P times
    each [Q e_m, Q e_l], bracketed for Scalar tensors by _view_bracket with
    P and Q cleared, each entry divided once by the product of the scale
    factors, and for PolyQ tensors on the tensor itself."""
    n = t.dim
    if linalg.shape(p) != (n, n) or linalg.shape(q) != (n, n):
        raise ShapeError("change of basis matrix has wrong shape")
    d, zero, bracket = None, t.zero, t.bracket
    if t.is_scalar():
        d, den, view = t._integer_view(*p, *q)
        den_p, p = linalg.cleared_matrix(p, d)
        den_q, q = linalg.cleared_matrix(q, d)
        den *= den_p * den_q * den_q
        zero, bracket = 0 if d is None else (0, 0), partial(_view_bracket, view, d)
    cols = list(zip(*q))
    rows = [[(a, x) for a, x in enumerate(row) if x != zero] for row in p]
    constants = {}
    for m, col_m in enumerate(cols):
        for l, col_l in enumerate(cols):
            for k, value in enumerate(_images(rows, bracket(col_m, col_l), d, zero)):
                if value != zero:
                    constants[(m, l, k)] = value
    if t.is_scalar():
        constants = dict(zip(constants, from_cleared(constants.values(), den, d)))
    return StructTensor(
        n, constants, basis_labels=basis_labels or t.basis_labels, zero=t.zero
    )


def _images(rows, w, d, zero=0) -> list:
    """P w for the nonzero entries (a, x) of each row of P, in ints or int
    pairs, or in PolyQs summed from their zero; over Q the zero entries of
    w are skipped.  Subspace._holds passes W's free columns as the rows."""
    if d is None:
        return [sum((x * w[a] for a, x in row if w[a] != zero), zero) for row in rows]
    images = []
    for row in rows:
        va = vb = 0
        for a, (xa, xb) in row:
            wa, wb = w[a]
            va += xa * wa + d * xb * wb
            vb += xa * wb + xb * wa
        images.append((va, vb))
    return images


def basis_rows_to_coordinate_map(rows) -> list:
    """Coordinate map P for a new basis given by rows (new basis in old
    coordinates): P = (M^T)^{-1}."""
    return linalg.inverse(linalg.transpose(rows))


def subspace_closure_checks(t: StructTensor, w: Subspace) -> ClosureChecks:
    """Subalgebra / left-ideal / two-sided-ideal membership checks: [w, w],
    [L, w] and [w, L] lie in w."""
    return _closure_checks(t, w)[0]


def _closure_checks(t: StructTensor, w: Subspace) -> tuple[ClosureChecks, Subspace]:
    """subspace_closure_checks(t, w) and its [w, w], where w's series starts.
    [w, w] is eliminated, as the series needs it, and its rows are tested
    against w; [L, w] and [w, L] are read off their generating brackets
    [e_i, b] and [b, e_i] by bracket_span_within, with no elimination."""
    full, ww = Subspace.full(t.dim), bracket_span(t, w, w)
    left = bracket_span_within(t, full, w, w)
    return ClosureChecks(
        is_subalgebra=ww.is_contained_in(w),
        is_left_ideal=left,
        is_two_sided_ideal=left and bracket_span_within(t, w, full, w),
    ), ww


def fingerprint(t: StructTensor) -> Fingerprint:
    """Invariant record; equal algebras in different bases get equal records."""
    derived, lower = _both_series(t)
    ann = left_annihilator(t)
    return Fingerprint(
        dim=t.dim,
        derived_dims=tuple(s.dim for s in derived),
        lower_central_dims=tuple(s.dim for s in lower),
        ann_left_dim=ann.dim,
        center_dim=_center_in(t, ann).dim,
        is_lie=t.is_lie(),
        is_solvable=derived[-1].dim == 0,
        is_nilpotent=lower[-1].dim == 0,
    )
