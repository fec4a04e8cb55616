"""The benchmark's own exact arithmetic for building random-basis inputs.

Elements of Q(sqrt d) are pairs (a, b) of Fractions meaning a + b*sqrt(d);
d is fixed per tensor and passed explicitly.  Tensors are sparse maps
{(i, j, k): element} of nonzero structure constants c_ij^k with
[e_i, e_j] = sum_k c_ij^k e_k.  Nothing here imports the program: the
inputs the program checks are built independently of the code under test.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def elt(a, b=0):
    return (Fraction(a), Fraction(b))


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def neg(x):
    return (-x[0], -x[1])


def mul(x, y, d):
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def is_zero(x) -> bool:
    return x[0] == 0 and x[1] == 0


def to_text(x, d) -> str:
    """The program's exact-scalar text format: "p/q" or "p/q+r/s*sqrt(d)"."""
    a, b = x
    head = f"{a.numerator}/{a.denominator}"
    if b == 0:
        return head
    sign = "+" if b > 0 else "-"
    return f"{head}{sign}{abs(b.numerator)}/{b.denominator}*sqrt({d})"


# -- source tensors ------------------------------------------------------------


def heisenberg(n: int):
    """H(n) in the basis (H, P_1..P_n, B_1..B_n): [P_i, B_i] = -[B_i, P_i] = H."""
    c = {}
    for i in range(n):
        p, b = 1 + i, 1 + n + i
        c[(p, b, 0)] = ONE
        c[(b, p, 0)] = neg(ONE)
    labels = ["H"] + [f"P{i + 1}" for i in range(n)] + [f"B{i + 1}" for i in range(n)]
    return c, labels


def extension(n: int, a, xs, r=None):
    """The extension of H(n) by f = len(a) generators with rho = 0, in the
    basis (S_1..S_f, H, P, B): [S, H] = 2a H, [S, P/B] = (aI + X) P/B,
    the right actions their negatives, and [S_al, S_be] = r_ab H."""
    f = len(a)
    h = f
    c = {}
    for i in range(n):
        c[(f + 1 + i, f + 1 + n + i, h)] = ONE
        c[(f + 1 + n + i, f + 1 + i, h)] = neg(ONE)
    for al in range(f):
        if a[al]:
            c[(al, h, h)] = elt(2 * a[al])
            c[(h, al, h)] = elt(-2 * a[al])
        for u in range(2 * n):
            for v in range(2 * n):
                entry = xs[al][u][v] + (a[al] if u == v else 0)
                if entry:
                    c[(al, f + 1 + u, f + 1 + v)] = elt(entry)
                    c[(f + 1 + u, al, f + 1 + v)] = elt(-entry)
        for be in range(f):
            if r and r[al][be]:
                c[(al, be, h)] = elt(r[al][be])
    labels = (
        [f"S{al + 1}" for al in range(f)]
        + ["H"]
        + [f"P{i + 1}" for i in range(n)]
        + [f"B{i + 1}" for i in range(n)]
    )
    return c, labels


def perturb(c: dict, labels) -> dict:
    """[H, P1] += P1.  The triple (H, P1, B1) then breaks the Leibniz
    identity in every basis: [H,[P1,B1]] - [[H,P1],B1] - [P1,[H,B1]] = -H."""
    h, p1 = labels.index("H"), labels.index("P1")
    out = dict(c)
    out[(h, p1, p1)] = add(out.get((h, p1, p1), ZERO), ONE)
    return out


# -- random change of basis ------------------------------------------------------


def random_shear_basis(rng, dim: int, d: int | None):
    """A basis matrix Q = L U with L unit lower and U unit upper triangular,
    and its exact inverse P = U^-1 L^-1 (the coordinate map).

    Every off-diagonal entry is a generic small nonzero element, so the
    moved tensor is dense and its cost does not swing with the seed: one of
    +-1, +-2, +-3 over Q, a + b sqrt(d) with a, b in +-1, +-2 over Q(sqrt d).
    """

    def entry():
        if d is None:
            return elt(rng.choice((-3, -2, -1, 1, 2, 3)))
        return elt(rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2)))

    lower = [[ONE if i == j else (entry() if i > j else ZERO) for j in range(dim)]
             for i in range(dim)]
    upper = [[ONE if i == j else (entry() if i < j else ZERO) for j in range(dim)]
             for i in range(dim)]
    dd = d or 0
    q = mat_mul(lower, upper, dd)
    p = mat_mul(unit_triangular_inverse(upper, dd), unit_triangular_inverse(lower, dd), dd)
    return q, p


def mat_mul(x, y, d):
    n = len(x)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ZERO
            for k in range(n):
                if not is_zero(x[i][k]) and not is_zero(y[k][j]):
                    acc = add(acc, mul(x[i][k], y[k][j], d))
            row.append(acc)
        out.append(row)
    return out


def unit_triangular_inverse(m, d):
    """Inverse of a unit lower or upper triangular matrix by substitution
    (no division is needed because the diagonal is 1)."""
    n = len(m)
    lower = all(is_zero(m[i][j]) for i in range(n) for j in range(i + 1, n))
    order = range(n) if lower else range(n - 1, -1, -1)
    inv = [[ZERO] * n for _ in range(n)]
    for col in range(n):
        for i in order:
            acc = ONE if i == col else ZERO
            span = range(i) if lower else range(i + 1, n)
            for k in span:
                if not is_zero(m[i][k]) and not is_zero(inv[k][col]):
                    acc = add(acc, neg(mul(m[i][k], inv[k][col], d)))
            inv[i][col] = acc
    return inv


def move(c: dict, dim: int, q, p, d) -> dict:
    """Structure constants in the new basis f_m = sum_i Q[i][m] e_i:
    c'_ml = P [f_m, f_l], so the result matches the program's
    change_basis(t, P)."""
    dd = d or 0
    out = {}
    for m in range(dim):
        for l in range(dim):
            bracket = [ZERO] * dim
            for (i, j, k), value in c.items():
                qi, qj = q[i][m], q[j][l]
                if is_zero(qi) or is_zero(qj):
                    continue
                bracket[k] = add(bracket[k], mul(mul(qi, qj, dd), value, dd))
            for row in range(dim):
                acc = ZERO
                for k in range(dim):
                    if not is_zero(p[row][k]) and not is_zero(bracket[k]):
                        acc = add(acc, mul(p[row][k], bracket[k], dd))
                if not is_zero(acc):
                    out[(m, l, row)] = acc
    return out


def algebra_doc(c: dict, dim: int, labels, d) -> dict:
    """The program's algebra-file document for a sparse tensor."""
    return {
        "dim": dim,
        "basis": list(labels),
        "field": "Q" if d is None else {"sqrt": d},
        "constants": [
            {"i": i, "j": j, "k": k, "c": to_text(c[(i, j, k)], d)}
            for (i, j, k) in sorted(c)
        ],
    }
