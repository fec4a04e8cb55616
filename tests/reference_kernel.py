"""Test-only reference kernel.

DenseTensor keeps the structure constants of a StructTensor as a dense
c[i][j][k] array and forms every product with its own nested loop, the
way the library did before its constants moved to a sparse store behind
one contraction routine.  The differential tests compare the library
against these loops; nilpotency_power_oracle is the brute-force check
that the nilpotency tests compare against.
"""

from heisenleib import linalg
from heisenleib.linalg import ShapeError


class DenseTensor:
    """Dense copy of a StructTensor's constants with the reference loops."""

    def __init__(self, t):
        self.dim = t.dim
        self.zero = t.zero
        self.c = [[[t.zero] * t.dim for _ in range(t.dim)] for _ in range(t.dim)]
        for (i, j, k), value in t.constants_dict().items():
            self.c[i][j][k] = value

    def bracket(self, x, y) -> list:
        out = [self.zero] * self.dim
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            for j, yj in enumerate(y):
                if yj.is_zero():
                    continue
                coeff = xi * yj
                vec = self.c[i][j]
                for k in range(self.dim):
                    if not vec[k].is_zero():
                        out[k] = out[k] + coeff * vec[k]
        return out

    def _bracket_basis_left(self, i: int, w) -> list:
        """[e_i, w] for a coordinate vector w."""
        out = [self.zero] * self.dim
        for j, wj in enumerate(w):
            if wj.is_zero():
                continue
            vec = self.c[i][j]
            for k in range(self.dim):
                if not vec[k].is_zero():
                    out[k] = out[k] + wj * vec[k]
        return out

    def _bracket_basis_right(self, w, k: int) -> list:
        """[w, e_k] for a coordinate vector w."""
        out = [self.zero] * self.dim
        for i, wi in enumerate(w):
            if wi.is_zero():
                continue
            vec = self.c[i][k]
            for m in range(self.dim):
                if not vec[m].is_zero():
                    out[m] = out[m] + wi * vec[m]
        return out

    def leibniz_residual(self, i: int, j: int, k: int) -> list:
        t1 = self._bracket_basis_left(i, self.c[j][k])
        t2 = self._bracket_basis_right(self.c[i][j], k)
        t3 = self._bracket_basis_left(j, self.c[i][k])
        return [a - b - c for a, b, c in zip(t1, t2, t3)]

    def leibniz_defects(self) -> list:
        n = self.dim
        return [
            (i, j, k)
            for i in range(n)
            for j in range(n)
            for k in range(n)
            if any(not e.is_zero() for e in self.leibniz_residual(i, j, k))
        ]

    def left_mult_matrix(self, x) -> list:
        out = [[self.zero] * self.dim for _ in range(self.dim)]
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            for j in range(self.dim):
                vec = self.c[i][j]
                for k in range(self.dim):
                    if not vec[k].is_zero():
                        out[k][j] = out[k][j] + xi * vec[k]
        return out

    def right_mult_matrix(self, x) -> list:
        out = [[self.zero] * self.dim for _ in range(self.dim)]
        for j, xj in enumerate(x):
            if xj.is_zero():
                continue
            for i in range(self.dim):
                vec = self.c[i][j]
                for k in range(self.dim):
                    if not vec[k].is_zero():
                        out[k][i] = out[k][i] + xj * vec[k]
        return out

    def change_basis(self, p) -> list:
        """Dense constants under the coordinate map P:
        c'[m][l] = P [q_m, q_l] with q_m the m-th column of P^{-1}."""
        n = self.dim
        q = linalg.inverse(p)
        cols = [[q[i][m] for i in range(n)] for m in range(n)]
        return [
            [linalg.mat_vec(p, self.bracket(cols[m], cols[l])) for l in range(n)]
            for m in range(n)
        ]


def nilpotency_power_oracle(m) -> bool:
    """Brute-force oracle: check M, M^2, ..., M^dim for the zero matrix."""
    r, c = linalg.shape(m)
    if r != c:
        raise ShapeError("nilpotency needs a square matrix")
    power = [row[:] for row in m]
    for _ in range(r):
        if linalg.is_zero_matrix(power):
            return True
        power = linalg.mat_mul(power, m)
    return linalg.is_zero_matrix(power)
