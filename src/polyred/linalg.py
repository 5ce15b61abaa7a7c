"""Exact linear algebra over the rationals.

Dense RatMatrix covers the small-dimension work (pairings, rotations,
block checks).  The sparse helpers cover numeric Jacobians of
high-dimensional but structurally sparse maps, where dense elimination
would be hopeless; rows there are {column: nonzero int or Fraction}
dicts, and their pivot divisions go through poly.qdiv.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .poly import qdiv


class RatMatrix:
    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = [[Fraction(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged matrix")

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(nrows: int, ncols: int) -> "RatMatrix":
        return RatMatrix([[Fraction(0)] * ncols for _ in range(nrows)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.rows == other.rows

    __hash__ = None

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def copy_rows(self) -> list:
        return [list(row) for row in self.rows]

    def transpose(self) -> "RatMatrix":
        return RatMatrix([[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for row in self.rows:
            acc = [0] * other.ncols  # only nonzero products are added
            for a, orow in zip(row, other.rows):
                if a:
                    for j, b in enumerate(orow):
                        if b:
                            acc[j] += a * b
            out.append(acc)
        return RatMatrix(out)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix sum")
        return RatMatrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def hstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        return RatMatrix([r1 + r2 for r1, r2 in zip(self.rows, other.rows)])

    def vstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch in vstack")
        return RatMatrix(self.rows + other.rows)

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.rows)

    def rref(self):
        """(reduced rows, pivot column list); self is not modified."""
        rows = self.copy_rows()
        pivots = []
        r = 0
        for c in range(self.ncols):
            pivot_row = None
            for i in range(r, self.nrows):
                if rows[i][c] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            pv = rows[r][c]
            rows[r] = [x / pv for x in rows[r]]
            for i in range(self.nrows):
                if i != r and rows[i][c] != 0:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == self.nrows:
                break
        return rows, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def row_basis(self) -> "RatMatrix":
        """Rows spanning the row space (nonzero rows of the rref)."""
        rows, pivots = self.rref()
        return RatMatrix(rows[: len(pivots)])

    def nullspace_basis(self) -> "RatMatrix":
        """Columns... returned as a matrix whose ROWS are kernel basis vectors."""
        rows, pivots = self.rref()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            v = [Fraction(0)] * self.ncols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -rows[r][fc]
            basis.append(v)
        return RatMatrix(basis) if basis else RatMatrix.zero(0, self.ncols)

    def inverse(self) -> "RatMatrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = RatMatrix([list(r) for r in self.rows]).hstack(RatMatrix.identity(n))
        rows, pivots = aug.rref()
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return RatMatrix([row[n:] for row in rows[:n]])

    def solve_right(self, rhs: "RatMatrix"):
        """One X with self @ X = rhs, or None when inconsistent."""
        if rhs.nrows != self.nrows:
            raise ValueError("shape mismatch in solve")
        aug = self.hstack(rhs)
        rows, pivots = aug.rref()
        good = [p for p in pivots if p < self.ncols]
        if len(good) != len(pivots):
            return None
        out = [[Fraction(0)] * rhs.ncols for _ in range(self.ncols)]
        for r, pc in enumerate(pivots):
            for j in range(rhs.ncols):
                out[pc][j] = rows[r][self.ncols + j]
        return RatMatrix(out)

    def right_inverse(self):
        """C with self @ C = I, or None when rows are dependent."""
        return self.solve_right(RatMatrix.identity(self.nrows))

    def __repr__(self) -> str:
        return f"RatMatrix({self.nrows}x{self.ncols})"


# -- sparse routines ---------------------------------------------------
#
# A sparse square matrix is a list of {column: int or Fraction} row
# dicts.  The elimination picks pivots greedily by Markowitz cost, which
# keeps fill-in negligible on the near-triangular matrices the reduction
# pipeline produces.


def sparse_det(rows: list, n: int) -> Fraction:
    rows = [dict(r) for r in rows]
    if len(rows) != n:
        raise ValueError("row count mismatch")
    col_count = [0] * n
    for r in rows:
        for c in r:
            col_count[c] += 1
    alive_rows = set(range(n))
    alive_cols = set(range(n))
    det = Fraction(1)
    perm_rows = []
    perm_cols = []
    for _ in range(n):
        best = None
        for i in range(n):
            if i not in alive_rows:
                continue
            ri = rows[i]
            nz = [c for c in ri if c in alive_cols and ri[c] != 0]
            if not nz:
                return Fraction(0)
            for c in nz:
                cost = (len(nz) - 1) * (col_count[c] - 1)
                if best is None or cost < best[0]:
                    best = (cost, i, c)
            if best is not None and best[0] == 0:
                break
        _, pi, pc = best
        piv = rows[pi][pc]
        det *= piv
        perm_rows.append(pi)
        perm_cols.append(pc)
        alive_rows.discard(pi)
        alive_cols.discard(pc)
        prow = rows[pi]
        for c in prow:
            col_count[c] -= 1
        for i in range(n):
            if i not in alive_rows:
                continue
            ri = rows[i]
            f = ri.get(pc)
            if not f:
                continue
            f = qdiv(f, piv)
            for c, v in prow.items():
                if c not in alive_cols:
                    continue
                nv = ri.get(c, Fraction(0)) - f * v
                if nv == 0:
                    if c in ri:
                        del ri[c]
                        col_count[c] -= 1
                else:
                    if c not in ri:
                        col_count[c] += 1
                    ri[c] = nv
            del ri[pc]
            col_count[pc] -= 1
    # det = product of pivots times the sign of the permutation that
    # pairs each pivot row with its pivot column
    order = {r: c for r, c in zip(perm_rows, perm_cols)}
    seq = [order[r] for r in sorted(order)]
    sign = 1
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = seq[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return det * sign


def sparse_inverse(rows: list, n: int) -> list:
    """Inverse of a sparse matrix, as sparse rows, in the ring of its
    entries: int rows stay ints wherever qdiv divides exactly.
    Gauss-Jordan with sparsity-greedy pivoting; raises ZeroDivisionError
    when singular."""
    a = [dict(r) for r in rows]
    inv = [{i: 1} for i in range(n)]
    pivot_of_col = {}
    done_rows = set()
    for _ in range(n):
        best = None
        for i in range(n):
            if i in done_rows:
                continue
            live = sorted(c for c in a[i] if c not in pivot_of_col)
            if not live:
                raise ZeroDivisionError("matrix is singular")
            cost = len(live) + len(a[i])
            if best is None or cost < best[0]:
                best = (cost, i, live[0])
            if cost <= 2:
                break
        _, pi, pc = best
        piv = a[pi][pc]
        if piv != 1:
            a[pi] = {c: qdiv(v, piv) for c, v in a[pi].items()}
            inv[pi] = {c: qdiv(v, piv) for c, v in inv[pi].items()}
        for i in range(n):
            if i == pi:
                continue
            f = a[i].get(pc)
            if not f:
                continue
            for c, v in a[pi].items():
                nv = a[i].get(c, 0) - f * v
                if nv == 0:
                    a[i].pop(c, None)
                else:
                    a[i][c] = nv
            for c, v in inv[pi].items():
                nv = inv[i].get(c, 0) - f * v
                if nv == 0:
                    inv[i].pop(c, None)
                else:
                    inv[i][c] = nv
        pivot_of_col[pc] = pi
        done_rows.add(pi)
    out = [None] * n
    for c, i in pivot_of_col.items():
        out[c] = inv[i]
    return out


def sparse_matmul(a: list, b: list) -> list:
    """Product of two sparse matrices given as row dicts."""
    out = []
    for ra in a:
        acc: dict = {}
        for k, v in ra.items():
            if not v:
                continue
            for c, w in b[k].items():
                nv = acc.get(c, Fraction(0)) + v * w
                if nv == 0:
                    acc.pop(c, None)
                else:
                    acc[c] = nv
        out.append(acc)
    return out


def sparse_trace(a: list) -> Fraction:
    return sum((r.get(i, Fraction(0)) for i, r in enumerate(a)), Fraction(0))
