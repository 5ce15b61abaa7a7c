"""Exact linear algebra over the rationals, on sparse rows.

A RatMatrix is a list of rows {column: nonzero entry} beside its shape
(nrows, ncols).  Entries follow Poly's coefficient rule: an int when
integral and a Fraction otherwise, every division going through
poly.qdiv, so an int matrix stays int wherever its pivots divide
exactly.

One routine, _forward, does every elimination's forward sweep in column
order, where a column -> rows index finds the live rows holding each
column and the shortest of them pivots, which keeps fill-in small on the
near-triangular Jacobians of the reduction pipeline (Davis, Direct
Methods for Sparse Linear Systems, SIAM 2006).  A rank and a determinant
read its pivots; _eliminate adds the back-substitution that completes
Gauss-Jordan for the reduced row echelon form, a kernel basis, a
solution and an inverse.  None of these depends on which row pivots.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .poly import as_coeff, qdiv


def _forward(rows: list, ncols: int) -> tuple:
    """(echelon rows, column -> rows index, pivots, product of the pivots)
    for copies of rows, by the forward sweep alone.

    Column by column, the shortest live row holding the column becomes
    its pivot row, is scaled to lead with 1 and clears the column from
    the other live rows.  pivots lists (column, row index) in column
    order and every row that is not a pivot row ends empty; the product
    is taken before scaling.  A rank or a determinant needs nothing more.
    """
    rows = [dict(r) for r in rows]
    holders = [set() for _ in range(ncols)]  # column -> rows holding it
    for i, r in enumerate(rows):
        for c in r:
            holders[c].add(i)
    live = {i for i, r in enumerate(rows) if r}
    pivots = []
    product = 1
    for c in range(ncols):
        if not live:
            break
        candidates = [i for i in holders[c] if i in live]
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        live.discard(p)
        pivots.append((c, p))
        piv = rows[p][c]
        product *= piv
        if piv != 1:
            rows[p] = {k: qdiv(v, piv) for k, v in rows[p].items()}
        _clear(rows, holders, c, p, candidates)
        live.difference_update([i for i in candidates if not rows[i]])
    return rows, holders, pivots, product


def _eliminate(rows: list, ncols: int) -> tuple:
    """(reduced rows, pivots, product of the pivots) for copies of rows:
    _forward, then, last pivot first, each pivot row clears its column
    from the pivot rows above it, so the pivot rows in pivot order are
    the reduced row echelon form."""
    rows, holders, pivots, product = _forward(rows, ncols)
    for c, p in reversed(pivots):
        _clear(rows, holders, c, p, list(holders[c]))
    return rows, pivots, product


def _clear(rows: list, holders: list, c: int, p: int, targets: list) -> None:
    """Subtract from each target row but p its multiple of pivot row p
    that zeroes column c, keeping holders in step."""
    prow = rows[p]
    for i in targets:
        if i == p:
            continue
        row = rows[i]
        f = row[c]
        for k, v in prow.items():
            old = row.get(k)
            if old is None:
                row[k] = as_coeff(-f * v)
                holders[k].add(i)
            else:
                new = old - f * v
                if new:
                    row[k] = as_coeff(new)
                else:
                    del row[k]  # column c itself lands here
                    holders[k].discard(i)


# the unit rows {i: 1}, grown as needed and shared by every identity and
# every affine map read back, which then hold no row of their own
_UNIT_ROWS: list = []


class RatMatrix:
    """An nrows x ncols matrix kept as rows {column: nonzero entry}.

    The constructor takes the rows as they are, so each entry must
    already be stored by Poly's rule; RatMatrix.dense reads nested
    sequences of anything Fraction accepts.  Rows are never changed in
    place, so matrices may share them.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: list, ncols: int):
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    @staticmethod
    def dense(rows: Sequence[Sequence], ncols: Optional[int] = None) -> "RatMatrix":
        """The matrix of a list of equal-length rows; ncols is needed
        only when there are no rows."""
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged matrix")
        return RatMatrix([{j: c for j, c in enumerate(map(as_coeff, row)) if c}
                          for row in rows], ncols)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        _UNIT_ROWS.extend({i: 1} for i in range(len(_UNIT_ROWS), n))
        return RatMatrix(_UNIT_ROWS[:n], n)

    @staticmethod
    def zero(nrows: int, ncols: int) -> "RatMatrix":
        return RatMatrix([{} for _ in range(nrows)], ncols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows

    __hash__ = None

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i].get(j, 0)

    def transpose(self) -> "RatMatrix":
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, a in row.items():
                cols[j][i] = a
        return RatMatrix(cols, self.nrows)

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for row in self.rows:
            acc: dict = {}
            for k, a in row.items():
                for j, b in other.rows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: as_coeff(v) for j, v in acc.items() if v})
        return RatMatrix(out, other.ncols)

    def hstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        n = self.ncols
        return RatMatrix([{**r1, **{n + j: a for j, a in r2.items()}}
                          for r1, r2 in zip(self.rows, other.rows)], n + other.ncols)

    def vstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch in vstack")
        return RatMatrix(self.rows + other.rows, self.ncols)

    def rref(self) -> tuple:
        """(R, pivot columns), R the reduced row echelon form of self with
        its zero rows last; self is not modified."""
        rows, pivots, _ = _eliminate(self.rows, self.ncols)
        reduced = [rows[i] for _, i in pivots]
        reduced += [{} for _ in range(self.nrows - len(pivots))]
        return RatMatrix(reduced, self.ncols), [c for c, _ in pivots]

    def rank(self) -> int:
        return len(_forward(self.rows, self.ncols)[2])

    def row_basis(self) -> "RatMatrix":
        """Rows spanning the row space (nonzero rows of the rref)."""
        reduced, pivots = self.rref()
        return RatMatrix(reduced.rows[:len(pivots)], self.ncols)

    def nullspace_basis(self) -> "RatMatrix":
        """A matrix whose rows are a kernel basis: one per free column fc,
        with 1 at fc and minus the rref's column fc at the pivots."""
        rows, pivots, _ = _eliminate(self.rows, self.ncols)
        pivot_cols = {c for c, _ in pivots}
        basis = {fc: {fc: 1} for fc in range(self.ncols) if fc not in pivot_cols}
        for pc, i in pivots:
            for fc, a in rows[i].items():
                if fc != pc:  # every other entry of a pivot row is free
                    basis[fc][pc] = -a
        return RatMatrix(list(basis.values()), self.ncols)

    def solve_right(self, rhs: "RatMatrix") -> Optional["RatMatrix"]:
        """One X with self @ X = rhs (free unknowns 0), or None when
        inconsistent."""
        if rhs.nrows != self.nrows:
            raise ValueError("shape mismatch in solve")
        n = self.ncols
        rows, pivots, _ = _eliminate(self.hstack(rhs).rows, n + rhs.ncols)
        if pivots and pivots[-1][0] >= n:
            return None
        out = [{} for _ in range(n)]
        for pc, i in pivots:
            out[pc] = {j - n: a for j, a in rows[i].items() if j >= n}
        return RatMatrix(out, rhs.ncols)

    def right_inverse(self) -> Optional["RatMatrix"]:
        """C with self @ C = I, or None when rows are dependent."""
        return self.solve_right(RatMatrix.identity(self.nrows))

    def inverse(self) -> "RatMatrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        inv = self.right_inverse()
        if inv is None:
            raise ZeroDivisionError("matrix is singular")
        return inv

    def __repr__(self) -> str:
        return f"RatMatrix({self.nrows}x{self.ncols})"


# Entry points on the bare rows of an n x n matrix, for the Jacobians
# that maps.classify and reduce.normalize evaluate at points.


def sparse_det(rows: list, n: int):
    """The determinant, as a stored coefficient: the product of
    _forward's pivots times the sign of the permutation that sends each
    pivot row to its column."""
    if len(rows) != n:
        raise ValueError("row count mismatch")
    _, _, pivots, product = _forward(rows, n)
    if len(pivots) < n:
        return 0
    col_of = [0] * n
    for c, i in pivots:
        col_of[i] = c
    # a cycle of length L is L - 1 transpositions
    transpositions = n
    seen = [False] * n
    for start in range(n):
        if not seen[start]:
            transpositions -= 1
            k = start
            while not seen[k]:
                seen[k] = True
                k = col_of[k]
    return as_coeff(-product if transpositions % 2 else product)


def sparse_inverse(rows: list, n: int) -> list:
    """The rows of the inverse, int wherever qdiv divides exactly;
    raises ZeroDivisionError when singular."""
    return RatMatrix(rows, n).inverse().rows
