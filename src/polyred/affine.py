"""Affine automorphisms x -> Mx + v, kept as sparse matrices, and their text.

normalize's translations and straightening, the plane rotation of attrs
and gz's change of coordinates are affine.  AffineAutomorphism stores
such a map as the sparse rows of M and of its stated inverse N
(RatMatrix) beside the shifts v and w, and checks it by one sparse
product; replay and transport touch only the moved rows, those that are
not x_i itself.  The replay helpers here also serve certs' shear.

A certificate spells an affine map out as a map document.  affine_text
writes it from the rows, byte for byte what textio's map printer writes
for the same map, and read_affine reads such a text back without the
parser: a bare-name line by one lookup, any other line by the grammar's
canonical route and a byte-for-byte re-encode, so it accepts exactly
the texts affine_text writes.  This module is apart from certs and
textio because compiling a module from source at import allocates in
proportion to its size, and textio is compiled late, when that
allocation sets the resident size.
"""

from __future__ import annotations

from math import lcm
from typing import Optional, Sequence

from .grammar import _canonical, _terms_text
from .linalg import RatMatrix
from .maps import PolyMap
from .poly import Poly, qdiv


class AffineAutomorphism:
    """x -> Mx + v with its stated inverse x -> Nx + w: the sparse rows of
    M and N (RatMatrix) beside the shift lists v and w.  Row i is moved
    unless it is x_i itself; replay and transport touch only moved rows."""

    __slots__ = ("m", "shift", "inv", "inv_shift", "label", "dim")

    def __init__(self, m: RatMatrix, shift, inv: RatMatrix, inv_shift, label: str = ""):
        n = m.nrows
        if {m.ncols, inv.nrows, inv.ncols, len(shift), len(inv_shift)} != {n}:
            raise ValueError("an affine automorphism needs square matrices and shifts of one size")
        self.m, self.shift, self.inv, self.inv_shift = m, list(shift), inv, list(inv_shift)
        self.label, self.dim = label, n

    def verify_two_sided(self) -> Optional[str]:
        """None when M N = I and M w + v = 0, else the general route's
        reason.  Those two say that x -> Mx + v after x -> Nx + w is the
        identity.  M is square, so N M = I follows, and the other order
        sends x to N(Mx + v) + w = x + N(v + M w) = x."""
        if self.m * self.inv != RatMatrix.identity(self.dim) or any(self.push(self.inv_shift)):
            return "forward after inverse is not the identity"
        return None

    def post(self, f: PolyMap) -> PolyMap:
        rows, shift, comps = self.m.rows, self.shift, f.components
        return _with_rows(f, {i: _combination(rows[i], shift[i], comps, f.n_in)
                              for i in _moved(rows, shift)})

    def pre(self, f: PolyMap) -> PolyMap:
        rows, shift, n = self.m.rows, self.shift, self.dim
        return _substitute_moved(f, set(_moved(rows, shift)),
                                 lambda j: _affine_poly(n, rows[j], shift[j]))

    def push(self, y: list) -> list:
        """M y + v, the rows that are y_i itself copied."""
        rows, shift = self.m.rows, self.shift
        out = list(y)
        for i in _moved(rows, shift):
            out[i] = sum([a * y[j] for j, a in rows[i].items()], shift[i])
        return out

    def pull(self, x: list) -> list:
        return AffineAutomorphism(self.inv, self.inv_shift, self.m, self.shift).push(x)

    def __repr__(self) -> str:
        return f"AffineAutomorphism(dim={self.dim}, {self.label or 'affine'})"


def _moved(rows: list, shift: list) -> list:
    """The indices i where row i and shift i are not x_i itself."""
    return [i for i, row in enumerate(rows) if shift[i] or len(row) != 1 or row.get(i) != 1]


def _affine_poly(n: int, row: dict, c) -> Poly:
    """The form row x + c: its terms in column order, the constant last."""
    terms = {((j, 1),): a for j, a in sorted(row.items())}
    return Poly(n, {**terms, (): c} if c else terms)


def _combination(row: dict, c, comps: list, varcount: int) -> Poly:
    """sum_j row[j] comps[j] + c, with the terms, order and coefficient
    types of substituting comps into _affine_poly(row, c), summed as
    integer numerators over the lcm D of the row's denominators."""
    den = lcm(c.denominator, *[a.denominator for a in row.values()])
    parts = [(a, comps[j].terms) for j, a in sorted(row.items())]
    parts += [(c, {(): 1})] if c else []
    acc: dict = {}
    for a, terms in parts:
        a = a.numerator * (den // a.denominator)
        for mono, coeff in terms.items():
            v = a * coeff
            s = acc.get(mono)
            if s is None:
                acc[mono] = v
            elif s := s + v:
                acc[mono] = s
            else:
                del acc[mono]
    return Poly(varcount, {mono: qdiv(s, den) for mono, s in acc.items()})


def _with_rows(f: PolyMap, new: dict) -> PolyMap:
    """f with component i replaced by new[i]; a summary f has stays exact."""
    out = list(f.components)
    tops = None if f.tops is None else list(f.tops)
    for i, p in new.items():
        out[i] = p
        if tops is not None:
            tops[i] = p.top_index()
    return PolyMap(out, tops)


def _substitute_moved(f: PolyMap, moved, image) -> PolyMap:
    """f after x_j -> image(j) for j in moved, substituted only into the
    components that read a moved variable: f's summary (top_indices)
    skips those whose highest index is below every moved one."""
    n = f.n_in
    lowest = min(moved, default=n)
    out = list(f.components)
    tops = list(f.top_indices())
    images = None
    for i, top in enumerate(tops):
        if top < lowest:
            continue
        used = out[i].variables_used()
        if used.isdisjoint(moved):
            continue
        if images is None:
            # an unread slot keeps this shared zero (substitute reads its
            # variable count); identity images are fresh, not Poly.variable's,
            # whose cache would keep a Poly per (dimension, index) visited
            unread = Poly(n)
            images = [unread] * n
            for j in moved:
                images[j] = image(j)
        for v in used:
            if images[v] is unread:
                images[v] = Poly(n, {((v, 1),): 1})
        out[i] = out[i].substitute(images)
        tops[i] = out[i].top_index()
    return PolyMap(out, tops)


def _affine_expr(row: dict, c, names: Sequence[str]) -> str:
    """poly_text of the form row x + c, written from the row."""
    terms = [(str(a), names[j]) for j, a in sorted(row.items())]
    if c:
        terms.append((str(c), ""))
    return _terms_text(terms) or "0"


def affine_text(rows: list, shift: list, names: Sequence[str]) -> str:
    """The map document of x -> rows x + shift over names, components f1,
    f2, ..., written from the rows."""
    return "\n".join(["vars " + " ".join(names[:len(rows)])]
                     + [f"poly f{i + 1} = {_affine_expr(row, c, names)}"
                        for i, (row, c) in enumerate(zip(rows, shift))] + [""])


def read_affine(text: str, names: Sequence[str], index: dict, n: int) -> Optional[tuple]:
    """(M, shift) with text == affine_text(M.rows, shift, names) for n
    rows, else None; index sends each name to its position.  A bare
    variable's row is the identity's shared one, as a parsed bare variable
    is Poly.variable's."""
    lines = text.split("\n")
    if lines[0] != "vars " + " ".join(names[:n]) or lines[-1]:
        return None
    units = RatMatrix.identity(n).rows
    rows, shift = [], []
    for i, line in enumerate(lines[1:-1]):
        head, _, expr = line.partition(" = ")
        j = index.get(expr, n)
        if j < n:  # a bare name, the commonest line
            row, c = units[j], 0
        else:
            p = _canonical(expr, 0, index, n)
            if p is None or any(len(m) > 1 or m[0][1] > 1 for m in p.terms if m):
                return None
            row, c = {m[0][0]: a for m, a in p.terms.items() if m}, p.terms.get((), 0)
            if _affine_expr(row, c, names) != expr:
                return None
        if head != f"poly f{i + 1}":
            return None
        rows.append(row)
        shift.append(c)
    return RatMatrix(rows, n), shift
