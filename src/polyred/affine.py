"""Affine automorphisms x -> Mx + v, kept as sparse matrices, and their text.

normalize's translations and straightening, the plane rotation of attrs,
gz's change of coordinates and the coordinate permutations of quadratic
elimination and Meng's symmetrization are affine.  AffineAutomorphism
stores such a map as the sparse rows of M and of its stated inverse N
(RatMatrix) beside the shifts v and w, and checks it by one sparse
product; replay and transport touch only the moved rows, those that are
not x_i itself.  A unit row, {j: 1} with zero shift, copies coordinate
j: it is checked by one comparison with N's row j, replayed and
transported by a copy, and a map of unit rows alone that permutes the
coordinates is pre-composed by relabelling variables.  The replay
helpers here also serve certs' shear.

A certificate spells an affine map out as a map document.  affine_text
writes it from the rows, byte for byte what textio's map printer writes
for the same map, and read_affine reads such a text back without
parse_map: a bare-name line, a unit row, by one lookup, any other line
by the grammar's expression reader, whose ParseError means the line is
not affine, and a byte-for-byte re-encode, so it accepts exactly the
texts affine_text writes.  This module is apart from certs and textio
because compiling a module from source at import allocates in
proportion to its size, and textio is compiled late, when that
allocation sets the resident size.
"""

from __future__ import annotations

from math import lcm
from typing import Optional, Sequence

from .grammar import ParseError, _terms_text, read_expression
from .linalg import RatMatrix
from .maps import PolyMap
from .poly import Poly, as_coeff, qdiv


class AffineAutomorphism:
    """x -> Mx + v with its stated inverse x -> Nx + w: the sparse rows of
    M and N (RatMatrix) beside the shift lists v and w.  Row i is moved
    unless it is x_i itself, and a unit row, {j: 1} with zero shift,
    copies coordinate j; replay and transport touch only moved rows, and
    copy what a unit row copies.  A coordinate permutation is the map
    whose every row is a unit row."""

    __slots__ = ("m", "shift", "inv", "inv_shift", "label", "dim", "units", "inv_units")

    def __init__(self, m: RatMatrix, shift, inv: RatMatrix, inv_shift, label: str = ""):
        n = m.nrows
        if {m.ncols, inv.nrows, inv.ncols, len(shift), len(inv_shift)} != {n}:
            raise ValueError("an affine automorphism needs square matrices and shifts of one size")
        self.m, self.shift, self.inv, self.inv_shift = m, list(shift), inv, list(inv_shift)
        self.label, self.dim = label, n
        self.units = _unit_columns(m.rows, self.shift)
        self.inv_units = _unit_columns(inv.rows, self.inv_shift)

    @staticmethod
    def from_linear(m: RatMatrix, inverse_m: RatMatrix, label: str = "") -> "AffineAutomorphism":
        """x -> m x, with x -> inverse_m x as its stated inverse (checked
        by verify_two_sided)."""
        return AffineAutomorphism(m, [0] * m.nrows, inverse_m, [0] * m.nrows, label)

    @staticmethod
    def translation(vec, label: str = "") -> "AffineAutomorphism":
        eye = RatMatrix.identity(len(vec))
        shift = [as_coeff(v) for v in vec]
        return AffineAutomorphism(eye, shift, eye, [-v for v in shift], label)

    @staticmethod
    def permutation(n: int, perm, label: str = "") -> "AffineAutomorphism":
        """Sends x to (x[perm[0]], ..., x[perm[n-1]]): row i of M is the
        identity's unit row perm[i], and the inverse is M's transpose."""
        if len(perm) != n or set(perm) != set(range(n)):
            raise ValueError("not a permutation")
        units = RatMatrix.identity(n).rows
        back = sorted(range(n), key=perm.__getitem__)
        return AffineAutomorphism.from_linear(RatMatrix([units[j] for j in perm], n),
                                              RatMatrix([units[i] for i in back], n), label)

    def verify_two_sided(self) -> Optional[str]:
        """None when M N = I and M w + v = 0, else the general route's
        reason.  Those two say that x -> Mx + v after x -> Nx + w is the
        identity.  M is square, so N M = I follows, and the other order
        sends x to N(Mx + v) + w = x + N(v + M w) = x.  For a unit row
        i -> j of M, row i of M N is N's row j and row i of M w + v is
        w_j, so N's row j must be the unit row x_i with zero shift; only
        the other rows are multiplied."""
        rows, shift, w, units = self.m.rows, self.shift, self.inv_shift, self.units
        others = [i for i, j in enumerate(units) if j is None]
        if any(self.inv_units[j] != i for i, j in enumerate(units) if j is not None):
            return "forward after inverse is not the identity"
        product = RatMatrix([rows[i] for i in others], self.dim) * self.inv
        if any(row != {i: 1} for i, row in zip(others, product.rows)) \
                or any(sum([a * w[k] for k, a in rows[i].items()], shift[i]) for i in others):
            return "forward after inverse is not the identity"
        return None

    def post(self, f: PolyMap) -> PolyMap:
        """f's components recombined by the moved rows; a unit row i -> j
        takes component j and its summary entry as they are."""
        rows, shift, units, comps = self.m.rows, self.shift, self.units, f.components
        out = list(comps)
        tops = None if f.tops is None else list(f.tops)
        for i in _moved(units):
            j = units[i]
            out[i] = comps[j] if j is not None else _combination(rows[i], shift[i], comps, f.n_in)
            if tops is not None:
                tops[i] = f.tops[j] if j is not None else out[i].top_index()
        return PolyMap(out, tops)

    def pre(self, f: PolyMap) -> PolyMap:
        """f after x -> Mx + v: relabelled when M permutes the
        coordinates, else substituted into the components that read a
        moved variable."""
        rows, shift, units, n = self.m.rows, self.shift, self.units, self.dim
        moved = _moved(units)
        if moved and None not in units and len(set(units)) == n:
            return _relabel(f, units)
        return _substitute_moved(f, set(moved), lambda j: _affine_poly(n, rows[j], shift[j]))

    def push(self, y: list) -> list:
        """M y + v, the rows that are y_i itself left and unit rows copied."""
        return _affine_image(self.m.rows, self.shift, self.units, y)

    def pull(self, x: list) -> list:
        return _affine_image(self.inv.rows, self.inv_shift, self.inv_units, x)

    def __repr__(self) -> str:
        return f"AffineAutomorphism(dim={self.dim}, {self.label or 'affine'})"


def _unit_columns(rows: list, shift: list) -> list:
    """For each row i, j when it is the unit row {j: 1} with zero shift,
    which copies coordinate j, else None."""
    return [next(iter(row)) if len(row) == 1 and not c and 1 in row.values() else None
            for row, c in zip(rows, shift)]


def _moved(units: list) -> list:
    """The indices i whose row is not x_i itself."""
    return [i for i, j in enumerate(units) if j != i]


def _affine_image(rows: list, shift: list, units: list, y: list) -> list:
    """rows y + shift, with units as _unit_columns gives them."""
    out = list(y)
    for i in _moved(units):
        j = units[i]
        out[i] = y[j] if j is not None else sum([a * y[k] for k, a in rows[i].items()], shift[i])
    return out


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


def _relabel(f: PolyMap, perm) -> PolyMap:
    """f after x -> x[perm]: variable v of every monomial becomes perm[v],
    the pairs re-sorted by index, coefficients and term order untouched.
    Each (v, e) pair is rewritten once per call and the new pair shared by
    every monomial that reads it, as Poly.variable shares the pairs of a
    substitution, and a bare variable becomes Poly.variable's, as parsing
    builds it; the summary is rebuilt on the way."""
    n = len(perm)
    pairs: dict = {}
    comps = []
    tops = []
    for c in f.components:
        ((m, coeff),) = c.terms.items() if len(c.terms) == 1 else (((), 0),)
        if coeff == 1 and len(m) == 1 and m[0][1] == 1:
            comps.append(Poly.variable(n, perm[m[0][0]]))
            tops.append(perm[m[0][0]])
            continue
        terms = {}
        top = -1
        for m, coeff in c.terms.items():
            rel = []
            for pair in m:
                q = pairs.get(pair)
                if q is None:
                    q = pairs[pair] = (perm[pair[0]], pair[1])
                rel.append(q)
            if rel:
                if len(rel) > 1:
                    rel.sort()
                if rel[-1][0] > top:
                    top = rel[-1][0]
            terms[tuple(rel)] = coeff
        comps.append(Poly(n, terms))
        tops.append(top)
    return PolyMap(comps, tops)


def _affine_expr(row: dict, c, names: Sequence[str]) -> str:
    """poly_text of the form row x + c, written from the row."""
    terms = [(str(a), names[j]) for j, a in sorted(row.items())]
    if c:
        terms.append((str(c), ""))
    return _terms_text(terms) or "0"


def affine_text(rows: list, shift: list, units: list, names: Sequence[str]) -> str:
    """The map document of x -> rows x + shift over names, components f1,
    f2, ..., written from the rows; a unit row, given by units as
    _unit_columns gives them, is its bare name."""
    exprs = [names[j] if j is not None else _affine_expr(row, c, names)
             for row, c, j in zip(rows, shift, units)]
    return "\n".join(["vars " + " ".join(names[:len(rows)])]
                     + [f"poly f{i} = {e}" for i, e in enumerate(exprs, 1)] + [""])


def read_affine(text: str, names: Sequence[str], index: dict, n: int) -> Optional[tuple]:
    """(M, shift) with text the affine_text of M.rows and shift over names
    for n rows, else None; index sends each name to its position.  A bare
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
            try:
                p = read_expression(expr, index, n)
            except ParseError:
                return None
            if any(len(m) > 1 or m[0][1] > 1 for m in p.terms if m):
                return None
            row, c = {m[0][0]: a for m, a in p.terms.items() if m}, p.terms.get((), 0)
            if _affine_expr(row, c, names) != expr:
                return None
        if head != f"poly f{i + 1}":
            return None
        rows.append(row)
        shift.append(c)
    return RatMatrix(rows, n), shift
