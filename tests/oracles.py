"""Slow, independent reference routes that the fast code in src/ is tested against.

Nothing in polyred calls these.  Each one is the implementation a fast
path replaced, kept here so that a differential test can compare the
two on random inputs:

  * the Fraction remainder chain (gcd, squarefree part, Sturm count) of
    a univariate polynomial over Q, which elim.squarefree_part and
    elim.count_real_roots replaced with the integer kernel;
  * the Sylvester determinant, built from uni_coeffs (the coefficients
    of a Poly in one distinguished variable): the independent route for
    elim.resultant and for the fiber witness of attrs, both of which run
    the integer kernel;
  * the g*h^delta subresultant loop over Z[x1][x2], which elim.z_resultant
    replaced with Lazard's and Ducos' steps; elim._subresultant alone,
    the Ducos-only route, is what z_resultant's Euclidean prefix is held
    against;
  * the gcd route of elim.z_squarefree, which runs whenever its mod-p
    certificate does not settle the input;
  * a dense Bareiss determinant for linalg.sparse_det;
  * DenseRatMatrix, the matrix that held a Fraction in every entry and
    ran its own rref, with everything built on it (rank, row basis,
    kernel, solve, inverses), and the Markowitz determinant and the
    sparsity-greedy Gauss-Jordan inverse that sparse_det and
    sparse_inverse ran; linalg's one column-order elimination replaced
    all three;
  * the padding of gz.pair_up that re-ranked Q with each trial basis row
    appended, which one elimination of Q with its columns reversed
    replaced;
  * the fully homogenizing form of certs.substitute_rational;
  * the two-route check of a general automorphism (a PolyMap inverse
    composed both ways, with PolyMap.is_identity, and a RationalMap one
    checked in the fraction field), which one route over a rational
    inverse, a polynomial one being over the denominator 1, replaced;
  * the long division that rescans and copies the remainder at every
    step, which Poly.exact_divide replaced with a one-pass heap loop;
  * the term-by-term integer evaluation at one point, which
    maps._block_values replaced with column-wise evaluation of a block
    of points;
  * the parser that evaluated an expression with Poly arithmetic, which
    the two-route reader's _ExprParser replaced with one that builds
    terms directly;
  * the two-route reader of the map text: a canonical route for text as
    textio prints it, and a lexer that holds a whole line as tokens
    before its recursive-descent parser reads it, which grammar._Reader
    replaced with one reader that takes tokens one at a time and tries
    each term whole first;
  * the Segre move by substitution and exact division, which
    certs.apply_move replaced with a monomial rewrite;
  * the pre-composed shear that builds all n identity images and scans
    every component's variables, which certs.apply_move replaced with a
    scan of only the components whose highest index reaches a shifted
    one;
  * the coordinate permutation stored as its forward and inverse maps of
    bare variables, replayed by PolyMap.compose, checked by symbolic
    two-sided composition and transported by eval_at, which
    affine.AffineAutomorphism.permutation replaced with unit rows: replay
    reorders components or relabels variables, the check compares one
    row of the inverse per row, and transport copies coordinates;
  * the decode of a permutation that parsed both of its map texts and
    then recognized them as mutually inverse maps of bare variables,
    which affine.read_affine replaced with one lookup per bare-name line;
  * PolyMap.translation, the map x -> x + vec, which normalize built as a
    general automorphism before affine.AffineAutomorphism stored it as
    its shift;
  * the base-point search of reduce.normalize that accepted a Fraction
    point by sparse_det and then eliminated the same Jacobian again with
    sparse_inverse, which one sparse_inverse per candidate replaced;
  * the cube decomposition of gz.pair_up on dense length-m form vectors,
    each normalized with Fraction, lcm and gcd, once in decompose_cubes
    and again in pair_up's pool; polarization into sparse primitive
    integer keys replaced both;
  * B F(C x) of a pairing by composing the expanded cubic linear map F
    with C, which gz._pushed_down replaced with the cubes of A C's forms
    in the small dimension;
  * the shape checks on F - X that each built f_i - x_i as a new Poly
    first (has_identity_linear_part with the constant terms, is_yagzhev,
    segre_step's precondition and eliminate_quadratic's split of
    (X + tQ + t^2 C, t)), which maps.terms_minus_x replaced with one
    scan of f_i's own terms;
  * FractionPoly, the Poly whose every coefficient was a Fraction, which
    int-or-Fraction coefficients replaced (its eval_at, in Fractions
    throughout, is also the reference for ratpoint.RationalPoint's integer
    evaluation), and the Poly helpers only the
    tests use (mono_to_dense, mono_from_dense, from_terms, coefficient,
    linear_part, homogeneous_components);
  * the ladders over move classes and JSON tags: apply_move, _transport,
    move_to_json, move_from_json and certificate_from_json's dimension
    walk, each an isinstance or tag test per kind, which the move classes'
    tag, auto, dims, replay and transport and one tag table replaced.
"""

from __future__ import annotations

import math
import random
import re
import time
from fractions import Fraction
from typing import Optional, Sequence

from polyred import certs
from polyred.affine import AffineAutomorphism
from polyred.certs import (Automorphism, Certificate, CertificateBuilder, ExtendFreshVars,
                           PostCompose, PreCompose, SegreExtend)
from polyred.elim import _q_trim, poly_matrix_det, q_derive, z_exact_div, z_gcd, z_mul, z_sub
from polyred.grammar import MAX_EXPONENT, MAX_NESTING, RESERVED, ParseError, _poly
from polyred.linalg import RatMatrix, sparse_det, sparse_inverse
from polyred.maps import (DEFAULT_BUDGET, GenericityError, PolyMap, eval_jacobian_sparse,
                          sparse_jacobian)
from polyred.poly import (ExactDivisionError, GRLEX_KEY, Poly, ZERO_MONO, as_coeff,
                          mono_degree, mono_div, mono_divides, mono_exponent, mono_mul, qdiv)
from polyred.reduce import _check_time
from polyred.textio import (_dim_field, _field, _map_from_text, automorphism_from_json,
                            automorphism_to_json, parse_map)


def uni_coeffs(p: Poly, var: int) -> list:
    """Coefficient list [c0, c1, ...] of p in the distinguished variable.

    Coefficients are Poly values in the same ambient space that do not
    use `var`.  The zero polynomial gives [].
    """
    if p.is_zero():
        return []
    d = p.degree_in(var)
    out = [{} for _ in range(d + 1)]
    for m, c in p.terms.items():
        e = 0
        rest = []
        for v, k in m:
            if v == var:
                e = k
            else:
                rest.append((v, k))
        out[e][tuple(rest)] = c  # m -> (e, rest) is one to one
    return [Poly(p.varcount, t) for t in out]


def uni_assemble(coeffs: list, var: int, varcount: int) -> Poly:
    """The Poly sum coeffs[e] * x_var^e, inverse to uni_coeffs."""
    out = Poly(varcount)
    xv = Poly.variable(varcount, var)
    for e, c in enumerate(coeffs):
        if not c.is_zero():
            out = out + c * xv ** e
    return out


# -- univariate polynomials over Q, on Fraction coefficient lists -----------


def _require_univariate(p: Poly) -> int:
    used = p.variables_used()
    if len(used) > 1:
        raise ValueError("polynomial is not univariate")
    return next(iter(used)) if used else 0


def q_coeffs(p: Poly) -> list:
    """[c0, c1, ...] as Fractions for a univariate polynomial."""
    var = _require_univariate(p)
    if p.is_zero():
        return []
    out = [Fraction(0)] * (p.degree_in(var) + 1)
    for m, c in p.terms.items():
        out[m[0][1] if m else 0] = Fraction(c)
    return out


def _q_rem(a: list, b: list) -> list:
    r = list(a)
    db = len(b) - 1
    inv = Fraction(1) / b[-1]
    while len(r) - 1 >= db and r:
        f = r[-1] * inv
        k = len(r) - 1 - db
        for i in range(db):
            r[k + i] -= f * b[i]
        r.pop()
        _q_trim(r)
    return r


def q_gcd(a: list, b: list) -> list:
    """Monic gcd of univariate rational coefficient lists."""
    a, b = _q_trim(list(a)), _q_trim(list(b))
    while b:
        a, b = b, _q_rem(a, b)
    if not a:
        return []
    lc = a[-1]
    return [Fraction(c) / lc for c in a]


def _q_divide(a: list, b: list) -> list:
    """Exact quotient of coefficient lists."""
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    r = list(a)
    db = len(b) - 1
    while _q_trim(r) and len(r) - 1 >= db:
        f = Fraction(r[-1]) / b[-1]
        k = len(r) - 1 - db
        q[k] = f
        for i in range(db + 1):
            r[k + i] -= f * b[i]
        _q_trim(r)
    if r:
        raise ExactDivisionError("univariate division is not exact")
    return q


def squarefree_part(p: Poly) -> Poly:
    """p with repeated factors collapsed: p / gcd(p, p')."""
    var = _require_univariate(p)
    c = q_coeffs(p)
    if len(c) <= 1:
        return p
    g = q_gcd(c, q_derive(c))
    if len(g) == 1:
        out = c
    else:
        out = _q_divide(c, g)
    return uni_assemble([Poly.const(p.varcount, x) for x in out], var, p.varcount)


def sturm_chain(p: Poly) -> list:
    """Sturm sequence of a univariate polynomial, as coefficient lists."""
    c = _q_trim(q_coeffs(p))
    if not c:
        raise ValueError("Sturm chain of the zero polynomial")
    chain = [c]
    d = q_derive(c)
    if _q_trim(list(d)):
        chain.append(d)
        while True:
            r = _q_rem(chain[-2], chain[-1])
            if not r:
                break
            chain.append([-x for x in r])
    return chain


def _q_eval(c: list, x: Fraction) -> Fraction:
    v = Fraction(0)
    for coef in reversed(c):
        v = v * x + coef
    return v


def _variations(chain: list, x: Fraction) -> int:
    signs = []
    for c in chain:
        v = _q_eval(c, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def _variations_at_inf(chain: list, positive: bool) -> int:
    signs = []
    for c in chain:
        lc = c[-1]
        s = 1 if lc > 0 else -1
        if not positive and (len(c) - 1) % 2 == 1:
            s = -s
        signs.append(s)
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def sturm_count(p: Poly, lo: Optional[Fraction] = None, hi: Optional[Fraction] = None) -> int:
    """Number of distinct real roots in (lo, hi]; None means +-infinity.

    Endpoints must not be roots of p when finite.
    """
    chain = sturm_chain(p)
    if len(chain[0]) <= 1:
        return 0
    va = _variations(chain, Fraction(lo)) if lo is not None else _variations_at_inf(chain, False)
    vb = _variations(chain, Fraction(hi)) if hi is not None else _variations_at_inf(chain, True)
    return va - vb


def count_real_roots(p: Poly) -> int:
    """Distinct real roots of a univariate polynomial (no squarefree
    assumption; the Sturm chain collapses multiplicity by itself)."""
    return sturm_count(p)


# -- resultants and determinants --------------------------------------------


def sylvester_matrix(f: Poly, g: Poly, var: int) -> list:
    """Sylvester matrix as nested lists of coefficient Polys."""
    a = uni_coeffs(f, var)
    b = uni_coeffs(g, var)
    da, db = len(a) - 1, len(b) - 1
    if da < 0 or db < 0:
        raise ValueError("Sylvester matrix of a zero polynomial")
    n = f.varcount
    size = da + db
    zero = Poly(n)
    rows = []
    for i in range(db):
        row = [zero] * size
        for k, c in enumerate(reversed(a)):
            row[i + k] = c
        rows.append(row)
    for i in range(da):
        row = [zero] * size
        for k, c in enumerate(reversed(b)):
            row[i + k] = c
        rows.append(row)
    return rows


def sylvester_resultant(f: Poly, g: Poly, var: int) -> Poly:
    """Reference resultant: determinant of the Sylvester matrix.

    Exponentially slower than elim.resultant on real inputs; kept as the
    independent second route.
    """
    if f.varcount != g.varcount:
        raise ValueError("variable count mismatch")
    n = f.varcount
    if f.is_zero() or g.is_zero():
        return Poly(n)
    if f.degree_in(var) == 0 and g.degree_in(var) == 0:
        return Poly.const(n, 1)
    return poly_matrix_det(sylvester_matrix(f, g, var), n)


def z_pow(a: list, k: int) -> list:
    out = [1]
    for _ in range(k):
        out = z_mul(out, a)
    return out


def _zz_prem(a: list, b: list) -> list:
    """Pseudo-remainder lc(b)^(da-db+1) * a mod b in Z[x1][x2]."""
    da, db = len(a) - 1, len(b) - 1
    d = b[-1]
    r = list(a)
    for j in range(da - db, -1, -1):
        if len(r) - 1 == db + j:
            top = r[-1]
            r = [z_mul(d, c) for c in r[:-1]]
            for i, bc in enumerate(b[:-1]):
                r[j + i] = z_sub(r[j + i], z_mul(top, bc))
            _q_trim(r)
        else:
            r = [z_mul(d, c) for c in r]
    return _q_trim(r)


def z_resultant(a: list, b: list) -> list:
    """Res_{x2}(a, b) in Z[x1], for a, b in Z[x1][x2], by the subresultant
    PRS with the classical g*h^delta normalization; every division is
    exact over Z."""
    if not a or not b:
        return []
    da, db = len(a) - 1, len(b) - 1
    if da == 0 and db == 0:
        return [1]
    sign = 1
    if da < db:
        a, b, da, db = b, a, db, da
        if da % 2 == 1 and db % 2 == 1:
            sign = -1
    if db == 0:
        return [sign * c for c in z_pow(b[0], da)]
    g_ = [1]
    h_ = [1]
    while True:
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        r = _zz_prem(a, b)
        if not r:
            return []  # nonconstant common factor
        divisor = z_mul(g_, z_pow(h_, delta))
        a, da = b, db
        b = [z_exact_div(c, divisor) for c in r]
        db = len(b) - 1
        g_ = a[-1]
        if delta == 1:
            h_ = g_
        elif delta > 1:
            h_ = z_exact_div(z_pow(g_, delta), z_pow(h_, delta - 1))
        if db == 0:
            break
    c = b[0]
    if da != 1:
        c = z_exact_div(z_pow(c, da), z_pow(h_, da - 1))
    return [sign * x for x in c]


def z_squarefree(a: list) -> tuple:
    """(q, lead) with a = q * G for G = z_gcd(a, a') and lead = lc(G)."""
    if len(a) <= 1:
        return list(a), 1
    g = z_gcd(a, q_derive(a))
    return z_exact_div(a, g), g[-1]


def dense_det(rows: list) -> Fraction:
    """Determinant of a square matrix of rationals by fraction-free
    (Bareiss) elimination.

    Rows are scaled to integers first so the elimination runs in pure
    integer arithmetic; the scale comes back out at the end.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    scale = 1
    m = []
    for row in rows:
        row = [Fraction(x) for x in row]
        L = 1
        for x in row:
            L = L * x.denominator // math.gcd(L, x.denominator)
        scale *= L
        m.append([int(x * L) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - mik * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return Fraction(sign * m[n - 1][n - 1], scale)


# -- dense matrices and the eliminations linalg replaced ----------------------


class DenseRatMatrix:
    """A matrix with a Fraction in every entry and its own rref."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence], ncols: Optional[int] = None):
        self.rows = [[Fraction(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = ncols if ncols is not None else len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged matrix")

    @staticmethod
    def of(m: RatMatrix) -> "DenseRatMatrix":
        return DenseRatMatrix([[m[i, j] for j in range(m.ncols)] for i in range(m.nrows)],
                              m.ncols)

    def to_sparse(self) -> RatMatrix:
        return RatMatrix.dense(self.rows, self.ncols)

    @staticmethod
    def identity(n: int) -> "DenseRatMatrix":
        return DenseRatMatrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)], n)

    def hstack(self, other: "DenseRatMatrix") -> "DenseRatMatrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        return DenseRatMatrix([r1 + r2 for r1, r2 in zip(self.rows, other.rows)],
                              self.ncols + other.ncols)

    def rref(self):
        """(reduced rows, pivot column list); self is not modified."""
        rows = [list(row) for row in self.rows]
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

    def row_basis(self) -> "DenseRatMatrix":
        rows, pivots = self.rref()
        return DenseRatMatrix(rows[: len(pivots)], self.ncols)

    def nullspace_basis(self) -> "DenseRatMatrix":
        """Kernel basis vectors as rows."""
        rows, pivots = self.rref()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            v = [Fraction(0)] * self.ncols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -rows[r][fc]
            basis.append(v)
        return DenseRatMatrix(basis, self.ncols)

    def inverse(self) -> "DenseRatMatrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        rows, pivots = self.hstack(DenseRatMatrix.identity(n)).rref()
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return DenseRatMatrix([row[n:] for row in rows[:n]], n)

    def solve_right(self, rhs: "DenseRatMatrix"):
        """One X with self @ X = rhs, or None when inconsistent."""
        if rhs.nrows != self.nrows:
            raise ValueError("shape mismatch in solve")
        rows, pivots = self.hstack(rhs).rref()
        if any(p >= self.ncols for p in pivots):
            return None
        out = [[Fraction(0)] * rhs.ncols for _ in range(self.ncols)]
        for r, pc in enumerate(pivots):
            for j in range(rhs.ncols):
                out[pc][j] = rows[r][self.ncols + j]
        return DenseRatMatrix(out, rhs.ncols)

    def right_inverse(self):
        return self.solve_right(DenseRatMatrix.identity(self.nrows))


def markowitz_det(rows: list, n: int) -> Fraction:
    """The determinant of sparse rows by greedy Markowitz pivoting, each
    pivot found by scanning every live row."""
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


def greedy_inverse(rows: list, n: int) -> list:
    """The inverse of sparse rows by Gauss-Jordan, each pivot row the
    live row of least cost (live entries plus all entries); raises
    ZeroDivisionError when singular."""
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


def pad_by_trial_ranks(q_rows: list, m: int) -> list:
    """The standard basis rows gz.pair_up appends to Q, found as it first
    found them: e_0, e_1, ... in turn, each kept when it raises the rank
    of the rows so far."""
    rank = DenseRatMatrix(q_rows, m).rank()
    padded = list(q_rows)
    for i in range(m):
        if rank == m:
            break
        e = [Fraction(int(j == i)) for j in range(m)]
        if DenseRatMatrix(padded + [e], m).rank() > rank:
            padded.append(e)
            rank += 1
    return padded[len(q_rows):]


# -- rational substitution ----------------------------------------------------


def substitute_rational(p: Poly, nums, den: Poly):
    """p(nums/den) written over a single denominator: returns (q, k) with
    p(nums/den) = q / den**k and k = max(deg p, 0).

    q is the homogenization of p in one extra variable h, each term
    c*x^m becoming c*x^m*h^(k - deg m), with nums substituted for x and
    den for h.
    """
    k = p.degree() or 0
    h = p.varcount
    hom = {}
    for m, c in p.terms.items():
        pad = k - mono_degree(m)
        hom[m + ((h, pad),) if pad else m] = c
    return Poly(h + 1, hom).substitute(list(nums) + [den]), k


# -- the two-route check of a general automorphism ---------------------------------


def is_identity(f: PolyMap) -> bool:
    """PolyMap.is_identity: f is the identity map x -> x."""
    return f.is_endomorphism() and f == PolyMap.identity(f.n_in)


def verify_two_sided(forward: PolyMap, inverse) -> Optional[str]:
    """Automorphism.verify_two_sided when its inverse was a PolyMap or a
    RationalMap, each checked by its own route: a PolyMap by composing
    both ways, a RationalMap in the fraction field, forward after inverse
    one component at a time, dividing every numerator by the denominator
    again for each one."""
    n = forward.n_in
    if isinstance(inverse, PolyMap):
        if inverse.n_in != n or inverse.n_out != n:
            return "inverse has the wrong shape"
        if not is_identity(forward.compose(inverse)):
            return "forward after inverse is not the identity"
        if not is_identity(inverse.compose(forward)):
            return "inverse after forward is not the identity"
        return None
    if inverse.n_in != n or inverse.n_out != n:
        return "rational inverse has the wrong shape"
    for i, comp in enumerate(forward.components):
        ((q, k),) = certs.substitute_rational([comp], inverse.nums, inverse.den)
        if q != Poly.variable(n, i) * inverse.den ** k:
            return f"forward after rational inverse fails on component {i}"
    den_f = inverse.den.substitute(forward.components)
    for i, num in enumerate(inverse.nums):
        if num.substitute(forward.components) != Poly.variable(n, i) * den_f:
            return f"rational inverse after forward fails on component {i}"
    return None


# -- exact division and integer evaluation ------------------------------------


def long_divide(a: Poly, b: Poly) -> "FractionPoly":
    """a / b by textbook long division (FractionPoly.exact_divide), when
    the division is exact."""
    return FractionPoly.of(a).exact_divide(FractionPoly.of(b))


def eval_scaled_int(int_terms: list, nums: Sequence[int], den: int, deg: int) -> int:
    """Evaluate sum c*x^e at x_i = nums[i]/den, scaled by den**deg.

    `int_terms` is the [(mono, int coeff)] list from
    Poly.content_and_integer_terms; `deg` must be at least the degree of
    every monomial.  Pure integer arithmetic, one point at a time.
    """
    total = 0
    powers: dict = {}
    den_pows = {0: 1}
    for m, c in int_terms:
        v = c
        d = 0
        for var, e in m:
            key = (var, e)
            p = powers.get(key)
            if p is None:
                p = nums[var] ** e
                powers[key] = p
            v *= p
            d += e
        pad = deg - d
        dp = den_pows.get(pad)
        if dp is None:
            dp = den ** pad
            den_pows[pad] = dp
        total += v * dp
    return total


# -- the two-route expression reader ----------------------------------------------
#
# grammar's reader before its one lazy reader replaced both routes: the
# canonical route (_canonical, _canonical_vars, _canonical_head) for text
# as textio prints it, and the lexer, which builds a whole line as tokens
# first, with the recursive-descent _ExprParser for everything else.


_OPS = set("+-*^()=/")


def _lex(text: str, lineno: int, start: int = 0) -> list:
    """Tokens of one line from index start on, as (kind, value, line, col)
    with col counted from the start of the line; '#' ends the line."""
    toks = []
    i = start
    while i < len(text):
        ch = text[i]
        if ch in " \t\r":
            i += 1
            continue
        if ch == "#":
            break
        col = i + 1
        if ch.isdecimal():  # int() reads decimal digits only, not '²'
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            toks.append(("int", text[i:j], lineno, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], lineno, col))
            i = j
            continue
        if ch in _OPS:
            toks.append((ch, ch, lineno, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", lineno, col)
    return toks


class _ExprParser:
    """expr := ['-'] term (('+'|'-') term)*
    term := factor ('*' factor)*
    factor := atom ['^' int]
    atom := int ['/' int] | variable | '(' expr ')'

    varmap sends a name to its index, undeclared at or past varcount.  A
    term folds literals and variable powers into one coefficient and one
    monomial, multiplying Polys only for parenthesised factors, and an
    expression adds its terms into one dict, in the order and with the
    types of Poly arithmetic.  A bare variable is Poly.variable's.
    """

    def __init__(self, toks: list, varmap: dict, varcount: int, lineno: int, line_len: int):
        self.toks = toks
        self.pos = 0
        self.varmap = varmap
        self.varcount = varcount
        self.lineno = lineno
        self.end_col = line_len + 1
        self.depth = 0

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _take(self):
        t = self._peek()
        if t is not None:
            self.pos += 1
        return t

    def _fail(self, message: str, tok=None):
        if tok is None:
            raise ParseError(message, self.lineno, self.end_col)
        raise ParseError(message, tok[2], tok[3])

    def parse(self) -> Poly:
        p = self._expr()
        left = self._peek()
        if left is not None:
            self._fail(f"unexpected token '{left[1]}'", left)
        return p

    def _expr(self) -> Poly:
        t = self._peek()
        negate = t is not None and t[0] == "-"
        if negate:
            self._take()
        out: dict = {}
        while True:
            for m, c in self._term():
                c = -c if negate else c
                s = out.get(m)
                if s is None:
                    out[m] = c
                elif s := s + c:
                    out[m] = as_coeff(s)
                else:
                    del out[m]
            t = self._peek()
            if t is None or t[0] not in "+-":
                break
            self._take()
            negate = t[0] == "-"
        return _poly(out, self.varcount)

    def _term(self):
        """The term's (monomial, coefficient) pairs; none for zero."""
        coeff, mono, prod = 1, (), None
        while True:
            atom, k = self._factor()
            if isinstance(atom, Poly):
                prod = atom ** k if prod is None else prod * atom ** k
            elif type(atom) is not tuple:
                coeff = atom if coeff == 1 and k == 1 else coeff * atom ** k
            elif k:
                mono = mono_mul(mono, atom if k == 1 else ((atom[0][0], k),))
            t = self._peek()
            if t is None or t[0] != "*":
                break
            self._take()
        term = Poly(self.varcount, {mono: as_coeff(coeff)} if coeff else {})
        return (term if prod is None else prod * term).terms.items()

    def _factor(self):
        a = self._atom()
        t = self._peek()
        if t is None or t[0] != "^":
            return a, 1
        self._take()
        e = self._peek()
        if e is not None and e[0] == "-":
            self._fail("negative exponents are not allowed", e)
        if e is None or e[0] != "int":
            self._fail("expected an integer exponent after '^'", e)
        self._take()
        # compare lengths first: int() refuses very long digit strings
        digits = e[1].lstrip("0") or "0"
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            self._fail(f"exponent exceeds {MAX_EXPONENT}", e)
        return a, int(digits)

    def _literal(self, tok) -> int:
        try:
            return int(tok[1])
        except ValueError:
            # int() refuses more digits than sys.get_int_max_str_digits()
            self._fail(f"integer literal of {len(tok[1])} digits is too long", tok)

    def _atom(self):
        """A number, a variable's monomial or a parenthesised Poly."""
        t = self._take()
        if t is None:
            self._fail("expected a value")
        if t[0] == "int":
            num = self._literal(t)
            nxt = self._peek()
            if nxt is not None and nxt[0] == "/":
                self._take()
                den = self._peek()
                if den is None or den[0] != "int":
                    self._fail("expected an integer denominator", den)
                self._take()
                d = self._literal(den)
                if d == 0:
                    self._fail("zero denominator", den)
                return qdiv(num, d)
            return num
        if t[0] == "ident":
            idx = self.varmap.get(t[1])
            if idx is None or idx >= self.varcount:
                self._fail(f"undeclared variable '{t[1]}'", t)
            return next(iter(Poly.variable(self.varcount, idx).terms))
        if t[0] == "(":
            if self.depth == MAX_NESTING:
                self._fail(f"parentheses nest deeper than {MAX_NESTING}", t)
            self.depth += 1
            p = self._expr()
            self.depth -= 1
            close = self._take()
            if close is None or close[0] != ")":
                self._fail("expected ')'", close)
            return p
        self._fail(f"unexpected token '{t[1]}'", t)


# Names and digits are ASCII; an exponent has at most four digits and
# is checked against MAX_EXPONENT when read.
_NAME = "[A-Za-z_][A-Za-z0-9_]*"
_FACTOR = _NAME + r"(?:\^(?:0|[1-9][0-9]{0,3}))?"
# The regex engine keeps a frame per repetition of a group, so a term of
# more factors goes to the parser: a hostile line then fails here at once.
_MONO = rf"{_FACTOR}(?:\*{_FACTOR}){{0,63}}"
# (numerator, denominator, monomial after a coefficient, bare monomial)
_TERM = re.compile(rf"(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?(?:\*({_MONO}))?|({_MONO})")
_IDENT = re.compile(_NAME)


def _canonical(text: str, start: int, varmap: dict, varcount: int):
    """The Poly of text[start:] when it is canonical and every name, exponent
    and literal in it is one the parser accepts, else None."""
    parts = text[start:].split(" ")
    signs = parts[1::2]
    if not len(parts) & 1 or not {"+", "-"}.issuperset(signs):
        return None
    negate = parts[0][:1] == "-"
    signs.insert(0, "-" if negate else "+")
    if negate:
        parts[0] = parts[0][1:]
    out: dict = {}
    try:
        for sign, term in zip(signs, parts[::2]):
            t = _TERM.fullmatch(term)
            if t is None:
                return None
            num, den, mono, bare = t.groups()
            mono = mono or bare
            c = 1 if num is None else int(num) if den is None else qdiv(int(num), int(den))
            m = ()
            for factor in mono.split("*") if mono else ():
                name, _, e = factor.partition("^")
                i = varmap.get(name)
                e = int(e) if e else 1
                if i is None or i >= varcount or e > MAX_EXPONENT:
                    return None
                if e:
                    m = mono_mul(m, ((i, e),))
            if not c:
                continue
            if sign == "-":
                c = -c
            s = out.get(m)
            if s is None:
                out[m] = c
            elif s := s + c:
                out[m] = as_coeff(s)
            else:
                del out[m]
    except ValueError:  # int() refuses more digits than sys.get_int_max_str_digits()
        return None
    return _poly(out, varcount)


def read_expression_by_routes(text: str, varmap: dict, varcount: int, lineno: int = 1,
                    start: int = 0) -> Poly:
    """The Poly of text[start:] over the names varmap sends below varcount,
    start being where a token begins: by the canonical route when it
    accepts the text, else by the parser, whose errors count columns from
    the start of text."""
    p = _canonical(text, start, varmap, varcount)
    if p is None:
        p = _ExprParser(_lex(text, lineno, start), varmap, varcount, lineno, len(text)).parse()
    return p


_POLY_HEAD = re.compile(f"poly ({_NAME}) = ")


def _canonical_vars(raw: str):
    """The name -> index map of a `vars` line as print_map writes it, its
    names distinct and unreserved, else None."""
    if raw[:5] != "vars ":
        return None
    names = raw[5:].split(" ")
    varmap = dict(zip(names, range(len(names))))
    if len(varmap) == len(names) and all(map(_IDENT.fullmatch, names)) \
            and RESERVED.isdisjoint(varmap):
        return varmap
    return None


def vars_line_by_routes(raw: str, lineno: int, again: bool) -> dict:
    """The name -> index map a `vars` line declares; again says an earlier
    line declared one, which is an error."""
    varmap = None if again else _canonical_vars(raw)
    if varmap is not None:
        return varmap
    toks = _lex(raw, lineno)
    if again:
        raise ParseError("duplicate vars line", lineno, toks[0][3])
    varmap = {}
    for t in toks[1:]:
        if t[0] != "ident":
            raise ParseError("variable names must be identifiers", t[2], t[3])
        if t[1] in RESERVED:
            raise ParseError(f"'{t[1]}' is a reserved word", t[2], t[3])
        if t[1] in varmap:
            raise ParseError(f"duplicate variable '{t[1]}'", t[2], t[3])
        varmap[t[1]] = len(varmap)
    if not varmap:
        raise ParseError("vars line declares no variables", lineno, len(raw) + 1)
    return varmap


def _canonical_head(raw: str, varmap, seen: set):
    """(name, index its expression starts at) of a `poly` line whose head
    is as print_map writes it, after the vars line and binding a new
    unreserved name, else None."""
    head = _POLY_HEAD.match(raw)
    if head and varmap is not None and head[1] not in RESERVED and head[1] not in seen:
        return head[1], head.end()
    return None


def poly_line_by_routes(raw: str, lineno: int, varmap, seen: set) -> tuple:
    """(name, Poly) of a `poly` line over varmap, which is None before the
    vars line; seen holds the component names bound so far."""
    head = _canonical_head(raw, varmap, seen)
    if head is not None:
        return head[0], read_expression_by_routes(raw, varmap, len(varmap), lineno, head[1])
    toks = _lex(raw, lineno)
    if varmap is None:
        raise ParseError("vars line must come before poly lines", toks[0][2], toks[0][3])
    if len(toks) < 2 or toks[1][0] != "ident":
        raise ParseError("expected a component name after 'poly'", lineno, toks[0][3] + 4)
    name = toks[1][1]
    if name in RESERVED:
        raise ParseError(f"'{name}' is a reserved word", toks[1][2], toks[1][3])
    if name in seen:
        raise ParseError(f"duplicate component '{name}'", toks[1][2], toks[1][3])
    if len(toks) < 3 or toks[2][0] != "=":
        raise ParseError("expected '=' after the component name", lineno,
                         toks[1][3] + len(name))
    return name, _ExprParser(toks[3:], varmap, len(varmap), lineno, len(raw)).parse()


def parse_by_terms(text: str, varmap: dict, varcount: int, lineno: int = 1) -> Poly:
    """The lexer and _ExprParser alone, without the canonical route."""
    return _ExprParser(_lex(text, lineno), varmap, varcount, lineno, len(text)).parse()


# -- expression parsing by Poly arithmetic --------------------------------------


class PolyExprParser:
    """The grammar of _ExprParser above evaluated with Poly arithmetic:
    every factor is a Poly, a term multiplies them left to right and an
    expression adds its terms with Poly +, one dict copy per term.

    expr := ['-'] term (('+'|'-') term)*
    term := factor ('*' factor)*
    factor := atom ['^' int]
    atom := int ['/' int] | variable | '(' expr ')'
    """

    def __init__(self, toks: list, varmap: dict, lineno: int, line_len: int):
        self.toks = toks
        self.pos = 0
        self.varmap = varmap
        self.varcount = len(varmap)
        self.lineno = lineno
        self.end_col = line_len + 1
        self.depth = 0

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _take(self):
        t = self._peek()
        if t is not None:
            self.pos += 1
        return t

    def _fail(self, message: str, tok=None):
        if tok is None:
            raise ParseError(message, self.lineno, self.end_col)
        raise ParseError(message, tok[2], tok[3])

    def parse(self) -> Poly:
        p = self._expr()
        left = self._peek()
        if left is not None:
            self._fail(f"unexpected token '{left[1]}'", left)
        return p

    def _expr(self) -> Poly:
        t = self._peek()
        negate = t is not None and t[0] == "-"
        if negate:
            self._take()
        p = self._term()
        if negate:
            p = -p
        while True:
            t = self._peek()
            if t is None or t[0] not in "+-":
                return p
            self._take()
            q = self._term()
            p = p + q if t[0] == "+" else p - q

    def _term(self) -> Poly:
        p = self._factor()
        while True:
            t = self._peek()
            if t is None or t[0] != "*":
                return p
            self._take()
            p = p * self._factor()

    def _factor(self) -> Poly:
        a = self._atom()
        t = self._peek()
        if t is None or t[0] != "^":
            return a
        self._take()
        e = self._peek()
        if e is not None and e[0] == "-":
            self._fail("negative exponents are not allowed", e)
        if e is None or e[0] != "int":
            self._fail("expected an integer exponent after '^'", e)
        self._take()
        # compare lengths first: int() refuses very long digit strings
        digits = e[1].lstrip("0") or "0"
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            self._fail(f"exponent exceeds {MAX_EXPONENT}", e)
        return a ** int(digits)

    def _literal(self, tok) -> int:
        try:
            return int(tok[1])
        except ValueError:
            # int() refuses more digits than sys.get_int_max_str_digits()
            self._fail(f"integer literal of {len(tok[1])} digits is too long", tok)

    def _atom(self) -> Poly:
        t = self._take()
        if t is None:
            self._fail("expected a value")
        if t[0] == "int":
            num = self._literal(t)
            nxt = self._peek()
            if nxt is not None and nxt[0] == "/":
                self._take()
                den = self._peek()
                if den is None or den[0] != "int":
                    self._fail("expected an integer denominator", den)
                self._take()
                d = self._literal(den)
                if d == 0:
                    self._fail("zero denominator", den)
                return Poly.const(self.varcount, qdiv(num, d))
            return Poly.const(self.varcount, num)
        if t[0] == "ident":
            idx = self.varmap.get(t[1])
            if idx is None:
                self._fail(f"undeclared variable '{t[1]}'", t)
            return Poly.variable(self.varcount, idx)
        if t[0] == "(":
            if self.depth == MAX_NESTING:
                self._fail(f"parentheses nest deeper than {MAX_NESTING}", t)
            self.depth += 1
            p = self._expr()
            self.depth -= 1
            close = self._take()
            if close is None or close[0] != ")":
                self._fail("expected ')'", close)
            return p
        self._fail(f"unexpected token '{t[1]}'", t)


def parse_by_poly_arithmetic(text: str, varmap: dict, lineno: int = 1) -> Poly:
    """The old parse_expression on a name -> index map; the variable count
    is len(varmap)."""
    return PolyExprParser(_lex(text, lineno), varmap, lineno, len(text)).parse()


# -- the Segre move by substitution ----------------------------------------------


def segre_by_division(f) -> list:
    """The components of apply_move(f, SegreExtend()) as the move first
    computed them: F_i(t x) by substitution, then exact division by t."""
    n = f.n_in
    t = Poly.variable(n + 1, n)
    scaled = [Poly.variable(n + 1, i) * t for i in range(n)]
    comps = [c.extend(n + 1).substitute(scaled + [t]).exact_divide(t) for c in f.components]
    return comps + [t]


# -- the pre-composed shear over full identity images ----------------------------


def pre_shear_by_full_images(f, shear):
    """apply_move(f, PreCompose(shear)) as the move first computed it:
    all n identity images, the shifted ones plus their addends, and a
    variable scan of every component."""
    images = [Poly(shear.n, {((i, 1),): 1}) for i in range(shear.n)]
    for i, g in shear.additions.items():
        images[i] = images[i] + g
    return PolyMap([c if c.variables_used().isdisjoint(shear.additions) else c.substitute(images)
                    for c in f.components])


def affine_maps(a) -> tuple:
    """The forward and inverse maps of an affine.AffineAutomorphism, as
    parsing their texts builds them (a bare variable is Poly.variable's)."""
    def realized(m, shift):
        n = m.nrows
        return PolyMap([Poly.variable(n, next(iter(row))) if not c and list(row.values()) == [1]
                        else Poly(n, {**{((j, 1),): e for j, e in sorted(row.items())},
                                      **({(): c} if c else {})})
                        for row, c in zip(m.rows, shift)])
    return realized(a.m, a.shift), realized(a.inv, a.inv_shift)


def translation_map(vec) -> PolyMap:
    """x -> x + vec, as PolyMap.translation built it."""
    n = len(vec)
    return PolyMap([Poly.variable(n, i) + Poly.const(n, vec[i]) for i in range(n)])


# -- the coordinate permutation as two polynomial maps ----------------------------


def permutation_by_maps(n: int, perm, label: str = "") -> Automorphism:
    """AffineAutomorphism.permutation as it first was: a general Automorphism
    whose forward map sends x to x[perm] and whose inverse map undoes it,
    so apply_move composes, verify_two_sided composes both ways and
    transport evaluates them."""
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    fwd = PolyMap([Poly.variable(n, perm[i]) for i in range(n)])
    inv_perm = [0] * n
    for i, p in enumerate(perm):
        inv_perm[p] = i
    inv = PolyMap([Poly.variable(n, inv_perm[i]) for i in range(n)])
    return Automorphism(fwd, inv, label)


def _variable_indices(f: PolyMap) -> Optional[list]:
    """[j_0, j_1, ...] when component i of f is the bare variable x_{j_i}
    with coefficient 1, else None."""
    out = []
    for c in f.components:
        if len(c.terms) != 1:
            return None
        ((m, coeff),) = c.terms.items()
        if coeff != 1 or len(m) != 1 or m[0][1] != 1:
            return None
        out.append(m[0][0])
    return out


def _as_permutation(fwd: PolyMap, inv: PolyMap) -> Optional[list]:
    """The index list of fwd when fwd and inv are mutually inverse
    coordinate permutations, else None."""
    n = fwd.n_in
    if fwd.n_out != n or inv.n_in != n or inv.n_out != n:
        return None
    perm, back = _variable_indices(fwd), _variable_indices(inv)
    # back[perm[i]] == i for every i makes perm injective, so a bijection
    if perm is None or back is None or any(back[j] != i for i, j in enumerate(perm)):
        return None
    return perm


def permutation_by_parsing(forward: str, inverse: str) -> Optional[list]:
    """The index list automorphism_from_json first decoded a polynomial
    entry's two map texts to: both parsed in full, then recognized as
    mutually inverse maps of bare variables by their terms."""
    return _as_permutation(parse_map(forward).to_polymap(), parse_map(inverse).to_polymap())


# -- B F(C x) by composition ------------------------------------------------------


def bfc_by_compose(B, F: PolyMap, C) -> PolyMap:
    """B F(C x) as verify_pairing first computed it: F, expanded in n
    variables, composed with x -> C x, then combined by B's rows."""
    inner = F.compose(PolyMap.from_matrix(C))
    comps = []
    for row in B.rows:
        p = Poly(C.ncols)
        for j, b in sorted(row.items()):
            p = p + inner.components[j].scale(b)
        comps.append(p)
    return PolyMap(comps)


# -- cube decomposition on dense form vectors ------------------------------------


def polarize_dense(mono, coeff, m: int) -> list:
    """gz._polarize as it first was: (coefficient, dense length-m vector)
    pieces, with 2u left as it is."""

    def vec(*pairs):
        v = [0] * m
        for i, a in pairs:
            v[i] += a
        return tuple(v)

    exps = list(mono)
    if len(exps) == 1:
        return [(coeff, vec((exps[0][0], 1)))]
    s = qdiv(coeff, 6)
    if len(exps) == 2:
        if exps[0][1] == 2:
            u, w = exps[0][0], exps[1][0]
        else:
            u, w = exps[1][0], exps[0][0]
        return [
            (s, vec((u, 2), (w, 1))),
            (-s, vec((u, 2))),
            (-s * 2, vec((u, 1), (w, 1))),
            (s * 2, vec((u, 1))),
            (s, vec((w, 1))),
        ]
    u, v, w = (p[0] for p in exps)
    return [
        (s, vec((u, 1), (v, 1), (w, 1))),
        (-s, vec((u, 1), (v, 1))),
        (-s, vec((v, 1), (w, 1))),
        (-s, vec((u, 1), (w, 1))),
        (s, vec((u, 1))),
        (s, vec((v, 1))),
        (s, vec((w, 1))),
    ]


def primitive_dense(vec) -> tuple:
    """(integer key, scalar) with vec = scalar * key, key primitive and
    its first nonzero entry positive."""
    den = math.lcm(*[Fraction(q).denominator for q in vec])
    ints = [int(q * den) for q in vec]
    g = math.gcd(*ints)
    sign = 1
    for a in ints:
        if a:
            sign = 1 if a > 0 else -1
            break
    key = tuple(a * sign // g for a in ints)
    return key, Fraction(sign * g, den)


def decompose_cubes_dense(h: Poly) -> list:
    """gz.decompose_cubes as it first was: every piece normalized by
    primitive_dense and merged up to a scalar; [(coefficient, form Poly)]
    in first-seen order."""
    if h.is_zero():
        return []
    if h.degree() != 3 or not h.is_homogeneous():
        raise ValueError("cube decomposition expects a cubic form")
    m = h.varcount
    acc = {}
    order = []
    for mono, coeff in h.sorted_terms():
        for c, v in polarize_dense(mono, coeff, m):
            key, lam = primitive_dense(v)
            if key not in acc:
                acc[key] = 0
                order.append(key)
            acc[key] += c * lam ** 3
    out = []
    for key in order:
        if acc[key]:
            form = Poly(m, {((i, 1),): a for i, a in enumerate(key) if a})
            out.append((as_coeff(acc[key]), form))
    return out


def pair_up_by_dense_forms(g: PolyMap) -> tuple:
    """(A, B, C) of gz.pair_up, its pool built as it first was: each form
    of decompose_cubes_dense read back into a dense vector and normalized
    again by primitive_dense, and Q padded by pad_by_trial_ranks."""
    m = g.n_in
    pool = []
    index = {}
    coeff_rows = []
    for i in range(m):
        h = g.components[i] - Poly.variable(m, i)
        row = {}
        for c, form in decompose_cubes_dense(h):
            vec = tuple(form.terms.get(((j, 1),), 0) for j in range(m))
            key, lam = primitive_dense(vec)
            k = index.get(key)
            if k is None:
                k = len(pool)
                index[key] = k
                pool.append(key)
            row[k] = row.get(k, Fraction(0)) + c * lam ** 3
        coeff_rows.append(row)
    padding = pad_by_trial_ranks([list(key) for key in pool], m)
    Q = RatMatrix.dense([list(key) for key in pool] + padding, m)
    r = Q.nrows
    P = RatMatrix([{k: as_coeff(c) for k, c in row.items() if c} for row in coeff_rows], r)
    A = RatMatrix.zero(m, m + r).vstack(Q.hstack(Q * P))
    B = RatMatrix.identity(m).hstack(P)
    C = RatMatrix.identity(m).vstack(RatMatrix.zero(r, m))
    return A, B, C


# -- Fraction-only polynomials -------------------------------------------------


def mono_to_dense(m, varcount: int) -> tuple:
    out = [0] * varcount
    for v, e in m:
        out[v] = e
    return tuple(out)


def mono_from_dense(exps: Sequence[int]) -> tuple:
    return tuple((i, e) for i, e in enumerate(exps) if e)


def from_terms(varcount: int, dense_terms: dict) -> Poly:
    """A Poly from {dense exponent tuple: coefficient}; zeros are dropped."""
    terms = {}
    for exps, c in dense_terms.items():
        c = as_coeff(c)
        if c == 0:
            continue
        if len(exps) != varcount:
            raise ValueError("exponent tuple length does not match variable count")
        m = mono_from_dense(exps)
        terms[m] = terms.get(m, 0) + c
    return Poly(varcount, {m: as_coeff(c) for m, c in terms.items() if c != 0})


def coefficient(p: Poly, dense_exps: Sequence[int]):
    """The coefficient of one monomial, given by its dense exponents."""
    return p.terms.get(mono_from_dense(dense_exps), 0)


def unsettled_coefficients(p: Poly) -> list:
    """The coefficients of p that break the storage rule: anything but an
    int or a Fraction whose denominator is not 1 (a float, say)."""
    return [c for c in p.terms.values()
            if not (type(c) is int or type(c) is Fraction and c.denominator != 1)]


def linear_part(f) -> list:
    """The rows of f's degree-one part, as coefficient lists."""
    rows = [[0] * f.n_in for _ in f.components]
    for row, c in zip(rows, f.components):
        for m, coef in c.terms.items():
            if mono_degree(m) == 1:
                row[m[0][0]] = coef
    return rows


def homogeneous_components(p: Poly) -> dict:
    """{degree: homogeneous part of p}; no zero parts, empty for zero."""
    parts: dict = {}
    for m, c in p.terms.items():
        parts.setdefault(mono_degree(m), {})[m] = c
    return {d: Poly(p.varcount, t) for d, t in sorted(parts.items())}


class FractionPoly:
    """Poly as it was when every coefficient was a Fraction, integral or not.

    The loops are Poly's own, so on equal inputs the two agree term for
    term, insertion order included; exact_divide is long_divide's
    rescanning loop, which finds the quotient terms in the same order.
    """

    __slots__ = ("varcount", "terms")

    def __init__(self, varcount: int, terms: Optional[dict] = None):
        self.varcount = varcount
        self.terms = terms if terms is not None else {}

    @staticmethod
    def of(p: Poly) -> "FractionPoly":
        return FractionPoly(p.varcount, {m: Fraction(c) for m, c in p.terms.items()})

    def __add__(self, other: "FractionPoly") -> "FractionPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s == 0:
                    del out[m]
                else:
                    out[m] = s
        return FractionPoly(self.varcount, out)

    def __neg__(self) -> "FractionPoly":
        return FractionPoly(self.varcount, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "FractionPoly") -> "FractionPoly":
        return self + (-other)

    def __mul__(self, other: "FractionPoly") -> "FractionPoly":
        if not self.terms or not other.terms:
            return FractionPoly(self.varcount)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = mono_mul(ma, mb)
                s = out.get(m)
                if s is None:
                    out[m] = ca * cb
                else:
                    s = s + ca * cb
                    if s == 0:
                        del out[m]
                    else:
                        out[m] = s
        return FractionPoly(self.varcount, out)

    def scale(self, c) -> "FractionPoly":
        c = Fraction(c)
        if c == 0:
            return FractionPoly(self.varcount)
        return FractionPoly(self.varcount, {m: c * v for m, v in self.terms.items()})

    def __pow__(self, k: int) -> "FractionPoly":
        if k == 0:
            return FractionPoly(self.varcount, {ZERO_MONO: Fraction(1)})
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def derive(self, var: int) -> "FractionPoly":
        out = {}
        for m, c in self.terms.items():
            e = mono_exponent(m, var)
            if e:
                out[mono_div(m, ((var, 1),))] = c * e
        return FractionPoly(self.varcount, out)

    def eval_at(self, point) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for var, e in m:
                v = v * Fraction(point[var]) ** e
            total += v
        return total

    def substitute(self, images: list) -> "FractionPoly":
        out: dict = {}
        for m, c in self.terms.items():
            piece = None
            for var, e in m:
                p = images[var] ** e
                if not p.terms:
                    break
                piece = p if piece is None else piece * p
            else:
                items = piece.terms.items() if piece is not None else ((ZERO_MONO, 1),)
                for pm, pc in items:
                    v = c * pc
                    s = out.get(pm)
                    if s is None:
                        out[pm] = v
                    else:
                        s = s + v
                        if s == 0:
                            del out[pm]
                        else:
                            out[pm] = s
        return FractionPoly(images[0].varcount, out)

    def exact_divide(self, divisor: "FractionPoly") -> "FractionPoly":
        """Each step takes the remainder's leading term by a scan, then
        forms rem - t*divisor as a new polynomial.  Raises
        ExactDivisionError at the first leading term that the divisor's
        leading monomial does not divide, ZeroDivisionError for a zero
        divisor."""
        if not divisor.terms:
            raise ZeroDivisionError("division by the zero polynomial")
        lead_m = max(divisor.terms, key=GRLEX_KEY)
        lead_c = divisor.terms[lead_m]
        rem = self
        quot = FractionPoly(self.varcount)
        while rem.terms:
            rm = max(rem.terms, key=GRLEX_KEY)
            if not mono_divides(lead_m, rm):
                raise ExactDivisionError("leading term not divisible; division is not exact")
            t = FractionPoly(self.varcount, {mono_div(rm, lead_m): rem.terms[rm] / lead_c})
            quot = quot + t
            rem = rem - t * divisor
        return quot


# -- base point search ----------------------------------------------------------


def normalize_by_det_then_inverse(f, seed: int = 0, budget=DEFAULT_BUDGET):
    """reduce.normalize with two eliminations per accepted point: each
    Fraction candidate is accepted by sparse_det != 0, and the accepted
    point's Jacobian is then inverted by sparse_inverse."""
    if not f.is_endomorphism():
        raise ValueError("normalization expects an endomorphism")
    start = time.monotonic()
    n = f.n_in
    rng = random.Random(seed)
    jac = sparse_jacobian(f)

    def attempt(point):
        rows = eval_jacobian_sparse(jac, point)
        if sparse_det(rows, n) != 0:
            return rows
        return None

    x0 = [Fraction(0)] * n
    rows = attempt(x0)
    if rows is None:
        found = False
        for box in (1, 2, 4, 8, 16, 64, 256, 1024):
            for _ in range(12):
                _check_time(start, budget, "base point search")
                x0 = [Fraction(rng.randrange(-box, box + 1)) for _ in range(n)]
                rows = attempt(x0)
                if rows is not None:
                    found = True
                    break
            if found:
                break
        else:
            raise GenericityError(
                "no base point with invertible differential was found; "
                "the map looks degenerate")

    builder = CertificateBuilder(f, kind="normalization")
    if any(x0):
        builder.push(PreCompose(AffineAutomorphism.translation(
            x0, "recenter the domain at the base point")))
    fx0 = f.eval_at(x0)
    if any(fx0):
        builder.push(PostCompose(AffineAutomorphism.translation(
            [-v for v in fx0], "send the base value to the origin")))
    if RatMatrix(rows, n) != RatMatrix.identity(n):
        inv_rows = sparse_inverse(rows, n)
        builder.push(PostCompose(AffineAutomorphism.from_linear(
            RatMatrix(inv_rows, n), RatMatrix(rows, n),
            "straighten the differential at the origin")))
    return builder.current, builder.build()


# -- shape checks on F - X by subtraction ---------------------------------------


def minus_x_by_subtraction(c: Poly, i: int) -> Poly:
    """c - x_i, built with Poly arithmetic as each shape check built it."""
    return c - Poly.variable(c.varcount, i)


def has_identity_linear_part(f: PolyMap) -> bool:
    """True when the degree-1 part of f_i is exactly x_i, for every i,
    decided term by term on f_i."""
    if not f.is_endomorphism():
        return False
    for i, c in enumerate(f.components):
        own = ((i, 1),)
        seen = False
        for m, coeff in c.terms.items():
            if mono_degree(m) != 1:
                continue
            if m != own or coeff != 1:
                return False
            seen = True
        if not seen:
            return False
    return True


def needs_normalize_by_parts(f: PolyMap) -> bool:
    """reduce.to_yagzhev's skip test, negated, as it first read: some
    constant term is nonzero or the linear part is not the identity."""
    return not (all(c.constant_term() == 0 for c in f.components)
                and has_identity_linear_part(f))


def is_yagzhev_by_subtraction(f: PolyMap) -> bool:
    """Identity plus a cubic homogeneous part, componentwise."""
    if not f.is_endomorphism():
        return False
    n = f.n_in
    for i, c in enumerate(f.components):
        h = c - Poly.variable(n, i)
        if h.is_zero():
            continue
        if not h.is_homogeneous() or h.degree() != 3:
            return False
    return True


def segre_failure_by_subtraction(f: PolyMap) -> Optional[int]:
    """The first component i whose f_i - x_i has a term of degree other
    than 2 or 3, the one reduce.segre_step names, or None."""
    n = f.n_in
    for i, c in enumerate(f.components):
        h = c - Poly.variable(n, i)
        for mono in h.terms:
            if mono_degree(mono) not in (2, 3):
                return i
    return None


def split_t_shape_by_subtraction(f: PolyMap):
    """reduce._split_t_shape over f_i - x_i built as a Poly: check
    f = (X + t*Q(X) + t^2*C(X), t) and return (n, C) with the cubic
    block as term dicts over the X variables."""
    if not f.is_endomorphism() or f.n_in < 2:
        raise ValueError("expected (X + t Q + t^2 C, t) with t last")
    m = f.n_in
    n = m - 1
    if f.components[n] != Poly.variable(m, n):
        raise ValueError("the last component must be the extension variable")
    c_parts = []
    for i in range(n):
        h = f.components[i] - Poly.variable(m, i)
        c_terms = {}
        for mono, coeff in h.terms.items():
            e = mono_exponent(mono, n)
            rest = tuple(p for p in mono if p[0] != n)
            rd = mono_degree(rest)
            if e == 2 and rd == 3:
                c_terms[rest] = coeff
            elif e != 1 or rd != 2:
                raise ValueError(
                    f"component {i} is not x + t*(quadratic in X) "
                    "+ t^2*(cubic in X)")
        c_parts.append(c_terms)
    return n, c_parts


# -- the ladders over move kinds ----------------------------------------------


def apply_move_by_ladder(f: PolyMap, move) -> PolyMap:
    """certs.apply_move as one isinstance test per move class."""
    if isinstance(move, ExtendFreshVars):
        k = move.count
        if k < 1:
            raise ValueError("must add at least one fresh variable")
        n = f.n_in + k
        comps = [c.extend(n) for c in f.components]
        comps.extend(Poly.variable(n, f.n_in + i) for i in range(k))
        tops = None if f.tops is None else f.tops + list(range(f.n_in, n))
        return PolyMap(comps, tops)
    if isinstance(move, PostCompose):
        if move.auto.dim != f.n_out:
            raise ValueError("post-composition shape mismatch")
        return move.auto.post(f)
    if isinstance(move, PreCompose):
        if move.auto.dim != f.n_in:
            raise ValueError("pre-composition shape mismatch")
        return move.auto.pre(f)
    if isinstance(move, SegreExtend):
        if not f.is_endomorphism():
            raise ValueError("the Segre move needs an endomorphism")
        if any(c.constant_term() != 0 for c in f.components):
            raise ValueError("the Segre move needs zero constant terms")
        # F_i(t x)/t: each term c*x^m of degree d gains t^(d - 1)
        n = f.n_in
        comps = [Poly(n + 1, {(m + ((n, d - 1),) if (d := mono_degree(m)) > 1 else m): c
                              for m, c in comp.terms.items()}) for comp in f.components]
        return PolyMap(comps + [Poly.variable(n + 1, n)])
    raise TypeError(f"unknown move {move!r}")


def transport_by_ladder(move, x: list, y: list, rng: random.Random):
    """certs._transport: push a graph point (x, F(x) = y) through one
    move; None skips."""
    if isinstance(move, ExtendFreshVars):
        z = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(move.count)]
        return x + z, y + z
    if isinstance(move, PostCompose):
        return x, move.auto.push(y)
    if isinstance(move, PreCompose):
        nx = move.auto.pull(x)
        return None if nx is None else (nx, y)
    if isinstance(move, SegreExtend):
        t = Fraction(rng.randrange(1, 7), rng.randrange(1, 4))
        if rng.randrange(2):
            t = -t
        return [xi / t for xi in x] + [t], [yi / t for yi in y] + [t]
    raise TypeError(f"unknown move {move!r}")


def move_to_json_by_ladder(move) -> dict:
    if isinstance(move, ExtendFreshVars):
        return {"move": "extend", "count": move.count}
    if isinstance(move, PostCompose):
        return {"move": "post", "automorphism": automorphism_to_json(move.auto)}
    if isinstance(move, PreCompose):
        return {"move": "pre", "automorphism": automorphism_to_json(move.auto)}
    if isinstance(move, SegreExtend):
        return {"move": "segre"}
    raise TypeError(f"unknown move {move!r}")


def move_from_json_by_ladder(d: dict):
    kind = d.get("move") if isinstance(d, dict) else None
    if kind == "extend":
        return ExtendFreshVars(_dim_field(d, "count"))
    if kind == "post":
        return PostCompose(automorphism_from_json(_field(d, "automorphism", dict)))
    if kind == "pre":
        return PreCompose(automorphism_from_json(_field(d, "automorphism", dict)))
    if kind == "segre":
        return SegreExtend()
    raise ValueError(f"unknown move kind {kind!r}")


def certificate_from_json_by_ladders(d: dict) -> Certificate:
    """textio.certificate_from_json with move_from_json_by_ladder and the
    dimension walk by arithmetic per kind."""
    if not isinstance(d, dict) or d.get("format") != "polyred-certificate":
        raise ValueError("not a certificate document")
    version = d.get("version")
    if type(version) is not int or version not in (1, 2):
        raise ValueError(f"unsupported certificate version {version!r}")
    kind = d.get("kind", "reduction")
    if type(kind) is not str:
        raise ValueError("'kind' is not a string")
    source = _map_from_text(_field(d, "source", str))
    target = _map_from_text(_field(d, "target", str))
    moves = [move_from_json_by_ladder(m) for m in _field(d, "moves", list)]
    n_in, n_out = source.n_in, source.n_out
    for k, m in enumerate(moves):
        if isinstance(m, ExtendFreshVars):
            n_in, n_out = n_in + m.count, n_out + m.count
        elif isinstance(m, SegreExtend):
            n_in, n_out = n_in + 1, n_out + 1
        else:
            n = n_out if isinstance(m, PostCompose) else n_in
            if m.auto.dim != n:
                raise ValueError(f"move {k}: an automorphism of dim "
                                 f"{m.auto.dim} acts on dim {n}")
        if max(n_in, n_out) > DEFAULT_BUDGET.max_dim:
            raise ValueError(f"move {k}: the map would have more than "
                             f"{DEFAULT_BUDGET.max_dim} variables")
    return Certificate(source, target, moves, kind)
