"""Fiber statistics for plane maps: dex and observed mfs.

Everything here is for nondegenerate F: R^2 -> R^2.  The count of a fiber
F^{-1}(y) is read off the resultant r(x1) = Res_{x2}(f1 - y1, f2 - y2):
once the coordinates are generic enough, distinct fiber points carry
distinct x1 values, so the degree of the squarefree part of r counts the
complex fiber and a Sturm count over the whole line counts the real one.
The real x2 over a simple real root x1 comes from the first subresultant,
a rational expression in x1, so counting x1 values is counting points.

The fiber computations run in integers.  Each component is cleared of
denominators once, into dense integer rows over a scale (the shape
elim.z_rows gives); a rotation is applied to those rows through integer
linear forms, eliminability is read off the rotated rows, and a target
is subtracted from their constant entry.  The sample targets F(p) are
the rows evaluated at the integer point p over the scale.  The
resultant, its squarefree part and its Sturm count come from the dense
kernel in elim.py.  Only generic_rotation turns rows back into a Poly.
The witness a SpecializedFiber carries is the same Poly the Fraction
resultant and remainder chain give, which the tests hold it to.

Nondegeneracy is decided on the rows too: det J, evaluated exactly at a
few fixed integer points, proves itself not identically zero by any
nonzero value.  Only when it vanishes at all of them is the symbolic
determinant expanded; that settles the rare map whose det J vanishes at
those points (and every degenerate one) without a grid that would grow
with the degree.

"Generic enough" is earned, not assumed.  A seeded shear-free rotation
x -> (x1 + c*x2, -c*x1 + x2) is applied until every component that moves
with x2 has a variable-free leading x2-coefficient; then the resultant
specializes cleanly at every rational target (no leading-term collapse),
and a probe fiber at a random target must come out squarefree of full
degree before the rotation is trusted.  Failures raise GenericityError
and each retry draws fresh coefficients.

dex itself is computed twice over: two rotations times two targets, all
four squarefree degrees must agree.  Agreement of independent seeded runs
is the whole correctness story; no irreducibility is ever proved.  The
number of retry rounds that were needed is reported, not hidden.

mfs is reported as the maximum real count observed over sampled fibers,
a certified lower bound for the true supremum.  Targets mix images of
random rational points (fibers guaranteed nonempty) with free targets,
which may well have empty real fibers; both kinds are recorded as found.
sag is never computed here; reports can carry an externally sourced
value, clearly marked as such.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .certs import Automorphism
from . import maps
from .elim import _q_trim, z_count_real_roots, z_resultant, z_rows, z_squarefree, z_to_poly
# perfbench's tracer wraps elim.resultant at every import site, and its
# tests look for it here
from .elim import resultant  # noqa: F401
from .linalg import RatMatrix
from .maps import GenericityError, PolyMap
from .poly import Poly

__all__ = [
    "AttributeReport",
    "SpecializedFiber",
    "generic_rotation",
    "dex2",
    "fiber_count_real",
    "mfs_sample",
]


@dataclass
class AttributeReport:
    """What a sampling run established about a plane map."""

    dex: int
    mfs_observed: int
    samples: int
    seed: int
    parity_consistent: bool
    genericity_retries: int
    sag_external: Optional[int] = None


@dataclass
class SpecializedFiber:
    """One fiber, witnessed by its squarefree specialized resultant."""

    target: tuple
    resultant_sf: Poly
    real_count: int
    complex_count: int


def _require_plane(f: PolyMap) -> None:
    if f.n_in != 2 or f.n_out != 2:
        raise ValueError("fiber statistics are implemented for plane maps only")


def _plane_rows(f: PolyMap) -> list:
    """z_rows of each component: [(L, rows)] with rows / L the component."""
    return [z_rows(comp) for comp in f.components]


def _eval_rows(rows: list, s: int, t: int) -> tuple:
    """(g, dg/dx1, dg/dx2) at the integer point (s, t), for g the sum of
    rows[j][i] * x1^i * x2^j; nested Horner sums, all in integers."""
    g = gx = gy = 0
    for row in reversed(rows):
        v = dv = 0
        for c in reversed(row):
            dv = dv * s + v
            v = v * s + c
        gy = gy * t + g
        g = g * t + v
        gx = gx * t + dv
    return g, gx, gy


# det J is evaluated at these points before it is ever expanded: a nonzero
# value proves it is not identically zero
_DET_POINTS = ((0, 0), (1, 2), (-2, 1), (3, -1))


def _require_nondegenerate(f: PolyMap, fr: list) -> None:
    """Raise ValueError when det J(f) is identically zero; fr is
    _plane_rows(f), whose Jacobian is f's scaled by L1 * L2 != 0."""
    for s, t in _DET_POINTS:
        (_, a, b), (_, c, d) = (_eval_rows(rows, s, t) for _, rows in fr)
        if a * d != b * c:
            return
    j = maps.jacobian_det(f)
    if isinstance(j, Poly) and j.is_zero():
        raise ValueError("degenerate map: jacobian determinant is identically zero")


def _checked_rows(f: PolyMap) -> list:
    """_plane_rows(f), once f is known to be a nondegenerate plane map."""
    _require_plane(f)
    fr = _plane_rows(f)
    _require_nondegenerate(f, fr)
    return fr


def _rows_poly(comp) -> Poly:
    """The Poly rows / L for one component (L, rows)."""
    L, rows = comp
    terms = {}
    for j, row in enumerate(rows):
        for i, c in enumerate(row):
            if c:
                terms[tuple((v, e) for v, e in ((0, i), (1, j)) if e)] = Fraction(c, L)
    return Poly(2, terms)


def _reduced(M: int, rows: list) -> tuple:
    """(M, rows) with their common factor divided out, the way z_rows
    returns a component: M is then the lcm of its denominators."""
    g = M
    for row in rows:
        for c in row:
            if g == 1:
                return M, rows
            g = gcd(g, c)
    if g == 1:
        return M, rows
    return M // g, [[c // g for c in row] for row in rows]


def _rotate(comp, c: Fraction) -> tuple:
    """z_rows of g(x1 + c*x2, -c*x1 + x2) from g's own (L, rows).

    With c = p/q and D = deg g, q^D * L * g(rotated) is the sum over the
    homogeneous parts g_d of q^(D-d) * g_d(u, v) for the integer forms
    u = q*x1 + p*x2 and v = -p*x1 + q*x2.  Each g_d(u, v) is a Horner
    sum over its x2-powers; a form of degree d is a list of d + 1 ints
    indexed by the power of x2.
    """
    L, rows = comp
    p, q = c.numerator, c.denominator
    forms: dict = {}
    for j, row in enumerate(rows):
        for i, a in enumerate(row):
            if a:
                forms.setdefault(i + j, {})[j] = a
    D = max(forms, default=0)
    v_pows = [[1]]
    for _ in range(D):
        prev = v_pows[-1]
        nxt = [0] * (len(prev) + 1)
        for k, a in enumerate(prev):
            nxt[k] -= p * a
            nxt[k + 1] += q * a
        v_pows.append(nxt)
    out = [[0] * (D + 1 - k) for k in range(D + 1)]
    for d, h in forms.items():
        # P_k = sum over m <= k of h[m] u^(k-m) v^m; P_d = g_d(u, v)
        k0 = min(h)
        P = [h[k0] * b for b in v_pows[k0]]
        for k in range(k0 + 1, d + 1):
            nxt = [q * a for a in P]
            nxt.append(0)
            for m, a in enumerate(P, 1):
                nxt[m] += p * a
            a = h.get(k)
            if a:
                for m, b in enumerate(v_pows[k]):
                    nxt[m] += a * b
            P = nxt
        scale = q ** (D - d)
        for k, a in enumerate(P):
            out[k][d - k] += scale * a
    for row in out:
        _q_trim(row)
    return _reduced(q ** D * L, _q_trim(out))


def _eliminable(g: list) -> bool:
    """True when x2 can be eliminated honestly from the rows g: every
    component that moves with x2 has a constant leading x2-coefficient,
    and at least one component does move."""
    moving = [rows for _, rows in g if len(rows) > 1]
    return bool(moving) and all(len(rows[-1]) == 1 for rows in moving)


def _rotation_automorphism(c: Fraction) -> Automorphism:
    m = RatMatrix([[Fraction(1), c], [-c, Fraction(1)]])
    return Automorphism.from_linear(m, m.inverse(), f"rotation c={c}")


def _rotated(fr: list, seed: int, skip_identity: bool = False) -> tuple:
    """(rows of f o R, c) for the first seeded rotation
    R = (x1 + c*x2, -c*x1 + x2) under which x2 eliminates; c = 0 is the
    identity, tried first unless skip_identity."""
    if not skip_identity and _eliminable(fr):
        return fr, Fraction(0)
    rng = random.Random(f"rotation:{seed}")
    for _ in range(8):
        c = Fraction(rng.randint(1, 19), rng.randint(1, 3))
        if rng.randint(0, 1):
            c = -c
        g = [_rotate(comp, c) for comp in fr]
        if _eliminable(g):
            return g, c
    raise GenericityError(
        "no rotation exposed a constant leading coefficient in x2; "
        "the map is likely degenerate")


def generic_rotation(f: PolyMap, seed: int = 0, _skip_identity: bool = False):
    """Precompose f with a seeded rotation until x2 eliminates honestly.

    Returns (f o R, R as an automorphism).  The identity is tried first,
    so maps like (x^3, y) come back untouched.  GenericityError when no
    candidate works; that usually means the map is degenerate.
    """
    _require_plane(f)
    g, c = _rotated(_plane_rows(f), seed, _skip_identity)
    if c == 0:
        eye = RatMatrix.identity(2)
        return f, Automorphism.from_linear(eye, eye, "identity rotation")
    return PolyMap([_rows_poly(comp) for comp in g]), _rotation_automorphism(c)


def _free_target(rng: random.Random) -> tuple:
    def coord():
        v = Fraction(rng.randint(1, 99), rng.randint(1, 9))
        return v if rng.randint(0, 1) else -v
    return coord(), coord()


def _specialize(comp, y: Fraction) -> tuple:
    """z_rows(g - y) from g's own (L, rows), without building g - y."""
    L, rows = comp
    M = L * y.denominator // gcd(L, y.denominator)
    m = M // L
    out = [[m * c for c in row] for row in rows] or [[]]
    row0 = out[0] or [0]
    row0[0] -= M // y.denominator * y.numerator
    out[0] = _q_trim(row0)
    return _reduced(M, _q_trim(out))


def _specialized_resultant(g: list, target: Sequence) -> tuple:
    """(scale, R): R is scale * Res_{x2}(g1 - y1, g2 - y2) as an int list in x1.

    Each p_i = g_i - y_i is cleared to L_i * p_i over Z, and the resultant
    is homogeneous of degree deg_x2(p2) in p1 and deg_x2(p1) in p2.
    """
    L1, a = _specialize(g[0], target[0])
    L2, b = _specialize(g[1], target[1])
    if not a or not b:
        return 1, []
    return L1 ** (len(b) - 1) * L2 ** (len(a) - 1), z_resultant(a, b)


def _sqf_degree(g: list, target: Sequence):
    """(deg r, deg of its squarefree part), or None when r vanishes."""
    _, r = _specialized_resultant(g, target)
    if not r:
        return None
    return len(r) - 1, len(z_squarefree(r)[0]) - 1


def _dex2_stats(fr: list, seed: int = 0):
    """(dex, retry rounds) for the plane rows fr of a nondegenerate map."""
    retries = 0
    for round_ in range(4):
        # the identity rotation is only ever offered on the first round;
        # a map whose fibers stack several points over one x1 value in
        # the original coordinates passes the cheap leading-coefficient
        # test and is caught here by disagreement with a true rotation
        rot_a, _ = _rotated(fr, seed + 17 * round_, round_ > 0)
        rot_b, _ = _rotated(fr, seed + 17 * round_ + 7, True)
        rng = random.Random(f"dex2:{seed}:{round_}")
        targets = [_free_target(rng), _free_target(rng)]
        degs = []
        for g in (rot_a, rot_b):
            for t in targets:
                out = _sqf_degree(g, t)
                if out is None:
                    degs = None
                    break
                degs.append(out[1])
            if degs is None:
                break
        if degs is not None and len(set(degs)) == 1 and degs[0] >= 1:
            return degs[0], retries
        retries += 1
    raise GenericityError(
        "the squarefree fiber degree would not stabilize over four seeded "
        "rounds; the map may be degenerate or non-dominant")


def dex2(f: PolyMap, seed: int = 0) -> int:
    """Degree of the generic fiber of a plane map.

    Two independent rotations times two random targets; the squarefree
    degree of the specialized resultant must agree across all four runs.
    Disagreement triggers a fresh round of seeds.
    """
    fr = _checked_rows(f)
    d, _ = _dex2_stats(fr, seed)
    return d


def _rotation_context(fr: list, seed: int):
    """A rotation of the plane rows fr whose probe fiber is squarefree of
    full degree.

    Returns (rows of the rotated map, reference resultant degree).  The
    reference is what every later specialization is held against.
    """
    for k in range(5):
        g, _ = _rotated(fr, seed + k, k > 0)
        rng = random.Random(f"probe:{seed}:{k}")
        out = _sqf_degree(g, _free_target(rng))
        if out is None:
            continue
        deg_r, deg_sf = out
        if deg_r >= 1 and deg_r == deg_sf:
            return g, deg_r
    raise GenericityError("no rotation separated the points of a probe fiber")


def fiber_count_real(f: PolyMap, target: Sequence, seed: int = 0, _ctx=None) -> SpecializedFiber:
    """Exact real and complex point counts of one fiber.

    The specialized resultant must reach the reference degree from the
    probe; a drop means x1-values escaped, so the rotation is redrawn.
    A drop that two distinct rotations agree on is intrinsic (the map is
    not proper over this target, part of the complex fiber is missing
    at infinity) and the remaining affine fiber is counted as found.
    Empty real fibers are a normal outcome, recorded as real_count 0.
    _ctx, from mfs_sample, is (f's plane rows, its rotation context).
    """
    tgt = (Fraction(target[0]), Fraction(target[1]))
    if _ctx is None:
        fr = _checked_rows(f)
    else:
        fr, ctx = _ctx
    seen = []
    for attempt in range(5):
        if attempt == 0 and _ctx is not None:
            g, ref = ctx
        else:
            g, ref = _rotation_context(fr, seed + 31 * attempt)
        scale, r = _specialized_resultant(g, tgt)
        if not r:
            continue
        d = len(r) - 1
        if d == ref or d in seen:
            q, lead = z_squarefree(r)
            return SpecializedFiber(
                target=tgt,
                resultant_sf=z_to_poly(q, 2, 0, Fraction(lead, scale)),
                real_count=z_count_real_roots(q),
                complex_count=len(q) - 1,
            )
        seen.append(d)
    raise GenericityError(
        "the fiber over this target never matched the reference degree and "
        "no two rotations agreed; the fiber may be positive-dimensional")


def mfs_sample(f: PolyMap, seed: int = 0, samples: int = 200,
               sag_external: Optional[int] = None) -> AttributeReport:
    """Observed maximum real fiber size over seeded sample targets.

    Even samples take the image F(p) of a random rational point, so their
    fibers are certainly nonempty; odd samples take free targets, which
    probe for empty fibers too.  The reported mfs_observed is a lower
    bound for the true supremum, never a claim of equality.
    """
    fr = _checked_rows(f)
    dex, retries = _dex2_stats(fr, seed)
    ctx = (fr, _rotation_context(fr, seed))
    rng = random.Random(f"mfs:{seed}")
    best = 0
    for k in range(samples):
        if k % 2 == 0:
            s, t = rng.randint(-9, 9), rng.randint(-9, 9)
            tgt = tuple(Fraction(_eval_rows(rows, s, t)[0], L) for L, rows in fr)
        else:
            tgt = _free_target(rng)
        fib = fiber_count_real(f, tgt, seed=seed + 101 * (k + 1), _ctx=ctx)
        if fib.real_count > best:
            best = fib.real_count
    return AttributeReport(
        dex=dex,
        mfs_observed=best,
        samples=samples,
        seed=seed,
        parity_consistent=(dex - best) % 2 == 0,
        genericity_retries=retries,
        sag_external=sag_external,
    )
