"""Fiber statistics for plane maps: dex and observed mfs.

Everything here is for nondegenerate F: R^2 -> R^2.  The count of a fiber
F^{-1}(y) is read off the resultant r(x1) = Res_{x2}(f1 - y1, f2 - y2):
once the coordinates are generic enough, distinct fiber points carry
distinct x1 values, so the degree of the squarefree part of r counts the
complex fiber and a Sturm count over the whole line counts the real one.
The real x2 over a simple real root x1 comes from the first subresultant,
a rational expression in x1, so counting x1 values is counting points.

The fiber computations run in integers: per target each f_i - y_i is
cleared of denominators once, and the resultant, its squarefree part and
its Sturm count come from the dense kernel in elim.py.  The witness a
SpecializedFiber carries is the same Poly the Fraction functions there
give, which the tests hold it to.

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
from typing import Optional, Sequence

from .certs import Automorphism
from .elim import (poly_gcd, primitive_part, q_derive, resultant, uni_coeffs,
                   z_count_real_roots, z_gcd, z_resultant, z_rows,
                   z_squarefree, z_to_poly)
from .linalg import RatMatrix
from .maps import GenericityError, PolyMap, jacobian_det
from .poly import Poly

__all__ = [
    "AttributeReport",
    "SpecializedFiber",
    "MinimalPolyReport",
    "generic_rotation",
    "dex2",
    "fiber_count_real",
    "mfs_sample",
    "minimal_poly_coordinate",
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


@dataclass
class MinimalPolyReport:
    """Eliminant of one coordinate, raw and with repeated factors stripped.

    `resultant` lives in Q[x1, x2, Y1, Y2] (the Y's are the target
    coordinates); `reduced` is its squarefree, content-free part in the
    chosen coordinate.  deg(reduced) bounds dex from above and equals dex
    exactly when the coordinate is primitive for the map.
    """

    resultant: Poly
    reduced: Poly
    degree: int


def _require_plane(f: PolyMap) -> None:
    if f.n_in != 2 or f.n_out != 2:
        raise ValueError("fiber statistics are implemented for plane maps only")


def _require_nondegenerate(f: PolyMap) -> None:
    j = jacobian_det(f)
    if isinstance(j, Poly) and j.is_zero():
        raise ValueError("degenerate map: jacobian determinant is identically zero")


def _eliminable(f: PolyMap) -> bool:
    """True when x2 can be eliminated honestly: every component that
    moves with x2 has a constant leading x2-coefficient, and at least
    one component does move."""
    some = False
    for comp in f.components:
        cs = uni_coeffs(comp, 1)
        if len(cs) - 1 > 0:
            some = True
            if not cs[-1].is_constant():
                return False
    return some


def _rotate_by(f: PolyMap, c: Fraction) -> PolyMap:
    x1 = Poly.variable(2, 0)
    x2 = Poly.variable(2, 1)
    images = [x1 + x2.scale(c), x1.scale(-c) + x2]
    return PolyMap([comp.substitute(images) for comp in f.components])


def _rotation_automorphism(c: Fraction) -> Automorphism:
    m = RatMatrix([[Fraction(1), c], [-c, Fraction(1)]])
    return Automorphism.from_linear(m, m.inverse(), f"rotation c={c}")


def generic_rotation(f: PolyMap, seed: int = 0, _skip_identity: bool = False):
    """Precompose f with a seeded rotation until x2 eliminates honestly.

    Returns (f o R, R as an automorphism).  The identity is tried first,
    so maps like (x^3, y) come back untouched.  GenericityError when no
    candidate works; that usually means the map is degenerate.
    """
    _require_plane(f)
    if not _skip_identity and _eliminable(f):
        eye = RatMatrix.identity(2)
        return f, Automorphism.from_linear(eye, eye, "identity rotation")
    rng = random.Random(f"rotation:{seed}")
    for _ in range(8):
        c = Fraction(rng.randint(1, 19), rng.randint(1, 3))
        if rng.randint(0, 1):
            c = -c
        g = _rotate_by(f, c)
        if _eliminable(g):
            return g, _rotation_automorphism(c)
    raise GenericityError(
        "no rotation exposed a constant leading coefficient in x2; "
        "the map is likely degenerate")


def _free_target(rng: random.Random) -> tuple:
    def coord():
        v = Fraction(rng.randint(1, 99), rng.randint(1, 9))
        return v if rng.randint(0, 1) else -v
    return coord(), coord()


def _specialized_resultant(g: PolyMap, target: Sequence) -> tuple:
    """(scale, R): R is scale * Res_{x2}(g1 - y1, g2 - y2) as an int list in x1.

    Each p_i = g_i - y_i is cleared to L_i * p_i over Z, and the resultant
    is homogeneous of degree deg_x2(p2) in p1 and deg_x2(p1) in p2.
    """
    L1, a = z_rows(g.components[0] - Poly.const(2, target[0]))
    L2, b = z_rows(g.components[1] - Poly.const(2, target[1]))
    if not a or not b:
        return 1, []
    return L1 ** (len(b) - 1) * L2 ** (len(a) - 1), z_resultant(a, b)


def _sqf_degree(g: PolyMap, target: Sequence):
    """(deg r, deg of its squarefree part), or None when r vanishes."""
    _, r = _specialized_resultant(g, target)
    if not r:
        return None
    if len(r) == 1:
        return 0, 0
    return len(r) - 1, len(r) - len(z_gcd(r, q_derive(r)))


def _dex2_stats(f: PolyMap, seed: int = 0):
    _require_plane(f)
    _require_nondegenerate(f)
    retries = 0
    for round_ in range(4):
        # the identity rotation is only ever offered on the first round;
        # a map whose fibers stack several points over one x1 value in
        # the original coordinates passes the cheap leading-coefficient
        # test and is caught here by disagreement with a true rotation
        rot_a, _ = generic_rotation(f, seed + 17 * round_, _skip_identity=round_ > 0)
        rot_b, _ = generic_rotation(f, seed + 17 * round_ + 7, _skip_identity=True)
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
    d, _ = _dex2_stats(f, seed)
    return d


def _rotation_context(f: PolyMap, seed: int):
    """A rotation whose probe fiber is squarefree of full degree.

    Returns (rotated map, reference resultant degree).  The reference is
    what every later specialization is held against.
    """
    for k in range(5):
        g, _ = generic_rotation(f, seed + k, _skip_identity=k > 0)
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
    """
    tgt = (Fraction(target[0]), Fraction(target[1]))
    if _ctx is None:
        _require_plane(f)
        _require_nondegenerate(f)
    seen = []
    for attempt in range(5):
        if attempt == 0 and _ctx is not None:
            g, ref = _ctx
        else:
            g, ref = _rotation_context(f, seed + 31 * attempt)
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
    dex, retries = _dex2_stats(f, seed)
    ctx = _rotation_context(f, seed)
    rng = random.Random(f"mfs:{seed}")
    best = 0
    for k in range(samples):
        if k % 2 == 0:
            point = [Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))]
            tgt = tuple(comp.eval_at(point) for comp in f.components)
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


def minimal_poly_coordinate(f: PolyMap, coord: int) -> MinimalPolyReport:
    """Eliminant of one coordinate over the target variables.

    Works in Q[x1, x2, Y1, Y2]: the other coordinate is eliminated from
    (f1 - Y1, f2 - Y2) and the resultant is read as a polynomial in the
    chosen coordinate with coefficients in Q[Y1, Y2].  The reduced form
    divides out gcd(r, dr), which strips both the Q[Y]-content and the
    repeated factors in one go; its degree shows whether the coordinate
    is primitive.  For (x^3, y) the x-eliminant has degree 3 = dex while
    the y-eliminant collapses to y - Y2: y separates nothing, which is
    exactly why dex2 insists on rotations.
    """
    _require_plane(f)
    _require_nondegenerate(f)
    if coord not in (0, 1):
        raise ValueError("coord must be 0 or 1")
    p1 = f.components[0].extend(4) - Poly.variable(4, 2)
    p2 = f.components[1].extend(4) - Poly.variable(4, 3)
    raw = resultant(p1, p2, 1 - coord)
    if raw.is_zero() or raw.degree_in(coord) == 0:
        raise ValueError("elimination collapsed; the map is degenerate")
    g = poly_gcd(raw, raw.derive(coord))
    reduced = primitive_part(raw if g.is_constant() else raw.exact_divide(g))
    return MinimalPolyReport(resultant=raw, reduced=reduced,
                             degree=reduced.degree_in(coord))
