"""Machine-checkable certificates connecting polynomial maps.

A certificate links a source map to a target map through a sequence of
moves, each one an elementary operation whose effect on a map is fully
determined by its stored data: ExtendFreshVars(k) appends k fresh
variables to both sides, PostCompose(A) makes F into A after F,
PreCompose(A) into F after A, and SegreExtend into (F(t x)/t, t) for a
fresh last variable t.  Each kind is one class, which holds

  * tag, its JSON name (MOVES maps tags to classes), and auto, the
    automorphism it stores or None;
  * dims(n_in, n_out), the shape it leaves or a ValueError: the one
    shape rule, read by replay and by the certificate decoder;
  * replay(f), the map after it, and transport(x, y, rng), the graph
    point it makes of (x, F(x) = y), or None to skip the sample.

A certificate is its source, its moves and its target, nothing else.
Verification replays the moves once, from the source, checking each
automorphism on the way, and compares the last map with the target; no
intermediate map is stored or trusted.  Automorphisms carry their
inverses and are checked two-sided and symbolically; an inverse may be
rational, in which case the identity is checked in the fraction field
(denominators cleared, exactly).

Two kinds of automorphism are the exception: each is stored by its
structure and checked without a symbolic composition.  Every kind
replays, transports and checks itself (post, pre, push, pull and
verify_two_sided).

  * A shear x -> x + g is stored as its addends g_i alone.  When every
    addend lives in the shear's variables and none reads a shifted
    variable, x - g is an exact two-sided inverse.  Replay and transport
    touch only the shifted coordinates.  On the domain side that needs
    to know which components read a shifted variable: a map carries a
    summary, the highest variable index each component reads
    (PolyMap.tops), and whenever a map has one it is exact for that
    map's components.  A component whose highest index is below every
    shifted index is neither scanned nor substituted.
  * An affine map x -> Mx + v is stored as the sparse rows of M and of
    its stated inverse N beside the shifts v and w, and checked by one
    sparse product.  Replay and transport touch only the moved rows.  A
    coordinate permutation x -> x[perm] is the affine map whose rows are
    all unit rows, each copying one coordinate: replay reorders
    components or relabels the variables of each monomial, transport
    reorders coordinates, and the check compares one row of N per row.

Extensions and these two kinds keep the summary exact for the
components they add, rewrite or move; any other move leaves it unbuilt.

Each move also induces a correspondence of graph points: given x and
y = F(x), it says which (x', y') witnesses the next map.  Pushing
sampled fiber points through that correspondence and re-checking the
final equation is an independent, cheap consistency probe; it cannot
replace replay but catches broken bookkeeping fast.  The points are
ints and Fractions, and every polynomial the transport evaluates (the
source, a shear's addends, a general automorphism's map or rational
inverse, the target) goes through ratpoint.evaluator: it is evaluated in
integers over the common denominator of the coordinates it reads, one
shared power cache per point.  A shear step converts only the
coordinates its addends read; an affine step is a sparse matrix-vector
product over the moved rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .maps import PolyMap
from .poly import ExactDivisionError, Poly, mono_degree, qdiv
from .ratpoint import evaluator
# last: maps compiles elim, the largest module, before affine and the
# grammar it imports add their code to the heap (see affine's docstring)
from .affine import _substitute_moved


class RationalMap:
    """Numerators over one shared denominator, all exact."""

    __slots__ = ("nums", "den")

    def __init__(self, nums, den: Poly):
        self.nums = list(nums)
        self.den = den
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        for p in self.nums:
            if p.varcount != den.varcount:
                raise ValueError("variable count mismatch in rational map")

    @property
    def n_in(self) -> int:
        return self.den.varcount

    @property
    def n_out(self) -> int:
        return len(self.nums)

    def eval_at(self, point):
        """The value at an exact point, or None where the denominator
        vanishes; each quotient is exact (qdiv), never a float.  The
        denominator and numerators go through one ratpoint.evaluator."""
        value = evaluator(point)
        d = value(self.den)
        if d == 0:
            return None
        return [qdiv(value(p), d) for p in self.nums]

    def __repr__(self) -> str:
        return f"RationalMap({self.n_in}->{self.n_out})"


def substitute_rational(p: Poly, nums, den: Poly):
    """p(nums/den) written over a single denominator: returns (q, k) with
    p(nums/den) = q / den**k.

    A numerator that den divides exactly is substituted as its quotient.
    Only the remaining, genuinely rational coordinates are homogenized:
    k is the largest degree of a term of p in them, and each term c*x^m
    gains h^(k - that degree) for one extra variable h, with den
    substituted for h.
    """
    images = []
    rational = set()
    for i, num in enumerate(nums):
        try:
            images.append(num.exact_divide(den))
        except ExactDivisionError:
            images.append(num)
            rational.add(i)
    degs = {m: sum(e for v, e in m if v in rational) for m in p.terms}
    k = max(degs.values(), default=0)
    h = p.varcount
    hom = {}
    for m, c in p.terms.items():
        pad = k - degs[m]
        hom[m + ((h, pad),) if pad else m] = c
    return Poly(h + 1, hom).substitute(images + [den]), k


class Automorphism:
    """An invertible polynomial map bundled with its inverse.

    The inverse is a PolyMap for genuine polynomial automorphisms and a
    RationalMap when only a birational inverse exists (then the forward
    direction is injective off the denominator's zero set and the
    composition identities hold in the fraction field).
    """

    __slots__ = ("forward", "inverse", "label")

    def __init__(self, forward: PolyMap, inverse, label: str = ""):
        if forward.n_in != forward.n_out:
            raise ValueError("an automorphism must be an endomorphism")
        self.forward = forward
        self.inverse = inverse
        self.label = label

    @property
    def dim(self) -> int:
        return self.forward.n_in

    def is_polynomial(self) -> bool:
        return isinstance(self.inverse, PolyMap)

    def verify_two_sided(self) -> Optional[str]:
        """None when both composition identities hold exactly, else a
        human-readable reason."""
        n = self.dim
        fwd = self.forward
        inv = self.inverse
        if isinstance(inv, PolyMap):
            if inv.n_in != n or inv.n_out != n:
                return "inverse has the wrong shape"
            if not fwd.compose(inv).is_identity():
                return "forward after inverse is not the identity"
            if not inv.compose(fwd).is_identity():
                return "inverse after forward is not the identity"
            return None
        if inv.n_in != n or inv.n_out != n:
            return "rational inverse has the wrong shape"
        # forward after inverse, in the fraction field
        for i, comp in enumerate(fwd.components):
            q, k = substitute_rational(comp, inv.nums, inv.den)
            expect = Poly.variable(n, i) * inv.den ** k
            if q != expect:
                return f"forward after rational inverse fails on component {i}"
        # inverse after forward: polynomial identities
        den_f = inv.den.substitute(fwd.components)
        for i, num in enumerate(inv.nums):
            if num.substitute(fwd.components) != Poly.variable(n, i) * den_f:
                return f"rational inverse after forward fails on component {i}"
        return None

    # replay (this map after f, f after it) and transport (the map and its
    # inverse at a point, None where a denominator vanishes), for every kind
    def post(self, f: PolyMap) -> PolyMap:
        return self.forward.compose(f)

    def pre(self, f: PolyMap) -> PolyMap:
        return f.compose(self.forward)

    def push(self, y: list) -> list:
        return self.forward.eval_at(y)

    def pull(self, x: list):
        return self.inverse.eval_at(x)

    def __repr__(self) -> str:
        tag = self.label or ("poly" if self.is_polynomial() else "rational-inverse")
        return f"Automorphism(dim={self.dim}, {tag})"


def _with_rows(f: PolyMap, new: dict) -> PolyMap:
    """f with component i replaced by new[i]; a summary f has stays exact."""
    out = list(f.components)
    tops = None if f.tops is None else list(f.tops)
    for i, p in new.items():
        out[i] = p
        if tops is not None:
            tops[i] = p.top_index()
    return PolyMap(out, tops)


def _shear_defect(n: int, additions: dict, reads: set) -> Optional[str]:
    """Why the addends do not make a shear of dim n, else None; the
    variables each addend reads are added to reads on the way."""
    for i, g in additions.items():
        if not 0 <= i < n:
            return "shear index out of range"
        if g.varcount != n:
            return "shear addend has the wrong variable count"
        used = g.variables_used()
        if not used.isdisjoint(additions):
            return "shear addend uses a shifted variable"
        reads |= used
    return None


class ShearAutomorphism:
    """x_i -> x_i + g_i on a sparse set of coordinates, stored as its addends.

    Moves, JSON and transport all read the addend dictionary; the full
    forward and inverse maps are never built.  reads holds the variables
    the addends read, the only coordinates a transport step converts; it
    is built with the addends, which are not changed afterwards.
    """

    __slots__ = ("n", "additions", "label", "reads")

    def __init__(self, n: int, additions: dict, label: str = ""):
        reads = set()
        reason = _shear_defect(n, additions, reads)
        if reason is not None:
            raise ValueError(reason)
        self.n = n
        self.additions = dict(additions)
        self.label = label
        self.reads = tuple(sorted(reads))

    @property
    def dim(self) -> int:
        return self.n

    def verify_two_sided(self) -> Optional[str]:
        """None when every index is in range, every addend lives in n
        variables and none reads a shifted variable, else the reason.
        That shape proves x - g inverts x + g: x + g after x - g sends x_i
        to x_i - g_i(x) + g_i(x - g) = x_i, as g_i reads only coordinates
        x - g leaves alone, and likewise the other way round."""
        return _shear_defect(self.n, self.additions, set())

    def post(self, f: PolyMap) -> PolyMap:
        comps = f.components
        return _with_rows(f, {i: comps[i] + g.substitute(comps)
                              for i, g in self.additions.items()})

    def pre(self, f: PolyMap) -> PolyMap:
        n, additions = self.n, self.additions
        return _substitute_moved(f, additions, lambda j: Poly(n, {((j, 1),): 1}) + additions[j])

    def push(self, x: list, sign: int = 1) -> list:
        """x + sign * g(x), converting only the coordinates g reads."""
        value = evaluator(x, self.reads)
        out = list(x)
        for i, g in self.additions.items():
            out[i] = x[i] + sign * value(g)
        return out

    def pull(self, x: list) -> list:
        return self.push(x, -1)

    def __repr__(self) -> str:
        return f"ShearAutomorphism(dim={self.n}, shifts={sorted(self.additions)})"


@dataclass(frozen=True)
class ExtendFreshVars:
    count: int
    tag = "extend"
    auto = None

    def dims(self, n_in: int, n_out: int) -> tuple:
        if self.count < 1:
            raise ValueError("must add at least one fresh variable")
        return n_in + self.count, n_out + self.count

    def replay(self, f: PolyMap) -> PolyMap:
        n = f.n_in + self.count
        comps = [c.extend(n) for c in f.components]
        comps.extend(Poly.variable(n, i) for i in range(f.n_in, n))
        tops = None if f.tops is None else f.tops + list(range(f.n_in, n))
        return PolyMap(comps, tops)

    def transport(self, x: list, y: list, rng: random.Random):
        z = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(self.count)]
        return x + z, y + z


@dataclass(frozen=True)
class PostCompose:
    auto: Automorphism
    tag = "post"

    def dims(self, n_in: int, n_out: int) -> tuple:
        if self.auto.dim != n_out:
            raise ValueError(f"an automorphism of dim {self.auto.dim} acts on dim {n_out}")
        return n_in, n_out

    def replay(self, f: PolyMap) -> PolyMap:
        return self.auto.post(f)

    def transport(self, x: list, y: list, rng: random.Random):
        return x, self.auto.push(y)


@dataclass(frozen=True)
class PreCompose:
    auto: Automorphism
    tag = "pre"

    def dims(self, n_in: int, n_out: int) -> tuple:
        if self.auto.dim != n_in:
            raise ValueError(f"an automorphism of dim {self.auto.dim} acts on dim {n_in}")
        return n_in, n_out

    def replay(self, f: PolyMap) -> PolyMap:
        return self.auto.pre(f)

    def transport(self, x: list, y: list, rng: random.Random):
        nx = self.auto.pull(x)
        return None if nx is None else (nx, y)


@dataclass(frozen=True)
class SegreExtend:
    tag = "segre"
    auto = None

    def dims(self, n_in: int, n_out: int) -> tuple:
        return n_in + 1, n_out + 1

    def replay(self, f: PolyMap) -> PolyMap:
        # replay checks this, not dims, so that a certificate with a Segre
        # move on a map that is not square decodes and then fails replay
        if not f.is_endomorphism():
            raise ValueError("the Segre move needs an endomorphism")
        if any(c.constant_term() != 0 for c in f.components):
            raise ValueError("the Segre move needs zero constant terms")
        # F_i(t x)/t: each term c*x^m of degree d gains t^(d - 1)
        n = f.n_in
        comps = [Poly(n + 1, {(m + ((n, d - 1),) if (d := mono_degree(m)) > 1 else m): c
                              for m, c in comp.terms.items()}) for comp in f.components]
        return PolyMap(comps + [Poly.variable(n + 1, n)])

    def transport(self, x: list, y: list, rng: random.Random):
        t = Fraction(rng.randrange(1, 7), rng.randrange(1, 4))
        if rng.randrange(2):
            t = -t
        return [xi / t for xi in x] + [t], [yi / t for yi in y] + [t]


MOVES = {m.tag: m for m in (ExtendFreshVars, PostCompose, PreCompose, SegreExtend)}


def apply_move(f: PolyMap, move) -> PolyMap:
    """The map after one move: its shape rule (dims), then its replay."""
    move.dims(f.n_in, f.n_out)
    return move.replay(f)


class Certificate:
    """Source, target, and the moves that carry one to the other."""

    def __init__(self, source: PolyMap, target: PolyMap, moves: list,
                 kind: str = "reduction"):
        self.source = source
        self.target = target
        self.moves = moves
        self.kind = kind

    def __repr__(self) -> str:
        return (
            f"Certificate({self.kind}, {self.source.n_in}->{self.target.n_in} vars, "
            f"{len(self.moves)} moves)"
        )


class CertificateBuilder:
    def __init__(self, source: PolyMap, kind: str = "reduction"):
        self.source = source
        self.kind = kind
        self.moves: list = []
        self.current = source

    def push(self, move) -> PolyMap:
        self.current = apply_move(self.current, move)
        self.moves.append(move)
        return self.current

    def build(self) -> Certificate:
        return Certificate(self.source, self.current, self.moves, self.kind)


@dataclass
class CertReport:
    ok: bool
    moves_checked: int
    autos_checked: int
    issues: list = field(default_factory=list)


def verify_certificate(cert: Certificate) -> CertReport:
    """Replay the moves once from the source, check every automorphism
    inverts exactly, and compare the map reached with the target.  A move
    whose replay raises ends the walk there."""
    issues = []
    autos = 0
    cur = cert.source
    for idx, move in enumerate(cert.moves):
        if move.auto is not None:
            reason = move.auto.verify_two_sided()
            autos += 1
            if reason is not None:
                issues.append(f"move {idx}: automorphism check failed: {reason}")
        try:
            cur = apply_move(cur, move)
        except (ValueError, TypeError, ArithmeticError) as e:
            issues.append(f"move {idx}: replay raised: {e}")
            return CertReport(False, idx + 1, autos, issues)
    if cur != cert.target:
        issues.append("last intermediate differs from the target")
    return CertReport(not issues, len(cert.moves), autos, issues)


@dataclass
class FiberReport:
    ok: bool
    samples_run: int
    samples_skipped: int
    issues: list = field(default_factory=list)


def fiber_transport_check(cert: Certificate, seed: int = 0, samples: int = 20) -> FiberReport:
    """Sample fiber points of the source and chase them through every
    move's point correspondence; the transported points must satisfy the
    target equation exactly.  Samples whose transport hits a rational
    inverse's vanishing denominator are skipped and counted."""
    rng = random.Random(seed)
    n = cert.source.n_in
    run = 0
    skipped = 0
    issues = []
    for s in range(samples):
        x = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(n)]
        y = cert.source.eval_at(x)
        dead = False
        for idx, move in enumerate(cert.moves):
            nxt = move.transport(x, y, rng)
            if nxt is None:
                skipped += 1
                dead = True
                break
            x, y = nxt
        if dead:
            continue
        run += 1
        if cert.target.eval_at(x) != y:
            issues.append(f"sample {s}: transported point misses the target graph")
    return FiberReport(not issues, run, skipped, issues)
