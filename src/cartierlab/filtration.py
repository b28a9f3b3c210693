"""Ideal-twisted filtrations: jumping numbers, associated graded pieces,
and the Skoda-type inclusion/equality checks.

The jumping-number sweep searches a rational grid with denominator
p^A (p^B - 1).  The test modules tau(M, a^t) only shrink as t grows
(Blickle-Mustata-Smith, Michigan Math. J. 2008, for ideals;
Blickle-Staebler, arXiv:1605.09517, for Cartier modules).  So when the two
ends of a stretch of grid points have the same tau, every point between
them has it too, and the sweep bisects the grid instead of walking it.
Drops are certified by computation at the two neighbouring grid points that
straddle them, and right-continuity is witnessed at half a grid step past
each jump.  Spectra are labelled EXACT only on the principal fast path (where
the denominator heuristic pins the candidate set, and each tau value is the
certified fixed point of ``tau_bms``'s root chain); everything else is
reported as a LOWER-BOUND spectrum with the grid disclosed.
"""

from dataclasses import dataclass, field
from fractions import Fraction
import math

from .cartiercore import (CartierAlgebraSpec, CartierOp,
                          validate_structure)
from .errors import ResourceCapError, UnsupportedShapeError
from .fpmod import PresentedModule, present_submodule
from .groebner import LiftContext, VecPoly, memo_scope
from .idealkit import Ideal
from .testmod import tau, tau_bms


def grid_denominator(p, caps):
    """The grid denominator p^A (p^B - 1) for ``caps`` = (A, B)."""
    A, B = caps
    if A < 0 or B < 1:
        raise ValueError(f"denom-caps need A >= 0 and B >= 1, got {A},{B}")
    return p ** A * (p ** B - 1)


def _is_fast_path(cm, ideal):
    """tau_bms applies: a trace line with nothing inverted and no twists,
    and a principal nonzero ideal."""
    return (cm.is_trace_line() and cm.inverted is None
            and not cm.algebra.twists
            and len(ideal.gens) == 1 and not ideal.gens[0].is_zero())


class _TauSampler:
    """tau(M, a^t) as a canonical submodule.

    A repeated t is answered by the memo scope that the public calls of
    this module open.  With a cache, the sampler's answers live in one
    cache entry, a table ``{t: generators}`` keyed on everything but t
    (operation, ring, module, ideal, fast path).  The table is read once,
    here; each t found in it counts one hit in ``hits``.  Every computed t
    joins the table, and ``flush`` writes it back once.  A table written by
    another sweep of the same key is reused and extended, whatever its grid.
    """

    def __init__(self, cm, ideal, cache=None):
        self.cm = cm
        self.ideal = ideal
        self.fast = _is_fast_path(cm, ideal)
        self.cache = cache
        self.hits = 0
        self._table = {}
        self._grown = False
        if cache is not None:
            ring = cm.ring
            self._key = {
                "op": "tau-at",
                # the one term order, which the stored bases are sorted by
                "ring": [ring.p, list(ring.vars), "grevlex"],
                "module": cm.serialize(),
                "ideal": ideal.serialize(),
                "fast_path": self.fast,
            }
            self._table = cache.lookup(self._key) or {}

    def at(self, t):
        t = Fraction(t)
        text = f"{t.numerator}/{t.denominator}"
        stored = self._table.get(text)
        if stored is not None:
            self.hits += 1
            sub = self.cm.module.submodule(
                [[self.cm.ring.parse(s) for s in row] for row in stored])
            return self.cm.canon(sub.gens)
        if self.fast:
            if t == 0:
                J = Ideal(self.cm.ring, [self.cm.ring.one()])
            else:
                J = tau_bms(self.ideal.gens[0], t)
            sub = self.cm.module.submodule([[g] for g in J.groebner()])
        else:
            twisted = self.cm.with_algebra(
                self.cm.algebra.with_twist(self.ideal, t))
            sub = tau(twisted).submodule
        if self.cache is not None:
            self._table[text] = sub.serialize()["generators"]
            self._grown = True
        return sub

    def flush(self):
        """Write the table back if this sampler computed a t it lacked.
        The write replaces the whole entry atomically, so of two sweeps
        that extend one table concurrently the later write wins."""
        if self._grown:
            self.cache.store(self._key, self._table)


@dataclass
class JumpRecord:
    t: Fraction
    tau_before: list
    tau_at: list
    delta: Fraction
    right_continuity_ok: bool

    def serialize(self):
        return {"t": f"{self.t.numerator}/{self.t.denominator}",
                "tau_before": self.tau_before,
                "tau_at": self.tau_at,
                "delta": f"{self.delta.numerator}/{self.delta.denominator}",
                "right_continuity_ok": self.right_continuity_ok}


@dataclass
class JumpSpectrum:
    top: Fraction
    denominator: int
    exactness: str
    jumps: list = field(default_factory=list)
    cache_hits: int = 0

    def jump_values(self):
        return [j.t for j in self.jumps]

    def serialize(self):
        return {"top": f"{self.top.numerator}/{self.top.denominator}",
                "grid_denominator": self.denominator,
                "exactness": self.exactness,
                "cache_hits": self.cache_hits,
                "jumps": [j.serialize() for j in self.jumps]}


@memo_scope()
def jumping_numbers(cm, ideal, top, caps=(2, 2), cache=None):
    """Scan tau(M, a^t) over the grid and certify the strict drops.

    ``caps`` = (A, B) fixes the candidate denominator p^A (p^B - 1).
    Monotonicity is asserted along the way; a violation means an internal
    error, never a spectrum.

    With a ``cache``, the sweep reads its table of tau values once (see
    ``_TauSampler``) and writes it once at the end, also when the sweep
    raises, so the points computed before the fault are kept.  A sweep that
    computed nothing new writes nothing.  ``cache_hits`` counts the grid
    values that the bisection of ``_scan`` reads from the table.
    """
    ring = cm.ring
    top = Fraction(top)
    if top <= 0:
        raise ValueError("need top > 0")
    D = grid_denominator(ring.p, caps)
    sampler = _TauSampler(cm, ideal, cache=cache)
    try:
        jumps = _scan(sampler, ideal, top, D)
    finally:
        # once per sweep, also when it raised: the points computed so far
        # are kept for the next run
        sampler.flush()
    exactness = "EXACT" if sampler.fast else "LOWER-BOUND"
    return JumpSpectrum(top, D, exactness, jumps, cache_hits=sampler.hits)


def _scan(sampler, ideal, top, D):
    """The certified jumps of ``sampler`` on the grid ``k/D``, ``k/D <= top``.

    tau(M, a^t) only shrinks as t grows (see the module docstring), so a
    stretch of grid points whose two ends have the same tau is constant and
    holds no jump.  The scan reads the two ends of the grid and splits a
    stretch at its middle point only while its end values differ.  Where two
    neighbouring grid points differ, it records the jump in ascending order.
    Monotonicity is asserted on every pair of neighbouring points it reads;
    points inside a stretch shown constant are never computed.
    """
    trivial_twist = ideal.is_unit()
    delta = Fraction(1, D)
    jumps = []

    def split(lo, hi, before, after):
        if before == after:
            return
        if hi - lo > 1:
            mid = (lo + hi) // 2
            middle = sampler.at(mid * delta)
            split(lo, mid, before, middle)
            split(mid, hi, middle, after)
            return
        t = hi * delta
        if not before.contains_sub(after):
            raise AssertionError(
                f"tau not monotone between {lo * delta} and {t} "
                "(internal error)")
        if not trivial_twist:
            half = sampler.at(t + delta / 2) if t + delta / 2 <= top else after
            jumps.append(JumpRecord(
                t, before.serialize()["generators"],
                after.serialize()["generators"], delta, half == after))

    steps = int(top * D)
    split(0, steps, sampler.at(Fraction(0)), sampler.at(steps * delta))
    return jumps


# ---------------------------------------------------------------------------
# associated graded


def _principal_generator(cm):
    alg = cm.algebra
    if len(alg.generators) != 1 or alg.generators[0].e != 1 or alg.twists:
        raise UnsupportedShapeError(
            "graded pieces need a principal untwisted degree-1 algebra")
    return alg.generators[0]


@memo_scope()
def gr(cm, ideal, t, caps=(2, 2)):
    """The graded piece  tau(a^(t-eps)) / tau(a^t)  as a validated module.

    Epsilon is resolved concretely: the next-lower grid point, halved once
    to witness left-stability.  The quotient carries the structural operator
    premultiplied by f^ceil(t(p-1)) where (f) = a; the result is validated.
    """
    op = _principal_generator(cm)
    if len(ideal.gens) != 1:
        raise UnsupportedShapeError("graded pieces need a principal ideal")
    f = ideal.gens[0]
    ring = cm.ring
    t = Fraction(t)
    D = grid_denominator(ring.p, caps)
    sampler = _TauSampler(cm, ideal)
    at_t = sampler.at(t)
    delta = Fraction(1, D)
    for _ in range(ring.caps.chain_cap):
        before = sampler.at(max(t - delta, Fraction(0)))
        halved = sampler.at(max(t - delta / 2, Fraction(0)))
        if before == halved:
            break
        delta = delta / 2
    else:
        raise ResourceCapError("left limit did not stabilize")
    numerator = before
    denominator = at_t
    num_mod, num_gens = present_submodule(numerator)
    if not num_gens:
        zero_mod = PresentedModule(ring, 0)
        qcm = validate_structure(zero_mod, CartierAlgebraSpec([CartierOp(1, [])]))
        return qcm, {"t": t, "delta": delta}
    ctx = LiftContext(num_gens, cm.module.relation_gb(), cm.module.rank)
    extra = []
    for g in denominator.basis():
        lam = ctx.lift(g)
        if lam is None:
            raise AssertionError("tau(t) not inside tau(t-eps)?")
        extra.append(VecPoly.from_columns(ring, lam))
    quotient = PresentedModule(ring, num_mod.rank,
                               list(num_mod.relations) + extra)
    mult = f ** math.ceil(t * (ring.p - 1))
    twisted_op = op.premultiplied(mult)

    def action(a, j):
        image = twisted_op.apply_vec(num_gens[j].mul_term(a, 1))
        lam = ctx.lift(image)
        if lam is None:
            raise AssertionError("structural image left the numerator")
        return VecPoly.from_columns(ring, lam)

    from .cartiercore import operator_from_action

    qop = operator_from_action(quotient, 1, action)
    qcm = validate_structure(quotient, CartierAlgebraSpec([qop]))
    return qcm, {"t": t, "delta": delta}


# ---------------------------------------------------------------------------
# inclusion/equality checks


@memo_scope()
def skoda_report(cm, ideal, t):
    """One Skoda/containment check at exponent t:
    a * tau(a^(t-1)) <= tau(a^t), equality expected when t >= #gens(a)."""
    t = Fraction(t)
    if t < 1:
        raise ValueError("need t >= 1")
    sampler = _TauSampler(cm, ideal)
    return {"t": f"{t.numerator}/{t.denominator}",
            **_skoda_verdict(cm, ideal, t, sampler.at(t - 1), sampler.at(t))}


def _skoda_verdict(cm, ideal, t, low, high):
    """The Skoda rule a * low <= high, with equality expected for t >= mu,
    the number of generators of a."""
    scaled = cm.canon(low.scale_ideal(ideal).gens)
    inclusion = high.contains_sub(scaled)
    mu = len(ideal.gens)
    equality = scaled == high
    return {"inclusion": inclusion,
            "mu": mu,
            "equality_expected": t >= mu,
            "equality": equality,
            "ok": inclusion and (equality or t < mu)}


def _tau_mixed(cm, pairs):
    """tau(M, prod a_i^(t_i)) over the twists with t_i > 0."""
    alg = cm.algebra
    for ideal, t in pairs:
        if t > 0:
            alg = alg.with_twist(ideal, Fraction(t))
    return tau(cm.with_algebra(alg)).submodule


@memo_scope()
def mixed_skoda_report(cm, pairs, index):
    """Mixed variant: a_i * tau(prod a_j^(t_j - [j==i])) <= tau(prod a_j^t_j)."""
    pairs = [(ideal, Fraction(t)) for ideal, t in pairs]
    ideal_i, t_i = pairs[index]
    if t_i < 1:
        raise ValueError("need t_i >= 1")
    lowered = [(ideal, t - 1 if k == index else t)
               for k, (ideal, t) in enumerate(pairs)]
    return {"index": index,
            **_skoda_verdict(cm, ideal_i, t_i, _tau_mixed(cm, lowered),
                             _tau_mixed(cm, pairs))}


@memo_scope()
def mixed_right_continuity(cm, pairs, epsilons):
    """tau(prod a_i^(t_i)) == tau(prod a_i^(t_i + eps_i)) for sampled eps."""
    base = _tau_mixed(cm, pairs)
    results = []
    for eps in epsilons:
        bumped = [(ideal, Fraction(t) + Fraction(e))
                  for (ideal, t), e in zip(pairs, eps)]
        results.append(_tau_mixed(cm, bumped) == base)
    return results

