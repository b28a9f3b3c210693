"""Differential tests of the graded-sum scan against a windowed oracle.

``graded_sum`` returns as soon as the running sum equals the module's
algebra-stable carrier (with the seed inside it), reporting the degree the
windowed scan would have stopped at; and it keeps its intermediate pieces
unsaturated.  The oracle below is the windowed scan with every piece
saturated, which walks every quiet degree; both must give the same
submodule and the same info dict.
"""

import math
import random
from fractions import Fraction

import pytest

from cartierlab import cartiercore
from cartierlab.cartiercore import (CartierAlgebraSpec, CartierOp,
                                    _apply_generator, _expand_twist_powers,
                                    _max_degree, _twist_moves, _twist_window,
                                    graded_sum, underline, validate_structure)
from cartierlab.errors import InvalidStructureError, ResourceCapError
from cartierlab.fppoly import EngineCaps, RingSpec
from cartierlab.groebner import VecPoly, memo_scope
from cartierlab.fpmod import PresentedModule
from cartierlab.idealkit import Ideal
from cartierlab.testmod import candidate_elements

from instancegen import friendly_factor, random_cartier_module


def saturated_piece_gens(cm, e, seed_gens):
    """``graded_piece_gens`` with every per-level state saturated."""
    ring = cm.ring
    twists = cm.algebra.twists
    states = {0: {cm.algebra.twist_exponents(e): list(seed_gens)}}
    for consumed in range(e):
        level = states.get(consumed)
        if not level:
            continue
        for pending in list(level):
            level[pending] = cm.canon(level[pending]).basis()
        for op in cm.algebra.generators:
            if consumed + op.e > e:
                continue
            target = states.setdefault(consumed + op.e, {})
            for pending, gens in level.items():
                for mult, new_pending in _twist_moves(ring, twists, op.e,
                                                      pending):
                    scaled = [v.mul_poly(mult) for v in gens]
                    images = _apply_generator(cm, op, scaled)
                    if images:
                        target.setdefault(new_pending, []).extend(images)
    out = []
    for pending, gens in sorted(states.get(e, {}).items()):
        for f in _expand_twist_powers(twists, pending,
                                      ring.caps.twist_expand_cap):
            out.extend(v.mul_poly(f) for v in gens)
    return out


def windowed_sum(cm, seed_gens, e_min):
    """The scan without the carrier stop, every piece saturated: ``w``
    quiet degrees end the sum."""
    e_cap = cm.ring.caps.chain_cap
    pieces = {0: seed_gens}
    max_gen_e = max(op.e for op in cm.algebra.generators)
    twisted = cm.algebra.is_twisted()
    window = _twist_window(cm, _max_degree(seed_gens))
    total = cm.canon(seed_gens) if e_min == 0 else cm.canon([])
    quiet = 0
    for e in range(1, e_cap + 1):
        if twisted:
            piece = saturated_piece_gens(cm, e, seed_gens)
        else:
            piece = []
            for op in cm.algebra.generators:
                prev = pieces.get(e - op.e)
                if prev:
                    piece.extend(_apply_generator(cm, op, prev))
        pieces[e] = cm.canon(piece).basis() if piece else []
        if e < e_min:
            continue
        if all(total.contains(g) for g in piece):
            quiet += 1
        else:
            total = cm.canon(list(total.gens) + piece)
            quiet = 0
        if not twisted and quiet >= max_gen_e:
            if all(total.contains_sub(cm.canon(
                    _apply_generator(cm, op, total.basis())))
                   for op in cm.algebra.generators):
                return total, {"degrees": e, "window": max_gen_e,
                               "certified": True}
        if twisted and quiet >= window:
            return total, {"degrees": e, "window": window,
                           "certified": False}
    raise ResourceCapError("graded sum did not stabilize")


def draw(p, rank, twisted, seed):
    """A seeded instancegen module of the given rank; the twisted variant
    scales degree e by f^ceil(t*p^e)."""
    rng = random.Random(seed)
    for _draw in range(40):
        cm = random_cartier_module(rng, p, 2, max_rank=2)
        if cm.module.rank == rank:
            break
    else:
        raise RuntimeError("no instance of the requested rank")
    if twisted:
        f = friendly_factor(rng, cm.ring)
        t = Fraction(rng.randint(1, p + 1), p + 1)
        cm = validate_structure(cm.module,
                                cm.algebra.with_twist(Ideal(cm.ring, [f]), t))
    return cm


def instance(p, rank, twisted, seed):
    """``draw`` with its stable core as carrier."""
    cm = draw(p, rank, twisted, seed)
    core, _k = underline(cm)
    return cm.with_carrier(core)


def seeds(cmc):
    """The carrier and a few of its multiples, as canonical submodules."""
    core = cmc.carrier
    x, y = cmc.ring.gens()
    return [core] + [cmc.canon(list(core.scale_poly(c).gens))
                     for c in (x, y, x + y)]


CASES = [(p, rank, twisted) for p in (2, 3, 5) for rank in (1, 2)
         for twisted in (False, True)]


@pytest.mark.parametrize("p,rank,twisted", CASES)
def test_early_stop_matches_windowed_scan(p, rank, twisted):
    cmc = instance(p, rank, twisted, seed=1000 * p + 10 * rank + twisted)
    filled = 0
    for seed in seeds(cmc):
        for e_min in (0, 1):
            got = graded_sum(cmc, seed, e_min=e_min)
            want = windowed_sum(cmc, seed.basis(), e_min)
            assert got[0].basis() == want[0].basis()
            # reports serialize the info dict, so its key order counts too
            assert list(got[1].items()) == list(want[1].items())
            filled += got[0] == cmc.carrier
    # the carrier seed always fills the carrier (e_min=0), so the stop runs
    assert filled >= 1


@pytest.mark.parametrize("twisted", [False, True])
def test_unsaturated_pieces_match_the_saturated_scan(twisted, monkeypatch):
    # over M_c the walk keeps its intermediate pieces unsaturated; some of
    # them must differ from their saturation, or nothing is tested
    unsaturated = 0
    real = cartiercore._piece_basis

    def recording(cm, gens):
        nonlocal unsaturated
        basis = real(cm, gens)
        unsaturated += basis != cm.canon(gens).basis()
        return basis

    monkeypatch.setattr(cartiercore, "_piece_basis", recording)
    for p in (2, 3, 5):
        for rank in (1, 2):
            cm = draw(p, rank, twisted, seed=2000 * p + 10 * rank + twisted)
            pool = [c for c in candidate_elements(cm) if not c.is_constant()]
            for c in pool[:5]:
                loc = cm.localize(c)
                cmc = loc.with_carrier(underline(loc)[0])
                for seed in seeds(cmc):
                    for e_min in (0, 1):
                        with memo_scope():
                            got = graded_sum(cmc, seed, e_min=e_min)
                        want = windowed_sum(cmc, seed.basis(), e_min)
                        assert got[0].basis() == want[0].basis(), (p, rank, c)
                        assert (list(got[1].items())
                                == list(want[1].items())), (p, rank, c)
    assert unsaturated > 0


def test_cap_below_the_stop_still_raises(monkeypatch):
    cmc = instance(2, 1, True, seed=2011)
    assert not cmc.carrier.is_trivial()
    # the carrier seed fills the carrier at once; the twisted window is at
    # least 3 quiet degrees, so the scan's stop lies beyond a cap of 2
    monkeypatch.setattr(EngineCaps, "chain_cap", 2)
    with pytest.raises(ResourceCapError, match="graded sum did not"):
        graded_sum(cmc, cmc.carrier)


def test_seed_outside_the_carrier_is_not_trusted():
    # e1 goes to e2 in degree 1 and e1 to e1 in degree 2; the carrier
    # 0 + R is stable.  From the seed e1 (outside it) the degree >= 1 sum
    # equals the carrier at degree 1, and degree 2 adds e1 itself.
    R = RingSpec(2, ("x",))
    one, zero = R.one(), R.zero()
    M = PresentedModule.free(R, 2)
    alg = CartierAlgebraSpec([CartierOp(1, [[zero, zero], [one, zero]]),
                              CartierOp(2, [[one, zero], [zero, zero]])])
    cm = validate_structure(M, alg, carrier=M.submodule([[zero, one]]))
    seed = cm.canon([M.generator(0)])
    assert not cm.carrier.contains_sub(seed)
    got = graded_sum(cm, seed, e_min=1)
    want = windowed_sum(cm, seed.basis(), 1)
    assert got[0] == want[0] == M.full_submodule()
    assert list(got[1].items()) == list(want[1].items())


@pytest.mark.parametrize("p,rank", [(p, rank) for p in (2, 3, 5)
                                    for rank in (1, 2)])
def test_every_underline_step_matches_windowed_scan(p, rank, monkeypatch):
    # underline bounds each step after the first by the member it starts
    # from; every step must still be what the windowed scan gives
    cm = draw(p, rank, True, seed=1000 * p + 10 * rank + 1)
    steps = []
    real = cartiercore.graded_sum

    def recording(step_cm, seed, e_min=0):
        got = real(step_cm, seed, e_min=e_min)
        steps.append((step_cm, seed, e_min, got))
        return got

    monkeypatch.setattr(cartiercore, "graded_sum", recording)
    core, k = underline(cm)
    assert len(steps) == k + 1
    for i, (step_cm, seed, e_min, got) in enumerate(steps):
        assert e_min == 1
        assert step_cm.carrier_sub() == (cm.carrier_sub() if i == 0 else seed)
        want = windowed_sum(cm, seed.basis(), e_min)
        assert got[0].basis() == want[0].basis()
        assert list(got[1].items()) == list(want[1].items())
    assert steps[-1][3][0] == core


def test_a_start_that_is_not_stable_still_raises():
    # Tr(x) = 1 over F_2, so C_+ (x) is the whole ring; the first step keeps
    # the module's own carrier, and a repeated call raises again
    R = RingSpec(2, ("x",))
    cm = validate_structure(PresentedModule.free(R, 1),
                            CartierAlgebraSpec([CartierOp(1, [[R.one()]])]))
    start = cm.canon([VecPoly.from_columns(R, [R.parse("x")])])
    with memo_scope():
        for _ in range(2):
            with pytest.raises(InvalidStructureError,
                               match="C_\\+ chain is not descending"):
                underline(cm, start=start)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_the_twist_window_counts_digits_in_integers(p):
    """The window holds max(1, ceil(log_p(growth + 1))) + 2 degrees, with
    growth + 1 = seed degree + 3 under the twist (x)^1 (whose pattern
    needs 0 + 1 + 1 = 2).  At growth + 1 = p^k the count is k: the float
    log read 5^3 and 7^5 as a hair over, and took one degree too many."""
    R = RingSpec(p, ("x", "y"))
    cm = validate_structure(PresentedModule.free(R, 1), CartierAlgebraSpec(
        [CartierOp(1, [[R.one()]])], twist=(Ideal(R, [R.var("x")]), 1)))
    for k in range(1, 8):
        for reach, digits in ((p ** k - 1, k), (p ** k, k),
                              (p ** k + 1, k + 1)):
            if reach < 3:
                continue
            assert _twist_window(cm, reach - 3) == max(3, digits + 2), \
                (p, k, reach)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_twist_exponents_are_exact_ceilings(p):
    """ceil(t*p^e) in integers matches the ``Fraction`` ceiling, at exact
    multiples (t*p^e an integer) and one step either side of them."""
    R = RingSpec(p, ("x", "y"))
    ideal = Ideal(R, [R.var("x")])
    ts = {Fraction(n, d) for d in (1, 2, 3, 4, 6, p, p * p, p * p - 1)
          for n in range(1, 2 * d + 2)}
    for t in sorted(ts):
        algebra = CartierAlgebraSpec([CartierOp(1, [[R.one()]])],
                                     [(ideal, t), (ideal, t / 2)])
        for e in range(0, 6):
            assert algebra.twist_exponents(e) == (
                math.ceil(t * p ** e), math.ceil(t / 2 * p ** e)), (t, e)
