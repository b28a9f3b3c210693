"""The graded walk takes its steps from one transition table per memo scope.

``graded_piece_gens`` is the one graded walk, twisted or not (an untwisted
algebra has one digit move per letter, by 1), and looks each letter step
up in the ``graded_step`` table, keyed on (ring, ring caps, operator,
digit multiplier, reduced state).  It takes its seed, a reduced basis, as
the level-0 state unreduced.  The oracles are the walk and the step as
they ran before the table, kept below as ``reference_*``; the oracle walk
reduces its seed.  Each
draw is compared fresh and inside one scope shared with every other
draw's sums, so a key that leaves out something a step reads lets one
draw's step answer another's.
"""

from fractions import Fraction
import random

import pytest

from cartierlab import cartiercore
from cartierlab.cartiercore import (CartierAlgebraSpec, CartierOp,
                                    _apply_generator, _expand_twist_powers,
                                    _piece_basis, _twist_moves,
                                    graded_piece_gens, graded_sum,
                                    validate_structure)
from cartierlab.errors import ResourceCapError
from cartierlab.fpmod import PresentedModule
from cartierlab.fppoly import EngineCaps, RingSpec
from cartierlab.groebner import buchberger, memo_scope
from cartierlab.idealkit import Ideal

from instancegen import friendly_factor, random_cartier_module, trace_grid


def reference_piece_gens(cm, e, seed_gens):
    algebra = cm.algebra
    ring = cm.ring
    twists = algebra.twists
    states = {0: {algebra.twist_exponents(e): list(seed_gens)}}
    for consumed in range(e):
        level = states.get(consumed)
        if not level:
            continue
        for pending in list(level):
            level[pending] = _piece_basis(cm, level[pending])
        for op in algebra.generators:
            nxt = consumed + op.e
            if nxt > e:
                continue
            target = states.setdefault(nxt, {})
            for pending, gens in level.items():
                for mult, new_pending in _twist_moves(
                        ring, twists, op.e, pending):
                    scaled = gens if mult.is_one() else \
                        [v.mul_poly(mult) for v in gens]
                    images = _apply_generator(cm, op, scaled)
                    if images:
                        target.setdefault(new_pending, []).extend(images)
    final = states.get(e, {})
    out = []
    for pending, gens in sorted(final.items()):
        if not gens:
            continue
        if not any(pending):
            out.extend(gens)
            continue
        for f in _expand_twist_powers(twists, pending,
                                               ring.caps.twist_expand_cap):
            out.extend(v.mul_poly(f) for v in gens)
    return out


def reference_step(cm, op, mult, state):
    scaled = state if mult is None else [v.mul_poly(mult) for v in state]
    return _apply_generator(cm, op, scaled)


def reference_paths(monkeypatch):
    """Run ``graded_sum`` on the walk without the tables."""
    monkeypatch.setattr(cartiercore, "graded_piece_gens",
                        reference_piece_gens)
    monkeypatch.setattr(cartiercore, "_graded_step", reference_step)


def with_twists(cm, twists):
    return validate_structure(cm.module, CartierAlgebraSpec(
        cm.algebra.generators, twists), inverted=cm.inverted)


def squared(cm):
    """The algebra generated by the operator and its square (e = 1, 2)."""
    op = cm.algebra.generators[0]
    return validate_structure(cm.module, CartierAlgebraSpec(
        [op, op.compose(op)], list(cm.algebra.twists)))


def free_twin(cm):
    """The same algebra on the free module of the same rank."""
    return validate_structure(PresentedModule.free(cm.ring, cm.module.rank),
                              cm.algebra)


def draws():
    """Seeded instancegen draws over p = 2, 3, 5: each untwisted, with a
    principal, a non-principal and a mixed twist, localized, and with the
    square of its operator added; a module with relations comes right
    after its free twin, whose walk reaches the same reduced states, so in
    a shared scope the module takes its steps from the twin's entries and
    must still reduce them with its own relations."""
    out = []
    for p, count in ((2, 4), (3, 3), (5, 2)):
        for seed in range(count):
            rng = random.Random(f"graded-steps/{p}/{seed}")
            cm = random_cartier_module(rng, p, 2)
            x, y = cm.ring.gens()
            f = friendly_factor(rng, cm.ring)
            t = Fraction(rng.randint(1, 2 * p), p + 1)
            variants = [
                cm,
                with_twists(cm, [(Ideal(cm.ring, [f]), t)]),
                with_twists(cm, [(Ideal(cm.ring, [x, y * y]), t / 2)]),
                with_twists(cm, [(Ideal(cm.ring, [f]), t / 2),
                                 (Ideal(cm.ring, [x * x, y]), t / 3)]),
            ]
            variants.append(variants[2].localize(friendly_factor(rng,
                                                                 cm.ring)))
            variants.append(squared(variants[int(p == 2)]))
            for variant in variants:
                if variant.module.relations:
                    out.append(free_twin(variant))
                out.append(variant)
    return out


def seeds(cm):
    full = cm.canon(cm.module.full_submodule().gens)
    x, y = cm.ring.gens()
    return [full, cm.canon(full.scale_poly(x + y).gens)]


DRAWS = draws()
TOP = 3


def walk(cm, seed):
    """The pieces of degrees 1..TOP."""
    gens = seed.basis()
    return [graded_piece_gens(cm, e, gens) for e in range(1, TOP + 1)]


def reference_walk(cm, seed):
    gens = seed.basis()
    return [reference_piece_gens(cm, e, gens) for e in range(1, TOP + 1)]


def sums(cm, seed):
    out = []
    for e_min in (0, 1):
        total, info = graded_sum(cm, seed, e_min=e_min)
        out.append((total.basis(), list(info.items())))
    return out


def test_the_draws_cover_every_shape():
    twists = [len(cm.algebra.twists) for cm in DRAWS]
    gens = [len(a.gens) for cm in DRAWS for a, _t in cm.algebra.twists]
    assert {0, 1, 2} <= set(twists) and {1, 2} <= set(gens)
    assert any(cm.inverted is not None for cm in DRAWS)
    assert any(cm.module.relations for cm in DRAWS)
    assert {1, 2} <= {op.e for cm in DRAWS for op in cm.algebra.generators}
    assert {cm.ring.p for cm in DRAWS} == {2, 3, 5}


def test_a_seed_basis_is_its_own_reduced_basis():
    """``graded_piece_gens`` takes ``Submodule.basis()`` as its level-0
    state without reducing it: that basis, with relations and saturated
    after localizing, is what ``buchberger`` and ``_piece_basis`` return
    for it, fresh and as a memo hit."""
    shapes = set()
    for cm in DRAWS:
        for seed in seeds(cm):
            b = seed.basis()
            assert b and buchberger(b) == b and _piece_basis(cm, b) == b
            with memo_scope():
                assert buchberger(b) == b and _piece_basis(cm, b) == b
                assert buchberger(b) == b and _piece_basis(cm, b) == b
            shapes.add((bool(cm.module.relations), cm.inverted is not None))
    assert {(True, False), (False, True)} <= shapes


def test_pieces_match_the_walk_without_tables():
    """Same generators in the same order, fresh and in a shared scope."""
    want = [[reference_walk(cm, seed) for seed in seeds(cm)] for cm in DRAWS]
    fresh = []
    for cm in DRAWS:
        with memo_scope():
            fresh.append([walk(cm, seed) for seed in seeds(cm)])
    assert fresh == want
    with memo_scope():
        shared = [[walk(cm, seed) for seed in seeds(cm)] for cm in DRAWS]
    assert shared == want


def test_sums_match_the_walk_without_tables(monkeypatch):
    fresh, shared = [], []
    for cm in DRAWS:
        with memo_scope():
            fresh.append([sums(cm, seed) for seed in seeds(cm)])
    with memo_scope():
        for cm in DRAWS:
            shared.append([sums(cm, seed) for seed in seeds(cm)])
    reference_paths(monkeypatch)
    want = []
    for cm in DRAWS:
        with memo_scope():
            want.append([sums(cm, seed) for seed in seeds(cm)])
    assert fresh == want
    assert shared == want


def test_two_primes_and_a_zero_twist_share_one_scope():
    """Rings over F_2 and F_3 with equal caps, twisted by the zero ideal,
    whose empty generator list carries no ring, alone and mixed: in one
    scope every walk and sum matches its walk without the table."""
    cms = []
    for p in (2, 3):
        ring = RingSpec(p, ("x", "y"))
        x, y = ring.gens()
        zero = (Ideal(ring, []), Fraction(1, 2))
        for twists in ([zero], [zero, (Ideal(ring, [x, y]), Fraction(2, 3))],
                       []):
            cms.append(validate_structure(
                PresentedModule.free(ring, 1),
                CartierAlgebraSpec([CartierOp(1, [[x + y]])], twists)))
    want = [[(reference_walk(cm, seed), sums(cm, seed))
             for seed in seeds(cm)] for cm in cms]
    with memo_scope():
        shared = [[(walk(cm, seed), sums(cm, seed)) for seed in seeds(cm)]
                  for cm in cms]
    assert shared == want


def cap_error(cm):
    """The message of the ResourceCapError that C_+ of the carrier (the
    first step of the stable-core chain) raises."""
    with pytest.raises(ResourceCapError) as caught:
        graded_sum(cm, cm.carrier_sub(), e_min=1)
    return str(caught.value)


@pytest.mark.parametrize("p, text, k, cap", [
    (2, "x^3 + y^2", 5, 3), (3, "x^3 + y^3", 42, 6)])
def test_a_tighter_ring_raises_under_a_hit(p, text, k, cap):
    """The roomy ring's walk fills the tables first; the equal ring with a
    small ``max_total_degree`` must still raise what it raises alone (at
    these points the roomy steps would let it run on to an answer)."""
    roomy = trace_grid(p, text)[k - 1][1]
    tight = trace_grid(p, text, EngineCaps(max_total_degree=cap))[k - 1][1]
    with memo_scope():
        alone = cap_error(tight)
    assert alone.startswith("total degree ")
    with memo_scope():
        graded_sum(roomy, roomy.carrier_sub(), e_min=1)
        assert cap_error(tight) == alone
