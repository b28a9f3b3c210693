"""The general ``tau`` skips steps whose result is already known.

- ``Ideal.saturation_elem`` and ``Submodule.saturate`` invert nothing for
  ``c = 1``: the check of the test element ``1`` saturates no twist ideal.
- ``_equal_at`` of two equal submodules is True without a conductor.
- ``CartierOp.row_products`` and ``_twist_moves`` skip products by 1 (the
  degree checks they keep are pinned in ``test_degree_caps.py``).
- ``CartierModule.structure_key`` is computed once per object, and only
  ``with_carrier`` hands it on.

The oracles are the computed paths, kept below as ``computed_*``: each step
as it runs without its shortcut.
"""

from fractions import Fraction
import random

import pytest

from cartierlab import cartiercore, testmod
from cartierlab.cache import canonical_json
from cartierlab.cartiercore import (CartierAlgebraSpec, CartierModule,
                                    CartierOp, ass_cartier, stable_torsion,
                                    underline)
from cartierlab.fpmod import Submodule, unit_at
from cartierlab.groebner import memo_scope
from cartierlab.idealkit import Ideal, PrimeIdeal, small_power
from cartierlab.testmod import find_test_elements, tau, tau_prime

from instancegen import cusp_grid, friendly_factor, random_cartier_module


def computed_saturation_elem(self, c):
    return self if c is None else self.saturation(Ideal(self.ring, [c]))


def computed_equal_at(cm, prime, big, small):
    gens = big.generators_reduced()
    return not gens or unit_at(small.conductor(gens), prime, cm.inverted)


def computed_row_products(self, vec):
    ring = self.ring()
    cols = [vec.component(j) for j in range(self.rank)]
    out = []
    for row in self.matrix:
        acc = ring.zero()
        for j, u in enumerate(row):
            if not u.is_zero() and not cols[j].is_zero():
                acc = acc + u * cols[j]
        out.append(acc)
    return out


def computed_twist_moves(ring, twists, e, pendings):
    per_ideal = []
    for (ideal, _t), pending in zip(twists, pendings):
        choices = cartiercore._gamma_choices_one(ring, len(ideal.gens), e,
                                                 pending)
        if not choices:
            return
        per_ideal.append([(ideal.gens, gamma, new) for gamma, new in choices])
    for combo in cartiercore.iproduct(*per_ideal):
        mult = ring.one()
        for gens, gamma, _new in combo:
            for g, a in zip(gens, gamma):
                if a:
                    mult = mult * small_power(g, a)
        yield mult, tuple(new for _g, _gamma, new in combo)


def computed_structure_key(self):
    inverted = None if self.inverted is None or self.inverted.is_one() \
        else self.inverted
    return (self.ring.caps, self.module, self.module.relations, inverted,
            self.algebra.generators,
            tuple((tuple(a.gens), t) for a, t in self.algebra.twists))


def computed_paths(monkeypatch):
    """Run every step below on its computed path."""
    monkeypatch.setattr(Ideal, "saturation_elem", computed_saturation_elem)
    monkeypatch.setattr(testmod, "_equal_at", computed_equal_at)
    monkeypatch.setattr(CartierOp, "row_products", computed_row_products)
    monkeypatch.setattr(cartiercore, "_twist_moves", computed_twist_moves)
    monkeypatch.setattr(CartierModule, "structure_key",
                        computed_structure_key)


def localized_draws():
    """Seeded draws over F_2 and F_3, each localized at a non-unit, with
    and without a principal twist."""
    out = []
    for p in (2, 3):
        for seed in range(8):
            cm = random_cartier_module(random.Random(seed), p, 2)
            rng = random.Random(seed + 100)
            loc = cm.localize(friendly_factor(rng, cm.ring))
            twist = Ideal(cm.ring, [friendly_factor(rng, cm.ring)])
            out.append(loc)
            out.append(loc.with_algebra(
                loc.algebra.with_twist(twist, Fraction(seed + 1, 6))))
    grid = cusp_grid()
    x, y = grid[0].ring.gens()
    out.extend(cm.localize(c) for cm in grid[::3]
               for c in (x, y + grid[0].ring.one()))
    return out


def reports(cm):
    return [canonical_json(call(cm).serialize())
            for call in (tau, tau_prime, find_test_elements)]


def test_the_cusp_grid_saturates_nothing_and_takes_no_conductor_at_a_prime(
        monkeypatch):
    """Every check of the element ``1`` inverts nothing, and every
    per-prime check of ``tau`` compares equal submodules."""
    calls = {"saturation": 0, "equal_at": 0, "conductor": 0}
    inside = []
    real_saturation = Ideal.saturation
    real_conductor = Submodule.conductor
    real_equal_at = testmod._equal_at

    def saturation(self, other):
        calls["saturation"] += 1
        return real_saturation(self, other)

    def conductor(self, vectors):
        calls["conductor"] += bool(inside)
        return real_conductor(self, vectors)

    def equal_at(*args):
        calls["equal_at"] += 1
        inside.append(True)
        try:
            return real_equal_at(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(Ideal, "saturation", saturation)
    monkeypatch.setattr(Submodule, "conductor", conductor)
    monkeypatch.setattr(testmod, "_equal_at", equal_at)
    for cm in cusp_grid():
        result = tau(cm)
        assert [e["element"] for e in result.certificate["test_elements"]] \
            == ["1"]
    assert calls == {"saturation": 0, "equal_at": 12, "conductor": 0}


def test_shortcuts_give_the_computed_reports(monkeypatch):
    """``tau``, ``tau_prime`` and ``find_test_elements`` of localized and
    twisted draws report byte-identically on the computed paths."""
    draws = localized_draws()
    fast = [reports(cm) for cm in draws]
    computed_paths(monkeypatch)
    assert [reports(cm) for cm in draws] == fast


def test_saturating_by_one_is_the_identity():
    for cm in localized_draws()[:8]:
        ann = underline(cm)[0].annihilator()
        one = cm.ring.one()
        assert ann.saturation_elem(one) is ann
        assert ann.saturation_elem(None) is ann
        assert ann.saturation(Ideal(cm.ring, [one])) == ann
        c = cm.inverted
        assert ann.saturation_elem(c) == computed_saturation_elem(ann, c)


def equal_at_pairs(cm):
    """(prime, big, small) with small <= big: the core against itself, a
    multiple of itself, zero and its stable torsion at the prime, at each
    associated prime and at (x) and (y)."""
    core, _k = underline(cm)
    cmc = cm.with_carrier(core)
    x, y = cm.ring.gens()
    primes = ass_cartier(cmc) + [PrimeIdeal(Ideal(cm.ring, [v]))
                                 for v in (x, y)]
    smaller = [core, cm.canon([]), cm.canon(core.scale_poly(x * y).gens)]
    out = []
    for prime in primes:
        out.extend((prime, core, small) for small in smaller)
        stable = stable_torsion(cmc, prime, core)
        out.append((prime, core, stable))
    return cmc, out


def test_equal_at_agrees_with_the_conductor_on_every_pair():
    """Including pairs that differ at their prime: a shortcut that takes
    every inclusion for an equality fails here."""
    unequal = 0
    for cm in localized_draws():
        cmc, pairs = equal_at_pairs(cm)
        for prime, big, small in pairs:
            assert big.contains_sub(small)
            want = computed_equal_at(cmc, prime, big, small)
            assert testmod._equal_at(cmc, prime, big, small) == want
            unequal += not want
    assert unequal > 20


def test_with_carrier_alone_hands_on_the_structure_key():
    cm = cusp_grid()[4]
    key = cm.structure_key()
    assert cm.structure_key() is key
    assert cm.with_carrier(cm.canon([cm.ring.one()])).structure_key() is key
    x = cm.ring.gens()[0]
    f_ideal = cm.algebra.twists[0][0]
    other_twist = CartierAlgebraSpec(cm.algebra.generators,
                                     (f_ideal, Fraction(1, 3)))
    derived = [cm.with_algebra(cm.algebra.untwisted()),
               cm.with_algebra(other_twist), cm.localize(x),
               CartierModule(cm.module, cm.algebra.untwisted())]
    for other in derived:
        fresh = CartierModule(other.module, other.algebra,
                              inverted=other.inverted)
        assert other.structure_key() == fresh.structure_key() != key
    assert cm.localize(cm.ring.one()).structure_key() == key


@pytest.mark.parametrize("first, second", [(0, 10), (10, 0), (3, 7)])
def test_one_scope_keeps_two_twist_exponents_apart(first, second):
    """``tau`` of one module under two twist exponents, the second built
    by ``with_algebra`` from the first, in one memo scope."""
    grid = cusp_grid()
    fresh = [canonical_json(tau(grid[k]).serialize())
             for k in (first, second)]
    assert fresh[0] != fresh[1]
    cm = grid[first]
    with memo_scope():
        one = canonical_json(tau(cm).serialize())
        other = cm.with_algebra(grid[second].algebra)
        two = canonical_json(tau(other).serialize())
    assert [one, two] == fresh
