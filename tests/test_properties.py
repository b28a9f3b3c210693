"""Randomized (seeded) structural properties of the test-module functor.

Quick versions here; the acceptance module runs the full 20-instance
configuration per property.
"""

import random

from cartierlab.cartiercore import ass_cartier, underline
from cartierlab.testmod import tau

from instancegen import random_cartier_module, random_sum_instance

QUICK = 6


def seeded(k):
    return random.Random(0xBA5E + k)


class TestFunctoriality:
    def test_summand_maps(self):
        rng = seeded(1)
        for i in range(QUICK):
            p = rng.choice((2, 3))
            cm, maps = random_sum_instance(rng, p, rng.choice((1, 2)))
            tau_sum = tau(cm).submodule
            for piece, inc, proj in maps:
                tau_piece = tau(piece).submodule
                image_in = inc.apply_submodule(tau_piece)
                assert tau_sum.contains_sub(image_in)
                image_out = proj.apply_submodule(tau_sum)
                assert tau_piece.contains_sub(image_out)


class TestAdditivity:
    def test_direct_sums(self):
        rng = seeded(2)
        for i in range(QUICK):
            p = rng.choice((2, 3))
            cm, maps = random_sum_instance(rng, p, rng.choice((1, 2)))
            tau_sum = tau(cm).submodule
            rebuilt = cm.module.zero_submodule()
            for piece, inc, _proj in maps:
                rebuilt = rebuilt.sum(
                    inc.apply_submodule(tau(piece).submodule))
            assert tau_sum == cm.canon(rebuilt.gens)


class TestLocalization:
    def test_invert_single_elements(self):
        rng = seeded(3)
        for i in range(QUICK):
            p = rng.choice((2, 3))
            nv = rng.choice((1, 2))
            cm = random_cartier_module(rng, p, nv)
            c = cm.ring.gens()[rng.randrange(nv)]
            loc = cm.localize(c)
            assert tau(loc).submodule == loc.canon(tau(cm).submodule.gens)


class TestSubalgebraMonotonicity:
    def test_drop_generator(self):
        rng = seeded(4)
        for i in range(QUICK):
            p = rng.choice((2, 3))
            cm = random_cartier_module(rng, p, rng.choice((1, 2)),
                                       extra_generator=True)
            from cartierlab.cartiercore import (CartierAlgebraSpec,
                                                CartierModule)

            # a subset of validated generators is still a valid structure
            small = CartierModule(
                cm.module, CartierAlgebraSpec(cm.algebra.generators[:1]))
            assert tau(cm).submodule.contains_sub(tau(small).submodule)


class TestE0Independence:
    def test_shifted_sums(self):
        rng = seeded(5)
        for i in range(QUICK):
            p = rng.choice((2, 3))
            cm = random_cartier_module(rng, p, rng.choice((1, 2)))
            base = tau(cm, e0=0).submodule
            for e0 in (1, 2):
                assert tau(cm, e0=e0).submodule == base


class TestAssSplitSum:
    def test_union(self):
        rng = seeded(6)
        for i in range(QUICK):
            p = rng.choice((2, 3))
            cm, maps = random_sum_instance(rng, p, rng.choice((1, 2)))
            whole = {tuple(pr.ideal.serialize()) for pr in ass_cartier(cm)}
            union = set()
            for piece, _inc, _proj in maps:
                union |= {tuple(pr.ideal.serialize())
                          for pr in ass_cartier(piece)}
            assert whole == union


class TestChainFacts:
    def test_core_inclusion_nil_iso_shape(self):
        rng = seeded(7)
        for i in range(QUICK):
            p = rng.choice((2, 3))
            cm = random_cartier_module(rng, p, rng.choice((1, 2)))
            core, k = underline(cm)
            assert cm.module.full_submodule().contains_sub(core)
            # tau computed on the module equals tau on its stable core
            assert tau(cm).submodule == \
                tau(cm.with_carrier(core)).submodule
