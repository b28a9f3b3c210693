"""Presented modules: lattice operations, torsion, support, maps."""

import pytest

from cartierlab.fppoly import RingSpec
from cartierlab.fpmod import (ModuleMap, PresentedModule, present_submodule,
                              support_vanishes, torsion)
from cartierlab.idealkit import Ideal, PrimeIdeal


def ring2():
    return RingSpec(2, ("x", "y"))


class TestSubmoduleOps:
    def test_sum(self):
        R = ring2()
        x, y = R.gens()
        M = PresentedModule.free(R, 1)
        A = M.submodule([[x]])
        B = M.submodule([[y]])
        assert A.sum(B) == M.submodule([[x], [y]])

    def test_kernel_injective(self):
        R = RingSpec(2, ("x",))
        x = R.var("x")
        M = PresentedModule.free(R, 1)
        phi = ModuleMap(M, M, [[x]])
        assert phi.kernel().is_trivial()

    def test_cokernel_presentation(self):
        R = RingSpec(2, ("x",))
        x = R.var("x")
        M = PresentedModule.free(R, 1)
        phi = ModuleMap(M, M, [[x]])
        Q = phi.cokernel()
        assert Q == PresentedModule.quotient_ring(R, Ideal(R, [x]))

    def test_intersection(self):
        R = ring2()
        x, y = R.gens()
        M = PresentedModule.free(R, 1)
        A = M.submodule([[x]])
        B = M.submodule([[y]])
        assert A.intersect(B) == M.submodule([[x * y]])

    def test_membership_and_equality(self):
        R = ring2()
        x, y = R.gens()
        M = PresentedModule.quotient_ring(R, Ideal(R, [y]))
        W = M.submodule([[x]])
        assert W.contains(M.vector([x * x]))
        assert W.contains(M.vector([x * y]))  # relation multiple
        assert W == M.submodule([[x, ], [x * y]])

    def test_canonical_under_permutation(self):
        R = ring2()
        x, y = R.gens()
        M = PresentedModule.free(R, 2)
        gens = [[x, y], [y, x], [x * y, R.zero()]]
        import itertools

        bases = set()
        for perm in itertools.permutations(gens):
            bases.add(tuple(M.submodule(list(perm)).basis()))
        assert len(bases) == 1

    def test_zero_composite_image_in_kernel(self):
        R = RingSpec(2, ("x",))
        x = R.var("x")
        M = PresentedModule.free(R, 1)
        Q = PresentedModule.quotient_ring(R, Ideal(R, [x]))
        phi = ModuleMap(M, M, [[x]])
        proj = ModuleMap(M, Q, [[R.one()]])
        # proj o phi = 0, so im(phi) <= ker(proj)
        assert proj.kernel().contains_sub(phi.image())


class TestTorsion:
    def test_direct_sum_example(self):
        R = RingSpec(2, ("x",))
        x = R.var("x")
        M = PresentedModule.quotient_ring(R, Ideal(R, [x])).direct_sum(
            PresentedModule.free(R, 1))
        T = torsion(M, Ideal(R, [x]))
        assert T == M.submodule([[R.one(), R.zero()]])

    def test_nilpotent_ideal_action(self):
        R = RingSpec(2, ("x",))
        x = R.var("x")
        M = PresentedModule.quotient_ring(R, Ideal(R, [x * x]))
        assert torsion(M, Ideal(R, [x])).is_full()

    def test_torsion_free(self):
        R = RingSpec(2, ("x",))
        x = R.var("x")
        M = PresentedModule.free(R, 1)
        assert torsion(M, Ideal(R, [x])).is_trivial()

    def test_certified_kill_exponent(self):
        # I^k annihilates the reported torsion for the stabilized k
        R = RingSpec(2, ("x",))
        x = R.var("x")
        M = PresentedModule.quotient_ring(R, Ideal(R, [x ** 3]))
        T = torsion(M, Ideal(R, [x]))
        relsub = M.zero_submodule()
        power = Ideal(R, [x]).power(3)
        for g in T.basis():
            for f in power.gens:
                assert relsub.contains(g.mul_poly(f))


class TestSupport:
    def test_vanishing_away_from_annihilator(self):
        R = ring2()
        x, y = R.gens()
        M = PresentedModule.quotient_ring(R, Ideal(R, [x]))
        N = M.full_submodule()
        assert support_vanishes(N, PrimeIdeal(Ideal(R, [y])).ideal)
        assert not support_vanishes(N, PrimeIdeal(Ideal(R, [x])).ideal)

    def test_zero_module_vanishes_everywhere(self):
        R = ring2()
        M = PresentedModule.free(R, 1)
        Z = M.zero_submodule()
        for gens in ([], [R.var("x")]):
            assert support_vanishes(Z, Ideal(R, gens))


class TestPresentSubmodule:
    def test_roundtrip(self):
        R = ring2()
        x, y = R.gens()
        M = PresentedModule.quotient_ring(R, Ideal(R, [y]))
        W = M.submodule([[x]])
        P, gens = present_submodule(W)
        assert P.rank == len(gens) == 1
        # x*e over R/(y): relations should make y kill the generator
        assert P.reduce(P.generator(0).mul_poly(y)).is_zero()

    def test_map_relation_check(self):
        R = RingSpec(2, ("x",))
        x = R.var("x")
        Q = PresentedModule.quotient_ring(R, Ideal(R, [x]))
        M = PresentedModule.free(R, 1)
        with pytest.raises(ValueError):
            ModuleMap(Q, M, [[R.one()]])  # x*1 not in 0
