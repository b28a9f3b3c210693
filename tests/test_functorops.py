"""Functor calculus: pullbacks, pushforwards, coherent models, the suite."""

import pytest

from cartierlab.cartiercore import (CartierAlgebraSpec, CartierOp,
                                    apply_cplus, ass_cartier,
                                    check_equivariant, operator_from_action,
                                    underline, validate_structure)
from cartierlab.errors import (GaugeBoundError, ResourceCapError,
                               UnsupportedShapeError)
from cartierlab.fppoly import EngineCaps, RingSpec, cartier_trace
from cartierlab.fpmod import ModuleMap, PresentedModule, present_submodule
from cartierlab.functorops import (FiniteMapData, PulledBackElement, RingMap,
                                   coherent_model, coherent_models_agree,
                                   commutation_suite,
                                   contract_prime, fiber_primes,
                                   gauge_growth_probe, pullback,
                                   pullback_algebra,
                                   check_pullback_laws, pushforward_finite,
                                   pushforward_point, shriek_affine_line,
                                   shriek_finite, shriek_localize,
                                   _vec_map_ring)
from cartierlab.groebner import LiftContext, VecPoly
from cartierlab.idealkit import Ideal
from cartierlab.testmod import is_f_regular, tau


def plain_line(p=3):
    R = RingSpec(p, ("x",))
    M = PresentedModule.free(R, 1)
    return validate_structure(M, CartierAlgebraSpec(
        [CartierOp(1, [[R.one()]])]))


def twisted_line(p=2):
    R = RingSpec(p, ("x",))
    x = R.var("x")
    M = PresentedModule.free(R, 1)
    return validate_structure(M, CartierAlgebraSpec(
        [CartierOp(1, [[x ** (p - 1)]])]))


class TestPullbackAlgebra:
    def test_identity_form(self):
        cm = plain_line()
        rmap = RingMap.affine_line(cm.ring, "u")
        pb = pullback_algebra(cm.algebra, rmap)
        assert all(el.scalar.is_one() for el in pb.canonical_generators())

    def test_multiplication_law_p2(self):
        cm = twisted_line(2)
        rmap = RingMap.affine_line(cm.ring, "u")
        pb = pullback_algebra(cm.algebra, rmap)
        S = rmap.target
        s, t = S.parse("u"), S.parse("x*u")
        a = PulledBackElement(cm.algebra.generators[0], s)
        b = PulledBackElement(cm.algebra.generators[0], t)
        prod = a.multiply(b)
        assert prod.scalar == s.frobenius(1) * t  # s^(p^e') t with e'=1

    def test_left_module_law_p3(self):
        cm = plain_line(3)
        rmap = RingMap.affine_line(cm.ring, "u")
        S = rmap.target
        r, t = S.parse("u + x"), S.parse("u")
        el = PulledBackElement(cm.algebra.generators[0], t)
        assert el.left_scalar(r).scalar == r ** 3 * t

    def test_laws_on_samples(self):
        cm = twisted_line(2)
        rmap = RingMap.finite(cm.ring, "z", "z^2 + z + x")
        pb = pullback_algebra(cm.algebra, rmap)
        S = rmap.target
        samples = [(S.parse("z"), S.parse("x"), S.parse("z + x")),
                   (S.one(), S.parse("x*z"), S.parse("z"))]
        assert check_pullback_laws(pb, samples)


class TestShriekFinite:
    def test_identity_like_degree_one(self):
        # adjoining z with relation z: S = R, Hom(R, M) = M
        cm = plain_line(3)
        rmap = RingMap.finite(cm.ring, "z", "z")
        F = shriek_finite(cm, rmap)
        assert F.cm.module.rank == cm.module.rank
        t_up = tau(F.cm).submodule
        t_dn = F.transport_submodule(tau(cm).submodule)
        assert t_up == t_dn

    def test_double_cover_inclusion(self):
        cm = plain_line(3)
        rmap = RingMap.finite(cm.ring, "z", "z^2 + 2x")
        F = shriek_finite(cm, rmap)
        t_up = tau(F.cm).submodule
        lifted = F.transport_submodule(tau(cm).submodule)
        assert lifted.contains_sub(t_up)

    def test_nilpotent_transfers(self):
        R = RingSpec(3, ("x",))
        M = PresentedModule.free(R, 1)
        cm = validate_structure(M, CartierAlgebraSpec(
            [CartierOp(1, [[R.zero()]])]))
        rmap = RingMap.finite(R, "z", "z^2 + 2x")
        F = shriek_finite(cm, rmap)
        core, _ = underline(F.cm)
        assert core.is_trivial()

    def test_non_monic_rejected(self):
        R = RingSpec(3, ("x",))
        with pytest.raises(UnsupportedShapeError):
            RingMap.finite(R, "z", "x*z^2 + 1")

    def test_ass_transport_both_ways(self):
        cm = plain_line(3)
        rmap = RingMap.finite(cm.ring, "z", "z^2 + 2x")
        F = shriek_finite(cm, rmap)
        up = ass_cartier(F.cm)
        fibers = []
        for pr in ass_cartier(cm):
            fibers.extend(fiber_primes(rmap, pr))
        assert sorted(tuple(p.ideal.serialize()) for p in up) == \
            sorted(set(tuple(p.ideal.serialize()) for p in fibers))
        down = {tuple(contract_prime(rmap, p).ideal.serialize()) for p in up}
        assert down == {tuple(p.ideal.serialize())
                        for p in ass_cartier(cm)}


class TestShriekLocalize:
    def test_unit_is_identity(self):
        cm = plain_line(2)
        loc = shriek_localize(cm, cm.ring.one()).cm
        assert tau(loc).submodule == tau(cm).submodule

    def test_twisted_line_localized_regular(self):
        cm = twisted_line(2)
        loc = shriek_localize(cm, cm.ring.var("x")).cm
        ok, _ = is_f_regular(loc)
        assert ok

    def test_ass_filter_intro(self):
        R = RingSpec(2, ("x", "y"))
        x, y = R.gens()
        z = R.zero()
        N = PresentedModule(R, 2, [[y, z]])
        U = CartierOp(1, [[y, z], [z, x]])
        cm = validate_structure(N, CartierAlgebraSpec([U]))
        loc = shriek_localize(cm, y).cm
        primes = ass_cartier(loc)
        assert [tuple(p.ideal.serialize()) for p in primes] == [()]

    def test_cplus_commutes_with_localization(self):
        cm = twisted_line(2)
        x = cm.ring.var("x")
        loc = shriek_localize(cm, x).cm
        full = cm.module.full_submodule()
        lhs = apply_cplus(loc, loc.canon(full.gens))
        rhs = loc.canon(apply_cplus(cm, full).gens)
        assert lhs == rhs


class TestAffineLine:
    def test_formula_instances(self):
        # kappa (x) u^(p^e - 1) maps the lowest slot to kappa; exponents with
        # (i+1) not divisible by p^e contribute zero
        for p, e in ((2, 1), (3, 1), (2, 2)):
            R = RingSpec(p, ("u",))
            u = R.var("u")
            q = p ** e
            assert cartier_trace(u ** (q - 1), e) == R.one()
            for i in range(q - 1):
                assert cartier_trace(u ** i, e).is_zero()

    def test_matrices_unchanged(self):
        cm = twisted_line(2)
        up = shriek_affine_line(cm, "u").cm
        old = cm.algebra.generators[0].matrix[0][0]
        new = up.algebra.generators[0].matrix[0][0]
        assert str(old) == str(new)

    def test_point_to_line(self):
        # the base field itself: adjoining a line gives F_p[u]dx with the
        # plain trace, and tau commutes (both sides full)
        R0 = RingSpec(2, ())
        M0 = PresentedModule.free(R0, 1)
        cm0 = validate_structure(M0, CartierAlgebraSpec(
            [CartierOp(1, [[R0.one()]])]))
        up = shriek_affine_line(cm0, "u").cm
        assert up.ring.vars == ("u",)
        t_up = tau(up).submodule
        assert t_up.is_full()
        assert tau(cm0).submodule.is_full()

    def test_tau_commutes_and_ass(self):
        R = RingSpec(2, ("x",))
        x = R.var("x")
        M = PresentedModule.free(R, 1)
        cm = validate_structure(M, CartierAlgebraSpec(
            [CartierOp(1, [[x]])]))
        up = shriek_affine_line(cm, "u").cm
        t_up = tau(up).submodule
        lifted = up.canon([_vec_map_ring(v, up.ring)
                           for v in tau(cm).submodule.basis()])
        assert t_up == lifted
        up_primes = ass_cartier(up)
        down = ass_cartier(cm)
        assert sorted(tuple(p.ideal.serialize()) for p in up_primes) == \
            sorted(tuple(p.ideal.serialize()) for p in down)


class TestPushforwardFinite:
    def test_identity_like(self):
        cm = plain_line(3)
        rmap = RingMap.finite(cm.ring, "z", "z")
        F = shriek_finite(cm, rmap)
        P = pushforward_finite(F.cm, rmap)
        assert P.cm.module.rank == cm.module.rank

    def test_tau_commutes(self):
        cm = plain_line(3)
        rmap = RingMap.finite(cm.ring, "z", "z^2 + 2x")
        F = shriek_finite(cm, rmap)
        P = pushforward_finite(F.cm, rmap)
        assert P.transport_submodule(tau(F.cm).submodule) == \
            tau(P.cm).submodule

    def test_nilpotence_preserved_and_reflected(self):
        R = RingSpec(3, ("x",))
        rmap = RingMap.finite(R, "z", "z^2 + 2x")
        ring = rmap.target
        M = PresentedModule.free(ring, 1)
        g = rmap.data["relation"]
        Mq = PresentedModule(ring, 1, [[g]])
        cm = validate_structure(Mq, CartierAlgebraSpec(
            [CartierOp(1, [[ring.zero()]])]))
        P = pushforward_finite(cm, rmap)
        core_up, _ = underline(cm)
        core_dn, _ = underline(P.cm)
        assert core_up.is_trivial() and core_dn.is_trivial()

    def test_requires_extension_module(self):
        R = RingSpec(3, ("x",))
        rmap = RingMap.finite(R, "z", "z^2 + 2x")
        free = PresentedModule.free(rmap.target, 1)
        cm = validate_structure(free, CartierAlgebraSpec(
            [CartierOp(1, [[rmap.target.one()]])]))
        with pytest.raises(UnsupportedShapeError):
            pushforward_finite(cm, rmap)

    def test_f_purity_up_iff_down(self):
        cm = plain_line(3)
        rmap = RingMap.finite(cm.ring, "z", "z^2 + 2x")
        F = shriek_finite(cm, rmap)
        P = pushforward_finite(F.cm, rmap)
        _cu, ku = underline(F.cm)
        _cd, kd = underline(P.cm)
        assert (ku == 0) == (kd == 0)


def _pulled_back(cm, rmap):
    return cm, pullback(cm, rmap)


def _localized_pair_with_carrier():
    R = RingSpec(3, ("x",))
    x = R.var("x")
    M = PresentedModule.free(R, 1)
    cm = validate_structure(M, CartierAlgebraSpec([CartierOp(1, [[x ** 2]])]),
                            carrier=M.submodule([[x]]), inverted=x + R.one())
    return _pulled_back(cm, RingMap.finite(R, "z", "z^2 + 2x"))


def _pushed_forward():
    cm = plain_line(3)
    rmap = RingMap.finite(cm.ring, "z", "z^2 + 2x")
    up = shriek_finite(cm, rmap).cm
    return up, pushforward_finite(up, rmap)


TRANSPORT_CASES = {
    "localize": lambda: _pulled_back(
        twisted_line(2), RingMap.localize(RingSpec(2, ("x",)), "x")),
    "affine-line": lambda: _pulled_back(
        plain_line(3), RingMap.affine_line(RingSpec(3, ("x",)), "y")),
    "finite": lambda: _pulled_back(
        plain_line(3), RingMap.finite(RingSpec(3, ("x",)), "z", "z^2 + 2x")),
    "finite-localized-carrier": _localized_pair_with_carrier,
    "pushforward-finite": _pushed_forward,
}


class TestTransports:
    """Every functor's FunctorResult carries 0 to 0 and the carrier (the
    full module when there is none) to the carrier upstairs."""

    @pytest.mark.parametrize("case", sorted(TRANSPORT_CASES))
    def test_zero_and_carrier(self, case):
        cm, res = TRANSPORT_CASES[case]()
        assert res.transport_submodule(cm.module.zero_submodule()).is_trivial()
        assert res.transport_submodule(cm.carrier_sub()) == \
            res.cm.carrier_sub()

    def test_localized_carrier_is_transported(self):
        cm, res = _localized_pair_with_carrier()
        assert res.cm.inverted is not None and res.cm.carrier is not None
        assert not res.cm.carrier.is_full()


def _carrier_pair(p, summands, carrier):
    """A diagonal pair over F_p[x] with a carrier.  ``summands`` lists
    (f, u): the summand R/(f), or R when f is None, with operator entry u;
    ``carrier`` is one generator, as text per component."""
    R = RingSpec(p, ("x",))
    M = None
    for f, _u in summands:
        piece = PresentedModule.free(R, 1) if f is None else \
            PresentedModule.quotient_ring(R, Ideal(R, [R.parse(f)]))
        M = piece if M is None else M.direct_sum(piece)
    U = [[R.parse(u) if i == j else R.zero()
          for j in range(len(summands))]
         for i, (_f, u) in enumerate(summands)]
    return validate_structure(M, CartierAlgebraSpec([CartierOp(1, U)]),
                              carrier=M.submodule([[R.parse(c)
                                                    for c in carrier]]))


def _re_presented(cm):
    """The carrier of ``cm`` as a module of its own, as ``filtration.gr``
    presents a submodule: its generators, their syzygies, and the
    operators lifted onto them."""
    module, gens = present_submodule(cm.carrier)
    ctx = LiftContext(gens, cm.module.relation_gb(), cm.module.rank)

    def on_carrier(op):
        def action(a, j):
            image = op.apply_vec(gens[j].mul_term(a, 1))
            return VecPoly.from_columns(cm.ring, ctx.lift(image))
        return operator_from_action(module, op.e, action)

    return validate_structure(module, CartierAlgebraSpec(
        [on_carrier(op) for op in cm.algebra.generators]))


# (pair, relation of a finite map over its ring): three pairs along the
# etale cover z^2+z+x of F_2[x], one along the ramified z^2+2x of F_3[x]
# of rank 2, and a rank-1 pair along z^2+2x
CARRIER_PAIRS = {
    "etale-first-summand": (
        lambda: _carrier_pair(2, [("x", "x"), (None, "1")], ["1", "0"]),
        "z^2 + z + x"),
    "etale-second-summand": (
        lambda: _carrier_pair(2, [("x", "x"), (None, "1")], ["0", "1"]),
        "z^2 + z + x"),
    "etale-free-summand": (
        lambda: _carrier_pair(2, [(None, "1"), ("x", "x")], ["1", "0"]),
        "z^2 + z + x"),
    "ramified-rank-2": (
        lambda: _carrier_pair(3, [(None, "x^2"), (None, "x^2")], ["x", "0"]),
        "z^2 + 2x"),
    "ramified-rank-1": (
        lambda: _carrier_pair(3, [(None, "x^2")], ["x"]), "z^2 + 2x"),
}


def _maps(cm, relation):
    return {"finite": RingMap.finite(cm.ring, "z", relation),
            "affine-line": RingMap.affine_line(cm.ring, "u"),
            "localize": RingMap.localize(cm.ring, "x + 1")}


class TestCarrierPairs:
    """A pair with a carrier W is W: every functor carries the carrier, so
    the paper's commutation statements hold on it as they hold on W."""

    @pytest.mark.parametrize("case", sorted(CARRIER_PAIRS))
    def test_finite_suite_holds(self, case):
        make, relation = CARRIER_PAIRS[case]
        cm = make()
        report = commutation_suite(cm, RingMap.finite(cm.ring, "z",
                                                      relation))
        assert report["tau_included"] and report["tau_equal"], report
        assert report["shriek_ass_transport"] and report["ok"], report

    @pytest.mark.parametrize("kind", ["finite", "affine-line", "localize"])
    @pytest.mark.parametrize("case", sorted(CARRIER_PAIRS))
    def test_suite_equals_suite_on_the_carrier_alone(self, case, kind):
        make, relation = CARRIER_PAIRS[case]
        cm = make()
        alone = _re_presented(cm)
        assert commutation_suite(cm, _maps(cm, relation)[kind]) == \
            commutation_suite(alone, _maps(alone, relation)[kind])

    @pytest.mark.parametrize("kind", ["finite", "affine-line", "localize",
                                      "pushforward-finite"])
    @pytest.mark.parametrize("case", sorted(CARRIER_PAIRS))
    def test_transported_carrier_is_stable_upstairs(self, case, kind):
        make, relation = CARRIER_PAIRS[case]
        cm = make()
        if kind == "pushforward-finite":
            rmap = RingMap.finite(cm.ring, "z", relation)
            cm = shriek_finite(cm, rmap).cm
            res = pushforward_finite(cm, rmap)
        else:
            res = pullback(cm, _maps(cm, relation)[kind])
        up = res.cm
        assert up.carrier == res.transport_submodule(cm.carrier)
        validate_structure(up.module, up.algebra, carrier=up.carrier,
                           inverted=up.inverted)


class TestAdjunctions:
    def test_finite_counit_equivariant(self):
        # counit f_* f^! M -> M: phi -> phi(1); on slot coordinates the map
        # picks the 1-dual slot components
        cm = plain_line(3)
        rmap = RingMap.finite(cm.ring, "z", "z^2 + 2x")
        F = shriek_finite(cm, rmap)
        P = pushforward_finite(F.cm, rmap)
        data = FiniteMapData(rmap)
        R = cm.ring
        r = cm.module.rank
        cols = []
        for idx in range(P.cm.module.rank):
            lz, rest = divmod(idx, F.cm.module.rank)
            l2, j = divmod(rest, r)
            # generator z^lz * G_(l2, j): evaluated at 1 gives [z^lz b_(l2)]_0-ish;
            # phi(1) has component j scaled by the coefficient of b_(l2) in z^lz
            coeff = data.zpow(lz)[l2]
            col = [R.zero()] * r
            col[j] = coeff
            cols.append(col)
        counit = ModuleMap(P.cm.module, cm.module, cols)
        assert check_equivariant(counit, P.cm, cm)

    def test_localization_unit_equivariant(self):
        cm = twisted_line(2)
        # unit M -> M_c is the identity on our shared presentation
        phi = ModuleMap.identity(cm.module)
        loc = shriek_localize(cm, cm.ring.var("x")).cm
        assert check_equivariant(phi, cm, loc)


class TestTrace:
    def test_frobenius_compatibility(self):
        R = RingSpec(2, ("x",))
        rmap = RingMap.finite(R, "z", "z^2 + z + x")  # etale double cover
        data = FiniteMapData(rmap)
        S = rmap.target
        for text in ("z", "x*z + 1", "z + x", "x^2*z"):
            s = S.parse(text)
            assert data.multiplication_trace(s * s) == \
                data.multiplication_trace(s) ** 2


class TestCoherentModel:
    def test_nothing_inverted(self):
        cm = plain_line(2)
        res = coherent_model(cm)
        assert res.K == 0 and res.witness["note"] == "nothing inverted"

    def test_open_immersion_example(self):
        for p in (2, 3):
            cm = plain_line(p)
            x = cm.ring.var("x")
            loc = shriek_localize(cm, x).cm
            res = coherent_model(loc)
            K = res.K
            assert res.core() == cm.module.submodule([[x ** (K - 1)]])
            t_model = tau(res.cm).submodule
            assert t_model == cm.module.submodule([[x ** K]])
            assert res.core().contains_sub(t_model) and \
                res.core() != t_model

    def test_cutoff_independence(self):
        cm = plain_line(2)
        loc = shriek_localize(cm, cm.ring.var("x")).cm
        res1 = coherent_model(loc)
        res2 = coherent_model(loc, K=res1.K + 2)
        assert coherent_models_agree(res1, res2)

    def test_bad_cutoff_rejected(self):
        cm = plain_line(2)
        loc = shriek_localize(cm, cm.ring.var("x")).cm
        with pytest.raises(GaugeBoundError):
            coherent_model(loc, K=0)


class TestGaugeDetector:
    def test_growing_family_flagged(self):
        R = RingSpec(2, ("x", "y"))
        ops = []
        for e in range(1, 6):
            q = 2 ** e
            ops.append(CartierOp(e, [[R.parse(f"x*y^{e * q}")]]))
        assert gauge_growth_probe(ops)["flagged"]

    def test_bounded_family_not_flagged(self):
        R = RingSpec(2, ("x", "y"))
        ops = [CartierOp(e, [[R.parse("x^2")]]) for e in range(1, 5)]
        assert not gauge_growth_probe(ops)["flagged"]

    def test_sec7c_identity(self):
        for p in (2, 3):
            R = RingSpec(p, ("x", "y"))
            for e in (1, 2):
                q = p ** e
                arg = R.monomial((q - 2, q - 1))
                val = cartier_trace(arg, e, premul=R.parse(f"x*y^{e * q}"))
                assert val == R.var("y") ** e


class TestCommutationSuite:
    def test_all_map_kinds(self):
        cm = plain_line(3)
        for rmap in (RingMap.finite(cm.ring, "z", "z^2 + 2x"),
                     RingMap.affine_line(cm.ring, "u"),
                     RingMap.localize(cm.ring, "x")):
            report = commutation_suite(cm, rmap)
            assert report["ok"], report

    def test_quasi_finite_factorization(self):
        # f = (finite double cover) o (open immersion at z): the composed
        # pushforward satisfies tau f_* inside f_* tau, strictly here
        from cartierlab.functorops import quasi_finite_check

        cm = plain_line(3)
        rmap = RingMap.finite(cm.ring, "z", "z^2 + 2x")
        F = shriek_finite(cm, rmap)
        qf = quasi_finite_check(F.cm, rmap.target.parse("z"), rmap)
        assert qf["included"]
        assert qf["strict"]


class TestPointPushforward:
    def test_core_chain_beyond_the_cap_raises(self, monkeypatch):
        # the plain trace on F_2[x] has core 0, which one step misses
        cm = plain_line(2)
        assert pushforward_point(cm)[1].dim() == 0
        monkeypatch.setattr(EngineCaps, "chain_cap", 1)
        with pytest.raises(ResourceCapError, match="point core chain"):
            pushforward_point(cm)

    def test_negative_example(self):
        for p in (2, 3):
            cm = twisted_line(p)
            model, core = pushforward_point(cm)
            assert core.dim() == 1
            t = tau(cm).submodule
            _m, core_tau = pushforward_point(cm.with_carrier(t))
            assert core_tau.dim() == 0
