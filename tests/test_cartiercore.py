"""Operator algebras on modules: validation, chains, associated primes."""

import pytest

from cartierlab.cartiercore import (CartierAlgebraSpec, CartierOp,
                                    apply_cplus, ass_cartier,
                                    check_equivariant, is_f_pure,
                                    nil_isomorphism, nilpotence,
                                    operator_from_action, underline,
                                    validate_structure)
from cartierlab.errors import InvalidStructureError, NotEquivariantError
from cartierlab.fppoly import RingSpec
from cartierlab.groebner import memo_scope
from cartierlab.fpmod import ModuleMap, PresentedModule
from cartierlab.idealkit import Ideal, PrimeIdeal

from instancegen import corpus_pair


def line_with_trace_x():
    R = RingSpec(2, ("x",))
    x = R.var("x")
    M = PresentedModule.free(R, 1)
    return validate_structure(M, CartierAlgebraSpec([CartierOp(1, [[x]])]))


def remark_module():
    """rank-2 module over F_3[x] with matrix [[x,0],[x^2,0]] mod (0|x)."""
    return corpus_pair("remark_pathology_p3")


def intro_module():
    """R/(y) (+) R over F_2[x,y], operators diag(y, x) before the trace."""
    return corpus_pair("intro_example_p2")


class TestValidate:
    def test_free_module_valid(self):
        line_with_trace_x()  # raises InvalidStructureError if invalid

    def test_quotient_valid(self):
        R = RingSpec(2, ("x",))
        x = R.var("x")
        M = PresentedModule.quotient_ring(R, Ideal(R, [x]))
        validate_structure(M, CartierAlgebraSpec([CartierOp(1, [[x]])]))

    def test_invalid_with_witness(self):
        R = RingSpec(2, ("x", "y"))
        x, y = R.gens()
        M = PresentedModule.quotient_ring(R, Ideal(R, [y]))
        with pytest.raises(InvalidStructureError) as err:
            validate_structure(M, CartierAlgebraSpec([CartierOp(1, [[x]])]))
        assert err.value.witness == (0, 0, (0, 0))

    def test_rank_mismatch(self):
        R = RingSpec(2, ("x",))
        M = PresentedModule.free(R, 2)
        with pytest.raises(InvalidStructureError):
            validate_structure(M, CartierAlgebraSpec(
                [CartierOp(1, [[R.one()]])]))

    def test_carrier_from_another_module(self):
        R = RingSpec(2, ("x",))
        M = PresentedModule.free(R, 1)
        N = PresentedModule.free(R, 2)
        S = N.submodule([[R.one(), R.zero()]])
        algebra = CartierAlgebraSpec([CartierOp(1, [[R.one()]])])
        with pytest.raises(InvalidStructureError, match="another module"):
            validate_structure(M, algebra, carrier=S)
        # a carrier of an equal presentation is the same submodule
        twin = PresentedModule.free(R, 1).full_submodule()
        assert validate_structure(M, algebra, carrier=twin).carrier \
            == M.full_submodule()


class TestApplyCplus:
    def test_full_module_f_pure(self):
        cm = line_with_trace_x()
        full = cm.module.full_submodule()
        assert apply_cplus(cm, full) == full

    def test_proper_stable(self):
        cm = line_with_trace_x()
        x = cm.ring.var("x")
        sub = cm.module.submodule([[x]])
        assert apply_cplus(cm, sub) == sub

    def test_zero_operator(self):
        R = RingSpec(2, ("x",))
        M = PresentedModule.free(R, 1)
        cm = validate_structure(M, CartierAlgebraSpec(
            [CartierOp(1, [[R.zero()]])]))
        assert apply_cplus(cm, M.full_submodule()).is_trivial()


class TestUnderline:
    def test_f_pure_line(self):
        core, k = underline(line_with_trace_x())
        assert core.is_full() and k == 0

    def test_remark_f_pure(self):
        core, k = underline(remark_module())
        assert core.is_full() and k == 0

    def test_zero_operator_one_step(self):
        R = RingSpec(2, ("x",))
        x = R.var("x")
        M = PresentedModule.quotient_ring(R, Ideal(R, [x]))
        cm = validate_structure(M, CartierAlgebraSpec(
            [CartierOp(1, [[R.zero()]])]))
        core, k = underline(cm)
        assert core.is_trivial() and k == 1

    def test_chain_monotone_and_f_purity_characterization(self):
        for cm in (line_with_trace_x(), remark_module(), intro_module()):
            core, k = underline(cm)
            full = cm.module.full_submodule()
            assert is_f_pure(cm) == (apply_cplus(cm, full) == full)
            assert full.contains_sub(core)


class TestNilpotence:
    def test_zero_operator(self):
        R = RingSpec(2, ("x",))
        x = R.var("x")
        M = PresentedModule.quotient_ring(R, Ideal(R, [x]))
        cm = validate_structure(M, CartierAlgebraSpec(
            [CartierOp(1, [[R.zero()]])]))
        assert nilpotence(cm, M.full_submodule())

    def test_trace_not_nilpotent(self):
        cm = line_with_trace_x()
        assert not nilpotence(cm, cm.module.full_submodule())

    def test_intro_second_summand_at_generic_point(self):
        cm = intro_module()
        x = cm.ring.var("x")
        z = cm.ring.zero()
        sub = cm.module.submodule([[z, x]])
        assert not nilpotence(cm, sub, at=PrimeIdeal(Ideal(cm.ring, [])))


class TestAss:
    def test_remark_pathology(self):
        primes = ass_cartier(remark_module())
        assert [tuple(p.ideal.serialize()) for p in primes] == [()]

    def test_torsion_free_line(self):
        primes = ass_cartier(line_with_trace_x())
        assert [tuple(p.ideal.serialize()) for p in primes] == [()]

    def test_intro_split_sum(self):
        primes = ass_cartier(intro_module())
        assert sorted(tuple(p.ideal.serialize()) for p in primes) == \
            [(), ("y",)]

    def test_memo_hands_out_copies(self):
        # a caller mutating one result must not change the memoised next one
        cm = intro_module()
        with memo_scope():
            first = ass_cartier(cm)
            first.append(PrimeIdeal(Ideal(cm.ring, [cm.ring.var("x")])))
            second = ass_cartier(cm)
        assert sorted(tuple(p.ideal.serialize()) for p in second) == \
            [(), ("y",)]


class TestNilIsomorphism:
    def test_core_inclusion_always(self):
        # stable core -> module is a nil-isomorphism by construction
        R = RingSpec(2, ("x",))
        x = R.var("x")
        M = PresentedModule.free(R, 1)
        cm = validate_structure(M, CartierAlgebraSpec(
            [CartierOp(1, [[x * x]])]))  # not F-pure: core is (x)
        core, k = underline(cm)
        assert k > 0
        from cartierlab.fpmod import present_submodule
        P, gens = present_submodule(core)
        phi = ModuleMap(P, M, gens, check=False)
        # structure on the presented core: restrict the operator
        from cartierlab.groebner import LiftContext, VecPoly
        ctx = LiftContext(gens, M.relation_gb(), M.rank)
        op = cm.algebra.generators[0]

        def action(a, j):
            img = op.apply_vec(gens[j].mul_term(a, 1))
            lam = ctx.lift(img)
            return VecPoly.from_columns(R, lam)

        core_op = operator_from_action(P, 1, action)
        core_cm = validate_structure(P, CartierAlgebraSpec([core_op]))
        assert nil_isomorphism(phi, core_cm, cm)

    def test_identity(self):
        cm = line_with_trace_x()
        phi = ModuleMap.identity(cm.module)
        assert nil_isomorphism(phi, cm, cm)

    def test_zero_into_module_fails(self):
        cm = line_with_trace_x()
        R = cm.ring
        Z = PresentedModule(R, 1, [[R.one()]])  # zero module
        zcm = validate_structure(Z, CartierAlgebraSpec(
            [CartierOp(1, [[R.var("x")]])]))
        phi = ModuleMap(Z, cm.module, [[R.zero()]])
        assert not nil_isomorphism(phi, zcm, cm)

    def test_non_equivariant_witness(self):
        cm = line_with_trace_x()
        R = cm.ring
        x = R.var("x")
        phi = ModuleMap(cm.module, cm.module, [[x]])  # mult by x
        with pytest.raises(NotEquivariantError):
            nil_isomorphism(phi, cm, cm)

    def test_witness_is_first_failing_basis_monomial(self):
        # the operators differ by trace((x^2*y + x*y^2) * -), which is
        # nonzero on x^a y^b exactly for (a, b) in {(0, 1), (1, 0)}; the
        # witness is the first of them in the box order
        R = RingSpec(2, ("x", "y"))
        M = PresentedModule.free(R, 1)
        one = R.one()
        src = validate_structure(M, CartierAlgebraSpec([CartierOp(1, [[one]])]))
        tgt = validate_structure(M, CartierAlgebraSpec(
            [CartierOp(1, [[one + R.parse("x^2*y + x*y^2")]])]))
        phi = ModuleMap.identity(M)
        with pytest.raises(NotEquivariantError) as info:
            check_equivariant(phi, src, tgt)
        assert info.value.witness == (0, 0, (0, 1))


class TestOperators:
    def test_composition_law(self):
        # (e,U)(d,V) acts as first V then U; frozen against direct evaluation
        R = RingSpec(2, ("x",))
        x = R.var("x")
        M = PresentedModule.free(R, 1)
        U = CartierOp(1, [[x]])
        V = CartierOp(1, [[x + R.one()]])
        comp = U.compose(V)
        assert comp.e == 2
        for k in range(6):
            vec = M.vector([x ** k])
            assert comp.apply_vec(vec) == U.apply_vec(V.apply_vec(vec))

    def test_operator_from_action_inverts_apply(self):
        R = RingSpec(3, ("x",))
        x = R.var("x")
        M = PresentedModule.free(R, 2)
        U = CartierOp(1, [[x, R.one()], [R.zero(), x * x]])

        def action(a, j):
            return U.apply_vec(M.generator(j).mul_term(a, 1))

        rebuilt = operator_from_action(M, 1, action)
        for k in range(4):
            for j in range(2):
                vec = M.generator(j).mul_poly(x ** k)
                assert rebuilt.apply_vec(vec) == U.apply_vec(vec)

    def test_annihilator_of_f_pure_is_radical(self):
        # principal case: ann of the stable core equals its own radical
        cm = intro_module()
        core, _ = underline(cm)
        ann = core.annihilator()
        assert ann.is_zero()  # the intro sum is faithful
        R3 = RingSpec(3, ("x",))
        x = R3.var("x")
        M = PresentedModule.quotient_ring(R3, Ideal(R3, [x ** 1]))
        cm2 = validate_structure(M, CartierAlgebraSpec(
            [CartierOp(1, [[x ** 2]])]))
        core2, _ = underline(cm2)
        ann2 = core2.annihilator()
        # radical oracle for a principal monomial ideal: strip exponents
        assert ann2 == Ideal(R3, [x])
