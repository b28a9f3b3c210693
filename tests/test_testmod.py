"""Test-element search, regularity decisions, and the tau engines."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cartierlab
from cartierlab import testmod
from cartierlab.cartiercore import (CartierAlgebraSpec, CartierOp,
                                    graded_sum, underline,
                                    validate_structure)
from cartierlab.errors import NoStabilizationError, SearchBudgetError
from cartierlab.fppoly import EngineCaps, RingSpec
from cartierlab.fpmod import PresentedModule, torsion
from cartierlab.idealkit import Ideal, RootAutomaton, root_automaton
from cartierlab.testmod import (_nil_iso_at, find_test_elements,
                                is_f_regular, tau, tau_bms, tau_prime)
from cartierlab.cartiercore import ass_cartier

from instancegen import corpus_pair


def twisted_line(p, t, premul=None):
    R = RingSpec(p, ("y",))
    y = R.var("y")
    M = PresentedModule.free(R, 1)
    U = premul if premul is not None else R.one()
    alg = CartierAlgebraSpec([CartierOp(1, [[U]])],
                             twist=(Ideal(R, [y]), Fraction(t)))
    return validate_structure(M, alg), y


def sec3_module():
    return corpus_pair("sec3_example_p3")


def intro_module():
    return corpus_pair("intro_example_p2")


class TestIsFRegular:
    def test_twisted_line_not_regular(self):
        R = RingSpec(2, ("x",))
        x = R.var("x")
        M = PresentedModule.free(R, 1)
        cm = validate_structure(M, CartierAlgebraSpec([CartierOp(1, [[x]])]))
        ok, cert = is_f_regular(cm)
        assert not ok
        assert "proper_submodule" in cert  # sound witness

    def test_quotient_regular(self):
        R = RingSpec(2, ("x",))
        x = R.var("x")
        Q = PresentedModule.quotient_ring(R, Ideal(R, [x]))
        cm = validate_structure(Q, CartierAlgebraSpec([CartierOp(1, [[x]])]))
        ok, _cert = is_f_regular(cm)
        assert ok

    def test_sec3_regular_but_torsion_piece_not(self):
        cm = sec3_module()
        ok, _ = is_f_regular(cm)
        assert ok
        x = cm.ring.var("x")
        core, _ = underline(cm)
        tor = torsion(cm.module, Ideal(cm.ring, [x]), within=core)
        piece, _ = underline(cm, start=tor)
        okp, _ = is_f_regular(cm.with_carrier(piece))
        assert not okp


class TestFindTestElements:
    def test_sec3_sequence(self):
        seq = find_test_elements(sec3_module())
        got = [(tuple(e.prime.ideal.serialize()), str(e.element))
               for e in seq.entries]
        assert got == [((), "x"), (("x",), "y")]

    def test_twisted_line_derived(self):
        # for (F_2[x], trace(x * -)) the unit fails at (0) (the module is not
        # regular) but localizing at x is: verified through the recursive check
        R = RingSpec(2, ("x",))
        x = R.var("x")
        M = PresentedModule.free(R, 1)
        cm = validate_structure(M, CartierAlgebraSpec([CartierOp(1, [[x]])]))
        seq = find_test_elements(cm)
        assert [(tuple(e.prime.ideal.serialize()), str(e.element))
                for e in seq.entries] == [((), "x")]

    def test_single_prime_trivial(self):
        R = RingSpec(2, ("x",))
        x = R.var("x")
        Q = PresentedModule.quotient_ring(R, Ideal(R, [x]))
        cm = validate_structure(Q, CartierAlgebraSpec([CartierOp(1, [[x]])]))
        seq = find_test_elements(cm)
        assert [(tuple(e.prime.ideal.serialize()), str(e.element))
                for e in seq.entries] == [(("x",), "1")]

    def test_each_candidate_is_verified_once(self, monkeypatch):
        # the prime (0) of sec3 is isolated from (x) by the candidates in
        # (x); when every check fails, the pool stage that follows must not
        # verify those again, and the error names each candidate once
        verified = []

        def failing(cmc, c, piece):
            verified.append(str(c))
            return False, {}

        monkeypatch.setattr(testmod, "_verify_test_element", failing)
        cm = sec3_module()
        with pytest.raises(SearchBudgetError) as err:
            find_test_elements(cm)
        assert "x" in verified  # isolating, so tried in both stages
        assert len(verified) == len(set(verified)), verified
        assert str(err.value).endswith(f"tried {verified}")


class TestTau:
    def test_floor_formula(self):
        for p in (2, 3, 5):
            for tnum, tden, k in ((1, 2, 0), (1, 1, 1), (3, 2, 1),
                                  (2, 1, 2), (5, 2, 2)):
                cm, y = twisted_line(p, Fraction(tnum, tden))
                got = tau(cm).submodule
                assert got == cm.module.submodule([[y ** k]]), \
                    f"p={p}, t={tnum}/{tden}"

    def test_intro_example_additive(self):
        cm = intro_module()
        R = cm.ring
        x = R.var("x")
        res = tau(cm)
        want = cm.module.submodule([[R.one(), R.zero()], [R.zero(), x]])
        assert res.submodule == want
        # additivity cross-check: the two summands computed separately
        My = PresentedModule.quotient_ring(R, Ideal(R, [R.var("y")]))
        c1 = validate_structure(My, CartierAlgebraSpec(
            [CartierOp(1, [[R.var("y")]])]))
        assert tau(c1).submodule.is_full()
        Mf = PresentedModule.free(R, 1)
        c2 = validate_structure(Mf, CartierAlgebraSpec(
            [CartierOp(1, [[x]])]))
        assert tau(c2).submodule == Mf.submodule([[x]])

    def test_intro_direct_minimality_oracle(self):
        # brute-force cross-check of "smallest": enumerate the stable
        # monomial-generated candidates below tau and verify each fails
        # either stability or one of the per-prime conditions
        from cartierlab.cartiercore import apply_cplus

        cm = intro_module()
        R = cm.ring
        x, y = R.gens()
        res = tau(cm).submodule
        core, _ = underline(cm)
        cmc = cm.with_carrier(core)
        primes = ass_cartier(cm)
        zero = R.zero()
        for a in range(3):
            for b in range(4):
                cand = cm.module.submodule([[x ** a, zero], [zero, x ** b]])
                if cand == res or not res.contains_sub(cand):
                    continue
                stable = cand.contains_sub(apply_cplus(cmc, cand))
                qualifies = stable and all(
                    _nil_iso_at(cmc, pr, core, cand) for pr in primes)
                assert not qualifies, f"candidate a={a} b={b} beat tau"

    def test_line_tau_is_x(self):
        R = RingSpec(2, ("x",))
        x = R.var("x")
        M = PresentedModule.free(R, 1)
        cm = validate_structure(M, CartierAlgebraSpec([CartierOp(1, [[x]])]))
        assert tau(cm).submodule == M.submodule([[x]])

    def test_e0_independence(self):
        cm = sec3_module()
        base = tau(cm, e0=0).submodule
        for e0 in (1, 2):
            assert tau(cm, e0=e0).submodule == base

    @staticmethod
    def minimality_audit(cm, tau_sub, primes):
        """One-generator-descent audit of minimality.

        For each basis generator g, the closure of the remaining generators
        must either re-close to the full result or fail one of the defining
        per-prime conditions.  Weak but mechanical; returns the list of
        failures.
        """
        core, _ = underline(cm)
        cmc = cm.with_carrier(core)
        failures = []
        gens = tau_sub.generators_reduced()
        for i in range(len(gens)):
            rest = gens[:i] + gens[i + 1:]
            shrunk, _info = graded_sum(cmc, cmc.canon(rest))
            if shrunk == tau_sub:
                continue
            if all(_nil_iso_at(cmc, pr, core, shrunk) for pr in primes):
                failures.append(str(gens[i]))
        return failures

    def test_minimality_audit(self):
        cm = intro_module()
        res = tau(cm)
        primes = ass_cartier(cm)
        assert self.minimality_audit(cm, res.submodule, primes) == []

    def test_certificate_contents(self):
        cm = sec3_module()
        res = tau(cm)
        cert = res.certificate
        assert cert["verification"]["algebra_stable"]
        assert all(cert["verification"]["per_prime"].values())
        assert cert["test_elements"]


class TestTauPrime:
    def test_intro(self):
        cm = intro_module()
        R = cm.ring
        x = R.var("x")
        res = tau_prime(cm)
        assert res.submodule == cm.module.submodule([[R.zero(), x]])

    def test_agreement_when_all_minimal(self):
        for p, t in ((2, Fraction(3, 2)), (3, Fraction(1, 2))):
            cm, _y = twisted_line(p, t)
            assert tau_prime(cm).submodule == tau(cm).submodule

    def test_twisted_first_summand(self):
        # the twisted quotient line: tau'(R/(x), (y)-twist t) = y^floor(t)
        R = RingSpec(2, ("x", "y"))
        x, y = R.gens()
        Q = PresentedModule.quotient_ring(R, Ideal(R, [x]))
        alg = CartierAlgebraSpec([CartierOp(1, [[x]])],
                                 twist=(Ideal(R, [y]), Fraction(3, 2)))
        cm = validate_structure(Q, alg)
        assert tau_prime(cm).submodule == Q.submodule([[y]])


class TestTauBms:
    def test_unit_examples(self):
        R = RingSpec(2, ("y",))
        y = R.var("y")
        assert tau_bms(y, 1) == Ideal(R, [y])
        assert tau_bms(y, Fraction(1, 2)) == Ideal(R, [R.one()])

    def test_cusp_first_jump(self):
        R = RingSpec(7, ("x", "y"), caps=EngineCaps(max_total_degree=10 ** 6))
        f = R.parse("x^2 + y^3")
        at = tau_bms(f, Fraction(5, 6))
        before = tau_bms(f, Fraction(5, 6) - Fraction(1, 100))
        assert before == Ideal(R, [R.one()])
        assert at == Ideal(R, [R.var("x"), R.var("y")])
        assert at != before

    def test_no_stabilization_error(self):
        R = RingSpec(2, ("y",))
        y = R.var("y")
        with pytest.raises(NoStabilizationError):
            tau_bms(y, Fraction(1, 3), e_max=3)

    def test_a_descending_root_chain_is_an_internal_error(self, monkeypatch):
        # every root of a power of x is a power of x: the pair (unit state,
        # m) names (x^m), so the walk below feeds the chain (x), then (x^2).
        # A zero-digit walk keeps its pair, as the real one does.  At
        # t = 3/2 (pre 0, period 1) K_0 is (unit state, 2), so the
        # certificate does not stop the chain at level 1.
        R = RingSpec(3, ("x", "y"))
        x = R.var("x")

        def descending(automaton, exponent, e, state=0):
            return (state, exponent) if e == 0 else (0, 1 if e == 1 else 2)

        monkeypatch.setattr(RootAutomaton, "walk", descending)
        automaton = root_automaton(x)
        assert automaton.ideal((0, 1)) == Ideal(R, [x])
        assert automaton.ideal((0, 2)) == Ideal(R, [x ** 2])
        with pytest.raises(AssertionError,
                           match="root chain failed to ascend"):
            tau_bms(x, Fraction(3, 2))

    def test_fast_path_equivalence_small(self):
        for p, ftxt, t in ((2, "x^3 + y^2", Fraction(1, 2)),
                           (3, "x*y", Fraction(2, 3)),
                           (5, "x^2 + y^2", Fraction(1, 2))):
            R = RingSpec(p, ("x", "y"),
                         caps=EngineCaps(max_total_degree=100000))
            f = R.parse(ftxt)
            M = PresentedModule.free(R, 1)
            alg = CartierAlgebraSpec([CartierOp(1, [[R.one()]])],
                                     twist=(Ideal(R, [f]), t))
            cm = validate_structure(M, alg)
            eng = Ideal(R, [g.component(0) for g in tau(cm).submodule.basis()])
            assert eng == tau_bms(f, t)


class TestNilInvariance:
    def test_image_of_tau_under_core_inclusion(self):
        # for a non-F-pure module, tau(M) = tau(core) as subsets
        R = RingSpec(2, ("x",))
        x = R.var("x")
        M = PresentedModule.free(R, 1)
        cm = validate_structure(M, CartierAlgebraSpec(
            [CartierOp(1, [[x * x]])]))
        core, k = underline(cm)
        assert k > 0
        t_full = tau(cm).submodule
        t_core = tau(cm.with_carrier(core)).submodule
        assert t_full == t_core

    def test_localization_formal_property(self):
        cm = intro_module()
        y = cm.ring.var("y")
        loc = cm.localize(y)
        t_loc = tau(loc).submodule
        t_amb = tau(cm).submodule
        assert t_loc == loc.canon(t_amb.gens)


class TestProcessHistory:
    """An answer must not depend on what ran earlier in the process."""

    SNIPPET = (
        "import json\n"
        "from importlib import resources\n"
        "from cartierlab import scene\n"
        "from cartierlab.testmod import find_test_elements\n"
        "text = resources.files('cartierlab').joinpath(\n"
        "    'corpus/sec3_example_p3.scene').read_text('utf-8')\n"
        "cm = scene.parse_scene(text, name='sec3_example_p3').pairs['P']\n"
        "print(json.dumps(find_test_elements(cm).serialize(),\n"
        "                 sort_keys=True))\n")

    TWISTED_PLANE_SNIPPET = (
        "import json\n"
        "from fractions import Fraction\n"
        "from cartierlab.cartiercore import (CartierAlgebraSpec, CartierOp,\n"
        "                                    validate_structure)\n"
        "from cartierlab.fpmod import PresentedModule\n"
        "from cartierlab.fppoly import RingSpec\n"
        "from cartierlab.idealkit import Ideal\n"
        "from cartierlab.testmod import find_test_elements\n"
        "R = RingSpec(3, ('x', 'y'))\n"
        "alg = CartierAlgebraSpec([CartierOp(1, [[R.one()]])],\n"
        "                         twist=(Ideal(R, [R.parse('x*y')]),\n"
        "                                Fraction(1, 2)))\n"
        "cm = validate_structure(PresentedModule.free(R, 1), alg)\n"
        "print(json.dumps(find_test_elements(cm).serialize(),\n"
        "                 sort_keys=True))\n")

    @staticmethod
    def run_fresh(snippet):
        env = dict(os.environ)
        src = str(Path(cartierlab.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        return subprocess.run([sys.executable, "-c", snippet],
                              env=env, capture_output=True, text=True,
                              check=True).stdout.strip()

    def test_test_elements_ignore_an_earlier_run_on_another_pair(self):
        fresh = self.run_fresh(self.SNIPPET)
        # rank 2 over F_3 with an x-torsion summand, like sec3's module
        find_test_elements(corpus_pair("remark_pathology_p3"))
        after = json.dumps(
            find_test_elements(corpus_pair("sec3_example_p3")).serialize(),
            sort_keys=True)
        assert after == fresh

    def test_test_elements_over_f3_ignore_an_earlier_f2_run(self):
        def twisted_plane(p):
            R = RingSpec(p, ("x", "y"))
            alg = CartierAlgebraSpec([CartierOp(1, [[R.one()]])],
                                     twist=(Ideal(R, [R.parse("x*y")]),
                                            Fraction(1, 2)))
            return validate_structure(PresentedModule.free(R, 1), alg)

        fresh = self.run_fresh(self.TWISTED_PLANE_SNIPPET)
        find_test_elements(twisted_plane(2))
        after = json.dumps(find_test_elements(twisted_plane(3)).serialize(),
                           sort_keys=True)
        assert after == fresh


class TestInternalFaultsPropagate:
    """Only engine errors may be absorbed by the best-effort factor pool."""

    def test_factor_fault_escapes_the_best_effort_factoriser(self, monkeypatch):
        from cartierlab import idealkit

        def broken(f, _depth=0):
            raise AssertionError("internal fault")

        monkeypatch.setattr(idealkit, "factor_restricted", broken)
        R = RingSpec(3, ("x", "y"))
        with pytest.raises(AssertionError, match="internal fault"):
            idealkit.irreducible_factors_best_effort(R.parse("x*y + 1"))
        with pytest.raises(AssertionError, match="internal fault"):
            find_test_elements(sec3_module())

    def test_annihilator_fault_escapes_the_factor_pool(self, monkeypatch):
        from cartierlab import fpmod
        from cartierlab.errors import UnsupportedShapeError
        from cartierlab.testmod import _factor_pool

        cm = sec3_module()

        def unsupported(self):
            raise UnsupportedShapeError("no annihilator here")

        monkeypatch.setattr(fpmod.Submodule, "annihilator", unsupported)
        assert _factor_pool(cm)  # engine errors are absorbed

        def broken(self):
            raise AssertionError("internal fault")

        monkeypatch.setattr(fpmod.Submodule, "annihilator", broken)
        with pytest.raises(AssertionError, match="internal fault"):
            _factor_pool(cm)


class TestFactorPool:
    def test_pool_has_a_factor_of_every_twist_ideal(self):
        from cartierlab.testmod import _factor_pool

        R = RingSpec(2, ("x", "y", "z"))
        alg = CartierAlgebraSpec(
            [CartierOp(1, [[R.one()]])],
            [(Ideal(R, [R.parse("y")]), Fraction(1, 2)),
             (Ideal(R, [R.parse("x + z")]), Fraction(1, 2))])
        pool = _factor_pool(validate_structure(PresentedModule.free(R, 1),
                                               alg))
        for ideal, _t in alg.twists:
            for g in ideal.gens:
                assert any(g.try_divide(h) is not None for h in pool), \
                    (str(g), [str(h) for h in pool])


# sha256 over every grid point k/12, k = 1..12, of one JSON line holding
# tau(cm).serialize() and find_test_elements(cm).serialize(); the second
# carries each regularity certificate with its ordered candidate list
GRID_CERTIFICATES = {
    "x^3 + y^2":
        "98e65c8b1fce1bdeaaa31db4e76a6edf8a45bdf5fde2d31f4cec364c6452edb3",
    "x*y": "a407a83c5f2ca1b76438db9a69229102b3becb83cefdc3eec78dbdf22800bc83",
}


@pytest.mark.parametrize("text", sorted(GRID_CERTIFICATES))
def test_grid_certificates_are_pinned(text):
    """Any change to the candidate pool, its order, the test elements or a
    closure record moves this hash."""
    R = RingSpec(2, ("x", "y"), caps=EngineCaps(max_total_degree=10 ** 6))
    f = R.parse(text)
    M = PresentedModule.free(R, 1)
    digest = hashlib.sha256()
    for k in range(1, 13):
        alg = CartierAlgebraSpec([CartierOp(1, [[R.one()]])],
                                 twist=(Ideal(R, [f]), Fraction(k, 12)))
        cm = validate_structure(M, alg)
        line = json.dumps([tau(cm).serialize(),
                           find_test_elements(cm).serialize()])
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == GRID_CERTIFICATES[text]
