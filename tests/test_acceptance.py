"""Acceptance criteria, one test per criterion, exact equality throughout.

Each test prints a single pass line including its wall time; the stated time
limits are asserted.  Derived expected values come from the independent
oracles named inline.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

from cartierlab.cache import canonical_json
from cartierlab.cartiercore import (CartierAlgebraSpec, CartierModule,
                                    CartierOp, ass_cartier, underline,
                                    validate_structure)
from cartierlab.cli import run_corpus
from cartierlab.filtration import jumping_numbers, skoda_report
from cartierlab.fppoly import EngineCaps, RingSpec, cartier_trace, gauge_of
from cartierlab.fpmod import PresentedModule, torsion
from cartierlab.functorops import (RingMap, coherent_model, fiber_primes,
                                   contract_prime, gauge_growth_probe,
                                   pushforward_finite, shriek_affine_line,
                                   shriek_finite, _vec_map_ring)
from cartierlab.idealkit import Ideal
from cartierlab.testmod import (find_test_elements, is_f_regular, tau,
                                tau_bms, tau_prime)

from instancegen import (corpus_pair, random_cartier_module,
                         random_sum_instance)


class Criterion:
    def __init__(self, number, limit_seconds):
        self.number = number
        self.limit = limit_seconds
        self.start = time.perf_counter()

    def done(self):
        elapsed = time.perf_counter() - self.start
        print(f"\n[acceptance] criterion {self.number}: PASS "
              f"({elapsed:.2f}s, limit {self.limit}s)")
        assert elapsed < self.limit, \
            f"criterion {self.number} exceeded its time limit"


def corpus_modules():
    """The bundled example modules used by the functor criteria."""
    return [("intro", corpus_pair("intro_example_p2")),
            ("sec3", corpus_pair("sec3_example_p3")),
            ("remark", corpus_pair("remark_pathology_p3")),
            ("twisted-line", corpus_pair("basic_line_p2")),
            ("quotient-line", corpus_pair("basic_line_p2", "PQ")),
            ("plain-line", corpus_pair("floor_formula_p2"))]


def test_criterion_01_floor_formula():
    crit = Criterion(1, 2.0)
    for p in (2, 3, 5):
        R = RingSpec(p, ("y",))
        y = R.var("y")
        M = PresentedModule.free(R, 1)
        for t in (Fraction(1, 2), Fraction(1), Fraction(3, 2),
                  Fraction(2), Fraction(5, 2)):
            alg = CartierAlgebraSpec([CartierOp(1, [[R.one()]])],
                                     twist=(Ideal(R, [y]), t))
            cm = validate_structure(M, alg)
            floor = t.numerator // t.denominator
            assert tau(cm).submodule == M.submodule([[y ** floor]]), \
                f"p={p}, t={t}"
    crit.done()


def test_criterion_02_intro_example():
    crit = Criterion(2, 2.0)
    cm = corpus_pair("intro_example_p2")
    R = cm.ring
    x = R.var("x")
    zero = R.zero()
    legacy = tau_prime(cm).submodule
    assert legacy == cm.module.submodule([[zero, x]])
    new = tau(cm).submodule
    assert new == cm.module.submodule([[R.one(), zero], [zero, x]])
    # additivity: equals the sum of the per-summand results
    My = PresentedModule.quotient_ring(R, Ideal(R, [R.var("y")]))
    first = validate_structure(My, CartierAlgebraSpec(
        [CartierOp(1, [[R.var("y")]])]))
    second = validate_structure(PresentedModule.free(R, 1),
                                CartierAlgebraSpec([CartierOp(1, [[x]])]))
    t1 = tau(first).submodule
    t2 = tau(second).submodule
    assert t1.is_full()
    assert t2 == second.module.submodule([[x]])
    rebuilt = cm.module.submodule(
        [[g.component(0), zero] for g in t1.basis()]
        + [[zero, g.component(0)] for g in t2.basis()])
    assert new == rebuilt
    crit.done()


def test_criterion_03_ass_pathology():
    crit = Criterion(3, 2.0)
    # rank-2 pathology over F_3[x]
    R = RingSpec(3, ("x",))
    x = R.var("x")
    z = R.zero()
    M = PresentedModule(R, 2, [[z, x]])
    cm = validate_structure(M, CartierAlgebraSpec(
        [CartierOp(1, [[x, z], [x * x, z]])]))
    primes = ass_cartier(cm)
    assert [tuple(p.ideal.serialize()) for p in primes] == [()]
    # module-level evidence that (x) is associated to the underlying module:
    # nonzero (x)-power torsion whose annihilator is exactly (x), plus a
    # free element for (0)
    tor = torsion(M, Ideal(R, [x]))
    assert not tor.is_trivial()
    assert tor.annihilator() == Ideal(R, [x])
    assert M.zero_submodule().colon_ideal(M.generator(0)).is_zero()
    # the two-variable version: F-pure, but the torsion piece at (x) is not
    R2 = RingSpec(3, ("x", "y"))
    x2, y2 = R2.gens()
    z2 = R2.zero()
    M2 = PresentedModule(R2, 2, [[z2, x2]])
    U = CartierOp(1, [[x2, z2], [x2 ** 2, x2 ** 2 * y2 ** 3]])
    cm2 = validate_structure(M2, CartierAlgebraSpec([U]))
    core, k = underline(cm2)
    assert k == 0 and core.is_full()
    piece_tor = torsion(M2, Ideal(R2, [x2]), within=core)
    piece, steps = underline(cm2, start=piece_tor)
    assert not piece_tor.is_trivial()
    assert piece != piece_tor  # H^0_(x)(M) itself is not F-pure
    crit.done()


def test_criterion_04_test_elements():
    crit = Criterion(4, 5.0)
    cm = corpus_pair("sec3_example_p3")
    seq = find_test_elements(cm)
    got = [(tuple(e.prime.ideal.serialize()), str(e.element))
           for e in seq.entries]
    assert got == [((), "x"), (("x",), "y")]
    ok, _cert = is_f_regular(cm)
    assert ok
    x = cm.ring.var("x")
    core, _ = underline(cm)
    tor = torsion(cm.module, Ideal(cm.ring, [x]), within=core)
    piece, _ = underline(cm, start=tor)
    okp, _ = is_f_regular(cm.with_carrier(piece))
    assert not okp  # hence 1, 1 is not a sequence of test elements
    crit.done()


def test_criterion_05_property_suite():
    crit = Criterion(5, 60.0)
    N = 20
    rng = random.Random(20260810)
    failures = []

    # functoriality + additivity + Ass split-sum on direct sums
    for i in range(N):
        p = rng.choice((2, 3))
        cm, maps = random_sum_instance(rng, p, rng.choice((1, 2)))
        tau_sum = tau(cm).submodule
        rebuilt = cm.module.zero_submodule()
        union = set()
        for piece, inc, proj in maps:
            tp = tau(piece).submodule
            if not tau_sum.contains_sub(inc.apply_submodule(tp)):
                failures.append(("functoriality-inclusion", i))
            if not tp.contains_sub(proj.apply_submodule(tau_sum)):
                failures.append(("functoriality-projection", i))
            rebuilt = rebuilt.sum(inc.apply_submodule(tp))
            union |= {tuple(pr.ideal.serialize())
                      for pr in ass_cartier(piece)}
        if tau_sum != cm.canon(rebuilt.gens):
            failures.append(("additivity", i))
        whole = {tuple(pr.ideal.serialize()) for pr in ass_cartier(cm)}
        if whole != union:
            failures.append(("ass-split", i))

    # localization commutation
    for i in range(N):
        p = rng.choice((2, 3))
        nv = rng.choice((1, 2))
        cm = random_cartier_module(rng, p, nv)
        c = cm.ring.gens()[rng.randrange(nv)]
        loc = cm.localize(c)
        if tau(loc).submodule != loc.canon(tau(cm).submodule.gens):
            failures.append(("localization", i))

    # subalgebra monotonicity
    for i in range(N):
        p = rng.choice((2, 3))
        cm = random_cartier_module(rng, p, rng.choice((1, 2)),
                                   extra_generator=True)
        small = CartierModule(cm.module,
                              CartierAlgebraSpec(cm.algebra.generators[:1]))
        if not tau(cm).submodule.contains_sub(tau(small).submodule):
            failures.append(("subalgebra", i))

    # e0 independence
    for i in range(N):
        p = rng.choice((2, 3))
        cm = random_cartier_module(rng, p, rng.choice((1, 2)))
        base = tau(cm, e0=0).submodule
        for e0 in (1, 2):
            if tau(cm, e0=e0).submodule != base:
                failures.append(("e0", i))
    assert failures == []
    crit.done()


def test_criterion_06_affine_line():
    crit = Criterion(6, 10.0)
    for name, cm in corpus_modules():
        up = shriek_affine_line(cm, "u").cm
        tau_up = tau(up).submodule
        lifted = up.canon([_vec_map_ring(v, up.ring)
                           for v in tau(cm).submodule.basis()])
        assert tau_up == lifted, name
        down_primes = sorted(tuple(p.ideal.serialize())
                             for p in ass_cartier(cm))
        up_primes = sorted(tuple(p.ideal.serialize())
                           for p in ass_cartier(up))
        assert up_primes == down_primes, name  # eta -> eta R[u], generators fixed
    crit.done()


def test_criterion_07_finite_map():
    crit = Criterion(7, 10.0)
    R = RingSpec(3, ("x",))
    x = R.var("x")
    rmap = RingMap.finite(R, "z", "z^2 + 2x")
    mods = []
    mods.append(validate_structure(PresentedModule.free(R, 1),
                                   CartierAlgebraSpec(
                                       [CartierOp(1, [[R.one()]])])))
    mods.append(validate_structure(PresentedModule.free(R, 1),
                                   CartierAlgebraSpec(
                                       [CartierOp(1, [[x ** 2]])])))
    mods.append(validate_structure(
        PresentedModule.quotient_ring(R, Ideal(R, [x])),
        CartierAlgebraSpec([CartierOp(1, [[x ** 2]])])))
    for cm in mods:
        F = shriek_finite(cm, rmap)
        tau_up = tau(F.cm).submodule
        lifted = F.transport_submodule(tau(cm).submodule)
        assert lifted.contains_sub(tau_up)  # tau(f^! M) <= f^! tau(M)
        P = pushforward_finite(F.cm, rmap)
        assert P.transport_submodule(tau_up) == tau(P.cm).submodule
        # Ass transport both directions
        up = ass_cartier(F.cm)
        fibers = set()
        for pr in ass_cartier(cm):
            fibers |= {tuple(q.ideal.serialize())
                       for q in fiber_primes(rmap, pr)}
        assert {tuple(p.ideal.serialize()) for p in up} == fibers
        down = {tuple(contract_prime(rmap, p).ideal.serialize())
                for p in up}
        assert down == {tuple(p.ideal.serialize())
                        for p in ass_cartier(cm)}
    crit.done()


def test_criterion_08_open_immersion():
    crit = Criterion(8, 2.0)
    for p in (2, 3):
        loc = corpus_pair(f"open_immersion_p{p}")  # F_p[x] with x inverted
        x = loc.ring.var("x")
        res = coherent_model(loc)
        K = res.K
        # model core: x^(K-1), i.e. the model is x^(-1) F_p[x]
        assert res.core() == loc.module.submodule([[x ** (K - 1)]])
        tau_model = tau(res.cm).submodule
        assert tau_model == loc.module.submodule([[x ** K]])  # = F_p[x]
        assert res.core().contains_sub(tau_model)
        assert res.core() != tau_model  # strict: pushforward of tau is bigger
        # j_* tau(M) is the full localized module: tau(M_c) = M_c
        ok, _ = is_f_regular(loc)
        assert ok
    crit.done()


def test_criterion_09_jumping_spectra():
    crit = Criterion(9, 120.0)
    cm = corpus_pair("floor_formula_p2")
    y = cm.ring.var("y")
    spec = jumping_numbers(cm, Ideal(cm.ring, [y]), 3, caps=(2, 2))
    assert spec.jump_values() == [1, 2, 3]
    assert spec.exactness == "EXACT"
    # Skoda samples: inclusion always; equality whenever t >= mu
    samples = []
    samples.append((cm, Ideal(cm.ring, [y]), (1, 2, 3)))
    R3 = RingSpec(3, ("x", "y"))
    cm3 = validate_structure(PresentedModule.free(R3, 1),
                             CartierAlgebraSpec([CartierOp(1,
                                                           [[R3.one()]])]))
    samples.append((cm3, Ideal(R3, [R3.var("x"), R3.var("y")]), (1, 2, 3)))
    for mcm, ideal, ts in samples:
        for t in ts:
            rep = skoda_report(mcm, ideal, t)
            assert rep["inclusion"]
            if Fraction(t) >= rep["mu"]:
                assert rep["equality"]
    # first jump of the cusp over F_7: exhaustive root-chain on the grid
    R7 = RingSpec(7, ("x", "y"), caps=EngineCaps(max_total_degree=10 ** 6))
    f = R7.parse("x^2 + y^3")
    D = 7 ** 2 * (7 ** 2 - 1)
    prev = tau_bms(f, Fraction(1, D))
    first_jump = None
    unit = Ideal(R7, [R7.one()])
    assert prev == unit
    for k in range(2, D + 1):
        t = Fraction(k, D)
        cur = tau_bms(f, t)
        if cur != prev:
            first_jump = t
            break
        prev = cur
    assert first_jump == Fraction(5, 6)
    crit.done()


def test_criterion_10_oracle_equivalence():
    crit = Criterion(10, 300.0)
    surfaces = [
        (2, "x^3 + y^2"), (2, "x*y"), (2, "x^2*y + y^3"), (2, "x"),
        (3, "x^2 + y^2"), (3, "x^2*y"), (3, "x^3 + y^3"), (3, "x*y"),
        (5, "x^2 + y^3"), (5, "x*y"),
    ]
    assert len(surfaces) == 10
    mismatches = []
    for p, text in surfaces:
        R = RingSpec(p, ("x", "y"), caps=EngineCaps(max_total_degree=10 ** 6))
        f = R.parse(text)
        M = PresentedModule.free(R, 1)
        D = p ** 2 * (p ** 2 - 1)
        for k in range(1, D + 1):
            t = Fraction(k, D)
            alg = CartierAlgebraSpec([CartierOp(1, [[R.one()]])],
                                     twist=(Ideal(R, [f]), t))
            cm = validate_structure(M, alg)
            engine = Ideal(R, [g.component(0)
                               for g in tau(cm).submodule.basis()])
            if engine != tau_bms(f, t):
                mismatches.append((p, text, str(t)))
    assert mismatches == []
    crit.done()


def test_criterion_11_gauge_machinery():
    crit = Criterion(11, 10.0)
    rng = random.Random(0xDE1)
    from cartierlab.fppoly import Poly

    for p in (2, 3):
        for e in (1, 2):
            R = RingSpec(p, ("x", "y"))
            for _ in range(200):
                f = {}
                for _t in range(rng.randint(1, 6)):
                    f[(rng.randint(0, 8), rng.randint(0, 8))] = \
                        rng.randint(1, p - 1)
                g = {}
                for _t in range(rng.randint(0, 3)):
                    g[(rng.randint(0, 4), rng.randint(0, 4))] = \
                        rng.randint(1, p - 1)
                fpoly, gpoly = Poly(R, f), Poly(R, g)
                out = gauge_of(cartier_trace(fpoly, e, premul=gpoly))
                if not out.is_finite:
                    continue
                df = gauge_of(fpoly).value
                dg = gauge_of(gpoly).value if not gpoly.is_zero() else 0
                assert out.value <= df / p ** e + dg / p ** e + 1
    # the section-7(c) identity and the unboundedness detector
    for p in (2, 3):
        R = RingSpec(p, ("x", "y"))
        for e in (1, 2):
            q = p ** e
            val = cartier_trace(R.monomial((q - 2, q - 1)), e,
                                premul=R.parse(f"x*y^{e * q}"))
            assert val == R.var("y") ** e
        family = [CartierOp(e, [[R.parse(f"x*y^{e * (p ** e)}")]])
                  for e in range(1, 6)]
        assert gauge_growth_probe(family)["flagged"]
    crit.done()


def test_criterion_12_expected_negative():
    crit = Criterion(12, 2.0)
    from importlib import resources

    scene_text = resources.files("cartierlab").joinpath(
        "corpus/point_pushforward_p2.scene").read_text()
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "neg.scene")
        with open(path, "w") as fh:
            fh.write(scene_text)
        proc = subprocess.run(
            [sys.executable, "-m", "cartierlab.cli", "check",
             "--scene", path, "--expect-negative"],
            capture_output=True, text=True)
        assert proc.returncode == 4, proc.stderr
    crit.done()


def test_criterion_13_determinism():
    crit = Criterion(13, 600.0)
    a, code_a = run_corpus({})
    b, code_b = run_corpus({})
    assert code_a == code_b == 0
    assert canonical_json(a) == canonical_json(b)
    crit.done()
