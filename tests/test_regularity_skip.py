"""Differential tests for the regularity shrink loop.

``_shrink_fixed_point`` proves the rank-1 principal shape with one closure
and otherwise sums one closure per candidate per pass.  The oracle below is
the loop alone, without the proof; both must return the same fixed point and the same tried list on seeded modules of rank 1 and 2
over p in {2, 3, 5}, untwisted, with a principal twist, and localized at a
candidate, and on one p = 5 module with two generators whose shrink
descends.  ``test_regularity_proof`` imports ``full_shrink`` and
``counted_shrink`` from here.

The seeded cases hold descents over p = 2 and 3, and the graded-sum lemma
is checked directly: for a stable T, cl(aT) = cl(bT) = T gives
cl(abT) = T, by the projection formula.  The test-element check stops the
walk at its first descent; the same draws check that its verdict and
witness agree with the pass loop, and that it closes nothing after that
descent.
"""

from fractions import Fraction
import random

import pytest

from cartierlab import testmod
from cartierlab.cartiercore import (ass_cartier, graded_sum, underline,
                                    validate_structure)
from cartierlab.errors import SearchBudgetError, UnsupportedShapeError
from cartierlab.groebner import memo_scope
from cartierlab.idealkit import Ideal
from cartierlab.testmod import _shrink_fixed_point, candidate_elements

from instancegen import friendly_factor, random_cartier_module
from test_graded_sum_stop import instance

VARIANTS = ("untwisted", "twisted", "localized")
CASES = [(p, rank, variant) for p in (2, 3, 5) for rank in (1, 2)
         for variant in VARIANTS]
SEEDS = range(4)


def full_shrink(cm, ass_primes, descents=None):
    """The shrink without the proof: one closure per candidate per pass.
    Each candidate that shrinks the module is appended to ``descents``."""
    carrier = cm.carrier_sub()
    pool = candidate_elements(cm)
    cands = [c for c in pool
             if not any(pr.contains(c) for pr in ass_primes)]
    if not cands:
        raise SearchBudgetError("no avoider")
    current = carrier
    changed = True
    while changed:
        changed = False
        for c in cands:
            seeded = current.scale_poly(c)
            shrunk, _info = testmod.graded_sum(cm,
                                               cm.canon(list(seeded.gens)))
            if shrunk != current:
                current = shrunk
                changed = True
                if descents is not None:
                    descents.append(c)
    return current, [str(c) for c in cands]


def build(p, rank, variant, seed):
    """A module with its stable core as carrier and its associated primes,
    or None when the core is zero or the primes are out of reach."""
    cmc = instance(p, rank, variant == "twisted",
                   seed=1000 * p + 10 * rank + seed)
    if variant == "localized":
        pool = candidate_elements(cmc)
        loc = cmc.localize(pool[1])  # the first variable
        core, _k = underline(loc)
        cmc = loc.with_carrier(core)
    if cmc.carrier_sub().is_trivial():
        return None
    try:
        return cmc, ass_cartier(cmc)
    except UnsupportedShapeError:
        return None


def built_cases(p, rank, variant):
    out = [build(p, rank, variant, s) for s in SEEDS]
    return [b for b in out if b is not None]


def counted_shrink(monkeypatch, shrink, cmc, ass):
    """(result, number of graded sums) of one shrink in a fresh scope."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return graded_sum(*args, **kwargs)

    with monkeypatch.context() as patch, memo_scope():
        patch.setattr(testmod, "graded_sum", counting)
        result = shrink(cmc, ass)
    return result, len(calls)


@pytest.mark.parametrize("p,rank,variant", CASES)
def test_skip_matches_full_loop(p, rank, variant, monkeypatch):
    cases = built_cases(p, rank, variant)
    assert cases
    for cmc, ass in cases:
        want, _full = counted_shrink(monkeypatch, full_shrink, cmc, ass)
        got, _sums = counted_shrink(monkeypatch, _shrink_fixed_point,
                                    cmc, ass)
        assert got == want


def test_cases_descend_and_skip():
    """The differential cases hold descents over p = 2 and 3.  No draw over
    p = 5 descends: the generator's modules there are all regular."""
    descents = {2: 0, 3: 0, 5: 0}
    for p, rank, variant in CASES:
        for cmc, ass in built_cases(p, rank, variant):
            with memo_scope():
                fixed, _tried = _shrink_fixed_point(cmc, ass)
            if fixed != cmc.carrier_sub():
                descents[p] += 1
    assert descents[2] and descents[3], descents


@pytest.mark.parametrize("p,rank,variant", CASES)
def test_closure_of_a_product_of_passing_candidates_is_the_carrier(
        p, rank, variant):
    """graded_sum(aT) == T and graded_sum(bT) == T give graded_sum(abT) == T
    for the stable carrier T, whichever candidates a and b are."""
    checked = 0
    for cmc, _ass in built_cases(p, rank, variant):
        carrier = cmc.carrier_sub()
        pool = candidate_elements(cmc)
        singles = [c for c in pool if not c.is_constant()][:6]

        def closure(c):
            seeded = cmc.canon(list(carrier.scale_poly(c).gens))
            return graded_sum(cmc, seeded)[0]

        with memo_scope():
            passing = [c for c in singles if closure(c) == carrier]
            for i, a in enumerate(passing):
                for b in passing[i:]:
                    assert closure(a * b) == carrier, (str(a), str(b))
                    checked += 1
    assert checked > 0


def p5_descent():
    """A p = 5 draw whose shrink descends: F_5[x,y]/(xy + x) with two
    generators (the second one's matrix carries a p-th power factor) and
    the squared twist (y + 3)^2 at t = 5/6.  The seeded draws above are all
    regular over p = 5; this is 1 of 40 draws in this shape that is not."""
    rng = random.Random(33)
    cm = random_cartier_module(rng, 5, 2, extra_generator=True)
    f = friendly_factor(rng, cm.ring)
    t = Fraction(rng.randint(1, 6), 6)
    cm = validate_structure(
        cm.module, cm.algebra.with_twist(Ideal(cm.ring, [f * f]), t))
    core, _k = underline(cm)
    cmc = cm.with_carrier(core)
    return cmc, ass_cartier(cmc)


def test_p5_descent_matches_full_loop(monkeypatch):
    cmc, ass = p5_descent()
    assert cmc.ring.p == 5 and len(cmc.algebra.generators) == 2
    want, _full = counted_shrink(monkeypatch, full_shrink, cmc, ass)
    got, _sums = counted_shrink(monkeypatch, _shrink_fixed_point, cmc, ass)
    assert got == want
    fixed, _tried = got
    assert fixed != cmc.carrier_sub(), "the p = 5 case no longer descends"


# (p, variables, seed) of ``random_cartier_module`` draws whose pass loop
# shrinks two or three times
SHRINKING_TWICE = [(2, 1, 2), (2, 1, 24), (2, 2, 19), (2, 2, 45),
                   (3, 2, 78), (3, 2, 116)]


def drawn_core(p, nvars, seed):
    """The draw with its stable core as carrier, and its associated
    primes."""
    rng = random.Random(seed)
    cm = random_cartier_module(rng, p, nvars, extra_generator=seed % 3 == 0)
    core, _k = underline(cm)
    cmc = cm.with_carrier(core)
    return cmc, ass_cartier(cmc)


@pytest.mark.parametrize("p,nvars,seed", SHRINKING_TWICE)
def test_the_cyclic_walk_matches_the_pass_loop(p, nvars, seed, monkeypatch):
    """Same fixed point and tried list as the pass loop, and the walk's
    stop is certified: every candidate fixed the final module, by a closure
    computed in this call or by one of the exact skips (c = 1, or an
    untwisted product whose factors both fixed it).

    The second check is the one that sees a walk which counts the shrinking
    candidate as settled without re-testing it; its fixed point is the same
    on these untwisted draws.  The loop starts at the F-pure core, and for
    an F-pure T (C_e(T) = T) the projection formula gives
    cT = C_e(c^(p^e)T), which lies in C_e(cT) and in C_e(c^2 T).  So
    cl(cT) is F-pure again and cl(c*cl(cT)) = cl(c^2 T) = cl(cT): a re-test
    of the shrinking candidate never shrinks again."""
    cmc, ass = drawn_core(p, nvars, seed)
    descents = []
    with memo_scope():
        want = full_shrink(cmc, ass, descents=descents)
    assert len(descents) >= 2
    closed = []

    def recording(cm, seed_sub, e_min=0):
        closed.append(tuple(seed_sub.basis()))
        return graded_sum(cm, seed_sub, e_min)

    with monkeypatch.context() as patch, memo_scope():
        patch.setattr(testmod, "graded_sum", recording)
        got = _shrink_fixed_point(cmc, ass)
        pool, factors = testmod._candidate_pool(cmc)
    assert got == want
    fixed = want[0]
    cands = [c for c in pool if not any(pr.contains(c) for pr in ass)]
    fixing = {c for c in cands
              if tuple(cmc.canon(list(fixed.scale_poly(c).gens)).basis())
              in closed}
    assert descents[-1] in fixing
    untwisted = not cmc.algebra.is_twisted()
    for c in cands:
        assert (c in fixing or c.is_one()
                or (untwisted and set(factors.get(c, (None,))) <= fixing)), c


def early_stop_cases():
    """The seeded CASES draws and the SHRINKING_TWICE draws."""
    cases = [b for case in CASES for b in built_cases(*case)]
    return cases + [drawn_core(*draw) for draw in SHRINKING_TWICE]


def test_the_verification_stops_at_the_first_descent():
    """``is_f_regular(..., first_descent=True)``, the test-element check,
    gives the pass loop's verdict.  Its False witness is the closure by the
    pass loop's first shrinking candidate: proper, inside the carrier and
    stable.  The public call keeps reporting the full fixed point, and on
    the draws that shrink twice the two differ."""
    refuted = differ = 0
    for cmc, ass in early_stop_cases():
        carrier = cmc.carrier_sub()
        with memo_scope():
            descents = []
            fixed, _tried = full_shrink(cmc, ass, descents=descents)
            ok, cert = testmod.is_f_regular(cmc, first_descent=True)
            public_ok, public_cert = testmod.is_f_regular(cmc)
            assert ok == public_ok == (fixed == carrier)
            if ok:
                continue
            witness, _tried = _shrink_fixed_point(cmc, ass,
                                                  first_descent=True)
            first = cmc.canon(list(carrier.scale_poly(descents[0]).gens))
            assert witness == graded_sum(cmc, first)[0]
            assert witness != carrier and carrier.contains_sub(witness)
            assert witness.contains_sub(
                graded_sum(cmc, witness, e_min=1)[0])
        assert cert["proper_submodule"] == witness.serialize()
        assert public_cert["proper_submodule"] == fixed.serialize()
        refuted += 1
        differ += witness != fixed
    assert refuted and differ, (refuted, differ)


def test_a_false_verification_makes_no_closure_after_its_first_descent(
        monkeypatch):
    """Each regularity check of a test-element search records its graded
    sums, as ``counted_shrink`` counts them.  A False verdict reached by the
    walk ends on the closure that first shrank the carrier; the proof
    closure of the rank-1 principal shape does not count as a descent."""
    is_f_regular = testmod.is_f_regular
    checks = []
    active = []

    def counting_sum(cm, seed_sub, e_min=0):
        result = graded_sum(cm, seed_sub, e_min)
        if active:
            active[-1].append((cm, result[0]))
        return result

    def counting_check(cm, *args, **kwargs):
        active.append([])
        try:
            ok, cert = is_f_regular(cm, *args, **kwargs)
        finally:
            closures = active.pop()
        checks.append((ok, closures))
        return ok, cert

    with monkeypatch.context() as patch:
        patch.setattr(testmod, "graded_sum", counting_sum)
        patch.setattr(testmod, "is_f_regular", counting_check)
        for cmc, _ass in early_stop_cases():
            with memo_scope():
                testmod.find_test_elements(cmc)
    walked = 0
    for ok, closures in checks:
        if ok or not closures:
            continue
        cm = closures[0][0]
        if testmod._principal_test_element(cm) is not None:
            closures = closures[1:]
        carrier = cm.carrier_sub()
        shrank = [i for i, (_cm, shrunk) in enumerate(closures)
                  if shrunk != carrier]
        assert shrank == [len(closures) - 1], shrank
        walked += 1
    assert walked
