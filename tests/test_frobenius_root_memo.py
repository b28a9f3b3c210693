"""The transition table of ``frobenius_root_of_power``.

Inside a ``memo_scope`` each f keeps a finite automaton whose states are
reduced bases and whose transitions are digit steps J -> root_1(f^d * J).
These tests pin down that a root walked on shared transitions equals the
root of the expanded power and the root of a fresh walk, in any call order,
that each transition is computed once, that a hit never hides a degree-cap
error (neither a transition hit nor a power that the twisted graded walk
left in the shared small-power table), that a walk resumes from a pair it
returned, and that ``tau_bms`` roots at exactly ceil(t*p^e) and certifies
its stop on the pair its own walk reaches partway through a level.
Work-count guards pin the fresh transitions, the ascent checks and the
digit steps of the sweeps of one bms-spectrum benchmark unit.
"""

import math
import random
from fractions import Fraction

import pytest

from cartierlab.cartiercore import (CartierAlgebraSpec, CartierOp,
                                    ceil_pattern_period, graded_piece_gens,
                                    validate_structure)
from cartierlab.errors import NoStabilizationError, ResourceCapError
from cartierlab.filtration import jumping_numbers
from cartierlab.fpmod import PresentedModule
from cartierlab.fppoly import EngineCaps, Poly, RingSpec
from cartierlab import idealkit
from cartierlab.groebner import memo_scope, memo_table
from cartierlab.idealkit import (Ideal, RootAutomaton, frobenius_root,
                                 frobenius_root_of_power)
from cartierlab.testmod import tau_bms


def random_nonunit(ring, rng):
    """Two or three terms of degree 1 to 3: no constant term, so (f) is a
    proper ideal and its roots are not all the unit ideal."""
    terms = {}
    while len(terms) < 2:
        for _ in range(rng.randint(2, 3)):
            mono = [0] * ring.nvars
            for _ in range(rng.randint(1, 3)):
                mono[rng.randrange(ring.nvars)] += 1
            terms[tuple(mono)] = rng.randrange(1, ring.p)
    return Poly(ring, terms)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_shared_prefixes_give_the_fresh_root_in_any_order(p):
    rng = random.Random(7000 + p)
    ring = RingSpec(p, ("x", "y"))
    calls = []
    for _ in range(3):
        f = random_nonunit(ring, rng)
        for _ in range(12):
            e = rng.randint(1, 4)
            calls.append((f, rng.randrange(2 * p ** e), e))
    fresh = {call: frobenius_root_of_power(*call) for call in calls}
    for f, A, e in calls:
        if A <= 12:
            assert fresh[f, A, e] == frobenius_root(Ideal(ring, [f ** A]), e)
    rng.shuffle(calls)
    with memo_scope():
        for call in calls:
            assert frobenius_root_of_power(*call) == fresh[call]
        computed = transitions(memo_table("frobenius_root_of_power"))
    # the calls did share transitions, so the table was read, not just filled
    assert computed < sum(e for _f, _A, e in calls)


def transitions(automata):
    """Number of (state, digit) transitions in a table of automata."""
    return sum(len(automaton.steps) for automaton in automata.values())


# singular curves, whose root chains pass through several proper ideals
CUSPS = ("x^3 + y^2", "x^2*y + y^3", "x^4 + y^3", "x^3*y + y^4")


def sweep_calls(p, seed):
    """Seeded (f, A, e) calls on two cusps and one random draw, in shuffled
    order, with A < 64 so that f^A stays small enough to expand; levels
    e = 1..5 at p = 2 and 1..3 above."""
    rng = random.Random(seed)
    ring = RingSpec(p, ("x", "y"))
    calls = []
    for f in [ring.parse(c) for c in rng.sample(CUSPS, 2)] + \
            [random_nonunit(ring, rng)]:
        for e in range(1, 6 if p == 2 else 4):
            exponents = range(min(2 * p ** e, 64))
            calls += [(f, A, e)
                      for A in rng.sample(exponents, min(12, len(exponents)))]
    rng.shuffle(calls)
    return calls


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_automaton_walk_gives_the_root_of_the_expanded_power(p):
    calls = sweep_calls(p, 7300 + p)
    with memo_scope():
        for f, A, e in calls:
            assert frobenius_root_of_power(f, A, e) == \
                frobenius_root(Ideal(f.ring, [f ** A]), e), (f, A, e)
        automata = memo_table("frobenius_root_of_power")
    # some proper ideal was reached through two different digit prefixes,
    # so the walks crossed on a state and did not only share prefixes
    assert any(
        len({source_digit for source_digit, target in automaton.steps.items()
             if target == state}) > 1
        for automaton in automata.values()
        for state in set(automaton.steps.values()) if state != 0), p


@pytest.mark.parametrize("p", [2, 3, 5])
def test_each_transition_takes_one_root(p, monkeypatch):
    real = idealkit.frobenius_root_gens
    roots = []

    def counting(gens, e):
        roots.append(e)
        return real(gens, e)

    monkeypatch.setattr(idealkit, "frobenius_root_gens", counting)
    calls = sweep_calls(p, 7400 + p)
    with memo_scope():
        for call in calls + calls:
            frobenius_root_of_power(*call)
        computed = transitions(memo_table("frobenius_root_of_power"))
    assert roots == [1] * computed
    assert computed < sum(e for _f, _A, e in calls)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_walk_resumes_from_the_pair_it_returned(p):
    """walk(A, e) equals walk(m, e - k, s) with (s, m) = walk(A, k) for
    every k <= e, and a zero-digit walk is the pair (unit state, A)."""
    rng = random.Random(7500 + p)
    ring = RingSpec(p, ("x", "y"))
    resumed = set()
    with memo_scope():
        for f in [ring.parse(c) for c in CUSPS] + [random_nonunit(ring, rng)]:
            roots = idealkit.root_automaton(f)
            for _ in range(8):
                e = rng.randint(1, 4)
                A = rng.randrange(2 * p ** e)
                assert roots.walk(A, 0) == (0, A)
                whole = roots.walk(A, e)
                for k in range(e + 1):
                    s, m = roots.walk(A, k)
                    assert roots.walk(m, e - k, s) == whole, (f, A, e, k)
                    if k < e:
                        resumed.add(s)
    # some walk resumed from a proper ideal, not only from the unit state
    assert resumed - {0}, p


def test_tau_bms_over_a_sweep_equals_each_point_alone():
    ring = RingSpec(3, ("x", "y"))
    f = ring.parse("x^3 + y^2")
    grid = [Fraction(k, 72) for k in range(73)]
    alone = {t: tau_bms(f, t) for t in grid}
    rng = random.Random(72)
    rng.shuffle(grid)
    with memo_scope():
        for t in grid:
            assert tau_bms(f, t) == alone[t], t


def test_a_prefix_hit_still_raises_the_degree_cap():
    roomy = RingSpec(3, ("x", "y"), caps=EngineCaps(max_total_degree=10 ** 6))
    tight = RingSpec(3, ("x", "y"), caps=EngineCaps(max_total_degree=5))
    with memo_scope():
        frobenius_root_of_power(roomy.parse("x^3 + y^2"), 2, 1)
        with pytest.raises(ResourceCapError,
                           match="total degree 6 exceeds cap 5"):
            frobenius_root_of_power(tight.parse("x^3 + y^2"), 2, 1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_root_carries_the_reduced_basis_of_its_generators(p):
    # below p^e the root is the last level's basis and keeps it as its own;
    # at or above p^e its generators are tail multiples, reduced afresh
    rng = random.Random(7100 + p)
    ring = RingSpec(p, ("x", "y"))
    roots = []
    with memo_scope():
        for _ in range(3):
            f = random_nonunit(ring, rng)
            for e in (1, 2):
                exponents = range(2 * p ** e)
                for A in rng.sample(exponents, min(6, len(exponents))):
                    roots.append(frobenius_root_of_power(f, A, e))
    for root in roots:
        assert root.groebner() == Ideal(ring, root.gens).groebner()


def test_a_power_from_a_twisted_walk_still_raises_the_degree_cap():
    """The twisted graded walk and the Frobenius root share the small-power
    table; a power cached on a roomy ring must not reach an equal ring
    with a tighter degree cap."""
    roomy = RingSpec(3, ("x", "y"), caps=EngineCaps(max_total_degree=10 ** 6))
    tight = RingSpec(3, ("x", "y"), caps=EngineCaps(max_total_degree=5))
    f = roomy.parse("x^3 + y^2")
    # at t = 2/3 the one Tr letter of degree 1 peels the digit f^2
    cm = validate_structure(PresentedModule.free(roomy, 1), CartierAlgebraSpec(
        [CartierOp(1, [[roomy.one()]])], [(Ideal(roomy, [f]), Fraction(2, 3))]))
    with memo_scope():
        graded_piece_gens(cm, 1, cm.carrier_sub().basis())
        assert f ** 2 in memo_table("small_power").values()
        with pytest.raises(ResourceCapError,
                           match="total degree 6 exceeds cap 5"):
            frobenius_root_of_power(tight.parse("x^3 + y^2"), 2, 1)


def ceil_fractions(p):
    """Seeded exponents t >= 0: zero, integers, powers of p in the
    denominator, and other fractions."""
    rng = random.Random(7200 + p)
    out = [Fraction(0), Fraction(1), Fraction(4), Fraction(1, p),
           Fraction(p + 1, p ** 3), Fraction(1, p ** 8)]
    for _ in range(30):
        den = rng.choice([1, 2, 3, 5, 6, 7, 9, 10, 12, 25, 27, p ** 4])
        out.append(Fraction(rng.randrange(4 * den), den))
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tau_bms_roots_at_ceil_of_t_times_p_to_the_e(p, monkeypatch):
    """tau_bms computes ceil(t*p^e) in integers; every exponent its chain
    walks the root automaton for equals math.ceil(t * p**e) on a Fraction.
    Each level e walks the lowest e digits of that exponent once: the
    lowest e - pre digits from the unit state, then the rest from the pair
    reached there.  At a level e = pre + nk (n >= 1) the certificate
    compares that pair, K_n, with the previous one (K_0 is the zero-digit
    walk of ceil(t*p^pre)) and stops at the first equality."""
    x = RingSpec(p, ("x",)).var("x")
    real = RootAutomaton.walk
    levels = set()
    for t in ceil_fractions(p):
        pre, k = ceil_pattern_period(p, t)
        asked = []

        def recording(automaton, exponent, e, state=0):
            pair = real(automaton, exponent, e, state)
            asked.append(((exponent, e, state), pair))
            return pair

        monkeypatch.setattr(RootAutomaton, "walk", recording)
        try:
            tau_bms(x, t, e_max=8)
            stopped = True
        except NoStabilizationError:
            stopped = False
        (start, k0), rest = asked[0], asked[1:]
        assert start == (math.ceil(t * p ** pre), 0, 0), t
        assert len(rest) % 2 == 0, t
        chain = list(zip(rest[::2], rest[1::2]))
        certificate = [k0]
        for e, ((prefix, step), (resumed, _current)) in enumerate(chain, 1):
            assert prefix == (math.ceil(t * p ** e), max(e - pre, 0), 0), t
            assert resumed == (step[1], min(e, pre), step[0]), t
            assert prefix[1] + resumed[1] == e, t
            if e > pre and (e - pre) % k == 0:
                certificate.append(step)
        equal = [n for n in range(1, len(certificate))
                 if certificate[n] == certificate[n - 1]]
        assert equal == ([len(certificate) - 1] if stopped else []), t
        assert len(chain) == (pre + k * equal[0] if stopped else 8), t
        levels.update(range(1, len(chain) + 1))
    assert levels == set(range(1, 9))


# The first visits of unit 0 of the bms-spectrum benchmark at the default
# seed, in order; its revisits read a result cache and walk no root.
BMS_UNIT = ((2, "x^3 + y^2"), (3, "x^3 + y^3"), (3, "x*y"), (3, "x^2*y + y^3"),
            (3, "x^2*y"), (3, "x"), (3, "x^3 + y^3"), (5, "x*y"),
            (3, "x^2 + y^2"), (3, "x^2*y"), (3, "x"), (3, "x^3 + y^2"))
# fresh transitions, and ascent checks: one per two consecutive unequal
# pairs of a chain, each pair of pairs once per sweep
UNIT_TRANSITIONS = 63
UNIT_ASCENT_CHECKS = 21
# digit steps, summed as e over RootAutomaton.walk calls: each chain level
# walks its digits once, the certificate pair included
UNIT_DIGIT_STEPS = 2375


def test_the_root_work_of_a_bms_unit_is_pinned(monkeypatch):
    """Each sweep is ``jumping_numbers(cm, (f), 1, caps=(2, 2))`` on the
    trace line, in its own memo scope; only ``tau_bms`` reaches
    ``frobenius_root_gens`` (once per fresh transition) and
    ``Ideal.contains_ideal`` on this path."""
    roots, checks = [], []
    real_gens, real_contains = idealkit.frobenius_root_gens, \
        Ideal.contains_ideal

    def counting_gens(gens, e):
        roots.append(e)
        return real_gens(gens, e)

    def counting_contains(ideal, other):
        checks.append(other)
        return real_contains(ideal, other)

    monkeypatch.setattr(idealkit, "frobenius_root_gens", counting_gens)
    monkeypatch.setattr(Ideal, "contains_ideal", counting_contains)
    for p, text in BMS_UNIT:
        ring = RingSpec(p, ("x", "y"))
        cm = validate_structure(
            PresentedModule.free(ring, 1),
            CartierAlgebraSpec([CartierOp(1, [[ring.one()]])]))
        spectrum = jumping_numbers(cm, Ideal(ring, [ring.parse(text)]), 1,
                                   caps=(2, 2))
        assert spectrum.exactness == "EXACT"
    assert roots == [1] * UNIT_TRANSITIONS
    assert len(checks) == UNIT_ASCENT_CHECKS


def test_a_bms_unit_walks_each_digit_once(monkeypatch):
    """The sweeps of ``BMS_UNIT``, as above, walk each chain level's digits
    once: the certificate pair is read partway through the level's walk."""
    real = RootAutomaton.walk
    digits = []

    def counting(automaton, exponent, e, *state):
        digits.append(e)
        return real(automaton, exponent, e, *state)

    monkeypatch.setattr(RootAutomaton, "walk", counting)
    for p, text in BMS_UNIT:
        ring = RingSpec(p, ("x", "y"))
        cm = validate_structure(
            PresentedModule.free(ring, 1),
            CartierAlgebraSpec([CartierOp(1, [[ring.one()]])]))
        spectrum = jumping_numbers(cm, Ideal(ring, [ring.parse(text)]), 1,
                                   caps=(2, 2))
        assert spectrum.exactness == "EXACT"
    assert sum(digits) == UNIT_DIGIT_STEPS
