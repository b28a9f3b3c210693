"""Differential tests: ``tau_bms`` stops at a proven fixed point.

``tau_bms`` returns once two consecutive period steps K_n = K_(n+1) of the
chain agree (see its docstring).  The first oracle below is the loop that
returned after a window of ``max(3, pre + period + 1)`` equal levels; both
must give the same ideal on every grid point.  A stop at the first equal
pair of levels, or at an equal pair of K at consecutive levels instead of
period steps, returns a plateau below the stable value at some of these
points.

The second oracle is the same certified loop run on whole ideals: one
``Ideal`` per level, compared by reduced basis, where ``tau_bms`` compares
the (state, quotient) pairs of the root automaton.  On seeded f it must
return the same ideal and stop at the same level; a returned ideal without
its tail power f^quotient (t >= 1) fails it.
"""

import math
import random
from fractions import Fraction

import pytest

from cartierlab.cartiercore import ceil_pattern_period
from cartierlab.errors import NoStabilizationError
from cartierlab.fppoly import EngineCaps, Poly, RingSpec
from cartierlab.groebner import memo_scope
from cartierlab.idealkit import Ideal, frobenius_root_of_power
from cartierlab.testmod import tau_bms

# the distinct curves of criterion 10, then two of degree >= 4
CURVES = ("x^3 + y^2", "x*y", "x^2*y + y^3", "x", "x^2 + y^2", "x^2*y",
          "x^3 + y^3", "x^2 + y^3", "x^4 + y^3", "x^3*y + y^4")


def windowed_tau(f, t, e_max):
    """The chain without the certificate: a window of equal levels ends it."""
    p = f.ring.p
    pre, period = ceil_pattern_period(p, t)
    window = max(3, pre + period + 1)
    prev = None
    quiet = 0
    for e in range(1, e_max + 1):
        current = frobenius_root_of_power(f, math.ceil(t * p ** e), e)
        quiet = quiet + 1 if current == prev else 0
        if quiet >= window:
            return current
        prev = current
    raise NoStabilizationError(f"no window of {window} equal levels")


def grid(p, step):
    """Every ``step``-th point k/(p^2 (p^2 - 1)) of (0, 2]."""
    D = p ** 2 * (p ** 2 - 1)
    return [Fraction(k, D) for k in range(1, 2 * D + 1, step)]


@pytest.mark.parametrize("p, step", [(2, 1), (3, 1), (5, 7)])
def test_certified_stop_matches_the_windowed_chain(p, step):
    ring = RingSpec(p, ("x", "y"), caps=EngineCaps(max_total_degree=10 ** 6))
    mismatches = []
    for text in CURVES:
        f = ring.parse(text)
        with memo_scope():
            for t in grid(p, step):
                if tau_bms(f, t) != windowed_tau(f, t, ring.caps.chain_cap):
                    mismatches.append((text, str(t)))
    assert mismatches == []


def certified_level(f, t):
    """The level pre + (n+1)k of the first K_(n+1) = K_n, each K built
    whole as root_(nk)(f^ceil(t*p^(pre+nk)))."""
    p = f.ring.p
    pre, k = ceil_pattern_period(p, t)
    prev = None
    for n in range(f.ring.caps.chain_cap):
        K = frobenius_root_of_power(f, math.ceil(t * p ** (pre + n * k)),
                                    n * k)
        if K == prev:
            return pre + n * k
        prev = K
    raise AssertionError("no fixed point within the chain cap")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_e_max_admits_exactly_the_certified_level(p):
    ring = RingSpec(p, ("x", "y"))
    for text in ("x^3 + y^2", "x^2*y + y^3"):
        f = ring.parse(text)
        for t in (Fraction(0), Fraction(1), Fraction(1, p), Fraction(1, 3),
                  Fraction(5, 6), Fraction(7, p ** 2 - 1),
                  Fraction(4, p * (p + 1)), Fraction(3, 2)):
            level = certified_level(f, t)
            assert tau_bms(f, t, e_max=level) == tau_bms(f, t), (text, t)
            with pytest.raises(NoStabilizationError,
                               match=f"by level e_max={level - 1}$"):
                tau_bms(f, t, e_max=level - 1)


def ideal_level_tau(f, t, e_max):
    """The certified chain of ``tau_bms`` with an ``Ideal`` at every level:
    (the stable ideal, the level its certificate is seen at)."""
    ring = f.ring
    p = ring.p
    pre, period = ceil_pattern_period(p, t)
    prev_step = (math.ceil(t * p ** pre), Ideal(ring, [ring.one()]))
    prev = None
    for e in range(1, e_max + 1):
        exponent = math.ceil(t * p ** e)
        current = frobenius_root_of_power(f, exponent, e)
        if (prev is not None and current != prev
                and not current.contains_ideal(prev)):
            raise AssertionError("root chain failed to ascend")
        if e > pre and (e - pre) % period == 0:
            q = p ** (e - pre)
            step = (exponent // q,
                    frobenius_root_of_power(f, exponent % q, e - pre))
            if step == prev_step:
                return current, e
            prev_step = step
        prev = current
    raise NoStabilizationError(
        f"root chain reached no certified fixed point by level "
        f"e_max={e_max}")


def seeded_curve(ring, rng):
    """Two or three terms of degree 2 to 5: singular at the origin, so the
    chain passes through proper ideals below the unit ideal."""
    terms = {}
    while len(terms) < 2:
        for _ in range(rng.randint(2, 3)):
            degree = rng.randint(2, 5)
            i = rng.randint(0, degree)
            terms[i, degree - i] = rng.randrange(1, ring.p)
    return Poly(ring, terms)


@pytest.mark.parametrize("p, step", [(2, 1), (3, 1), (5, 11)])
def test_the_pair_chain_matches_the_ideal_chain(p, step):
    """Grid points k/(p^2 (p^2 - 1)) of (0, 2], the midpoints between them,
    and t in {1, 3/2, 2}, where every level's quotient is above 0."""
    ring = RingSpec(p, ("x", "y"), caps=EngineCaps(max_total_degree=10 ** 6))
    rng = random.Random(3300 + p)
    D = p ** 2 * (p ** 2 - 1)
    exponents = sorted({Fraction(k, 2 * D) for k in range(1, 4 * D + 1, step)}
                       | {Fraction(1), Fraction(3, 2), Fraction(2)})
    assert any(k.denominator == 2 * D for k in exponents)
    curves = set()
    while len(curves) < 3:
        curves.add(seeded_curve(ring, rng))
    for f in sorted(curves, key=str):
        with memo_scope():
            for t in exponents:
                expected, level = ideal_level_tau(f, t, ring.caps.chain_cap)
                assert tau_bms(f, t) == expected, (f, t)
                with pytest.raises(NoStabilizationError) as raised:
                    tau_bms(f, t, e_max=level - 1)
                with pytest.raises(NoStabilizationError) as oracle:
                    ideal_level_tau(f, t, level - 1)
                assert str(raised.value) == str(oracle.value), (f, t)
