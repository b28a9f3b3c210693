"""The digit-prefix memo of ``frobenius_root_of_power``.

Inside a ``memo_scope`` the basis after j digit levels is shared between
calls whose exponents agree mod p^j; these tests pin down that a root built
from shared prefixes equals the root of a fresh walk, in any call order,
and that a hit never hides a degree-cap error.
"""

import random
from fractions import Fraction

import pytest

from cartierlab.errors import ResourceCapError
from cartierlab.fppoly import EngineCaps, Poly, RingSpec
from cartierlab.groebner import memo_scope, memo_table
from cartierlab.idealkit import Ideal, frobenius_root, frobenius_root_of_power
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
        shared = len(memo_table("frobenius_root_of_power"))
    # the calls did share prefixes, so the memo was read, not just filled
    assert shared < sum(e for _f, _A, e in calls)


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
