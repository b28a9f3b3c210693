"""Seeded oracle for the functor statements of the source paper.

Draws come from ``instancegen.random_cartier_module`` over F_p[x] for p in
{2, 3, 5} (rank at most 2, generators u*Tr, quotient blocks included).  Two
statements are checked on every draw, with no draw dropped or redrawn:

* the smooth pullback along the affine line commutes with tau, and the
  associated primes transport, on twisted draws (a ``friendly_factor`` at
  t in (0, 2]);
* the pullback along the etale Artin-Schreier cover z^p - z + x
  (``shriek_finite``) commutes with tau, and the associated primes upstairs
  are the fiber primes of those below, on untwisted draws.

A third test runs ``quasi_finite_check`` (tau o f_* inside f_* o tau) on the
p = 2 draws whose tau upstairs is smaller than the module, where the
coherent model of tau must certify its re-entry witness.

The p = 5 covers have five dual slots, so a rank-2 draw there is a rank-10
module upstairs; every family runs ten draws.
"""

from fractions import Fraction
import random

import pytest

from cartierlab.cartiercore import ass_cartier, validate_structure
from cartierlab.functorops import (RingMap, fiber_primes,
                                   quasi_finite_check, shriek_affine_line,
                                   shriek_finite)
from cartierlab.idealkit import Ideal
from cartierlab.testmod import tau

from instancegen import friendly_factor, random_cartier_module


def primes(cm):
    return {tuple(pr.ideal.serialize()) for pr in ass_cartier(cm)}


@pytest.mark.parametrize("p", (2, 3, 5))
def test_affine_line_commutes_on_twisted_draws(p):
    for seed in range(10):
        rng = random.Random(1000 * p + seed)
        cm = random_cartier_module(rng, p, 1)
        f = friendly_factor(rng, cm.ring)
        t = Fraction(rng.randint(1, 2 * (p + 1)), p + 1)
        cm = validate_structure(
            cm.module, cm.algebra.with_twist(Ideal(cm.ring, [f]), t))
        up = shriek_affine_line(cm, "u")
        assert tau(up.cm).submodule == \
            up.transport_submodule(tau(cm).submodule), (p, seed)
        assert primes(up.cm) == primes(cm), (p, seed)


@pytest.mark.parametrize("p,draws", [(2, 10), (3, 10), (5, 10)])
def test_artin_schreier_cover_commutes(p, draws):
    for seed in range(draws):
        rng = random.Random(2000 * p + seed)
        cm = random_cartier_module(rng, p, 1)
        rmap = RingMap.finite(cm.ring, "z", f"z^{p} - z + x")
        up = shriek_finite(cm, rmap)
        assert tau(up.cm).submodule == \
            up.transport_submodule(tau(cm).submodule), (p, seed)
        fibers = set()
        for pr in ass_cartier(cm):
            fibers |= {tuple(q.ideal.serialize())
                       for q in fiber_primes(rmap, pr)}
        assert primes(up.cm) == fibers, (p, seed)


def test_quasi_finite_check_when_tau_upstairs_is_proper():
    # draws 2, 3 and 5 of the p = 2 family with z inverted upstairs: tau is
    # smaller than the module there, and the re-entry witness of its
    # coherent model starts from tau, not from the whole module
    for seed in (2, 3, 5):
        rng = random.Random(2000 * 2 + seed)
        cm = random_cartier_module(rng, 2, 1)
        rmap = RingMap.finite(cm.ring, "z", "z^2 - z + x")
        up = shriek_finite(cm, rmap)
        report = quasi_finite_check(up.cm, rmap.target.parse("z"), rmap)
        assert report["included"], seed


def test_the_cheapest_isolating_element_verifies_the_cover_prime():
    # draw 5 of the p = 5 family: the prime (z^5 + x + 4z) upstairs is
    # isolated by x^2 + 4x, ahead of the higher-degree pool factors
    rng = random.Random(2000 * 5 + 5)
    cm = random_cartier_module(rng, 5, 1)
    rmap = RingMap.finite(cm.ring, "z", "z^5 - z + x")
    up = shriek_finite(cm, rmap)
    above = tau(up.cm)
    assert above.submodule == up.transport_submodule(tau(cm).submodule)
    elements = {tuple(entry["prime"]): entry["element"]
                for entry in above.certificate["test_elements"]}
    assert elements[("z^5 + x + 4*z",)] == "x^2 + 4*x"
