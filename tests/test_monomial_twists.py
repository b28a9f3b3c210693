"""``tau`` of monomial twists in two variables against Howald's formula.

For a monomial ideal ``a`` of ``F_p[x, y]`` and ``t > 0`` the test ideal is

    tau(a^t) = < x^v : v + (1, 1) in Int(t * Newt(a)) >

in every characteristic (Howald, Trans. AMS 2001, for multiplier ideals;
Hara-Yoshida, Trans. AMS 2003, for test ideals of monomial ideals).  A
mixed twist ``a^s * b^t`` is compared with ``Int(s * Newt(a) + t * Newt(b))``.
The oracle below is a lower convex hull in ``Fraction``s and shares no code
with the engine.  It is the one independent check of the non-principal
twisted walk: its digit moves over several generators, their multipliers
and the leftover expansion of an ideal power.
"""

from fractions import Fraction
import math
import random

import pytest

from cartierlab.cartiercore import (CartierAlgebraSpec, CartierOp,
                                    validate_structure)
from cartierlab.filtration import mixed_right_continuity, mixed_skoda_report
from cartierlab.fpmod import PresentedModule
from cartierlab.fppoly import EngineCaps, RingSpec
from cartierlab.idealkit import Ideal
from cartierlab.testmod import tau


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def newton_facets(points):
    """The facets (w, b), read as <w, u> >= b, of conv(points) + R_{>=0}^2:
    the vertical and horizontal rays and the edges of the lower-left hull."""
    hull = []
    for pt in sorted(set(points)):
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)
    ymin = min(y for _x, y in points)
    hull = hull[:next(i for i, (_x, y) in enumerate(hull) if y == ymin) + 1]
    facets = [((1, 0), hull[0][0]), ((0, 1), ymin)]
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        w = (y1 - y2, x2 - x1)
        facets.append((w, w[0] * x1 + w[1] * y1))
    return facets


def interior_ideal(ring, points):
    """< x^v : v + (1, 1) in Int(conv(points) + R_{>=0}^2) >.

    A minimal generator v has v_i <= the largest i-th coordinate of the
    points: beyond the vertex of least y (or least x) one step back stays
    inside."""
    facets = newton_facets(points)
    bound = max(math.floor(c) for pt in points for c in pt)
    gens = []
    for v1 in range(bound + 2):
        for v2 in range(bound + 2):
            u = (v1 + 1, v2 + 1)
            if all(w[0] * u[0] + w[1] * u[1] > b for w, b in facets):
                gens.append(ring.monomial((v1, v2)))
    return Ideal(ring, gens)


def scaled(exps, t):
    return [(t * a, t * b) for a, b in exps]


def minkowski(first, second):
    return [(a + c, b + d) for a, b in first for c, d in second]


def trace_line(ring, twists=None):
    algebra = CartierAlgebraSpec([CartierOp(1, [[ring.one()]])],
                                 twist=twists)
    return validate_structure(PresentedModule.free(ring, 1), algebra)


def tau_ideal(cm):
    return Ideal(cm.ring, [g.component(0) for g in tau(cm).submodule.basis()])


def draw_exponents(rng, count, degree):
    """``count`` distinct exponent vectors of total degree 1..``degree``,
    none dividing another (a minimal monomial generating set)."""
    while True:
        exps = set()
        while len(exps) < count:
            d = rng.randint(1, degree)
            a = rng.randint(0, d)
            exps.add((a, d - a))
        exps = sorted(exps)
        if not any(e != f and e[0] <= f[0] and e[1] <= f[1]
                   for e in exps for f in exps):
            return exps


def monomial_ideal(ring, exps):
    return Ideal(ring, [ring.monomial(e) for e in exps])


def test_the_oracle_on_hand_cases():
    R = RingSpec(2, ("x", "y"))
    x, y = R.gens()
    # (x^2, y^5)^1: 5 u1 + 2 u2 > 10 with u = v + (1, 1)
    assert interior_ideal(R, scaled([(2, 0), (0, 5)], Fraction(1))) \
        == Ideal(R, [x, y ** 2])
    # (x, y)^t = m^(floor(t) - 1) for t >= 1: u1 + u2 > t
    for t, want in ((Fraction(1, 2), [R.one()]), (Fraction(1), [R.one()]),
                    (Fraction(2), [x, y]), (Fraction(7, 2), [x * x, x * y,
                                                             y * y])):
        assert interior_ideal(R, scaled([(1, 0), (0, 1)], t)) \
            == Ideal(R, want)
    # principal (x y)^t = (x y)^floor(t)
    assert interior_ideal(R, scaled([(1, 1)], Fraction(7, 3))) \
        == Ideal(R, [(x * y) ** 2])


SINGLE = [(p, seed) for p, count in ((2, 8), (3, 6), (5, 4))
          for seed in range(count)]


@pytest.mark.parametrize("p, seed", SINGLE)
def test_tau_of_a_monomial_twist_is_howalds_ideal(p, seed):
    rng = random.Random(f"howald/{p}/{seed}")
    ring = RingSpec(p, ("x", "y"), caps=EngineCaps(max_total_degree=10 ** 6))
    exps = draw_exponents(rng, rng.randint(2, 3), 6 if p < 5 else 4)
    den = rng.randint(2, 6)
    t = Fraction(rng.randint(1, 2 * den), den)
    cm = trace_line(ring, (monomial_ideal(ring, exps), t))
    assert tau_ideal(cm) == interior_ideal(ring, scaled(exps, t)), (exps, t)


MIXED = [(p, seed) for p in (2, 3) for seed in range(4)]


@pytest.mark.parametrize("p, seed", MIXED)
def test_tau_of_a_mixed_monomial_twist_is_howalds_ideal(p, seed):
    rng = random.Random(f"howald-mixed/{p}/{seed}")
    ring = RingSpec(p, ("x", "y"), caps=EngineCaps(max_total_degree=10 ** 6))
    first, second = (draw_exponents(rng, 2, 4) for _ in range(2))
    s, t = (Fraction(rng.randint(1, 4), rng.randint(2, 4)) for _ in range(2))
    cm = trace_line(ring, [(monomial_ideal(ring, first), s),
                           (monomial_ideal(ring, second), t)])
    want = interior_ideal(ring, minkowski(scaled(first, s),
                                          scaled(second, t)))
    assert tau_ideal(cm) == want, (first, s, second, t)


def mixed_oracle(ring, first, s, second, t):
    return interior_ideal(ring, minkowski(scaled(first, s),
                                          scaled(second, t)))


REPORTS = [(2, 0), (2, 1), (2, 2)]


@pytest.mark.parametrize("p, seed", REPORTS)
def test_mixed_reports_follow_howalds_ideals(p, seed):
    """``mixed_skoda_report`` and ``mixed_right_continuity`` compare the
    ideals the formula gives."""
    rng = random.Random(f"howald-reports/{p}/{seed}")
    ring = RingSpec(p, ("x", "y"), caps=EngineCaps(max_total_degree=10 ** 6))
    first, second = (draw_exponents(rng, 2, 3) for _ in range(2))
    s = Fraction(rng.randint(2, 4), 2)
    t = Fraction(rng.randint(1, 3), 3)
    a, b = monomial_ideal(ring, first), monomial_ideal(ring, second)
    cm = trace_line(ring)
    low = mixed_oracle(ring, first, s - 1, second, t)
    high = mixed_oracle(ring, first, s, second, t)
    product = Ideal(ring, [f * g for f in a.gens for g in low.gens])
    report = mixed_skoda_report(cm, [(a, s), (b, t)], 0)
    assert (report["inclusion"], report["equality"]) == \
        (high.contains_ideal(product), product == high), (first, s, second, t)
    bumps = [(Fraction(1, 48), Fraction(1, 48)), (Fraction(1, 2), 0),
             (0, Fraction(1, 2))]
    want = [mixed_oracle(ring, first, s + ds, second, t + dt) == high
            for ds, dt in bumps]
    assert mixed_right_continuity(cm, [(a, s), (b, t)], bumps) == want
    assert want[0] and not all(want)
