"""The bisecting jump scan of ``filtration._scan`` against the linear walk it
replaced.

``linear_scan`` computes tau at every grid point k/D, as the sweep did
before the bisection.  A spectrum must not depend on which of the two ran;
only ``cache_hits``, the number of points read, may differ.
"""

import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cartierlab import filtration
from cartierlab.cartiercore import (CartierAlgebraSpec, CartierOp,
                                    validate_structure)
from cartierlab.filtration import JumpRecord, jumping_numbers
from cartierlab.fppoly import RingSpec
from cartierlab.fpmod import PresentedModule
from cartierlab.idealkit import Ideal

from instancegen import corpus_pair, friendly_factor, random_cartier_module

ROOT = Path(__file__).resolve().parents[1]


def _bench_inputs():
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", ROOT / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _bench_inputs()


def linear_scan(sampler, ideal, top, D):
    """The oracle: tau at every grid point k/D <= top, in order."""
    trivial_twist = ideal.is_unit()
    jumps = []
    prev_t = Fraction(0)
    prev = sampler.at(prev_t)
    for k in range(1, int(top * D) + 1):
        t = Fraction(k, D)
        cur = sampler.at(t)
        if not prev.contains_sub(cur):
            raise AssertionError(
                f"tau not monotone between {prev_t} and {t} (internal error)")
        if cur != prev and not trivial_twist:
            delta = t - prev_t
            half = sampler.at(t + delta / 2) if t + delta / 2 <= top else cur
            jumps.append(JumpRecord(
                t, prev.serialize()["generators"],
                cur.serialize()["generators"], delta, half == cur))
        prev, prev_t = cur, t
    return jumps


def spectra(monkeypatch, cm, ideal, top, caps):
    """The serialized spectrum of the bisection and of the linear scan,
    each without its ``cache_hits``."""
    got = jumping_numbers(cm, ideal, top, caps=caps).serialize()
    with monkeypatch.context() as patch:
        patch.setattr(filtration, "_scan", linear_scan)
        want = jumping_numbers(cm, ideal, top, caps=caps).serialize()
    got.pop("cache_hits")
    want.pop("cache_hits")
    return got, want


def trace_line(p):
    """The free rank-1 module over F_p[x, y] with the plain trace."""
    ring = RingSpec(p, ("x", "y"))
    return validate_structure(PresentedModule.free(ring, 1),
                              CartierAlgebraSpec([CartierOp(1, [[ring.one()]])]))


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("curve", BENCH.CURVES)
def test_bench_curves_match_the_linear_scan(p, curve, monkeypatch):
    cm = trace_line(p)
    rng = random.Random(f"jump-scan/{p}/{curve}")
    ideal = Ideal(cm.ring, [cm.ring.parse(BENCH.presentation(rng, p, curve))])
    for caps in ((1, 1), (2, 2)):
        for top in (1, Fraction(3, 2)):
            got, want = spectra(monkeypatch, cm, ideal, top, caps)
            assert got["exactness"] == "EXACT"
            assert got == want


# (variables, caps, draw): every draw is off the fast path and has a jump
GENERAL = ([(1, (2, 2), draw) for draw in (4, 7, 13, 15)]
           + [(2, (1, 1), draw) for draw in (0, 1, 3, 4, 5, 8, 14, 15)])


@pytest.mark.parametrize("nvars, caps, draw", GENERAL)
def test_general_engine_sweeps_match_the_linear_scan(nvars, caps, draw,
                                                     monkeypatch):
    rng = random.Random(1500 + draw)
    p = (2, 3, 5)[draw % 3]
    cm = random_cartier_module(rng, p, nvars, max_rank=2)
    ideal = Ideal(cm.ring, [friendly_factor(rng, cm.ring)])
    assert not filtration._is_fast_path(cm, ideal)
    got, want = spectra(monkeypatch, cm, ideal, Fraction(3, 2), caps)
    assert got["exactness"] == "LOWER-BOUND"
    assert got["jumps"]
    assert got == want


def test_a_right_discontinuity_is_reported(monkeypatch):
    """With tau_bms replaced by t -> (y^ceil(12 t)), tau drops at every
    point of the grid k/6 and again half a step past it, so every jump but
    the one at the top fails right-continuity."""
    cm = corpus_pair("floor_formula_p3")
    y = cm.ring.var("y")
    monkeypatch.setattr(filtration, "tau_bms", lambda f, t:
                        Ideal(cm.ring, [y ** math.ceil(12 * t)]))
    got, want = spectra(monkeypatch, cm, Ideal(cm.ring, [y]), 1, (1, 1))
    assert got == want
    assert [j["right_continuity_ok"] for j in got["jumps"]] == \
        [False] * 5 + [True]


def test_a_non_monotone_tau_is_an_internal_error(monkeypatch):
    """tau = (y^2) up to t = 1/2 and (y) past it: the bisection reads 1/2
    and 2/3 as neighbours and refuses the rise between them."""
    cm = corpus_pair("floor_formula_p3")
    y = cm.ring.var("y")
    monkeypatch.setattr(filtration, "tau_bms", lambda f, t:
                        Ideal(cm.ring, [y ** 2 if t <= Fraction(1, 2) else y]))
    with pytest.raises(AssertionError,
                       match="tau not monotone between 1/2 and 2/3"):
        jumping_numbers(cm, Ideal(cm.ring, [y]), 1, caps=(1, 1))


@pytest.mark.parametrize("curve", ("x^3 + y^2", "x*y"))
def test_tau_bms_calls_grow_with_the_jumps_not_the_grid(curve, monkeypatch):
    """At most 2 + J (ceil(log2 D) + 1) tau_bms calls for J jumps on the
    grid k/D: the linear walk made 601 and 600 here."""
    cm = trace_line(5)
    calls = []
    tau_bms = filtration.tau_bms

    def counted(f, t):
        calls.append(t)
        return tau_bms(f, t)

    monkeypatch.setattr(filtration, "tau_bms", counted)
    spectrum = jumping_numbers(cm, Ideal(cm.ring, [cm.ring.parse(curve)]), 1,
                               caps=(2, 2))
    D, J = spectrum.denominator, len(spectrum.jumps)
    assert D == 600 and J > 0
    assert len(calls) <= 2 + J * (math.ceil(math.log2(D)) + 1)
