"""Differential tests for the one-closure regularity proof.

In the rank-1 principal shape (a rank-1 free module, possibly localized,
whose algebra has the one generator ``Tr`` = ``CartierOp(1, [[1]])`` and
only principal twists f_i^t_i), ``_shrink_fixed_point`` sums the closure of
d*T for d = prod f_i^ceil(t_i) first and returns the carrier when that
closure is the carrier.  The oracle is ``full_shrink`` from
``test_regularity_skip``, the loop that sums every candidate; both must
return the same ``(fixed, tried)`` on

* every F-pure grid point k/(p^2(p^2 - 1)) of the eight criterion-10
  surfaces over F_2 and F_3 (232 of 336 points), with the free module as
  carrier;
* seeded in-shape modules over p in {2, 3, 5} with one and two principal
  twists drawn by ``friendly_factor``, and the same localized at a
  candidate;
* modules just outside the shape, where the shape check refuses and the
  loop runs: rank 2, a relation, a u*Tr generator, a second generator and
  the non-principal twist (x, y).

The limit of this net.  In the shape, C_+R lies in tau(f^t): each
root_e(f^ceil(t*p^e)) lies in the limit of the
Blickle-Mustata-Smith chain.  So a nonzero F-pure core is always regular,
and a mutant that takes d = 1, or floor for ceil, gives the same verdicts
and certificates on every input here.  Only the direct check of d's value
sees those mutants; no differential test claims them.  What the net
catches is the shape check: a mutant that proves outside the shape calls a
module regular that the loop shrinks (the u*Tr cases below, and the
descents of ``test_regularity_skip`` and ``test_testmod``).  Validation
refuses ``Tr`` on a proper quotient, so a relation never reaches the proof
with ``Tr``; the relation test checks the guard on an unvalidated module.
"""

from fractions import Fraction
import math
import random

import pytest

from cartierlab.cartiercore import (CartierAlgebraSpec, CartierModule,
                                    CartierOp, ass_cartier, underline,
                                    validate_structure)
from cartierlab.fppoly import EngineCaps, RingSpec
from cartierlab.fpmod import PresentedModule
from cartierlab.groebner import memo_scope
from cartierlab.idealkit import Ideal
from cartierlab.testmod import (_principal_test_element,
                                _shrink_fixed_point, candidate_elements)

from instancegen import friendly_factor
from test_regularity_skip import counted_shrink, full_shrink

SURFACES = [(2, "x^3 + y^2"), (2, "x*y"), (2, "x^2*y + y^3"), (2, "x"),
            (3, "x^2 + y^2"), (3, "x^2*y"), (3, "x^3 + y^3"), (3, "x*y")]


def trace_algebra(ring, twists=()):
    return CartierAlgebraSpec([CartierOp(1, [[ring.one()]])], list(twists))


def with_core(cm):
    """The module with its stable core as carrier, and its associated
    primes."""
    core, _k = underline(cm)
    cmc = cm.with_carrier(core)
    return cmc, ass_cartier(cmc)


def grid_cores():
    """(module, associated primes) at every grid point of ``SURFACES``
    whose twisted free module is F-pure."""
    out = []
    for p, text in SURFACES:
        ring = RingSpec(p, ("x", "y"),
                        caps=EngineCaps(max_total_degree=10 ** 6))
        f = ring.parse(text)
        module = PresentedModule.free(ring, 1)
        D = p ** 2 * (p ** 2 - 1)
        for k in range(1, D + 1):
            cm = validate_structure(module, trace_algebra(
                ring, [(Ideal(ring, [f]), Fraction(k, D))]))
            with memo_scope():
                core, stab = underline(cm)
                if stab == 0 and not core.is_trivial():
                    cmc = cm.with_carrier(core)
                    out.append((cmc, ass_cartier(cmc)))
    return out


def assert_proof_matches_loop(monkeypatch, cmc, ass):
    """The shrink equals the full loop, with the proof's single sum."""
    got, sums = counted_shrink(monkeypatch, _shrink_fixed_point, cmc, ass)
    want, _full = counted_shrink(monkeypatch, full_shrink, cmc, ass)
    assert got == want
    assert got[0] == cmc.carrier_sub()
    assert sums == 1


def test_grid_cores_match_full_loop(monkeypatch):
    cases = grid_cores()
    assert len(cases) == 232
    for cmc, ass in cases:
        assert_proof_matches_loop(monkeypatch, cmc, ass)


def in_shape(p, ntwists, localized, seed):
    """A seeded module of the proof's shape, with its core as carrier."""
    rng = random.Random(100 * p + 10 * ntwists + seed)
    ring = RingSpec(p, ("x", "y"))
    twists = [(Ideal(ring, [friendly_factor(rng, ring)]),
               Fraction(rng.randint(1, 2 * p + 2), p + 1))
              for _ in range(ntwists)]
    cm = validate_structure(PresentedModule.free(ring, 1),
                            trace_algebra(ring, twists))
    if localized:
        pool = candidate_elements(cm)
        cm = cm.localize(pool[1 + seed % 2])  # a variable
    return with_core(cm), twists


IN_SHAPE = [(p, n, loc) for p in (2, 3, 5) for n in (1, 2)
            for loc in (False, True)]


@pytest.mark.parametrize("p,ntwists,localized", IN_SHAPE)
def test_in_shape_modules_match_full_loop(p, ntwists, localized,
                                          monkeypatch):
    for seed in range(3):
        (cmc, ass), twists = in_shape(p, ntwists, localized, seed)
        d = _principal_test_element(cmc)
        assert d is not None
        if not localized:
            want = cmc.ring.one()
            for ideal, t in twists:
                want = want * ideal.gens[0] ** math.ceil(t)
            assert d == want
        assert_proof_matches_loop(monkeypatch, cmc, ass)


def outside_shape(p, kind):
    """A validated module one step outside the shape, with its core as
    carrier.  All but ``u*Tr`` and the non-principal case carry the
    principal twist (x + y)^(1/2)."""
    ring = RingSpec(p, ("x", "y"))
    x, y = ring.gens()
    one, zero = ring.one(), ring.zero()
    u = x ** (p - 1)
    half = [(Ideal(ring, [x + y]), Fraction(1, 2))]
    free = PresentedModule.free(ring, 1)
    if kind == "rank 2":
        module = PresentedModule.free(ring, 2)
        algebra = CartierAlgebraSpec([CartierOp(1, [[one, zero],
                                                    [zero, u]])], half)
    elif kind == "relation":
        # Tr does not preserve (y); y^(p-1)*Tr does
        module = PresentedModule.quotient_ring(ring, Ideal(ring, [y]))
        algebra = CartierAlgebraSpec([CartierOp(1, [[y ** (p - 1)]])], half)
    elif kind == "u*Tr":
        module, algebra = free, CartierAlgebraSpec([CartierOp(1, [[u]])])
    elif kind == "twisted u*Tr":
        module, algebra = free, CartierAlgebraSpec([CartierOp(1, [[u]])],
                                                   half)
    elif kind == "second generator":
        module = free
        algebra = CartierAlgebraSpec([CartierOp(1, [[one]]),
                                      CartierOp(1, [[u]])], half)
    else:  # the non-principal twist (x, y)
        module = free
        algebra = trace_algebra(ring, [(Ideal(ring, [x, y]),
                                        Fraction(3, 2))])
    return with_core(validate_structure(module, algebra))


OUTSIDE = ["rank 2", "relation", "u*Tr", "twisted u*Tr",
           "second generator", "non-principal"]


@pytest.mark.parametrize("kind", OUTSIDE)
@pytest.mark.parametrize("p", (2, 3))
def test_outside_shape_runs_the_loop(p, kind, monkeypatch):
    cmc, ass = outside_shape(p, kind)
    assert _principal_test_element(cmc) is None
    got, sums = counted_shrink(monkeypatch, _shrink_fixed_point, cmc, ass)
    want, _full = counted_shrink(monkeypatch, full_shrink, cmc, ass)
    assert got == want
    assert sums > 1


@pytest.mark.parametrize("p", (2, 3))
def test_u_trace_is_not_regular(p):
    """The u*Tr modules are the ones a proof outside the shape would call
    regular: with d = 1, cl(d*T) = T for every stable T, yet the loop
    shrinks them to (x) times the module."""
    for kind in ("u*Tr", "twisted u*Tr"):
        cmc, ass = outside_shape(p, kind)
        fixed, _tried = _shrink_fixed_point(cmc, ass)
        assert fixed != cmc.carrier_sub(), kind


def test_relation_is_refused_before_validation():
    """Validation refuses Tr on R/(y), so the relation guard is checked on
    the unvalidated module; the same data with no relation is in shape."""
    ring = RingSpec(2, ("x", "y"))
    y = ring.gens()[1]
    algebra = trace_algebra(ring)
    quotient = PresentedModule.quotient_ring(ring, Ideal(ring, [y]))
    assert _principal_test_element(CartierModule(quotient, algebra)) is None
    free = PresentedModule.free(ring, 1)
    assert _principal_test_element(CartierModule(free, algebra)) \
        == ring.one()
