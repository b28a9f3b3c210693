"""The Groebner kernel on its one grevlex key.

``normal_form`` reduces from a heap, ``lead()`` is cached, and
``interreduce`` makes one pass.  Each is checked against the plain
algorithm it replaced, kept here as an oracle: a ``max`` scan on a key on
which the larger term sorts last, and the restart loop of the interreduction.
The bases themselves are checked against the invariants of a reduced
Groebner basis on seeded rank-1 and rank-2 inputs over p = 2, 3, 5.
"""

import random

import pytest

from cartierlab import groebner
from cartierlab.fppoly import RingSpec
from cartierlab.groebner import (VecPoly, _divides, _spair, buchberger,
                                 interreduce, normal_form)

from instancegen import random_poly


def scan_key(m):
    """grevlex as an ascending key: the larger term has the larger key."""
    return (sum(m), tuple(-e for e in reversed(m)))


def scan_vec_key(term):
    """Position over term, ascending: the lower position wins."""
    pos, m = term
    return (-pos, scan_key(m))


def scan_normal_form(v, basis):
    """Full reduction that picks each next term by a ``max`` scan."""
    if v.is_zero() or not basis:
        return v
    p = v.ring.p
    leads = []
    for g in basis:
        t = max(g.terms, key=scan_vec_key)
        leads.append((t, g.terms[t], g))
    work = dict(v.terms)
    out = {}
    while work:
        t = max(work, key=scan_vec_key)
        c = work.pop(t)
        pos, m = t
        hit = next(((gt, gc, g) for gt, gc, g in leads
                    if gt[0] == pos and _divides(gt[1], m)), None)
        if hit is None:
            out[t] = c
            continue
        (_, gm), gc, g = hit
        shift = tuple(a - b for a, b in zip(m, gm))
        factor = (c * pow(gc, p - 2, p)) % p
        for (gpos, gmono), gcoeff in g.terms.items():
            if (gpos, gmono) == hit[0]:
                continue
            tt = (gpos, tuple(a + b for a, b in zip(gmono, shift)))
            target = out if tt in out else work
            s = (target.get(tt, 0) - factor * gcoeff) % p
            if s:
                target[tt] = s
            else:
                target.pop(tt, None)
    return VecPoly(v.ring, v.rank, out)


def scan_monic(v):
    t = max(v.terms, key=scan_vec_key)
    p = v.ring.p
    return v.scale(pow(v.terms[t], p - 2, p))


def restart_interreduce(basis):
    """Drop redundant leads, then reduce tails until nothing changes,
    restarting after every removal."""
    basis = [g for g in basis if not g.is_zero()]
    leads = [max(g.terms, key=scan_vec_key) for g in basis]
    keep = []
    for i, (pos, m) in enumerate(leads):
        redundant = False
        for j, (pos2, m2) in enumerate(leads):
            if i == j:
                continue
            if (pos2, m2) == (pos, m):
                if j < i:
                    redundant = True
                    break
                continue
            if pos2 == pos and _divides(m2, m):
                redundant = True
                break
        if not redundant:
            keep.append(basis[i])
    changed = True
    while changed:
        changed = False
        for i in range(len(keep)):
            nf = scan_normal_form(keep[i], keep[:i] + keep[i + 1:])
            if nf.is_zero():
                keep.pop(i)
                changed = True
                break
            nf = scan_monic(nf)
            if nf != keep[i]:
                keep[i] = nf
                changed = True
    keep.sort(key=lambda v: scan_vec_key(max(v.terms, key=scan_vec_key)),
              reverse=True)
    return keep


def random_vectors(rng, ring, rank, count):
    """``count`` nonzero vectors of R^rank with random entries of degree
    at most 3."""
    out = []
    while len(out) < count:
        v = VecPoly.from_columns(
            ring, [random_poly(rng, ring, deg=3, terms=3)
                   for _ in range(rank)])
        if not v.is_zero():
            out.append(v)
    return out


CASES = [(p, rank, seed) for p in (2, 3, 5) for rank in (1, 2)
         for seed in range(4)]


def case_inputs(p, rank, seed):
    rng = random.Random(9000 + 100 * p + 10 * rank + seed)
    ring = RingSpec(p, ("x", "y", "z")[:2 + seed % 2])
    gens = random_vectors(rng, ring, rank, rng.randint(2, 4))
    return rng, ring, gens


@pytest.mark.parametrize("p, rank, seed", CASES)
def test_heap_normal_form_equals_the_scan(p, rank, seed):
    rng, ring, gens = case_inputs(p, rank, seed)
    gb = buchberger(gens)
    for v in random_vectors(rng, ring, rank, 6):
        # a reduced basis, and raw generators whose reductions cancel terms
        # that are still waiting in the heap
        assert normal_form(v, gb) == scan_normal_form(v, gb)
        assert normal_form(v, gens) == scan_normal_form(v, gens)


@pytest.mark.parametrize("p, rank, seed", CASES)
def test_cached_lead_is_the_largest_term(p, rank, seed):
    rng, ring, gens = case_inputs(p, rank, seed)
    vectors = gens + random_vectors(rng, ring, rank, 6)
    for v in vectors:
        expected = max(v.terms, key=scan_vec_key)
        for _ in range(2):
            assert v.lead() == (expected, v.terms[expected])
        assert [t for t, _c in v.sorted_terms()] == sorted(
            v.terms, key=scan_vec_key, reverse=True)
        for f in v.columns():
            if f.is_zero():
                assert f.lead() is None
                continue
            m = max(f.terms, key=scan_key)
            for _ in range(2):
                assert f.lead() == (m, f.terms[m])


@pytest.mark.parametrize("p, rank, seed", CASES)
def test_one_pass_interreduce_equals_the_restart_loop(p, rank, seed,
                                                      monkeypatch):
    _rng, ring, gens = case_inputs(p, rank, seed)
    inputs = []

    def record(basis):
        inputs.append(list(basis))
        return interreduce(basis)

    monkeypatch.setattr(groebner, "interreduce", record)
    gb = buchberger(gens)
    (raw,) = inputs
    assert interreduce(raw) == restart_interreduce(raw) == gb
    # a Groebner basis with redundant and unreduced elements, not monic
    padded = raw + [g.mul_term((1,) * ring.nvars, 1) for g in gb] \
        + [g.scale(p - 1) + h for g, h in zip(raw, raw[1:])]
    assert interreduce(padded) == restart_interreduce(padded) == gb


def same_position_pairs(gb):
    for j in range(len(gb)):
        for i in range(j):
            if gb[i].lead()[0][0] == gb[j].lead()[0][0]:
                yield gb[i], gb[j]


@pytest.mark.parametrize("p, rank, seed", CASES)
def test_basis_invariants(p, rank, seed):
    rng, ring, gens = case_inputs(p, rank, seed)
    gb = buchberger(gens)
    for a, b in same_position_pairs(gb):
        assert normal_form(_spair(a, b), gb).is_zero()
    for g in gens:
        assert normal_form(g, gb).is_zero()
    for g in gb:
        assert g.lead()[1] == 1
        others = [h for h in gb if h is not g]
        assert normal_form(g, others) == g
    for _ in range(3):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [g.scale(rng.randrange(1, p)) for g in shuffled]
        assert buchberger(scaled) == gb
