"""Products and augmented rows of module vectors.

``VecPoly.mul_poly`` and ``intersection`` sum their products in one dict,
and ``syzygies`` and ``LiftContext`` build each augmented row ``(v, e_i)``
in one copy.  The parent constructions are kept here as oracles: a
term-by-term ``acc + v.mul_term(...)`` loop, and rows built as
``v.extend_rank(...) + VecPoly.unit(...)`` whose syzygies are found by
scanning every term's position.
"""

import pytest

from cartierlab.groebner import (LiftContext, VecPoly, buchberger,
                                 intersection, normal_form, syzygies)

from instancegen import random_poly
from test_groebner_kernel import CASES, case_inputs, random_vectors


def loop_mul_poly(v, f):
    acc = VecPoly.zero(v.ring, v.rank)
    for m, c in f.terms.items():
        acc = acc + v.mul_term(m, c)
    return acc


def loop_syzygies(vectors, rank, keep):
    ring = vectors[0].ring
    s = len(vectors)
    aug = [v.extend_rank(rank + s) + VecPoly.unit(ring, rank + s, rank + i)
           for i, v in enumerate(vectors)]
    out = []
    for g in buchberger(aug):
        if all(pos >= rank for (pos, _m) in g.terms):
            cut = VecPoly(ring, keep,
                          {(pos - rank, m): c
                           for (pos, m), c in g.terms.items()
                           if pos < rank + keep})
            if not cut.is_zero():
                out.append(cut)
    return out


def loop_intersection(a, b, rank):
    out = []
    for lam in loop_syzygies(a + b, rank, len(a)):
        acc = VecPoly.zero(a[0].ring, rank)
        for i, v in enumerate(a):
            acc = acc + loop_mul_poly(v, lam.component(i))
        if not acc.is_zero():
            out.append(acc)
    return out


def combination(vectors, coeffs):
    """sum coeffs_i * vectors_i."""
    acc = VecPoly.zero(vectors[0].ring, vectors[0].rank)
    for v, f in zip(vectors, coeffs):
        acc = acc + v.mul_poly(f)
    return acc


@pytest.mark.parametrize("p, rank, seed", CASES)
def test_mul_poly_equals_the_term_loop(p, rank, seed):
    rng, ring, gens = case_inputs(p, rank, seed)
    for v in gens + random_vectors(rng, ring, rank, 4):
        for _ in range(3):
            f = random_poly(rng, ring, deg=3, terms=5)
            got, want = v.mul_poly(f), loop_mul_poly(v, f)
            assert got == want
            # the same term order too, so nothing downstream can tell
            assert list(got.terms.items()) == list(want.terms.items())
    # cancellation modulo p: v*(f - f) and v*f + v*(-f)
    f = random_poly(rng, ring, deg=2, terms=4, nonzero=True)
    assert gens[0].mul_poly(f - f).is_zero()
    assert (gens[0].mul_poly(f) + gens[0].mul_poly(-f)).is_zero()


@pytest.mark.parametrize("p, rank, seed", CASES)
def test_syzygies_annihilate_and_match_the_parent_rows(p, rank, seed):
    rng, ring, gens = case_inputs(p, rank, seed)
    vectors = gens + random_vectors(rng, ring, rank, 2)
    s = len(vectors)
    full = syzygies(vectors, rank, s)
    assert full == loop_syzygies(vectors, rank, s)
    for lam in full:
        assert lam.rank == s
        assert combination(vectors, lam.columns()).is_zero()
    # cut to ``keep``: what remains lands in the span of the rest
    keep = s - 1
    rest = buchberger(vectors[keep:])
    cut = syzygies(vectors, rank, keep)
    assert cut == loop_syzygies(vectors, rank, keep)
    for lam in cut:
        assert lam.rank == keep
        partial = combination(vectors[:keep], lam.columns())
        assert normal_form(partial, rest).is_zero()


@pytest.mark.parametrize("p, rank, seed", CASES)
def test_intersection_matches_the_parent_loop(p, rank, seed):
    rng, ring, gens = case_inputs(p, rank, seed)
    a = gens
    b = random_vectors(rng, ring, rank, 2)
    got = intersection(a, b, rank)
    assert got == loop_intersection(a, b, rank)
    gb_a, gb_b = buchberger(a), buchberger(b)
    for v in got:
        assert normal_form(v, gb_a).is_zero()
        assert normal_form(v, gb_b).is_zero()


@pytest.mark.parametrize("p, rank, seed", CASES)
def test_lift_recovers_a_combination(p, rank, seed):
    rng, ring, gens = case_inputs(p, rank, seed)
    relations = random_vectors(rng, ring, rank, 1)
    ctx = LiftContext(gens, relations, rank)
    gb_rel = buchberger(relations)
    for _ in range(3):
        coeffs = [random_poly(rng, ring, deg=2, terms=2) for _ in gens]
        u = combination(gens, coeffs) + relations[0].mul_poly(
            random_poly(rng, ring, deg=1, terms=2))
        lam = ctx.lift(u)
        assert lam is not None and len(lam) == len(gens)
        assert normal_form(combination(gens, lam) - u, gb_rel).is_zero()
