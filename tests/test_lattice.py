"""The lattice operations built on ``syzygies`` and ``intersection``.

Ideals are checked against sympy eliminations with an extra variable t:
    I cap J      = (t*I + (1 - t)*J) cap R
    I : g        = (I cap (g)) / g
    I : g^infty  = (I + (1 - t*g)) cap R
Submodules of seeded rank-2 instances are checked against the property
that defines each operation, on its own generators (times a random factor)
and on random probes.
"""

import random

import pytest

from cartierlab.fppoly import Poly, RingSpec
from cartierlab.fpmod import ModuleMap, present_submodule
from cartierlab.groebner import VecPoly, intersection
from cartierlab.idealkit import Ideal
from instancegen import random_poly, random_sum_instance
from test_groebner_memo import random_ideal, sympy_basis


def _basis(ideal):
    return {frozenset(f.terms.items()) for f in ideal.groebner()}


def _vecs(polys):
    return [VecPoly.from_columns(f.ring, [f]) for f in polys]


class Eliminator:
    """sympy over the ring's variables plus one variable t to eliminate."""

    def __init__(self, ring):
        self.sympy = pytest.importorskip("sympy")
        self.ring = ring
        self.syms = self.sympy.symbols(ring.vars)
        self.t = self.sympy.Symbol("t_elim")

    def expr(self, f):
        out = 0
        for m, c in f.terms.items():
            term = c
            for s, e in zip(self.syms, m):
                term *= s ** e
            out += term
        return out

    def poly(self, expr):
        terms = self.sympy.Poly(expr, *self.syms,
                                modulus=self.ring.p).terms()
        return Poly(self.ring, {tuple(m): int(c) % self.ring.p
                                for m, c in terms if int(c) % self.ring.p})

    def eliminate(self, exprs):
        """Generators of (exprs) cap F_p[vars], via a lex basis t > vars."""
        gb = self.sympy.groebner(exprs, self.t, *self.syms,
                                 modulus=self.ring.p, order="lex")
        return [self.poly(g) for g in gb.exprs
                if self.t not in g.free_symbols]

    def divide(self, f, g):
        q = self.sympy.Poly(self.expr(f), *self.syms, modulus=self.ring.p) \
            .exquo(self.sympy.Poly(self.expr(g), *self.syms,
                                   modulus=self.ring.p))
        return self.poly(q.as_expr())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ideal_lattice_matches_sympy_eliminations(p):
    pytest.importorskip("sympy")
    rng = random.Random(700 + p)
    for trial in range(4):
        ring = RingSpec(p, ("x", "y", "z")[:2 + trial % 2])
        elim = Eliminator(ring)
        t = elim.t
        a, b = random_ideal(ring, rng), random_ideal(ring, rng)
        I, J = Ideal(ring, a), Ideal(ring, b)
        g = random_ideal(ring, rng)[0]

        meet = sympy_basis(ring, elim.eliminate(
            [t * elim.expr(f) for f in a]
            + [(1 - t) * elim.expr(h) for h in b]))
        assert _basis(I.intersect(J)) == meet
        # the primitive itself, on the unreduced generator lists
        assert _basis(Ideal(ring, [v.component(0) for v in intersection(
            _vecs(a), _vecs(b), 1)])) == meet

        colon = [elim.divide(h, g) for h in elim.eliminate(
            [t * elim.expr(f) for f in a] + [(1 - t) * elim.expr(g)])]
        assert _basis(I.quotient_elem(g)) == sympy_basis(ring, colon)

        saturated = elim.eliminate([elim.expr(f) for f in a]
                                   + [1 - t * elim.expr(g)])
        assert _basis(I.saturation_elem(g)) == sympy_basis(ring, saturated)


def _instances(p):
    rng = random.Random(900 + p)
    for _ in range(3):
        cm, pieces = random_sum_instance(rng, p, 2)
        yield rng, cm.module, pieces


def _vector(rng, ring, rank):
    return VecPoly.from_columns(
        ring, [random_poly(rng, ring, deg=2, terms=2) for _ in range(rank)])


def _factor(rng, ring):
    return random_poly(rng, ring, deg=1, terms=2, nonzero=True)


@pytest.mark.parametrize("p", [2, 3])
def test_colon_into_holds_what_c_maps_into_the_submodule(p):
    for rng, M, _pieces in _instances(p):
        N = M.submodule([_vector(rng, M.ring, M.rank) for _ in range(2)])
        c = random_poly(rng, M.ring, deg=2, terms=2, nonzero=True)
        Q = N.colon_into(c)
        probes = ([v.mul_poly(_factor(rng, M.ring)) for v in Q.gens]
                  + list(N.gens)
                  + [_vector(rng, M.ring, M.rank) for _ in range(4)])
        for v in probes:
            assert Q.contains(v) == N.contains(v.mul_poly(c))


@pytest.mark.parametrize("p", [2, 3])
def test_conductor_holds_what_maps_every_vector_into_the_submodule(p):
    for rng, M, _pieces in _instances(p):
        ring = M.ring
        N = M.submodule([_vector(rng, ring, M.rank) for _ in range(2)])
        vectors = [_vector(rng, ring, M.rank) for _ in range(2)]
        J = N.conductor(vectors)
        ann = N.annihilator()
        zero = M.zero_submodule()
        probes = ([f * _factor(rng, ring) for f in J.gens + ann.gens]
                  + [random_poly(rng, ring, deg=2, terms=2)
                     for _ in range(4)] + [ring.one()])
        for f in probes:
            assert J.contains(f) == all(N.contains(v.mul_poly(f))
                                        for v in vectors)
            assert ann.contains(f) == all(zero.contains(v.mul_poly(f))
                                          for v in N.gens)
        assert N.conductor([]).is_unit()


@pytest.mark.parametrize("p", [2, 3])
def test_kernel_holds_what_the_map_sends_into_the_relations(p):
    for rng, M, pieces in _instances(p):
        diagonal = ModuleMap(M, M, [
            M.generator(i).mul_poly(_factor(rng, M.ring))
            for i in range(M.rank)])
        maps = [diagonal] + [proj for _piece, _inc, proj in pieces]
        for phi in maps:
            K = phi.kernel()
            zero = phi.target.zero_submodule()
            probes = ([v.mul_poly(_factor(rng, M.ring)) for v in K.gens]
                      + [_vector(rng, M.ring, M.rank) for _ in range(4)])
            for v in probes:
                assert K.contains(v) == zero.contains(phi.apply(v))


@pytest.mark.parametrize("p", [2, 3])
def test_presentation_relations_are_exactly_the_syzygies(p):
    for rng, M, _pieces in _instances(p):
        ring = M.ring
        N = M.submodule([_vector(rng, ring, M.rank) for _ in range(2)])
        P, gens = present_submodule(N)
        assert P.rank == len(gens)
        assert M.submodule(gens) == N
        zero, relations = M.zero_submodule(), P.zero_submodule()

        def combination(lam):
            acc = VecPoly.zero(ring, M.rank)
            for i, g in enumerate(gens):
                acc = acc + g.mul_poly(lam.component(i))
            return acc

        killers = [VecPoly.unit(ring, P.rank, i).mul_poly(a)
                   for a in N.annihilator().gens for i in range(P.rank)]
        probes = ([r.mul_poly(_factor(rng, ring)) for r in P.relations]
                  + killers
                  + [_vector(rng, ring, P.rank) for _ in range(4)])
        for lam in probes:
            assert relations.contains(lam) == zero.contains(combination(lam))
