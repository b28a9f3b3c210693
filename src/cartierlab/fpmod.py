"""Finitely presented modules over F_p[x1..xn] and their submodule lattice.

A module is a free cover R^rank modulo explicit relation columns; a
submodule is a generator list in the cover.  Canonical form everywhere is
the reduced Groebner basis of (generators + relations) inside the cover, so
equality, membership and chain stabilization are all exact.

Colons, conductors, annihilators, kernels and presentations are each one
``syzygies`` call on the free cover, and intersections one
``intersection`` call (see :mod:`cartierlab.groebner`).  Saturation and
torsion iterate such a step to its fixed point with
``EngineCaps.stabilize``, which raises instead of truncating the chain.
"""

from functools import reduce

from .groebner import (VecPoly, buchberger, intersection, normal_form,
                       syzygies)
from .idealkit import Ideal


class PresentedModule:
    """R^rank modulo the span of ``relations`` (VecPoly columns)."""

    __slots__ = ("ring", "rank", "relations", "_relgb", "_hash")

    def __init__(self, ring, rank, relations=()):
        if rank < 0:
            raise ValueError("rank must be >= 0")
        self.ring = ring
        self.rank = rank
        rels = []
        for r in relations:
            if isinstance(r, VecPoly):
                v = r
            else:
                v = VecPoly.from_columns(ring, list(r))
            if v.rank != rank:
                raise ValueError("relation has wrong rank")
            if not v.is_zero():
                rels.append(v)
        self.relations = tuple(rels)
        self._relgb = None
        self._hash = None

    @staticmethod
    def free(ring, rank):
        return PresentedModule(ring, rank)

    @staticmethod
    def quotient_ring(ring, ideal):
        """R/I as a rank-1 module."""
        rels = [VecPoly.from_columns(ring, [g]) for g in ideal.gens]
        return PresentedModule(ring, 1, rels)

    def relation_gb(self):
        """The reduced basis of the relations, as the stored tuple: every
        call returns the same object, which callers never mutate."""
        if self._relgb is None:
            self._relgb = tuple(buchberger(list(self.relations)))
        return self._relgb

    def reduce(self, vec):
        return normal_form(vec, self.relation_gb())

    def vector(self, polys):
        return VecPoly.from_columns(self.ring, list(polys))

    def generator(self, i):
        return VecPoly.unit(self.ring, self.rank, i)

    def zero_submodule(self):
        return Submodule(self, ())

    def full_submodule(self):
        return Submodule(self, tuple(self.generator(i) for i in range(self.rank)))

    def submodule(self, gens):
        vecs = []
        for g in gens:
            v = g if isinstance(g, VecPoly) else self.vector(g)
            if v.rank != self.rank:
                raise ValueError("generator has wrong rank")
            vecs.append(v)
        return Submodule(self, tuple(vecs))

    def is_zero_module(self):
        return self.full_submodule().is_trivial()

    def direct_sum(self, other):
        """(self (+) other, inclusion column offsets)."""
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        rank = self.rank + other.rank
        rels = [r.extend_rank(rank) for r in self.relations]
        rels += [r.extend_rank(rank, offset=self.rank) for r in other.relations]
        return PresentedModule(self.ring, rank, rels)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PresentedModule) and self.ring == other.ring
            and self.rank == other.rank
            and self.relation_gb() == other.relation_gb())

    def __hash__(self):
        """Cached like ``relation_gb``: nothing it reads ever changes."""
        if self._hash is None:
            self._hash = hash((self.ring, self.rank, self.relation_gb()))
        return self._hash

    def __repr__(self):
        return f"<module rank {self.rank} / {len(self.relations)} relations>"

    def serialize(self):
        return {
            "rank": self.rank,
            "relations": [[str(c) for c in r.columns()] for r in self.relations],
        }


class Submodule:
    """Submodule of M given by generators in the free cover.

    The canonical basis always contains the parent's relations, so two
    generator lists describe the same submodule of M exactly when the bases
    agree.
    """

    __slots__ = ("parent", "gens", "_gb")

    def __init__(self, parent, gens):
        self.parent = parent
        self.gens = tuple(gens)
        self._gb = None

    def basis(self):
        """The reduced basis of generators plus relations, as the stored
        tuple: every call returns the same object, which memo keys use as
        it is and callers never mutate."""
        if self._gb is None:
            self._gb = tuple(
                buchberger(list(self.gens) + list(self.parent.relations))
                if self.gens else self.parent.relation_gb())
        return self._gb

    def generators_reduced(self):
        """Generators reduced modulo the parent relations, zero ones dropped."""
        out = []
        for g in self.gens:
            r = self.parent.reduce(g)
            if not r.is_zero():
                out.append(r)
        return out

    def contains(self, vec):
        return normal_form(vec, self.basis()).is_zero()

    def contains_sub(self, other):
        return all(self.contains(g) for g in other.gens)

    def is_trivial(self):
        """Is this the zero submodule of the parent?"""
        return self.basis() == self.parent.relation_gb()

    def is_full(self):
        return self == self.parent.full_submodule()

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Submodule) and self.parent == other.parent
            and self.basis() == other.basis())

    def __hash__(self):
        return hash((self.parent, self.basis()))

    def __repr__(self):
        gens = ", ".join(
            "(" + ", ".join(str(c) for c in g.columns()) + ")"
            for g in self.basis()[:6])
        return f"<submodule [{gens}{'...' if len(self.basis()) > 6 else ''}]>"

    def serialize(self):
        return {"generators": [[str(c) for c in g.columns()]
                               for g in self.basis()]}

    # -- lattice operations ----------------------------------------------

    def sum(self, other):
        assert self.parent == other.parent
        return Submodule(self.parent, self.gens + other.gens)

    def intersect(self, other):
        assert self.parent == other.parent
        return Submodule(self.parent, tuple(intersection(
            self.basis(), other.basis(), self.parent.rank)))

    def scale_poly(self, f):
        return Submodule(self.parent, tuple(g.mul_poly(f) for g in self.gens))

    def scale_ideal(self, ideal):
        gens = []
        for f in (ideal.gens or ()):
            for g in self.gens:
                gens.append(g.mul_poly(f))
        return Submodule(self.parent, tuple(gens))

    def colon_into(self, c):
        """{v in R^rank : c*v in self}, as a submodule of the parent."""
        rank = self.parent.rank
        cols = [self.parent.generator(i).mul_poly(c) for i in range(rank)]
        return Submodule(self.parent, tuple(
            syzygies(cols + list(self.basis()), rank, rank)))

    def colon_ideal(self, vec):
        """{f in R : f * vec in self}, as an ideal."""
        syz = syzygies([vec] + list(self.basis()), self.parent.rank, 1)
        return Ideal(self.parent.ring, [s.component(0) for s in syz])

    def conductor(self, vectors):
        """{f in R : f * v in self for every v in ``vectors``}, as an ideal."""
        ring = self.parent.ring
        colons = [self.colon_ideal(v) for v in vectors]
        return reduce(Ideal.intersect, colons) if colons \
            else Ideal(ring, [ring.one()])

    def saturate(self, c):
        """(self : c^infty) inside the parent, chain certified.  ``c = None``
        or ``c = 1`` inverts nothing and returns ``self``, by the rule of
        ``Ideal.saturation_elem``."""
        if c is None or c.is_one():
            return self
        return self.parent.ring.caps.stabilize(
            lambda sub: sub.colon_into(c), self,
            "submodule saturation did not stabilize")

    # -- invariants --------------------------------------------------------

    def annihilator(self):
        """ann of self as a module: {f : f * self <= relations}."""
        return self.parent.zero_submodule().conductor(
            self.generators_reduced())


def torsion(module, ideal, within=None):
    """H^0_I: elements killed by a power of I, with certified stabilization.

    ``within`` restricts to a submodule (torsion of the submodule equals its
    intersection with the ambient torsion).
    """
    if not ideal.gens:
        return within if within is not None else module.full_submodule()

    def step(current):
        return reduce(Submodule.intersect,
                      [current.colon_into(g) for g in ideal.gens])

    result = module.ring.caps.stabilize(step, module.zero_submodule(),
                                        "torsion chain did not stabilize")
    return result if within is None else result.intersect(within)


def unit_at(conductor, prime, inverted):
    """Does ``conductor``, with ``inverted`` inverted when given, become the
    unit ideal at ``prime``, i.e. is it not contained in ``prime``?"""
    return not all(prime.contains(g)
                   for g in conductor.saturation_elem(inverted).groebner())


def support_vanishes(sub, prime, inverted=None):
    """Is N_eta = 0?  True iff ann(N) is not contained in eta."""
    return unit_at(sub.annihilator(), prime, inverted)


class ModuleMap:
    """R-linear map between presented modules, as a matrix of columns.

    Column j is the image of the j-th free generator of the source; the
    constructor verifies that source relations land in the target's relation
    submodule, so the map is well defined on the quotients.
    """

    __slots__ = ("source", "target", "columns")

    def __init__(self, source, target, columns, check=True):
        if len(columns) != source.rank:
            raise ValueError("need one column per source generator")
        cols = []
        for cvec in columns:
            v = cvec if isinstance(cvec, VecPoly) else target.vector(cvec)
            if v.rank != target.rank:
                raise ValueError("column has wrong rank")
            cols.append(v)
        self.source = source
        self.target = target
        self.columns = tuple(cols)
        if check:
            relsub = Submodule(target, ())
            for r in source.relations:
                img = self.apply(r)
                if not relsub.contains(img):
                    raise ValueError(
                        "matrix does not map relations into relations")

    def apply(self, vec):
        acc = VecPoly.zero(self.target.ring, self.target.rank)
        for j, col in enumerate(self.columns):
            f = vec.component(j)
            if not f.is_zero():
                acc = acc + col.mul_poly(f)
        return acc

    def apply_submodule(self, sub):
        return Submodule(self.target, tuple(self.apply(g) for g in sub.gens))

    def image(self):
        return Submodule(self.target, self.columns)

    def kernel(self):
        """{v in source : phi(v) in target relations}, as a Submodule."""
        cols = list(self.columns) + list(self.target.relation_gb())
        return Submodule(self.source, tuple(
            syzygies(cols, self.target.rank, self.source.rank)))

    def cokernel(self):
        return PresentedModule(
            self.target.ring, self.target.rank,
            list(self.target.relations) + list(self.columns))

    @staticmethod
    def identity(module):
        return ModuleMap(module, module,
                         [module.generator(i) for i in range(module.rank)],
                         check=False)


def present_submodule(sub):
    """(P, gens) where P presents ``sub`` abstractly on its reduced generators.

    P has one free generator per entry of ``gens`` (a maximal-information
    generator list) and relations = syzygies of those generators modulo the
    parent's relations.
    """
    parent = sub.parent
    gens = sub.generators_reduced()
    if not gens:
        return PresentedModule(parent.ring, 0), []
    rels = syzygies(gens + list(parent.relation_gb()), parent.rank,
                    len(gens))
    return PresentedModule(parent.ring, len(gens), rels), gens
