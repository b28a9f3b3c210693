"""Finitely presented modules over F_p[x1..xn] and their submodule lattice.

A module is a free cover R^rank modulo explicit relation columns; a
submodule is a generator list in the cover.  Canonical form everywhere is
the reduced Groebner basis of (generators + relations) inside the cover, so
equality, membership and chain stabilization are all exact.

Kernels, intersections, colons, annihilators and torsion submodules reduce
to syzygy computations on the free cover; see :mod:`cartierlab.groebner`.
"""

from .errors import ResourceCapError
from .groebner import VecPoly, buchberger, normal_form, syzygies
from .idealkit import Ideal


class PresentedModule:
    """R^rank modulo the span of ``relations`` (VecPoly columns)."""

    __slots__ = ("ring", "rank", "relations", "_relgb")

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

    @staticmethod
    def free(ring, rank):
        return PresentedModule(ring, rank)

    @staticmethod
    def quotient_ring(ring, ideal):
        """R/I as a rank-1 module."""
        rels = [VecPoly.from_columns(ring, [g]) for g in ideal.gens]
        return PresentedModule(ring, 1, rels)

    def relation_gb(self):
        if self._relgb is None:
            self._relgb = tuple(buchberger(list(self.relations)))
        return list(self._relgb)

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
        return (isinstance(other, PresentedModule) and self.ring == other.ring
                and self.rank == other.rank
                and tuple(self.relation_gb()) == tuple(other.relation_gb()))

    def __hash__(self):
        return hash((self.ring, self.rank, tuple(self.relation_gb())))

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
        if self._gb is None:
            self._gb = tuple(buchberger(
                list(self.gens) + list(self.parent.relations)))
        return list(self._gb)

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
        return tuple(self.basis()) == tuple(self.parent.relation_gb())

    def is_full(self):
        return self == self.parent.full_submodule()

    def __eq__(self, other):
        return (isinstance(other, Submodule) and self.parent == other.parent
                and tuple(self.basis()) == tuple(other.basis()))

    def __hash__(self):
        return hash((self.parent, tuple(self.basis())))

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
        a = self.basis()
        b = other.basis()
        if not a or not b:
            return self.parent.zero_submodule()
        syz = syzygies(a + b, self.parent.rank)
        out = []
        for s in syz:
            acc = VecPoly.zero(self.parent.ring, self.parent.rank)
            for i, v in enumerate(a):
                acc = acc + v.mul_poly(s.component(i))
            if not acc.is_zero():
                out.append(acc)
        return Submodule(self.parent, tuple(out))

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
        ring = self.parent.ring
        rank = self.parent.rank
        cols = [VecPoly.unit(ring, rank, i).mul_poly(c) for i in range(rank)]
        target = self.basis()
        syz = syzygies(cols + target, rank)
        out = []
        for s in syz:
            v = VecPoly(ring, rank,
                        {(q, m): coef for (q, m), coef in s.terms.items()
                         if q < rank})
            if not v.is_zero():
                out.append(v)
        return Submodule(self.parent, tuple(out))

    def colon_ideal(self, vec):
        """{f in R : f * vec in self}, as an ideal."""
        ring = self.parent.ring
        syz = syzygies([vec] + self.basis(), self.parent.rank)
        return Ideal(ring, [s.component(0) for s in syz
                            if not s.component(0).is_zero()])

    def saturate(self, c):
        """(self : c^infty) inside the parent, chain certified."""
        if c is None or c.is_one():
            return self
        current = self
        for _ in range(self.parent.ring.caps.chain_cap):
            nxt = current.colon_into(c)
            if nxt == current:
                return current
            current = nxt
        raise ResourceCapError("submodule saturation did not stabilize")

    # -- invariants --------------------------------------------------------

    def annihilator(self):
        """ann of self as a module: {f : f * self <= relations}."""
        ring = self.parent.ring
        rels = self.parent.relation_gb()
        result = None
        gens = self.generators_reduced()
        if not gens:
            return Ideal(ring, [ring.one()])
        for w in gens:
            syz = syzygies([w] + rels, self.parent.rank)
            ideal = Ideal(ring, [s.component(0) for s in syz
                                 if not s.component(0).is_zero()])
            result = ideal if result is None else result.intersect(ideal)
        return result


def torsion(module, ideal, within=None):
    """H^0_I: elements killed by a power of I, with certified stabilization.

    ``within`` restricts to a submodule (torsion of the submodule equals its
    intersection with the ambient torsion).
    """
    if not ideal.gens:
        return within if within is not None else module.full_submodule()
    current = module.zero_submodule()
    cap = module.ring.caps.chain_cap
    for _ in range(cap):
        pieces = [current.colon_into(g) for g in ideal.gens]
        nxt = pieces[0]
        for piece in pieces[1:]:
            nxt = nxt.intersect(piece)
        if nxt == current:
            result = current
            break
        current = nxt
    else:
        raise ResourceCapError("torsion chain did not stabilize")
    if within is not None:
        result = result.intersect(within)
    return result


def support_vanishes(sub, prime, inverted=None):
    """Is N_eta = 0?  True iff ann(N) is not contained in eta."""
    ann = sub.annihilator()
    if inverted is not None:
        ann = ann.saturation_elem(inverted)
    return not all(prime.contains(g) for g in ann.groebner())


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
        ring = self.source.ring
        cols = list(self.columns) + self.target.relation_gb()
        syz = syzygies(cols, self.target.rank)
        n = self.source.rank
        out = []
        for s in syz:
            v = VecPoly(ring, n,
                        {(pos, m): c for (pos, m), c in s.terms.items()
                         if pos < n})
            if not v.is_zero():
                out.append(v)
        return Submodule(self.source, tuple(out))

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
    syz = syzygies(gens + parent.relation_gb(), parent.rank)
    k = len(gens)
    rels = []
    for s in syz:
        v = VecPoly(parent.ring, k,
                    {(pos, m): c for (pos, m), c in s.terms.items()
                     if pos < k})
        if not v.is_zero():
            rels.append(v)
    return PresentedModule(parent.ring, k, rels), gens
