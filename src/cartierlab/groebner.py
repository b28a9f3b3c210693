"""Buchberger engine for submodules of free modules over F_p[x1..xn].

Vectors are sparse maps (position, monomial) -> coefficient with a
position-over-term order derived from the ring's term order (lower position
index wins, then the ring order).  Ideals are the rank-1 case.

Everything downstream (membership, intersections, colons, conductors,
annihilators, torsion, kernels, presentations) reduces to two primitives
implemented here: ``buchberger`` (reduced Groebner bases) and ``syzygies``
(the elimination trick on an augmented module, each syzygy cut to the
coordinates its caller keeps).  ``intersection`` is the one lattice
operation built here on top of them.  Chains of such operations
(saturations, torsion) run to their fixed point in ``EngineCaps.stabilize``,
which certifies the stop or raises.

Pair selection uses the sugar strategy with deterministic tie-breaking, so
bases come out identical across runs and platforms.

Inside a ``memo_scope`` (opened by the top-level calls of the test-module,
filtration and scene layers), ``buchberger`` remembers each reduced basis it
computed, keyed on its exact input, and the memo is dropped when the
outermost scope exits.  A hit returns exactly what a fresh computation
would, so answers never depend on what ran earlier.  Other layers keep
their own call-scoped tables in the same memo via ``memo_table``.
"""

import contextlib
import contextvars
import heapq

from .errors import ResourceCapError
from .fppoly import Poly


class VecPoly:
    """Element of R^rank, stored as {(pos, mono): coeff}."""

    __slots__ = ("ring", "rank", "terms", "_hash")

    def __init__(self, ring, rank, terms):
        self.ring = ring
        self.rank = rank
        self.terms = terms
        self._hash = None

    @staticmethod
    def zero(ring, rank):
        return VecPoly(ring, rank, {})

    @staticmethod
    def from_columns(ring, polys):
        """Build from one Poly per position."""
        terms = {}
        for pos, f in enumerate(polys):
            for m, c in f.terms.items():
                terms[(pos, m)] = c
        return VecPoly(ring, len(polys), terms)

    @staticmethod
    def unit(ring, rank, pos):
        return VecPoly(ring, rank, {(pos, (0,) * ring.nvars): 1})

    def component(self, pos):
        return Poly(self.ring,
                    {m: c for (q, m), c in self.terms.items() if q == pos})

    def columns(self):
        return [self.component(i) for i in range(self.rank)]

    def is_zero(self):
        return not self.terms

    def key(self, term):
        pos, m = term
        return (-pos, self.ring.monomial_key(m))

    def lead(self):
        if not self.terms:
            return None
        t = max(self.terms, key=self.key)
        return t, self.terms[t]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: self.key(kv[0]),
                      reverse=True)

    def __eq__(self, other):
        return (isinstance(other, VecPoly) and self.ring == other.ring
                and self.rank == other.rank and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rank, tuple(self.sorted_terms())))
        return self._hash

    def __add__(self, other):
        p = self.ring.p
        res = dict(self.terms)
        for t, c in other.terms.items():
            s = (res.get(t, 0) + c) % p
            if s:
                res[t] = s
            else:
                res.pop(t, None)
        return VecPoly(self.ring, self.rank, res)

    def __neg__(self):
        p = self.ring.p
        return VecPoly(self.ring, self.rank,
                       {t: p - c for t, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        p = self.ring.p
        c %= p
        if c == 0:
            return VecPoly(self.ring, self.rank, {})
        return VecPoly(self.ring, self.rank,
                       {t: (k * c) % p for t, k in self.terms.items()})

    def mul_term(self, mono, coeff):
        p = self.ring.p
        coeff %= p
        if coeff == 0:
            return VecPoly(self.ring, self.rank, {})
        res = {}
        for (pos, m), c in self.terms.items():
            res[(pos, tuple(a + b for a, b in zip(m, mono)))] = (c * coeff) % p
        return VecPoly(self.ring, self.rank, res)

    def mul_poly(self, f):
        acc = VecPoly(self.ring, self.rank, {})
        for m, c in f.terms.items():
            acc = acc + self.mul_term(m, c)
        return acc

    def monic(self):
        lt = self.lead()
        if lt is None:
            return self
        p = self.ring.p
        return self.scale(pow(lt[1], p - 2, p))

    def extend_rank(self, new_rank, offset=0):
        return VecPoly(self.ring, new_rank,
                       {(pos + offset, m): c for (pos, m), c in self.terms.items()})

    def sugar(self):
        if not self.terms:
            return 0
        return max(sum(m) for (_, m) in self.terms)

    def max_total_degree(self):
        if not self.terms:
            return -1
        return max(sum(m) for (_, m) in self.terms)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def normal_form(v, basis):
    """Fully reduced normal form of v against basis (each with nonzero lead).

    Reduces every term, not just the lead, so forms are canonical once the
    basis is a reduced Groebner basis.
    """
    if v.is_zero() or not basis:
        return v
    ring = v.ring
    p = ring.p
    leads = [(g.lead(), g) for g in basis]
    by_pos = {}
    for (t, c), g in leads:
        by_pos.setdefault(t[0], []).append((t[1], c, g))
    work = dict(v.terms)
    out = {}
    keyf = v.key
    while work:
        t = max(work, key=keyf)
        c = work.pop(t)
        pos, m = t
        hit = None
        for (gm, gc, g) in by_pos.get(pos, ()):
            if _divides(gm, m):
                hit = (gm, gc, g)
                break
        if hit is None:
            out[t] = c
            continue
        gm, gc, g = hit
        shift = tuple(a - b for a, b in zip(m, gm))
        factor = (c * pow(gc, p - 2, p)) % p
        for (gpos, gmono), gcoeff in g.terms.items():
            if gpos == pos and gmono == gm:
                continue  # leading term cancels the popped term exactly
            tt = (gpos, tuple(a + b for a, b in zip(gmono, shift)))
            if tt in out:
                s = (out[tt] - factor * gcoeff) % p
                if s:
                    out[tt] = s
                else:
                    del out[tt]
            else:
                s = (work.get(tt, 0) - factor * gcoeff) % p
                if s:
                    work[tt] = s
                else:
                    work.pop(tt, None)
    return VecPoly(ring, v.rank, out)


def _spair(f, g):
    (posf, mf), cf = f.lead()
    (posg, mg), cg = g.lead()
    assert posf == posg
    lcm = tuple(max(a, b) for a, b in zip(mf, mg))
    p = f.ring.p
    uf = tuple(a - b for a, b in zip(lcm, mf))
    ug = tuple(a - b for a, b in zip(lcm, mg))
    return f.mul_term(uf, pow(cf, p - 2, p)) - g.mul_term(ug, pow(cg, p - 2, p))


# {table name: {key: value}} while a memo_scope is open, else None; a
# context variable, so threads or tasks that do not share a context do not
# share a memo
_MEMO = contextvars.ContextVar("cartierlab_groebner_memo", default=None)


@contextlib.contextmanager
def memo_scope():
    """Memoise ``buchberger`` for the duration of one top-level call.

    Usable as ``with memo_scope():`` and as the decorator ``@memo_scope()``.
    Reentrant: the outermost entry creates the memo and its exit drops it,
    so no basis outlives the call that computed it.
    """
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def memo_table(name):
    """The table ``name`` of the open memo scope; a throwaway table outside
    any scope."""
    memo = _MEMO.get()
    return {} if memo is None else memo.setdefault(name, {})


def buchberger(gens, pair_cap=None):
    """Reduced Groebner basis of the submodule generated by ``gens``.

    The basis depends on the generator order and the pair cap, so both are
    part of the memo key; a ``ResourceCapError`` is raised afresh each time.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    cap = pair_cap if pair_cap is not None else ring.caps.pair_cap
    if _MEMO.get() is None:
        return _buchberger(gens, ring, cap)
    memo = memo_table("buchberger")
    # equal rings may differ in caps, and the basis carries its ring
    key = (ring, ring.caps, gens[0].rank, cap,
           tuple(frozenset(g.terms.items()) for g in gens))
    basis = memo.get(key)
    if basis is None:
        basis = memo[key] = tuple(_buchberger(gens, ring, cap))
    return list(basis)


def _buchberger(gens, ring, cap):
    basis = []
    for g in sorted(gens, key=lambda v: v.key(v.lead()[0])):
        nf = normal_form(g, basis)
        if not nf.is_zero():
            basis.append(nf.monic())
    rank = gens[0].rank

    def pair_entry(i, j):
        (pi, mi), _ = basis[i].lead()
        (pj, mj), _ = basis[j].lead()
        if pi != pj:
            return None
        lcm = tuple(max(a, b) for a, b in zip(mi, mj))
        if rank == 1 and all(a + b == l for a, b, l in zip(mi, mj, lcm)):
            return None  # product criterion (ideals only)
        sugar = max(basis[i].sugar() + sum(lcm) - sum(mi),
                    basis[j].sugar() + sum(lcm) - sum(mj))
        return (sugar, ring.monomial_key(lcm), i, j)

    pairs = []
    for j in range(len(basis)):
        for i in range(j):
            e = pair_entry(i, j)
            if e is not None:
                heapq.heappush(pairs, e)
    processed = 0
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        processed += 1
        if processed > cap:
            raise ResourceCapError(
                f"Buchberger pair queue exceeded cap {cap}")
        s = _spair(basis[i], basis[j])
        nf = normal_form(s, basis)
        if nf.is_zero():
            continue
        basis.append(nf.monic())
        k = len(basis) - 1
        for i2 in range(k):
            e = pair_entry(i2, k)
            if e is not None:
                heapq.heappush(pairs, e)
    return interreduce(basis)


def interreduce(basis):
    """Minimal, fully reduced, monic basis sorted descending by lead term."""
    basis = [g for g in basis if not g.is_zero()]
    # drop redundant leads
    keep = []
    leads = [g.lead()[0] for g in basis]
    for i, g in enumerate(basis):
        (pos, m) = leads[i]
        redundant = False
        for j, (pos2, m2) in enumerate(leads):
            if i == j or (pos2, m2) == (pos, m):
                if j < i and (pos2, m2) == (pos, m):
                    redundant = True
                    break
                continue
            if pos2 == pos and _divides(m2, m):
                redundant = True
                break
        if not redundant:
            keep.append(g)
    # full tail reduction
    changed = True
    while changed:
        changed = False
        for i in range(len(keep)):
            others = keep[:i] + keep[i + 1:]
            nf = normal_form(keep[i], others)
            if nf.is_zero():
                keep.pop(i)
                changed = True
                break
            nf = nf.monic()
            if nf != keep[i]:
                keep[i] = nf
                changed = True
    keep.sort(key=lambda v: v.key(v.lead()[0]), reverse=True)
    return keep


def member(v, gb):
    return normal_form(v, gb).is_zero()


def syzygies(vectors, rank, keep):
    """Syzygies {l : sum l_i * vectors_i = 0} of vectors in R^rank, each cut
    to its first ``keep`` coordinates, zero cuts dropped.

    Uses the augmented-module elimination: positions of the ambient block
    dominate the tag block, so Groebner elements supported only on tags are
    exactly the syzygies.
    """
    if not vectors:
        return []
    ring = vectors[0].ring
    s = len(vectors)
    aug = []
    for i, v in enumerate(vectors):
        w = v.extend_rank(rank + s)
        tag = VecPoly.unit(ring, rank + s, rank + i)
        aug.append(w + tag)
    gb = buchberger(aug)
    out = []
    for g in gb:
        if all(pos >= rank for (pos, _m) in g.terms):
            cut = VecPoly(ring, keep,
                          {(pos - rank, m): c for (pos, m), c in g.terms.items()
                           if pos < rank + keep})
            if not cut.is_zero():
                out.append(cut)
    return out


def intersection(a, b, rank):
    """Generators of <a> cap <b> in R^rank: sum l_i * a_i for each syzygy
    (l, l') of the row a + b."""
    if not a or not b:
        return []
    out = []
    for lam in syzygies(a + b, rank, len(a)):
        acc = VecPoly.zero(a[0].ring, rank)
        for i, v in enumerate(a):
            acc = acc + v.mul_poly(lam.component(i))
        if not acc.is_zero():
            out.append(acc)
    return out


class LiftContext:
    """Expresses members of <vectors> + <relations> in terms of ``vectors``.

    lift(u) returns coefficient list (lam_1..lam_k) with
    u = sum lam_i vectors_i modulo <relations>, or None if u is not a member.
    """

    def __init__(self, vectors, relations, rank):
        self.rank = rank
        self.k = len(vectors)
        if vectors:
            ring = vectors[0].ring
        elif relations:
            ring = relations[0].ring
        else:
            raise ValueError("empty lift context")
        self.ring = ring
        total = rank + self.k
        aug = []
        for i, v in enumerate(vectors):
            aug.append(v.extend_rank(total) + VecPoly.unit(ring, total, rank + i))
        for r in relations:
            aug.append(r.extend_rank(total))
        self.gb = buchberger(aug)

    def lift(self, u):
        nf = normal_form(u.extend_rank(self.rank + self.k), self.gb)
        if any(pos < self.rank for (pos, _m) in nf.terms):
            return None
        lam = []
        for i in range(self.k):
            lam.append(-VecPoly(self.ring, 1,
                                {(0, m): c for (pos, m), c in nf.terms.items()
                                 if pos == self.rank + i}).component(0))
        return lam
