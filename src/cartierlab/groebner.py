"""Buchberger engine for submodules of free modules over F_p[x1..xn].

Vectors are sparse maps (position, monomial) -> coefficient with a
position-over-term order: the lower position index wins, then grevlex, the
one term order of the engine.  Both are read off one sort key,
``VecPoly.key``, on which the larger term sorts first.  Ideals are the
rank-1 case.

Everything downstream (membership, intersections, colons, conductors,
annihilators, torsion, kernels, presentations) reduces to two primitives
implemented here: ``buchberger`` (reduced Groebner bases) and ``syzygies``
(the elimination trick on an augmented module, each syzygy cut to the
coordinates its caller keeps).  ``intersection`` is the one lattice
operation built here on top of them.  Chains of such operations
(saturations, torsion) run to their fixed point in ``EngineCaps.stabilize``,
which certifies the stop or raises.

Pair selection uses the sugar strategy with deterministic tie-breaking, so
bases come out identical across runs and platforms.  Reduction follows
Monagan and Pearce (J. Symb. Comp. 2011): ``normal_form`` keeps the terms
still to reduce in a heap rather than scanning for the largest, and every
``Poly`` and ``VecPoly`` caches its leading term, so a basis reused across
many reductions finds its leads once.  ``interreduce`` turns a Groebner
basis into the reduced one in a single pass once redundant leads are gone.

Inside a ``memo_scope`` (opened by the top-level calls of the
``cartiercore``, test-module, filtration and functor layers), memoised
work is kept in named tables of one memo.  A library call's memo is
dropped when its outermost scope exits; the tasks of one parsed ``Scene``
share the memo the scene holds.  ``memo_scope`` is a small class: as a
decorator it calls straight through when a scope is already open, so a
nested call costs one context-variable read.

Every table is read and filled through ``memoised(name, key, compute,
*args)``, the one lookup of the engine: one ``dict.get`` per call, and on
a miss the value of ``compute(*args)`` is stored once that call returns,
so a computation that raises stores nothing.  Outside a scope it just
computes.  No value is ``None``, the helper's miss sentinel.  Each table
is filled by one function: ``buchberger`` (reduced bases, here);
``small_power`` and ``frobenius_root_of_power`` (one ``RootAutomaton`` per
f, ``idealkit``; the twisted graded walk of ``cartiercore`` takes its
powers from the same table); ``graded_step``, ``graded_sum``,
``underline``, ``stable_torsion`` and ``ass_cartier`` (``cartiercore``);
``candidate_pool`` and ``tau`` (``testmod``); and ``commutation_suite``
(``functorops``).  A hit returns exactly what a fresh computation would,
so answers never depend on what ran earlier, and every table is one that
the corpus reads back.

Keys are built from values that are already at hand, so a hit costs little
more than its dict lookup: ``buchberger`` keys on each generator's cached
``VecPoly.frozen()``, and the tables of the upper layers key on the stored
basis tuples of ``Submodule.basis()`` and ``relation_gb()``, on the
once-hashed ``CartierModule.structure_key()`` and on the once-hashed
``EngineCaps``.  Keys are equal exactly when their inputs are.
"""

import contextvars
import functools
import heapq
from operator import add, le, sub

from .errors import ResourceCapError
from .fppoly import Poly


class VecPoly:
    """Element of R^rank, stored as {(pos, mono): coeff}.  Never mutate
    ``terms`` after creation: the frozen terms, the hash and the leading
    term are cached on first use.  The hash is that of (rank, ``frozen()``),
    so equal vectors hash equal whatever order their terms were filled in,
    and no hash sorts."""

    __slots__ = ("ring", "rank", "terms", "_frozen", "_hash", "_lead")

    def __init__(self, ring, rank, terms):
        self.ring = ring
        self.rank = rank
        self.terms = terms
        self._frozen = None
        self._hash = None
        self._lead = None

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

    @staticmethod
    def key(term):
        """Position over term: the position, then ``RingSpec.monomial_key``
        of the monomial, so the larger term has the smaller key."""
        pos, m = term
        return (pos, -sum(m), m[::-1])

    def lead(self):
        """((pos, monomial), coeff) of the leading term; None for 0."""
        if self._lead is None and self.terms:
            t = min(self.terms, key=VecPoly.key)
            self._lead = t, self.terms[t]
        return self._lead

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: VecPoly.key(kv[0]))

    def __eq__(self, other):
        return (isinstance(other, VecPoly) and self.ring == other.ring
                and self.rank == other.rank and self.terms == other.terms)

    def frozen(self):
        """``frozenset(terms.items())``, built once: two vectors of one ring
        and rank are equal exactly when these are, and comparing them runs
        in C."""
        if self._frozen is None:
            self._frozen = frozenset(self.terms.items())
        return self._frozen

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rank, self.frozen()))
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
        if c == 1:
            return self
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
        return VecPoly(self.ring, self.rank,
                       _accumulate(self.ring.p, [(self, f)]))

    def monic(self):
        lt = self.lead()
        if lt is None:
            return self
        p = self.ring.p
        return self.scale(pow(lt[1], p - 2, p))

    def extend_rank(self, new_rank, offset=0):
        return VecPoly(self.ring, new_rank,
                       {(pos + offset, m): c for (pos, m), c in self.terms.items()})

    def max_total_degree(self):
        if not self.terms:
            return -1
        return max(sum(m) for (_, m) in self.terms)


def _accumulate(p, products):
    """Term dict of the sum of ``v * f`` over ``products`` (pairs of a
    VecPoly and a Poly), built in one dict modulo p without zero terms."""
    acc = {}
    for v, f in products:
        for m, c in f.terms.items():
            for (pos, vm), vc in v.terms.items():
                t = (pos, tuple(map(add, vm, m)))
                s = (acc.get(t, 0) + vc * c) % p
                if s:
                    acc[t] = s
                else:
                    acc.pop(t, None)
    return acc


def _tagged(v, total, tag):
    """The row ``(v, e_tag)`` of an augmented module: ``v`` in R^total plus
    the unit vector at position ``tag``, which lies beyond v's positions."""
    terms = dict(v.terms)
    terms[(tag, (0,) * v.ring.nvars)] = 1
    return VecPoly(v.ring, total, terms)


def _divides(a, b):
    return all(map(le, a, b))


def normal_form(v, basis):
    """Fully reduced normal form of v against basis (each with nonzero lead).

    Reduces every term, not just the lead, so forms are canonical once the
    basis is a reduced Groebner basis.  The terms still to reduce sit in a
    heap on ``VecPoly.key``, so each step pops the largest one.  A term
    enters the heap again whenever it re-enters ``work``, and a popped term
    that has left ``work`` since it was pushed is skipped.
    """
    if v.is_zero() or not basis:
        return v
    ring = v.ring
    p = ring.p
    by_pos = {}
    for g in basis:
        (pos, gm), gc = g.lead()
        by_pos.setdefault(pos, []).append((gm, gc, g))
    if not any(_divides(gm, m) for pos, m in v.terms
               for gm, _gc, _g in by_pos.get(pos, ())):
        return v  # already reduced
    key = VecPoly.key
    work = dict(v.terms)
    heap = [(key(t), t) for t in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        t = heapq.heappop(heap)[1]
        c = work.pop(t, 0)
        if not c:
            continue  # cancelled since it was pushed
        pos, m = t
        for gm, gc, g in by_pos.get(pos, ()):
            if _divides(gm, m):
                break
        else:
            out[t] = c
            continue
        shift = tuple(map(sub, m, gm))
        factor = (c * pow(gc, p - 2, p)) % p
        # every other term of g, shifted, is smaller than t, so it is not
        # in ``out`` and is popped after t
        for (gpos, gmono), gcoeff in g.terms.items():
            if gpos == pos and gmono == gm:
                continue  # leading term cancels the popped term exactly
            tt = (gpos, tuple(map(add, gmono, shift)))
            old = work.get(tt)
            s = ((old or 0) - factor * gcoeff) % p
            if s:
                work[tt] = s
                if old is None:
                    heapq.heappush(heap, (key(tt), tt))
            elif old is not None:
                del work[tt]
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


class memo_scope:
    """Open the memo of ``memoised`` for the scope of a top-level call or a
    scene task.

    Usable as ``with memo_scope():`` and as the decorator ``@memo_scope()``.
    Reentrant: an inner entry joins the open memo, and a decorated call
    made while a scope is open calls straight through.  The outermost
    ``with`` entry holds its tables in ``memo``, so the caller that passes
    a dict decides how long they live (a ``Scene`` keeps one for all of its
    tasks); with ``memo=None``, and always for a decorated call, it starts
    a fresh dict that its exit drops.
    """

    __slots__ = ("memo", "_token")

    def __init__(self, memo=None):
        self.memo = memo
        self._token = None

    def __enter__(self):
        if _MEMO.get() is None:
            self._token = _MEMO.set({} if self.memo is None else self.memo)

    def __exit__(self, *exc_info):
        if self._token is not None:
            _MEMO.reset(self._token)
            self._token = None

    def __call__(self, func):
        @functools.wraps(func)
        def scoped(*args, **kwargs):
            if _MEMO.get() is not None:
                return func(*args, **kwargs)
            token = _MEMO.set({})
            try:
                return func(*args, **kwargs)
            finally:
                _MEMO.reset(token)
        return scoped


def memo_table(name):
    """The table ``name`` of the open memo scope, for inspecting its
    entries; a throwaway table outside any scope.  The library reads and
    fills tables only through ``memoised``."""
    memo = _MEMO.get()
    return {} if memo is None else memo.setdefault(name, {})


def memoised(name, key, compute, *args):
    """``compute(*args)``, kept under ``key`` in the table ``name`` of the
    open memo scope.

    Outside any scope it computes and keeps nothing.  Inside one it makes
    one ``get``, and on a miss stores the value once ``compute`` returns,
    so a call that raises stores nothing and a retry computes afresh.
    ``None`` marks a miss, so ``compute`` never returns it.  The stored
    value is shared by every hit: callers hand out copies of mutable parts.
    """
    memo = _MEMO.get()
    if memo is None:
        return compute(*args)
    table = memo.setdefault(name, {})
    value = table.get(key)
    if value is None:
        value = table[key] = compute(*args)
    return value


def buchberger(gens):
    """Reduced Groebner basis of the submodule generated by ``gens``.

    The basis depends on the generator order and on the ring's caps (its
    ``pair_cap``), so both are part of the ``buchberger`` key; a
    ``ResourceCapError`` is raised afresh each time.  The key holds each
    generator's cached ``VecPoly.frozen()``, not the vector itself: callers
    such as ``Ideal.groebner`` wrap fresh vectors on every call, and a hit
    then compares frozensets in C instead of running ``VecPoly.__eq__`` per
    generator.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    # equal rings may differ in caps, and the basis carries its ring
    key = (ring, ring.caps, gens[0].rank, tuple(g.frozen() for g in gens))
    return list(memoised("buchberger", key, _buchberger, gens, ring))


def _buchberger(gens, ring):
    cap = ring.caps.pair_cap
    basis = []
    for g in sorted(gens, key=lambda v: VecPoly.key(v.lead()[0]),
                    reverse=True):
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
        sugar = max(basis[i].max_total_degree() + sum(lcm) - sum(mi),
                    basis[j].max_total_degree() + sum(lcm) - sum(mj))
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
    return tuple(interreduce(basis))


def interreduce(basis):
    """The reduced basis of a Groebner basis: minimal, fully reduced, monic,
    sorted descending by lead term.

    Once the elements whose lead is a multiple of another lead are dropped
    (of equal leads, the first is kept), the leads are minimal and no
    reduction changes them.  So one pass reducing each element against the
    others gives the unique reduced basis with those leads.
    """
    basis = [g for g in basis if not g.is_zero()]
    leads = [g.lead()[0] for g in basis]
    keep = []
    for i, (pos, m) in enumerate(leads):
        if not any(pos2 == pos and _divides(m2, m)
                   and (j < i or m2 != m)
                   for j, (pos2, m2) in enumerate(leads) if j != i):
            keep.append(basis[i])
    out = [normal_form(g, keep[:i] + keep[i + 1:]).monic()
           for i, g in enumerate(keep)]
    out.sort(key=lambda v: VecPoly.key(v.lead()[0]))
    return out


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
    total = rank + len(vectors)
    gb = buchberger([_tagged(v, total, rank + i)
                     for i, v in enumerate(vectors)])
    out = []
    for g in gb:
        # the lead has the smallest position, so this checks every term
        if g.lead()[0][0] >= rank:
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
    ring = a[0].ring
    out = []
    for lam in syzygies(a + b, rank, len(a)):
        acc = _accumulate(ring.p, [(v, lam.component(i))
                                   for i, v in enumerate(a)])
        if acc:
            out.append(VecPoly(ring, rank, acc))
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
        aug = [_tagged(v, total, rank + i) for i, v in enumerate(vectors)]
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
