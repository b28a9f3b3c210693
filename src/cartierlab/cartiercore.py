"""Cartier-algebra structures on presented modules.

A degree-e structural operator on M = R^r/rel is a matrix U over R acting by
v |-> componentwise trace_e(U*v); every R-linear map F^e_* M -> M arises this
way because the free cover is projective and Hom(F^e_* R, R) is free of rank
one on the trace.  An algebra is a finite list of such operators, optionally
twisted by an ideal power a^ceil(t*p^e) in degree e.

The chain machinery below (graded images, stabilized ascending sums,
descending stable-core chains, nilpotence and associated-prime tests) is the
computational backbone for the test-module layer.

Localized modules are handled in place: a module may carry an ``inverted``
element c, and every canonical submodule is c-saturated, which realizes
submodules of M_c as their saturated preimages in M.
"""

import math
from fractions import Fraction
from itertools import product as iproduct

from .errors import (InvalidStructureError, NotEquivariantError,
                     ResourceCapError, UnsupportedShapeError)
from .fpmod import Submodule, support_vanishes, torsion
from .groebner import VecPoly, memo_scope, memoised
from .idealkit import (PrimeIdeal, minimal_primes,
                       monomial_associated_primes, small_power)


class CartierOp:
    """Degree-e operator given by an r x r matrix of polynomials (rows)."""

    __slots__ = ("e", "matrix", "_hash")

    def __init__(self, e, matrix):
        if e < 1:
            raise ValueError("structural generators must have degree e >= 1")
        self.e = e
        self.matrix = tuple(tuple(row) for row in matrix)
        self._hash = None
        r = len(self.matrix)
        if any(len(row) != r for row in self.matrix):
            raise ValueError("operator matrix must be square")

    @property
    def rank(self):
        return len(self.matrix)

    def ring(self):
        return self.matrix[0][0].ring

    def row_products(self, vec):
        """The entries of U * vec: sum_j U_ij * vec_j for each row i.

        A product by 1 is its other factor and a sum into zero its other
        summand, so both are skipped when the two share one ring object.  A
        skipped product still runs the degree check of the ring it would be
        built on, so every ``ResourceCapError`` fires as before.
        """
        ring = self.ring()
        cols = [vec.component(j) for j in range(self.rank)]
        out = []
        for row in self.matrix:
            acc = ring.zero()
            for j, u in enumerate(row):
                col = cols[j]
                if u.is_zero() or col.is_zero():
                    continue
                if u.ring is col.ring and (u.is_one() or col.is_one()):
                    term = col if u.is_one() else u
                    u.ring.caps.check_degree(term.total_degree())
                else:
                    term = u * col
                acc = term if acc.is_zero() and term.ring is ring \
                    else acc + term
            out.append(acc)
        return out

    def apply_vec(self, vec):
        """trace_e(U * vec), componentwise."""
        from .fppoly import cartier_trace

        out = {}
        for i, acc in enumerate(self.row_products(vec)):
            tr = cartier_trace(acc, self.e)
            for m, c in tr.terms.items():
                out[(i, m)] = c
        return VecPoly(self.ring(), self.rank, out)

    def premultiplied(self, f):
        """The operator kappa o (multiplication by f), same degree."""
        return CartierOp(self.e, [[u * f for u in row] for row in self.matrix])

    def compose(self, other):
        """self o other as algebra product: (e,U)(d,V) = (e+d, U^[p^d] V)."""
        ring = self.ring()
        r = self.rank
        uf = [[u.frobenius(other.e) for u in row] for row in self.matrix]
        prod = []
        for i in range(r):
            row = []
            for j in range(r):
                acc = ring.zero()
                for k in range(r):
                    acc = acc + uf[i][k] * other.matrix[k][j]
                row.append(acc)
            prod.append(row)
        return CartierOp(self.e + other.e, prod)

    def is_zero(self):
        return all(u.is_zero() for row in self.matrix for u in row)

    def __eq__(self, other):
        return (isinstance(other, CartierOp) and self.e == other.e
                and self.matrix == other.matrix)

    def __hash__(self):
        """Cached: the graded walk's step table hashes the operator on every
        lookup, and nothing it reads ever changes."""
        if self._hash is None:
            self._hash = hash((self.e, self.matrix))
        return self._hash

    def serialize(self):
        return {"e": self.e,
                "matrix": [[str(u) for u in row] for row in self.matrix]}

    def __repr__(self):
        return f"<op e={self.e} {[[str(u) for u in row] for row in self.matrix]}>"


class CartierAlgebraSpec:
    """Finitely generated algebra of trace operators, with optional twists.

    A twist (ideal a, rational t >= 0) scales the degree-e component by
    a^ceil(t*p^e); several twists multiply their powers (mixed case); degree
    zero stays R.  ``twist`` accepts a single (ideal, t) pair or a list.
    """

    __slots__ = ("generators", "twists")

    def __init__(self, generators, twist=None):
        gens = tuple(generators)
        if not gens:
            raise ValueError("algebra needs at least one generator")
        r = gens[0].rank
        if any(g.rank != r for g in gens):
            raise ValueError("generators must share the module rank")
        twists = []
        if twist is not None:
            items = [twist] if isinstance(twist, tuple) and len(twist) == 2 \
                and not isinstance(twist[0], tuple) else list(twist)
            for ideal, t in items:
                t = Fraction(t)
                if t < 0:
                    raise ValueError("twist exponent must be >= 0")
                if t > 0:
                    twists.append((ideal, t))
        self.generators = gens
        self.twists = tuple(twists)

    @property
    def rank(self):
        return self.generators[0].rank

    def is_twisted(self):
        return bool(self.twists)

    def twist_exponents(self, e):
        """ceil(t*p^e) for each twist, in integers: every graded walk asks
        for it, and the ``Fraction`` product is several times slower."""
        return tuple(-(-t.numerator * ideal.ring.p ** e // t.denominator)
                     for ideal, t in self.twists)

    def untwisted(self):
        return CartierAlgebraSpec(self.generators)

    def with_twist(self, ideal, t):
        return CartierAlgebraSpec(self.generators,
                                  list(self.twists) + [(ideal, t)])

    def serialize(self):
        out = {"generators": [g.serialize() for g in self.generators]}
        if self.twists:
            out["twist"] = [{"ideal": ideal.serialize(),
                             "t": f"{t.numerator}/{t.denominator}"}
                            for ideal, t in self.twists]
        return out


class _StructureKey:
    """A ``structure_key`` value that is hashed once: memo lookups hash
    their keys on every call."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts):
        self.parts = parts
        self._hash = hash(parts)

    def __eq__(self, other):
        return self is other or (isinstance(other, _StructureKey)
                                 and self.parts == other.parts)

    def __hash__(self):
        return self._hash


class CartierModule:
    """A presented module with a validated operator algebra.

    ``carrier`` restricts attention to a stable submodule (used for torsion
    pieces and computed cores without re-presenting them); ``inverted``
    makes this a module over R_c with all canonical submodules c-saturated.
    Graded sums rely on the carrier being algebra-stable: a sum that fills
    it stops there (see ``graded_sum``).
    """

    __slots__ = ("module", "algebra", "carrier", "inverted", "_key")

    def __init__(self, module, algebra, carrier=None, inverted=None):
        self.module = module
        self.algebra = algebra
        self.carrier = carrier
        self.inverted = inverted
        self._key = None

    @property
    def ring(self):
        return self.module.ring

    def carrier_sub(self):
        if self.carrier is not None:
            return self.carrier
        return self.module.full_submodule()

    def is_trace_line(self):
        """Rank 1, no relations, and the one generator ``Tr`` =
        ``CartierOp(1, [[1]])``: the standard trace on R, or on R_c when
        something is inverted, whatever the twists."""
        return (self.module.rank == 1 and not self.module.relations
                and self.algebra.generators
                == (CartierOp(1, [[self.ring.one()]]),))

    def canon(self, gens):
        """Canonical (c-saturated) submodule spanned by ``gens``."""
        return Submodule(self.module, tuple(gens)).saturate(self.inverted)

    def canon_sub(self, sub):
        return sub.saturate(self.inverted)

    def structure_key(self):
        """What the memoised invariants read of this module besides its
        carrier: the ring caps, the module with its relations as given
        (equal modules may differ in them, and the candidate pool factors
        them), the inverted element (inverting 1 changes nothing, so it
        reads as None), the operators, and the twist generators (the digit
        peeling walks them) with their exponents.  Computed once per object;
        ``with_carrier`` hands it on, since the carrier is not part of it."""
        if self._key is None:
            inverted = None if self.inverted is None \
                or self.inverted.is_one() else self.inverted
            self._key = _StructureKey((
                self.ring.caps, self.module, self.module.relations, inverted,
                self.algebra.generators,
                tuple((tuple(a.gens), t) for a, t in self.algebra.twists)))
        return self._key

    def with_carrier(self, sub):
        cm = CartierModule(self.module, self.algebra, carrier=sub,
                           inverted=self.inverted)
        cm._key = self.structure_key()
        return cm

    def with_algebra(self, algebra):
        return CartierModule(self.module, algebra, carrier=self.carrier,
                             inverted=self.inverted)

    def localize(self, c):
        inv = c if self.inverted is None else self.inverted * c
        algebra = self.algebra
        if algebra.is_twisted():
            # inverting an element of a twist ideal trivializes that twist
            kept = [(ideal, t) for ideal, t in algebra.twists
                    if not ideal.saturation_elem(inv).is_unit()]
            if len(kept) != len(algebra.twists):
                algebra = CartierAlgebraSpec(algebra.generators, kept)
        carrier = self.carrier
        cm = CartierModule(self.module, algebra, inverted=inv)
        if carrier is not None:
            cm = cm.with_carrier(cm.canon(carrier.gens))
        return cm

    def serialize(self):
        out = {"module": self.module.serialize(),
               "algebra": self.algebra.serialize()}
        if self.carrier is not None:
            out["carrier"] = self.carrier.serialize()
        if self.inverted is not None:
            out["inverted"] = str(self.inverted)
        return out


# ---------------------------------------------------------------------------
# validation


def _basis_box(ring, e):
    q = ring.p ** e
    count = q ** ring.nvars
    if count > ring.caps.basis_enum_cap:
        raise ResourceCapError(
            f"basis enumeration p^(e*n) = {count} exceeds cap")
    return iproduct(*[range(q) for _ in range(ring.nvars)])


def validate_structure(module, algebra, carrier=None, inverted=None):
    """Check the operators preserve the relations (and the carrier, if any).

    Returns a validated CartierModule; raises InvalidStructureError with a
    witness triple (generator index, relation index, basis monomial) if some
    compatibility fails.  A carrier must be a submodule of ``module``.
    """
    ring = module.ring
    if inverted is not None and inverted.is_zero():
        raise ValueError("cannot invert zero")
    if algebra.rank != module.rank:
        raise InvalidStructureError(
            f"operator rank {algebra.rank} != module rank {module.rank}")
    if carrier is not None and carrier.parent != module:
        raise InvalidStructureError("carrier is a submodule of another module")
    relsub = Submodule(module, ())
    for gi, op in enumerate(algebra.generators):
        ring.caps.check_e(op.e)
        q = ring.p ** op.e
        for ri, rel in enumerate(module.relations):
            for b, img in _residue_images(ring, op, rel):
                if not relsub.contains(img):
                    witness_a = tuple(q - 1 - x for x in b)
                    raise InvalidStructureError(
                        "operator does not preserve relations",
                        witness=(gi, ri, witness_a))
    cm = CartierModule(module, algebra, inverted=inverted)
    if carrier is not None:
        carrier = cm.canon(carrier.gens)
        stable = apply_cplus(cm, carrier)
        if not carrier.contains_sub(stable):
            raise InvalidStructureError("carrier is not algebra-stable")
        cm = cm.with_carrier(carrier)
    return cm


# ---------------------------------------------------------------------------
# graded images with twist handled by base-p digit peeling


def _gamma_choices_one(ring, ngens, e, pending):
    """All (gamma, new pending) with gamma in [0, q-1]^m, |gamma| <= pending
    and q | pending-|gamma|, in ``iproduct`` order over gamma.

    Only the first m-1 digits are enumerated: the last is the one residue
    in [0, q-1] that makes |gamma| congruent to pending mod q, and the
    tuple is kept when its sum is at most pending.  With m = 0 the one
    choice is the empty tuple, when q divides pending."""
    q = ring.p ** e
    if not ngens:
        return [((), pending // q)] if pending % q == 0 else []
    out = []
    for head in iproduct(*[range(q) for _ in range(ngens - 1)]):
        total = sum(head)
        last = (pending - total) % q
        total += last
        if total <= pending:
            out.append((head + (last,), (pending - total) // q))
    return out


def _twist_moves(ring, twists, e, pendings):
    """Digit-peel choices across all twist ideals simultaneously.

    Yields (multiplier poly, new pending tuple): the multiplier is the
    product of the chosen small ideal-generator powers; the remaining huge
    powers follow the operator through as p^e-th roots.  The small powers
    come from ``small_power``.  The product starts at 1, and 1 times a
    power on ``ring`` is that power, so such a factor is taken as it is,
    after the degree check the product would run.
    """
    per_ideal = []
    for (ideal, _t), pending in zip(twists, pendings):
        choices = _gamma_choices_one(ring, len(ideal.gens), e, pending)
        if not choices:
            return
        per_ideal.append([(ideal.gens, gamma, new) for gamma, new in choices])
    for combo in iproduct(*per_ideal):
        mult = ring.one()
        new_pendings = []
        for gens, gamma, new in combo:
            for g, a in zip(gens, gamma):
                if not a:
                    continue
                power = small_power(g, a)
                if mult.is_one() and power.ring is ring:
                    ring.caps.check_degree(power.total_degree())
                    mult = power
                else:
                    mult = mult * power
            new_pendings.append(new)
        yield mult, tuple(new_pendings)


def _expand_ideal_power(ideal, k, cap):
    """Generators of ideal^k, or None if the expansion would be too large."""
    ring = ideal.ring
    gens = ideal.gens
    if k == 0:
        return [ring.one()]
    if not gens:
        return []
    m = len(gens)
    count = math.comb(k + m - 1, m - 1)
    if count > cap:
        return None
    out = []
    for combo in iproduct(*[range(k + 1) for _ in range(m - 1)]):
        rest = k - sum(combo)
        if rest < 0:
            continue
        f = ring.one()
        for g, a in zip(gens, list(combo) + [rest]):
            f = f * g ** a
        out.append(f)
    return out


def _expand_twist_powers(twists, pendings, cap):
    factors = [[]]
    for (ideal, _t), k in zip(twists, pendings):
        expansion = _expand_ideal_power(ideal, k, cap)
        if expansion is None:
            raise ResourceCapError(f"twist power a^{k} too large to expand")
        factors = [acc + [f] for acc in factors for f in expansion]
        if len(factors) > cap:
            raise ResourceCapError("mixed twist expansion too large")
    out = []
    for combo in factors:
        f = None
        for g in combo:
            f = g if f is None else f * g
        out.append(f)
    return out


def _residue_images(ring, op, vec):
    """The nonzero images trace_e(U * x^a * vec), one per residue class.

    trace_e(w * x^a) is the decomposition coefficient of w at the residue
    class b = q-1-a, so one pass over the terms of U*vec, split by exponents
    mod q = p^e, yields every basis image at once instead of q^n separate
    trace scans.  Returns (b, image) pairs sorted by b.
    """
    q = ring.p ** op.e
    per_class = {}
    for i, acc in enumerate(op.row_products(vec)):
        # within row i each term m has its own (b, m // q), so no two
        # terms share a slot and nothing needs summing
        for m, c in acc.terms.items():
            b = tuple(x % q for x in m)
            per_class.setdefault(b, {})[(i, tuple(x // q for x in m))] = c
    return [(b, VecPoly(ring, op.rank, terms))
            for b, terms in sorted(per_class.items())]


def _apply_generator(cm, op, gens):
    """Images trace(U * x^a * g) over all e-level basis monomials x^a."""
    ring = cm.ring
    if (ring.p ** op.e) ** ring.nvars > ring.caps.basis_enum_cap:
        raise ResourceCapError("basis enumeration exceeds cap")
    return [img for g in gens for _b, img in _residue_images(ring, op, g)]


def _graded_step(cm, op, mult, state):
    """The images of the reduced state ``state`` (a tuple of vectors) under
    the letter ``op`` after multiplying by the digit multiplier ``mult``
    (None for 1), from the ``graded_step`` table.

    The table is the transition table of the graded walks of one scope
    (``graded_piece_gens`` and the closing check of ``_graded_sum``); its
    key is (ring, ring caps, operator, multiplier, state).  A hit is
    exact, because the images are a function of that key alone: they read
    the ring, its caps (the degree checks of the products) and nothing of
    the module, so its relations, an inverted element, a carrier or a
    twist exponent does not change them.  The caps are in the key, so a
    hit never skips a ``ResourceCapError`` that a fresh step would raise.
    Never mutate the tuple.
    """
    ring = cm.ring
    return memoised("graded_step", (ring, ring.caps, op, mult, state),
                    _step_images, cm, op, mult, state)


def _step_images(cm, op, mult, state):
    scaled = state if mult is None else [v.mul_poly(mult) for v in state]
    return tuple(_apply_generator(cm, op, scaled))


def graded_piece_gens(cm, e, seed_gens):
    """Generators of (C_e^twisted applied to the seed span), degree e >= 1.

    Walks all generator words of total degree e.  Twist powers are peeled
    digit by digit: kappa(g^[q] h m) = g kappa(h m) turns a pending a^A into
    a^((A-|gamma|)/q) after each letter, so huge ideal powers never get
    expanded; only the final small leftover does.  An untwisted algebra has
    one move per letter, by 1 with nothing pending, so the same walk is the
    untwisted one.

    ``seed_gens`` must be a reduced basis (``Submodule.basis()``, which
    holds the relations): it is the level-0 state as it is, and only the
    levels >= 1 are reduced.  A reduced basis is its own ``_piece_basis``,
    so reducing it again would return it unchanged.

    The per-level states are kept as ``_piece_basis``, unsaturated.  Every
    letter phi has phi(N^sat) <= phi(N)^sat (the argument in
    ``_graded_sum``), and so does multiplication by a digit's small power,
    so each state spans a submodule S' with S' <= S <= S'^sat for the
    saturated state S, and the returned generators span the saturated
    walk's piece up to saturation.

    Every letter step is looked up in the step table of the open memo
    scope (``_graded_step``).  The sums of one ``tau`` call walk the same
    steps at every degree e and under every twist exponent, since the walk
    restarts from the seed; the restarted levels are step-table and
    ``buchberger`` memo hits.  A hit returns exactly the images a fresh step
    computes, since they are a function of the key, which holds the ring
    and its caps.  The states are reduced here, with the module's
    relations, as a walk with no memo reduces them, and the last level is
    returned unreduced, its images in walk order.
    """
    algebra = cm.algebra
    ring = cm.ring
    twists = algebra.twists
    # states: consumed degree -> {pending twist exponents: [gens]}
    states = {0: {algebra.twist_exponents(e): tuple(seed_gens)}}
    for consumed in range(e):
        level = states.get(consumed)
        if not level:
            continue
        if consumed:
            # keep state generator sets small: span is all that matters
            for pending in list(level):
                level[pending] = _piece_basis(cm, level[pending])
        for op in algebra.generators:
            nxt = consumed + op.e
            if nxt > e:
                continue
            target = states.setdefault(nxt, {})
            for pending, gens in level.items():
                for mult, new_pending in _twist_moves(ring, twists, op.e,
                                                      pending):
                    images = _graded_step(cm, op, None if mult.is_one()
                                          else mult, gens)
                    if images:
                        target.setdefault(new_pending, []).extend(images)
    final = states.get(e, {})
    out = []
    for pending, gens in sorted(final.items()):
        if not gens:
            continue
        if not any(pending):
            out.extend(gens)
            continue
        for f in _expand_twist_powers(twists, pending,
                                      ring.caps.twist_expand_cap):
            out.extend(v.mul_poly(f) for v in gens)
    return out


def _piece_basis(cm, gens):
    """Reduced basis of the span of ``gens``, left unsaturated: the form of
    a graded walk's intermediate pieces (see ``_graded_sum``)."""
    return Submodule(cm.module, gens).basis()


def ceil_pattern_period(p, t):
    """(preperiod, period) of the exponent pattern e -> ceil(t*p^e).

    The preperiod is v_p(denominator of t); the period is the multiplicative
    order of p modulo the p-free part of the denominator.
    """
    den = Fraction(t).denominator
    pre = 0
    while den % p == 0:
        den //= p
        pre += 1
    period = 1
    if den > 1:
        acc = p % den
        while acc != 1:
            acc = (acc * p) % den
            period += 1
    return pre, period


def _twist_window(cm, seed_degree):
    """Stabilization window for twisted ascending sums.

    Covers the eventual periodicity of the exponent patterns ceil(t*p^e)
    plus the degrees needed for the seed to contract below the twist scale.
    For untwisted algebras the sound fixed-point certificate is used instead
    and this is 1.
    """
    algebra = cm.algebra
    if not algebra.is_twisted():
        return 1
    p = cm.ring.p
    pre = 0
    period_lcm = 1
    tw_deg = 0
    for ideal, t in algebra.twists:
        k, period = ceil_pattern_period(p, t)
        pre = max(pre, k)
        period_lcm = math.lcm(period_lcm, period)
        tw_deg += max((g.total_degree() for g in ideal.gens), default=0)
    growth = max(0, seed_degree) + tw_deg + 1
    # digits = max(1, ceil(log_p(growth + 1))), in integers
    digits, reach = 1, p
    while reach < growth + 1:
        digits += 1
        reach *= p
    return max(3, pre + period_lcm + 1, digits + 2)


def _max_degree(gens):
    return max((g.max_total_degree() for g in gens), default=0)


def graded_sum(cm, seed, e_min=0):
    """Stabilized ascending sum  sum_{e >= e_min} C_e^tw (seed).

    Returns (Submodule, info dict).  For untwisted algebras stabilization is
    certified by a fixed-point check (the sum is stable under every
    generator and the last max-degree pieces add nothing).  For twisted
    algebras the sum is scanned until a denominator/degree-derived window of
    consecutive degrees adds nothing; the window used is reported.
    A sum that reaches the module's carrier, from a seed inside it, stops
    there: the carrier is algebra-stable, so no later degree can add to the
    sum, and the info reports the degree the scan would have stopped at.
    Sums are memoised in the ``graded_sum`` table on the structure key, the
    seed's basis and ``e_min``; the carrier is not part of the key, because
    it changes only when the scan ends, not its result.  Each call gets its
    own copy of the info dict.
    """
    seed = seed if isinstance(seed, Submodule) else cm.canon(seed)
    seed_gens = seed.basis()
    key = (cm.structure_key(), seed_gens, e_min)
    total, info = memoised("graded_sum", key, _graded_sum, cm, seed_gens,
                           e_min)
    return total, dict(info)


def _graded_sum(cm, seed_gens, e_min):
    """The scan behind ``graded_sum``, with the carrier stop.

    Degrees are walked from 1 and ``quiet_needed`` quiet degrees in a row
    end the scan.  When the running sum equals the carrier after growing at
    degree g (or before any degree, g = 0), every later degree is quiet, so
    the scan's own stop is max(g, e_min - 1) + quiet_needed and its result
    is the carrier; that stop is returned at once if it is within
    ``chain_cap`` (else the scan runs on and raises as before).  With
    e_min > 0 the seed is not in the sum, so it is checked to lie in the
    carrier first.

    Every degree's piece comes from ``graded_piece_gens``, twisted or not.
    The seed, every running total and the returned sum are canonical
    (c-saturated); the intermediate pieces (the per-level states of
    ``graded_piece_gens``) are only reduced, by ``_piece_basis``.  That
    changes nothing: if c^k x lies in N, then
    c^m phi(x) = phi(c^(m p^e) x) lies in phi(N) once m p^e >= k (the
    projection formula), so phi(N^sat) <= phi(N)^sat for every letter phi.
    By induction an unsaturated piece P' and the saturated piece P have
    P' <= P <= P'^sat, so a saturated total contains P exactly when it
    contains P', and adding either gives the same canonical sum: every
    quiet/growth decision, every total and every info dict is unchanged.

    The walks and the closing stability check take their letter steps
    from the ``graded_step`` table (``_graded_step``).  A hit is exact: a
    step is a function of its key (ring, caps, operator, multiplier,
    state), so every piece, its order and every ``ResourceCapError`` are
    those of a fresh scan.
    """
    e_cap = cm.ring.caps.chain_cap
    max_gen_e = max(op.e for op in cm.algebra.generators)
    twisted = cm.algebra.is_twisted()
    window = _twist_window(cm, _max_degree(seed_gens))
    quiet_needed = window if twisted else max_gen_e
    bound = cm.carrier_sub()

    def carrier_stop(total, grown):
        """The scan's result, if ``total`` fills the carrier at ``grown``."""
        stop = max(grown, e_min - 1) + quiet_needed
        if stop > e_cap or total != bound:
            return None
        if e_min > 0 and not bound.contains_sub(cm.canon(seed_gens)):
            return None
        return total, {"degrees": stop, "window": quiet_needed,
                       "certified": not twisted}

    total = cm.canon(seed_gens) if e_min == 0 else cm.canon([])
    done = carrier_stop(total, 0)
    if done:
        return done
    quiet = 0
    top = 0
    for e in range(1, e_cap + 1):
        top = e
        piece = graded_piece_gens(cm, e, seed_gens)
        if e < e_min:
            continue
        if all(total.contains(g) for g in piece):
            quiet += 1
        else:
            total = cm.canon(list(total.gens) + piece)
            quiet = 0
            done = carrier_stop(total, e)
            if done:
                return done
        if not twisted and quiet >= max_gen_e:
            stable = all(
                total.contains_sub(cm.canon(
                    _graded_step(cm, op, None, total.basis())))
                for op in cm.algebra.generators)
            if stable:
                return total, {"degrees": e, "window": max_gen_e,
                               "certified": True}
        if twisted and quiet >= window:
            return total, {"degrees": e, "window": window,
                           "certified": False}
    raise ResourceCapError(
        f"graded sum did not stabilize within {e_cap} degrees "
        f"(window {window}, reached degree {top})")


def apply_cplus(cm, sub):
    """The submodule C_+ N = sum_{e>=1} C_e^tw N for an algebra-stable N."""
    total, _info = graded_sum(cm, sub, e_min=1)
    return total


@memo_scope()
def underline(cm, start=None):
    """Stable core: iterate N <- C_+ N from the carrier until stationary.

    Returns (Submodule, exponent).  The chain descends because the start is
    algebra-stable; stabilization is certified by the first equal step.
    Chains are memoised in the ``underline`` table on the structure key and
    the start's basis; the carrier enters only as the default start.  A
    chain that is stationary at once returns the caller's own start.
    """
    current = cm.canon_sub(start if start is not None else cm.carrier_sub())
    core, k = memoised("underline", (cm.structure_key(), current.basis()),
                       _underline, cm, current)
    return (current if k == 0 else core), k


def _underline(cm, current):
    """The chain behind ``underline``.  The first step is bounded by the
    carrier of ``cm``, each later one by the member it starts from: that
    member is C_+ of a stable submodule, so it is stable, and the sum stops
    once it fills it (see ``graded_sum``)."""
    cap = cm.ring.caps.chain_cap
    bounded = cm
    for k in range(cap + 1):
        nxt = apply_cplus(bounded, current)
        if nxt == current:
            return current, k
        if not current.contains_sub(nxt):
            raise InvalidStructureError(
                "C_+ chain is not descending; carrier not stable?")
        current = nxt
        bounded = cm.with_carrier(current)
    raise ResourceCapError("stable-core chain exceeded iteration cap")


def is_f_pure(cm):
    core, k = underline(cm)
    return k == 0


def nilpotence(cm, sub, at=None):
    """Is the chain C_+^k(sub) eventually zero (globally or at a prime)?"""
    stable, _k = underline(cm, start=cm.canon_sub(sub))
    if at is None:
        return stable.is_trivial()
    return support_vanishes(stable, at.ideal if isinstance(at, PrimeIdeal)
                            else at, inverted=cm.inverted)


# ---------------------------------------------------------------------------
# associated primes in the operator-algebra sense


def _candidate_primes(cm, core):
    """Module-level associated-prime candidates for the stable core.

    Colon filtration along the generators plus annihilator minimal primes;
    monomial colon ideals contribute their full associated-prime lists.
    Raises UnsupportedShapeError when a colon ideal falls outside the
    restricted shapes.
    """
    module = cm.module
    gens = core.generators_reduced()
    acc = module.zero_submodule()
    colon_ideals = []
    for g in gens:
        colon_ideals.append(acc.colon_ideal(g))
        acc = cm.canon(list(acc.gens) + [g])
    colon_ideals.append(core.annihilator().saturation_elem(cm.inverted))
    out = []
    for J in colon_ideals:
        if J.is_unit():
            continue
        if not J.is_zero() and J.is_monomial():
            try:
                primes = monomial_associated_primes(J)
            except UnsupportedShapeError:
                primes = minimal_primes(J)
        else:
            primes = minimal_primes(J)
        for pr in primes:
            if pr not in out:
                out.append(pr)
    if cm.inverted is not None:
        out = [pr for pr in out if not pr.contains(cm.inverted)]
    out.sort(key=lambda pr: tuple(pr.ideal.serialize()))
    return out


@memo_scope()
def stable_torsion(cm, prime, within):
    """The stable core of the ``prime``-power torsion of ``within``,
    memoised in the ``stable_torsion`` table on the structure key, the
    prime and the basis of ``within``."""
    return memoised("stable_torsion",
                    (cm.structure_key(), prime, within.basis()),
                    _stable_torsion, cm, prime, within)


def _stable_torsion(cm, prime, within):
    tor = cm.canon_sub(torsion(cm.module, prime.ideal, within=within))
    return tor if tor.is_trivial() else underline(cm, start=tor)[0]


@memo_scope()
def ass_cartier(cm):
    """Primes eta whose eta-torsion stays non-nilpotent after localizing.

    Filters the module-level candidates of ``_candidate_primes``, in their
    sorted order, by the nilpotence test on the stabilized torsion
    submodule.  Memoised in the ``ass_cartier`` table on the structure key
    and the core's basis.
    """
    core, _ = underline(cm)
    if core.is_trivial():
        return []
    return list(memoised("ass_cartier", (cm.structure_key(), core.basis()),
                         _ass_cartier, cm, core))


def _ass_cartier(cm, core):
    out = []
    for pr in _candidate_primes(cm, core):
        stable = stable_torsion(cm, pr, core)
        if not (stable.is_trivial()
                or support_vanishes(stable, pr.ideal, inverted=cm.inverted)):
            out.append(pr)
    return tuple(out)


# ---------------------------------------------------------------------------
# equivariant maps and nil-isomorphisms


def check_equivariant(phi, source_cm, target_cm):
    """Verify phi commutes with the paired structural generators.

    Sufficient on free generators x basis monomials by the p-adic
    decomposition of coefficients.  Raises NotEquivariantError with a
    witness (generator index, source generator, basis monomial); the
    witness is the first failing monomial of the basis box.
    """
    sgens = source_cm.algebra.generators
    tgens = target_cm.algebra.generators
    if len(sgens) != len(tgens) or any(a.e != b.e for a, b in
                                       zip(sgens, tgens)):
        raise NotEquivariantError("algebra generator lists do not match")
    relsub = Submodule(phi.target, ())
    zero = VecPoly.zero(phi.target.ring, phi.target.rank)
    for k, (src_op, tgt_op) in enumerate(zip(sgens, tgens)):
        _basis_box(source_cm.ring, src_op.e)  # enforces the enumeration cap
        q = source_cm.ring.p ** src_op.e
        for j in range(phi.source.rank):
            lhs = dict(_residue_images(source_cm.ring, src_op,
                                       phi.source.generator(j)))
            rhs = dict(_residue_images(target_cm.ring, tgt_op,
                                       phi.columns[j]))
            # descending b is the box's ascending order in a = q-1-b
            for b in sorted(lhs.keys() | rhs.keys(), reverse=True):
                left = phi.apply(lhs[b]) if b in lhs else zero
                if not relsub.contains(left - rhs.get(b, zero)):
                    raise NotEquivariantError(
                        "map does not commute with the structure",
                        witness=(k, j, tuple(q - 1 - x for x in b)))
    return True


def nil_isomorphism(phi, source_cm, target_cm):
    """kernel and cokernel both nilpotent?  (equivariance is a precondition)"""
    check_equivariant(phi, source_cm, target_cm)
    ker = phi.kernel()
    if not nilpotence(source_cm, ker):
        return False
    coker = phi.cokernel()
    coker_cm = CartierModule(coker, target_cm.algebra,
                             inverted=target_cm.inverted)
    stable, _ = underline(coker_cm)
    return stable.is_trivial()


# ---------------------------------------------------------------------------
# constructing operators from an action recipe


def operator_from_action(module, e, action):
    """The unique matrix operator with trace_e(U * x^a e_j) = action(a, j).

    ``action(a, j)`` must return the intended image (a VecPoly in the free
    cover) of the basis element x^a e_j.  Column j of U is
    sum_a action(a,j)^[p^e] * x^(q-1-a), which inverts the trace exactly.
    """
    ring = module.ring
    q = ring.p ** e
    r = module.rank
    cols = []
    for j in range(r):
        acc = [ring.zero() for _ in range(r)]
        for a in _basis_box(ring, e):
            h = action(tuple(a), j)
            if h is None or h.is_zero():
                continue
            h = module.reduce(h)
            shift = tuple(q - 1 - ai for ai in a)
            for i in range(r):
                comp = h.component(i)
                if not comp.is_zero():
                    acc[i] = acc[i] + comp.frobenius(e).mul_monomial(shift)
        cols.append(acc)
    matrix = [[cols[j][i] for j in range(r)] for i in range(r)]
    return CartierOp(e, matrix)
