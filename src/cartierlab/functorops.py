"""Ring maps and the functor calculus on operator modules.

Supported map kinds: finite free extensions R -> R[z]/(g) with g monic in
the adjoined variable, localization at a single element, and adjoining an
affine-line variable (smooth charts are iterated affine lines; essentially
etale means localization here).  Modules over the extension live over the
polynomial ring R[z] with g annihilating them, so the whole presented-module
toolchain keeps working on both sides of every functor.

The twisted inverse image along a finite map is Hom_R(S, M) on the dual
basis with the action (kappa (x) s) phi = kappa o F^e(phi o mu_s) o F^e;
along the affine line it is M (x) R[x]dx, whose structural matrices are
literally unchanged because the trace of the extended ring splits off the
new variable's dualizing action.  Pushforward along finite maps is
restriction of scalars with base-generator actions only.

Every functor (``shriek_localize``, ``shriek_affine_line``,
``shriek_finite``, ``pushforward_finite``, and ``pullback``, which picks one
of the first three) returns a ``FunctorResult(cm, transport_submodule)``:
the module on the other side and the map carrying submodules of the given
module over to it.  Each functor states once how a submodule crosses it,
and ``_carried`` uses that rule both as the transport and to carry the
given module's carrier, so the image's carrier is the carrier's transport.
Along a finite map of degree k both sides of an r-generated module have
rank k*r, basis index l and component j at position l*r + j (the dual slot
G_(l,j), or the z^l coefficient over R); ``FiniteMapData`` alone spells
that slot layout out.

Localized pushforwards are made coherent by the gauge-bound construction:
conjugating the operators by c^(K(p^e - 1)) turns the fractions with
denominator exponent at most K into an honest module over R, whose stable
core is the model; a contraction certificate on deeper seeds witnesses the
local nil-isomorphism.
"""

from dataclasses import dataclass

from .cartiercore import (CartierAlgebraSpec, CartierModule, CartierOp,
                          apply_cplus, ass_cartier, operator_from_action,
                          underline, validate_structure)
from .errors import GaugeBoundError, UnsupportedShapeError
from .fppoly import Poly, gauge_of
from .fpmod import PresentedModule, Submodule
from .groebner import VecPoly, memo_scope, memoised
from .idealkit import Ideal, PrimeIdeal, _coeffs_in_var, minimal_primes


class RingMap:
    """One elementary map; compose at the scene level by chaining."""

    __slots__ = ("kind", "source", "target", "data")

    def __init__(self, kind, source, target, data):
        self.kind = kind
        self.source = source
        self.target = target
        self.data = data

    @staticmethod
    def finite(source, adjoin, relation):
        """R -> R[z]/(g) with g, given as text, monic (or unit-leading) in z."""
        target = source.extend(adjoin)
        g = target.parse(relation)
        zi = target.nvars - 1
        k = g.degree_in(zi)
        if k < 1:
            raise UnsupportedShapeError("relation must involve the new variable")
        lead = _coeffs_in_var(g, zi).get(k)
        if lead is None or not lead.is_constant():
            raise UnsupportedShapeError(
                "relation is not monic-convertible in the adjoined variable")
        c = next(iter(lead.terms.values()))
        if c != 1:
            g = g.scale(pow(c, target.p - 2, target.p))
        return RingMap("finite", source, target,
                       {"var": adjoin, "relation": g, "degree": k})

    @staticmethod
    def localize(source, at):
        """R -> R_c for c given as text."""
        at = source.parse(at)
        if at.is_zero():
            raise ValueError("cannot invert zero")
        return RingMap("localize", source, source, {"at": at})

    @staticmethod
    def affine_line(source, var):
        return RingMap("affine-line", source, source.extend(var), {"var": var})

    def serialize(self):
        if self.kind == "finite":
            return {"kind": "finite", "adjoin": self.data["var"],
                    "relation": str(self.data["relation"])}
        if self.kind == "localize":
            return {"kind": "localize", "at": str(self.data["at"])}
        return {"kind": "affine-line", "var": self.data["var"]}

    def __repr__(self):
        return f"<map {self.serialize()}>"


class FiniteMapData:
    """Precomputed basis data for R -> S = R[z]/(g), and the slot layout
    (basis index l, component j at position ``l*r + j``) of both functors."""

    def __init__(self, rmap):
        assert rmap.kind == "finite"
        self.rmap = rmap
        self.ring = rmap.target
        self.zi = self.ring.nvars - 1
        self.k = rmap.data["degree"]
        g = rmap.data["relation"]
        coeffs = _coeffs_in_var(g, self.zi)
        down = list(range(rmap.source.nvars)) + [0]  # z never occurs below
        # z^k = -(g - z^k) = sum_u reduction[u] z^u
        self.reduction = []
        for u in range(self.k):
            cu = coeffs.get(u)
            cu = -cu if cu is not None else self.ring.zero()
            self.reduction.append(cu.map_ring(rmap.source, down))
        self._zpow_cache = {0: self._unit_row(0)}

    def _unit_row(self, u):
        row = [self.rmap.source.zero()] * self.k
        if u < self.k:
            row[u] = self.rmap.source.one()
        return row

    def zpow(self, n):
        """Coefficients over the basis 1..z^(k-1) of z^n mod g."""
        if n in self._zpow_cache:
            return self._zpow_cache[n]
        top = max(self._zpow_cache)
        row = self._zpow_cache[top]
        source = self.rmap.source
        for m in range(top + 1, n + 1):
            shifted = [source.zero()] + list(row[:-1]) if self.k > 1 else \
                [source.zero()]
            overflow = row[self.k - 1]
            if not overflow.is_zero():
                shifted = [s + overflow * r
                           for s, r in zip(shifted, self.reduction)]
            row = shifted
            self._zpow_cache[m] = row
        return self._zpow_cache[n]

    def reduce_scalar(self, f):
        """Write f in R[z] as sum_u h_u z^u with h_u in R, reducing mod g."""
        out = [self.rmap.source.zero()] * self.k
        for m, c in f.terms.items():
            e = m[self.zi]
            base = tuple(x for i, x in enumerate(m) if i != self.zi)
            mono = Poly(self.rmap.source, {base: c})
            for u, coeff in enumerate(self.zpow(e)):
                if not coeff.is_zero():
                    out[u] = out[u] + mono * coeff
        return out

    def monomial(self, a, l):
        """The S-exponent of x^a z^l for an R-exponent a."""
        return tuple(a) + (l,)

    def zmono(self, l):
        """The S-exponent of z^l."""
        return (0,) * self.zi + (l,)

    def slot(self, index, r):
        """(l, j) for position ``index`` = l*r + j of a rank k*r vector."""
        return divmod(index, r)

    def _lay_out(self, ring, r, terms):
        """The rank k*r vector over ring from (l, j, monomial, coeff)."""
        out = {}
        for l, j, m, c in terms:
            key = (l * r + j, m)
            out[key] = (out.get(key, 0) + c) % ring.p
        return VecPoly(ring, self.k * r, {kk: c for kk, c in out.items() if c})

    def to_slots(self, r, parts):
        """The S-vector with each R-vector of the (l, vec) pairs in dual
        slot l; R-monomials get a zero z exponent."""
        return self._lay_out(self.ring, r, (
            (l, j, self.monomial(m, 0), c)
            for l, vec in parts for (j, m), c in vec.terms.items()))

    def restrict(self, vec):
        """An S-vector in R-coordinates: the z^l coefficient of component j
        (reduced mod g) at position l*r + j."""
        return self._lay_out(self.rmap.source, vec.rank, (
            (l, j, m, c)
            for j in range(vec.rank)
            for l, h in enumerate(self.reduce_scalar(vec.component(j)))
            for m, c in h.terms.items()))


# ---------------------------------------------------------------------------
# twisted inverse images


@dataclass(frozen=True)
class FunctorResult:
    """A functor's image of a module, with the transport of submodules of
    the given module into it (every functor returns one)."""

    cm: CartierModule
    transport_submodule: object  # Submodule -> Submodule


def _carried(cm, up, lift):
    """The FunctorResult of ``up``, the image of ``cm`` without a carrier.

    ``lift`` is the functor's one rule for a submodule W of ``cm``: it
    returns generators of W's image over ``up``.  It is the transport, and
    the image's carrier is the transport of ``cm``'s carrier.
    """
    def transport(sub):
        return up.canon(lift(sub))

    if cm.carrier is None:
        return FunctorResult(up, transport)
    return FunctorResult(up.with_carrier(transport(cm.carrier)), transport)


def shriek_localize(cm, c):
    """Module over R_c for a Poly c: same data, saturated canonical forms."""
    if c.is_zero():
        raise ValueError("cannot invert zero")
    return _carried(cm, cm.with_carrier(None).localize(c),
                    lambda sub: sub.gens)


def shriek_affine_line(cm, var):
    """M (x) R[x]dx: the structural matrices are unchanged over R[x].

    The trace of the extended ring factors as the old trace times the
    dualizing action on the new variable, which is exactly the stated
    formula (terms with non-integral (i+1)/p^e vanish).  A submodule goes
    to the span of its generators read over R[x].
    """
    new_ring = cm.ring.extend(var)
    rels = [_vec_map_ring(r, new_ring) for r in cm.module.relations]
    module = PresentedModule(new_ring, cm.module.rank, rels)
    gens = [CartierOp(op.e, [[u.map_ring(new_ring) for u in row]
                             for row in op.matrix])
            for op in cm.algebra.generators]
    algebra = CartierAlgebraSpec(gens, _mapped_twists(cm.algebra, new_ring))
    inv = cm.inverted.map_ring(new_ring) if cm.inverted is not None else None
    up = validate_structure(module, algebra, inverted=inv)
    return _carried(cm, up, lambda sub: [_vec_map_ring(v, new_ring)
                                         for v in sub.basis()])


def _vec_map_ring(vec, new_ring):
    """``vec`` read over a ring that extends its own."""
    return VecPoly.from_columns(new_ring, [c.map_ring(new_ring)
                                           for c in vec.columns()])


def _mapped_twists(algebra, new_ring):
    """The twists of ``algebra`` read over ``new_ring`` (None if untwisted)."""
    return [(Ideal(new_ring, [g.map_ring(new_ring) for g in ideal.gens]), t)
            for ideal, t in algebra.twists] or None


def shriek_finite(cm, rmap):
    """Hom_R(S, M) over S with the trace-through-multiplication action.

    A submodule W of M goes to Hom(S, W): its generators in every dual slot.
    Hom commutes with inverting a base element, so a localized module is
    handled unlocalized and the image of c is inverted upstairs.
    """
    if rmap.kind != "finite":
        raise UnsupportedShapeError("shriek_finite needs a finite map")
    data = FiniteMapData(rmap)
    ring = data.ring
    source = rmap.source
    r = cm.module.rank
    k = data.k

    # presentation: per-slot copies of M's relations, plus z acting through
    # the multiplication table (z phi)(b_l) = phi(z b_l)
    rels = [data.to_slots(r, [(l, rel)])
            for rel in cm.module.relations for l in range(k)]
    for l in range(k):
        for j in range(r):
            # dual basis: z G_(l,j) = sum_u [z b_u]_l G_(u,j)
            ej = cm.module.generator(j)
            z_g = data.to_slots(r, [(l, ej)]).mul_term(data.zmono(1), 1)
            rels.append(z_g - data.to_slots(
                r, [(u, ej.mul_poly(data.zpow(u + 1)[l])) for u in range(k)]))
    module = PresentedModule(ring, r * k, rels)

    ops = []
    for op in cm.algebra.generators:
        q = source.p ** op.e

        def action(a, jj, op=op, q=q):
            l, j = data.slot(jj, r)
            az = a[-1]
            ax = a[:-1]
            parts = []
            for u in range(k):
                h = data.zpow(az + u * q)[l]
                if h.is_zero():
                    continue
                src_vec = VecPoly(source, r, {(j, ax): 1}).mul_poly(h)
                parts.append((u, cm.module.reduce(op.apply_vec(src_vec))))
            return data.to_slots(r, parts)

        ops.append(operator_from_action(module, op.e, action))
    up = validate_structure(module, CartierAlgebraSpec(
        ops, _mapped_twists(cm.algebra, ring)))
    if cm.inverted is not None:
        up = up.localize(cm.inverted.map_ring(ring))
    return _carried(cm, up, lambda sub: [data.to_slots(r, [(l, w)])
                                         for l in range(k)
                                         for w in sub.basis()])


def pullback(cm, rmap):
    """f^! M along one elementary map, with the transport of submodules."""
    if rmap.kind == "finite":
        return shriek_finite(cm, rmap)
    if rmap.kind == "localize":
        return shriek_localize(cm, rmap.data["at"])
    if rmap.kind == "affine-line":
        return shriek_affine_line(cm, rmap.data["var"])
    raise UnsupportedShapeError(f"cannot pull back along {rmap.kind}")


# ---------------------------------------------------------------------------
# pushforwards


def pushforward_finite(cm, rmap):
    """Restriction of scalars along a finite map, base generators acting.

    The module must be an honest S-module: the relation submodule has to
    absorb g times every generator (checked).  A submodule goes to the same
    subset over R, where only R-combinations remain, so each generator
    contributes its z^l multiples (l below the basis degree) explicitly.
    """
    if rmap.kind != "finite":
        raise UnsupportedShapeError("pushforward_finite needs a finite map")
    data = FiniteMapData(rmap)
    source = rmap.source
    ring = data.ring
    if cm.ring != ring:
        raise UnsupportedShapeError("module does not live over the extension")
    g = rmap.data["relation"]
    relsub = Submodule(cm.module, ())
    for i in range(cm.module.rank):
        if not relsub.contains(cm.module.generator(i).mul_poly(g)):
            raise UnsupportedShapeError(
                "relation element does not annihilate the module; "
                "not a module over the extension ring")
    r = cm.module.rank
    k = data.k

    def restricted(vecs):
        return [data.restrict(v.mul_term(data.zmono(l), 1))
                for v in vecs for l in range(k)]

    module = PresentedModule(source, r * k, restricted(cm.module.relations))

    if cm.algebra.is_twisted():
        raise UnsupportedShapeError(
            "push the module forward before twisting: twists over the "
            "extension do not contract along the map")
    ops = []
    for op in cm.algebra.generators:
        def action(a, jj, op=op):
            l, j = data.slot(jj, r)
            vec = VecPoly(ring, r, {(j, data.monomial(a, l)): 1})
            return data.restrict(cm.module.reduce(op.apply_vec(vec)))

        ops.append(operator_from_action(module, op.e, action))
    return _carried(cm, validate_structure(module, CartierAlgebraSpec(ops)),
                    lambda sub: restricted(sub.basis()))


def contract_prime(rmap, prime):
    """nu cap R for a prime nu of S containing (g): annihilator of the
    pushforward of S/nu."""
    ring = rmap.target
    quot = PresentedModule.quotient_ring(ring, prime.ideal)
    trivial = CartierAlgebraSpec([CartierOp(1, [[ring.zero()]])])
    cmq = CartierModule(quot, trivial)
    pushed = pushforward_finite(cmq, rmap)
    ann = pushed.cm.module.full_submodule().annihilator()
    return PrimeIdeal(ann)


def fiber_primes(rmap, prime):
    """Primes of S over a prime of R (restricted shapes)."""
    ring = rmap.target
    gens = [g.map_ring(ring) for g in prime.ideal.gens]
    gens.append(rmap.data["relation"])
    return minimal_primes(Ideal(ring, gens))


# ---------------------------------------------------------------------------
# coherent models for localized pushforwards


def generator_gauge_bound(op):
    """K with gauge(op(m)) <= gauge(m)/p^e + K, from the matrix gauges."""
    q = op.ring().p ** op.e
    du = 0
    for row in op.matrix:
        for u in row:
            gu = gauge_of(u)
            if gu.is_finite:
                du = max(du, gu.value)
    return -(-(du + q) // (q - 1)) if q > 1 else du + 1


def gauge_growth_probe(ops):
    """Detector for gauge-unbounded generator families.

    Takes operators sampled from a family (increasing degree) and reports
    the per-operator bounds; strictly increasing bounds across the probes
    flag the family as not gauge-bounded.
    """
    bounds = [generator_gauge_bound(op) for op in ops]
    growing = (len(bounds) >= 2 and bounds[-1] > bounds[0]
               and all(b >= a for a, b in zip(bounds, bounds[1:])))
    return {"bounds": bounds, "flagged": growing}


class CoherentModelResult:
    """Model N = c^(-K) W for W the stable core of the conjugated module."""

    def __init__(self, cm_model, K, shift, witness):
        self.cm = cm_model
        self.K = K
        self.shift = shift  # c^K
        self.witness = witness

    def core(self):
        return self.cm.carrier_sub()

    def serialize(self):
        return {"K": self.K,
                "shift": str(self.shift),
                "core": self.core().serialize(),
                "witness": self.witness}


def coherent_model(cm, K=None):
    """Coherent submodule of j_* M_c with a local nil-isomorphism witness.

    Operators must be denominator-free (the kappa (x) 1 form); K defaults to
    the uniform contraction bound of the generators.  The witness checks
    that chains started one and two gauge levels deeper re-enter the model.
    Their seeds are c^(-(K+d)) * W for the carrier W (the whole module when
    no carrier is set): the model is a coherent model of W_c, and a chain
    seeded outside W may settle in a stable part of the module that W_c
    does not reach, so it need not re-enter the model even when the model
    is right.
    """
    c = cm.inverted
    if c is None:
        return CoherentModelResult(cm, 0, cm.ring.one(),
                                   {"note": "nothing inverted"})
    if cm.algebra.is_twisted():
        raise UnsupportedShapeError(
            "coherent models are implemented for untwisted algebras")
    bounds = [generator_gauge_bound(op) for op in cm.algebra.generators]
    if K is None:
        K = max(bounds)
    elif K < max(bounds):
        raise GaugeBoundError(f"cut-off {K} below the contraction bound "
                              f"{max(bounds)}")
    def conjugated(level):
        ops = []
        for op in cm.algebra.generators:
            mult = c ** (level * (cm.ring.p ** op.e - 1))
            ops.append(op.premultiplied(mult))
        return CartierModule(cm.module, CartierAlgebraSpec(ops))

    plain = conjugated(K)
    if cm.carrier is not None:
        # the bounded-gauge part of the carrier spans, in conjugated
        # coordinates, exactly the plain span of its saturated generators
        start = plain.canon(cm.carrier.gens)
        core, steps = underline(plain, start=start)
    else:
        core, steps = underline(plain)
    model = plain.with_carrier(core)
    # contraction witness: a seed c^(-(K+d)) m, m in the carrier, chains
    # back into the model.
    # In the (K+d)-conjugated coordinates the model core is c^d * core.
    witness = {"underline_steps": steps, "re_entry": []}
    for depth in (1, 2):
        deeper = conjugated(K + depth)
        target = Submodule(cm.module,
                           core.scale_poly(c ** depth).gens)
        chain = deeper.canon(cm.carrier_sub().gens)
        entered = None
        for it in range(cm.ring.caps.chain_cap):
            chain = apply_cplus(deeper, chain)
            if deeper.canon(target.gens).contains_sub(chain):
                entered = it + 1
                break
        witness["re_entry"].append({"depth": depth, "steps": entered})
        if entered is None:
            raise GaugeBoundError(
                "chain from a deeper seed never re-entered the model")
    return CoherentModelResult(model, K, c ** K, witness)


def coherent_models_agree(res1, res2):
    """Equality of the two models inside the localized module."""
    if res1.K > res2.K:
        res1, res2 = res2, res1
    shift = res2.shift.try_divide(res1.shift)
    scaled = res1.core().scale_poly(shift)
    return Submodule(res2.cm.module, scaled.gens) == res2.core()


# ---------------------------------------------------------------------------
# pushforward to the base point (F_p-linear spans)


class PointSpan:
    """Finite-dimensional F_p-subspace of a presented module, in reduced
    echelon form: monic rows sorted by ``VecPoly.key`` of their leads, no
    row holding another row's lead term.  The form is unique, so two spans
    are equal exactly when their rows are."""

    def __init__(self, module, vectors):
        self.module = module
        self._pivots = {}
        for v in vectors:
            v = self._reduce(module.reduce(v))
            if v.is_zero():
                continue
            v = v.monic()
            lt = v.lead()[0]
            for pivot, row in list(self._pivots.items()):
                c = row.terms.get(lt)
                if c:
                    self._pivots[pivot] = row - v.scale(c)
            self._pivots[lt] = v
        self.rows = [self._pivots[lt]
                     for lt in sorted(self._pivots, key=VecPoly.key)]

    def _reduce(self, v):
        """``v`` less its multiples of the rows.  One pass is enough: a row
        holds no other row's pivot, so clearing one pivot restores none."""
        for pivot, row in self._pivots.items():
            c = v.terms.get(pivot)
            if c:
                v = v - row.scale(c)
        return v

    def dim(self):
        return len(self.rows)

    def contains(self, vec):
        return self._reduce(self.module.reduce(vec)).is_zero()

    def __eq__(self, other):
        return (self.module == other.module
                and [r.sorted_terms() for r in self.rows]
                == [r.sorted_terms() for r in other.rows])


def pushforward_point(cm):
    """Coherent model of the pushforward to Spec F_p, as an F_p-space.

    Returns (model span, stable core span): the base acts through F_p, so
    chains use plain operator images with no monomial premultiples.  Seeds
    are cut off at the gauge bound of the generators.  A descending core
    chain that outlasts ``chain_cap`` raises ResourceCapError.  The chains
    apply the generators only, so a twisted algebra is refused.
    """
    if cm.algebra.is_twisted():
        raise UnsupportedShapeError(
            "point pushforwards are implemented for untwisted algebras")
    ring = cm.ring
    K = max(generator_gauge_bound(op) for op in cm.algebra.generators)
    module = cm.module
    seeds = []
    from itertools import product as iproduct

    for exps in iproduct(*[range(K + 1) for _ in range(ring.nvars)]):
        if max(exps, default=0) <= K:
            for i in range(module.rank):
                seeds.append(module.generator(i).mul_term(tuple(exps), 1))
    carrier = cm.carrier_sub()
    seeds = [module.reduce(s) for s in seeds
             if carrier.contains(s)]
    span = PointSpan(module, seeds)
    # close under the operators (F_p-linearly)
    for _ in range(ring.caps.chain_cap):
        new = []
        for op in cm.algebra.generators:
            for row in span.rows:
                img = module.reduce(op.apply_vec(row))
                if not img.is_zero() and not span.contains(img):
                    new.append(img)
        if not new:
            break
        span = PointSpan(module, span.rows + new)
    else:
        raise GaugeBoundError("point model closure did not stabilize; "
                              "family is not gauge bounded here")

    def descend(current):
        return PointSpan(module, [module.reduce(op.apply_vec(row))
                                  for op in cm.algebra.generators
                                  for row in current.rows])

    return span, ring.caps.stabilize(
        descend, span, "point core chain did not stabilize")


# ---------------------------------------------------------------------------
# the commutation test suite


@memo_scope()
def commutation_suite(cm, rmap):
    """Evaluate both sides of every statement applicable to the map kind.

    Returns a report dict of named booleans; equality claims are exact
    submodule comparisons, inclusion claims are containment checks, and
    associated primes are transported in the direction the map allows.  A
    statement that does not apply is None: the shriek half on a module given
    upstairs, and the pushforward half on a twisted module pulled back.

    Reports are memoised in the ``commutation_suite`` table on the module's
    structure key, its carrier's basis, the map (its serialized kind and
    data, source and target ring), so a scene's ``pushforward`` task reads
    back the report its ``pullback`` twin built; no argument bypasses the
    table.  Each call gets its own copy of the report dict.
    """
    key = (cm.structure_key(), cm.carrier_sub().basis(),
           tuple(rmap.serialize().items()), rmap.source, rmap.target)
    return dict(memoised("commutation_suite", key, _commutation_suite, cm,
                         rmap))


def _commutation_suite(cm, rmap):
    from .testmod import tau

    report = {"kind": rmap.kind}
    if rmap.kind in ("affine-line", "localize"):
        pb = pullback(cm, rmap)
        lift = pb.transport_submodule
        report["tau_commutes"] = (tau(pb.cm).submodule
                                  == lift(tau(cm).submodule))
        down = ass_cartier(cm)
        if rmap.kind == "localize":
            down = [p for p in down if not p.contains(rmap.data["at"])]
        report["ass_transport"] = (
            sorted(tuple(p.ideal.serialize()) for p in ass_cartier(pb.cm))
            == sorted(tuple(p.ideal.serialize()) for p in down))
        full = cm.carrier_sub()
        report["cplus_commutes"] = (apply_cplus(pb.cm, lift(full))
                                    == lift(apply_cplus(cm, full)))
        report["ok"] = all((report["tau_commutes"], report["ass_transport"],
                            report["cplus_commutes"]))
        return report
    if rmap.kind == "finite":
        upstairs_is_given = cm.ring == rmap.target
        if upstairs_is_given:
            upstairs = cm
            report["tau_included"] = None
            report["tau_equal"] = None
            report["shriek_ass_transport"] = None
        else:
            F = shriek_finite(cm, rmap)
            upstairs = F.cm
            tau_up = tau(F.cm).submodule
            lifted = F.transport_submodule(tau(cm).submodule)
            report["tau_included"] = lifted.contains_sub(tau_up)
            report["tau_equal"] = lifted == tau_up
            fibers = set()
            for pr in ass_cartier(cm):
                fibers |= {tuple(q.ideal.serialize())
                           for q in fiber_primes(rmap, pr)}
            report["shriek_ass_transport"] = {
                tuple(p.ideal.serialize())
                for p in ass_cartier(F.cm)} == fibers
        if upstairs.algebra.is_twisted() and not upstairs_is_given:
            # pushforward_finite refuses twisted algebras; the shriek half
            # above is what applies.  Given upstairs, nothing else would,
            # so the refusal stands.
            report["pushforward_tau_commutes"] = None
            report["pushforward_ass_transport"] = None
        else:
            P = pushforward_finite(upstairs, rmap)
            tau_up = tau(upstairs).submodule
            report["pushforward_tau_commutes"] = (
                P.transport_submodule(tau_up) == tau(P.cm).submodule)
            images = {tuple(contract_prime(rmap, p).ideal.serialize())
                      for p in ass_cartier(upstairs)}
            report["pushforward_ass_transport"] = {
                tuple(p.ideal.serialize())
                for p in ass_cartier(P.cm)} == images
        checks = [v for k, v in report.items()
                  if k not in ("kind", "tau_equal") and v is not None]
        report["ok"] = all(checks)
        return report
    raise UnsupportedShapeError(f"no suite for map kind {rmap.kind!r}")


@memo_scope()
def quasi_finite_check(cm_upstairs, invert, rmap):
    """tau o f_* inside f_* o tau for f = (finite g) o (open immersion j).

    ``cm_upstairs`` lives over the extension ring; ``invert`` is the element
    defining the open locus.  Both sides are computed through coherent
    models (which share one cut-off, since it only depends on the algebra)
    and the one finite pushforward; the inclusion may be strict.
    """
    from .testmod import tau

    loc = cm_upstairs.localize(invert) if cm_upstairs.inverted is None \
        else cm_upstairs
    model = coherent_model(loc)
    tau_up = tau(loc).submodule
    model_tau = coherent_model(loc.with_carrier(tau_up))
    assert model.K == model_tau.K  # cut-off depends only on the algebra
    pushed = pushforward_finite(model.cm, rmap)
    tau_fstar = tau(pushed.cm).submodule
    fstar_tau = pushed.transport_submodule(model_tau.core())
    included = fstar_tau.contains_sub(tau_fstar)
    return {"included": included,
            "strict": included and fstar_tau != tau_fstar,
            "K": model.K}


def _reinstantiate_map(rmap, ring):
    """Rebuild a map description over the ring a composite has reached."""
    desc = rmap.serialize()
    if desc["kind"] == "finite":
        return RingMap.finite(ring, desc["adjoin"], desc["relation"])
    if desc["kind"] == "localize":
        return RingMap.localize(ring, desc["at"])
    return RingMap.affine_line(ring, desc["var"])


@memo_scope()
def composite_pullback_report(cm, rmaps):
    """Chase tau up a left-to-right composite of pullbacks.

    Affine-line and localization stages preserve equality; a finite stage
    weakens the claim to inclusion.  Returns the final comparison between
    tau upstairs and the transported tau from the bottom, with the claim
    that the composite promises.
    """
    from .testmod import tau

    current = cm
    transported = tau(cm).submodule
    claim = "equal"
    for step in rmaps:
        pb = pullback(current, _reinstantiate_map(step, current.ring))
        transported = pb.transport_submodule(transported)
        current = pb.cm
        if step.kind == "finite":
            claim = "included"
    tau_top = tau(current).submodule
    included = transported.contains_sub(tau_top)
    equal = transported == tau_top
    ok = equal if claim == "equal" else included
    return {"kind": "composite",
            "stages": [m.kind for m in rmaps],
            "claim": claim,
            "tau_included": included,
            "tau_equal": equal,
            "ok": ok}
