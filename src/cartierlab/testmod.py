"""Test modules: distinguished-submodule computation with certificates.

The engine follows the generator-and-trace formula: for each associated
prime eta pick a verified element c (c not in eta, and the localized stable
torsion piece is regular in the operator sense), then close c times that
piece under the algebra and sum over the primes.  Everything the formula
needs (stable cores, torsion pieces, localized checks) runs in place on
saturated submodules, so no re-presentation is required for localization.

Regularity is decided by shrinking: repeated one-element closures can only
produce qualifying submodules, so finding a strictly smaller one is a sound
"not regular" witness; a module that no candidate of the pool shrinks is
reported as regular with the candidate list recorded in the certificate
(the pool is heuristic, the spec's acknowledged trade-off, and every final
result is post-verified against the defining conditions).  ``is_f_regular``
walks on to the fixed point and reports it as the proper submodule; the
check of a test element reads only the verdict, so it stops at the first
descent and formats no candidate list (``find_test_elements`` fills the
list in for the entries it reports).  The search walks a stream of the
pool and builds it only as far as it reads: it tries ``1`` first, and in
the shape below that check reads no candidate at all.  The finished pool
is a memo value; no half-read stream is kept.

Write cl(X) for the sum of C_e(X) over e >= 0, which is what
``graded_sum`` computes.  Every phi in C_e, twisted or localized, has
r*phi(x) = phi(r^(p^e)*x) (the projection formula of Blickle, J. Algebraic
Geom. 2013).  A computed sum that returns a stable T proves cl(cT) = T even
if it stopped on its window, because it is a partial sum of cl(cT) <= T.

For one shape a single closure proves regularity: a rank-1 free module
(possibly localized) whose algebra has the one generator ``Tr`` =
``CartierOp(1, [[1]])`` and only principal twists f_i^t_i.  Take d =
prod f_i^ceil(t_i).  By the projection formula tau(f^m) = f^m tau(R) = (f^m)
for an integer m (Blickle-Mustata-Smith, Michigan Math. J. 2008), tau
shrinks as the exponents grow, and tau(R) = R for the full trace, so d lies
in the test ideal tau(prod f_i^t_i).  That ideal is the smallest nonzero
compatible ideal (Schwede, Trans. AMS 2011), and the test module of a
nonzero stable T in this domain is tau(T) = tau(R) (the smallest stable
submodule agreeing with T at its associated primes, Blickle-Staebler,
arXiv:1605.09517).  So d*T lies in the stable tau(T), cl(dT) <= tau(T) <= T,
and cl(dT) = T proves T regular.  Every candidate c that avoids the
associated primes then has tau(T) <= cl(cT) <= T = tau(T), so the full pool
would reach the same fixed point and record the same candidates.

``tau_bms`` is the fast path for principal twists on the rank-1 free module:
the stable member of the ascending Frobenius-root chain of f^ceil(t*p^e).
It stops at a proven fixed point of the chain's period step, so each EXACT
value of a jumping-number sweep rests on a certified stop.  The chain runs
on the state pairs of the Frobenius-root automaton.
"""

from dataclasses import dataclass, field
from fractions import Fraction
import math
import random

from .cartiercore import (ass_cartier, ceil_pattern_period, graded_sum,
                          stable_torsion, underline)
from .errors import (CartierLabError, NoStabilizationError,
                     SearchBudgetError, UnsupportedShapeError)
from .fpmod import Submodule, torsion, unit_at
from .groebner import memo_scope, memoised
from .idealkit import (PrimeIdeal, irreducible_factors_best_effort,
                       minimal_primes, root_automaton)


@dataclass
class TestElementEntry:
    prime: PrimeIdeal
    element: object  # Poly
    certificate: dict

    def serialize(self):
        return {"prime": self.prime.serialize(),
                "element": str(self.element),
                "certificate": self.certificate}


@dataclass
class TestElementSequence:
    entries: list

    def element_for(self, prime):
        for entry in self.entries:
            if entry.prime == prime:
                return entry
        return None

    def serialize(self):
        return [e.serialize() for e in self.entries]


@dataclass
class TauResult:
    submodule: Submodule
    certificate: dict = field(default_factory=dict)

    def serialize(self):
        return {"submodule": self.submodule.serialize(),
                "certificate": self.certificate}


# ---------------------------------------------------------------------------
# candidate element streams


def _factor_pool(cm):
    """The irreducible factors of the relations' components, the operator
    entries, the twist generators and the carrier's annihilator, each once,
    in that order."""
    pool = []

    def add(f):
        if f.is_zero() or f.is_constant():
            return
        for g in irreducible_factors_best_effort(f):
            if not g.is_constant() and g not in pool:
                pool.append(g)

    for rel in cm.module.relations:
        for comp in rel.columns():
            add(comp)
    for op in cm.algebra.generators:
        for row in op.matrix:
            for u in row:
                add(u)
    for ideal, _t in cm.algebra.twists:
        for g in ideal.gens:
            add(g)
    try:
        ann = cm.carrier_sub().annihilator()
        for g in ann.groebner():
            add(g)
    except CartierLabError:
        pass
    return pool


def candidate_elements(cm):
    """The whole candidate pool, in order: ``1``, the variables, the
    irreducible factors of ``_factor_pool``, the pairwise products of the
    variables and those factors, then 12 random linear forms drawn from one
    fixed seed.  Memoised by ``_candidate_pool``; the test-element search
    reads the same order from a ``_candidate_elements`` stream of its own."""
    return list(_candidate_pool(cm)[0])


def _candidate_pool(cm):
    """(candidates, factors): the whole pool of ``candidate_elements`` and
    a dict sending each product a*b the pool emits to its factors (a, b).
    Memoised in the ``candidate_pool`` table on the structure key and the
    carrier's basis, once the stream has ended."""
    return memoised("candidate_pool",
                    (cm.structure_key(), cm.carrier_sub().basis()),
                    _finished_pool, cm)


def _finished_pool(cm):
    candidates, factors = [], {}
    for f, pair in _candidate_elements(cm):
        candidates.append(f)
        if pair is not None:
            factors[f] = pair
    return tuple(candidates), factors


def _candidate_elements(cm):
    """Yield the pool of ``candidate_elements`` in order, each candidate
    with its factors (a, b) when it is a pool product, else None.  The
    factor pool is read only after ``1`` and the variables, so a reader
    that stops at one of those factors nothing."""
    ring = cm.ring
    seen = set()

    def new(f):
        if f.is_zero() or f in seen:
            return False
        seen.add(f)
        return True

    variables = ring.gens()
    for f in [ring.one()] + variables:
        if new(f):
            yield f, None
    pool = _factor_pool(cm)
    for f in pool:
        if new(f):
            yield f, None
    base = variables + pool
    for i, a in enumerate(base):
        for b in base[i:]:
            f = a * b
            if new(f):
                yield f, (a, b)
    rng = random.Random(0x7E57E1)
    for _ in range(12):
        coeffs = [rng.randrange(ring.p) for _ in range(ring.nvars + 1)]
        f = ring.const(coeffs[-1])
        for c, v in zip(coeffs, variables):
            f = f + v.scale(c)
        if not f.is_constant() and new(f):
            yield f, None


def _avoiders(cm, ass_primes):
    """The pool's candidates outside every associated prime, in pool
    order."""
    cands = [c for c in _candidate_pool(cm)[0]
             if not any(pr.contains(c) for pr in ass_primes)]
    if not cands:
        raise SearchBudgetError(
            "no avoider found for the associated primes; supply a witness")
    return cands


def _candidate_names(cm, ass_primes):
    """The avoiders as text, the candidate list of a certificate."""
    return [str(c) for c in _avoiders(cm, ass_primes)]


# ---------------------------------------------------------------------------
# regularity in the operator sense


def _principal_test_element(cm):
    """d = prod f_i^ceil(t_i) when ``cm`` has the shape of the one-closure
    proof in the module docstring (a trace line, principal twists only);
    None otherwise."""
    twists = cm.algebra.twists
    if (not cm.is_trace_line()
            or any(len(ideal.gens) != 1 for ideal, _t in twists)):
        return None
    d = cm.ring.one()
    for ideal, t in twists:
        d = d * ideal.gens[0] ** math.ceil(t)
    return d


def _shrink_fixed_point(cm, ass_primes, *, first_descent=False):
    """Iterated one-element shrinking of the algebra-stable carrier.

    Each step replaces T by closure(c*T) for a candidate c avoiding every
    associated prime; such steps preserve the defining localization
    conditions, so any strict descent certifies a proper qualifying
    submodule.  Returns (fixed point, tried candidates), the second the
    pool's avoiders as text.  ``first_descent`` marks a caller that reads
    only the verdict: the walk returns at its first strict descent instead,
    since that submodule already proves the carrier is not regular, and
    the candidate list is None.

    In the rank-1 principal shape one closure of d*T comes first, with d
    from ``_principal_test_element``, before the pool is read; when it
    returns T, T is regular and the pool would find no descent (the
    argument in the module docstring), so a verdict-only caller builds no
    pool at all.

    Otherwise the loop walks the candidates cyclically, in pool order, and
    stops once every candidate has fixed the current T since the last
    shrink; the candidate that shrank T counts only after it is re-tested.
    This is the order of repeated full passes, stopped as soon as a pass
    could change nothing more, so the fixed point is the same, and no
    candidate is closed twice on one T.  A closure known to return T is not
    computed either:

    * c = 1: T is stable, so cl(T) = T;
    * an untwisted algebra and c = a*b a pool product whose factors both
      fixed T.  By the projection formula a*C_e(N) = C_e(a^(p^e)*N), so
      a*cl(bT) lies in cl(abT), and cl(abT) = cl(a*cl(bT)) = cl(aT) = T.
      Untwisted sums are certified fixed points, so a computed closure is
      the exact cl; a twisted sum may stop on its window, and is computed.
    """
    carrier = cm.carrier_sub()
    d = _principal_test_element(cm)
    if d is not None:
        seeded = cm.canon(list(carrier.scale_poly(d).gens))
        if graded_sum(cm, seeded)[0] == carrier:
            return carrier, (None if first_descent
                             else _candidate_names(cm, ass_primes))
    cands = _avoiders(cm, ass_primes)
    tried = None if first_descent else [str(c) for c in cands]
    factors = _candidate_pool(cm)[1]
    untwisted = not cm.algebra.is_twisted()
    current = carrier
    fixing = set()  # candidates whose closure returned ``current``
    k = 0
    while len(fixing) < len(cands):
        c = cands[k % len(cands)]
        k += 1
        skip = c.is_one() or (untwisted and c in factors
                              and fixing.issuperset(factors[c]))
        if not skip:
            seeded = current.scale_poly(c)
            shrunk, _info = graded_sum(cm, cm.canon(list(seeded.gens)))
            if shrunk != current:
                if not current.contains_sub(shrunk):
                    raise AssertionError(
                        "closure of a multiple left the module (internal)")
                if first_descent:
                    return shrunk, tried
                current = shrunk
                fixing = set()
                continue
        fixing.add(c)
    return current, tried


@memo_scope()
def is_f_regular(cm, *, first_descent=False):
    """Decide whether the carrier equals its own test module.

    Returns (bool, certificate).  False answers carry a proper qualifying
    submodule and are sound.  It is the full fixed point of the shrink
    walk, or with ``first_descent`` (set only by the test-element check,
    which reads the verdict) the walk's first descent, which already
    refutes regularity.  True answers record the candidate pool that
    failed to shrink the module (heuristic completeness, flagged), except
    in the rank-1 principal shape: a rank-1 free module, possibly
    localized, with the one generator ``Tr`` and principal twists
    f_i^t_i.  There d = prod f_i^ceil(t_i) lies in tau (tau(f^m) = (f^m),
    Blickle-Mustata-Smith 2008; tau is the smallest nonzero compatible
    ideal, Schwede 2011), so cl(d*T) = T proves the True verdict with one
    closure; the verdict string and the candidate list are the ones the
    pool would report.  With ``first_descent`` the certificate's
    ``candidates`` is None: ``find_test_elements`` fills it in for the
    entries it reports.
    """
    core, k = underline(cm)
    cert = {"f_pure": k == 0}
    if core.is_trivial():
        cert["note"] = "zero module"
        return (cm.carrier_sub().is_trivial(), cert)
    if k != 0:
        cert["note"] = "not F-pure"
        return False, cert
    cmc = cm.with_carrier(core)
    ass = ass_cartier(cmc)
    if not ass:
        raise UnsupportedShapeError(
            "no associated primes found for a nonzero module")
    cert["ass"] = [pr.ideal.serialize() for pr in ass]
    fixed, tried = _shrink_fixed_point(cmc, ass,
                                       first_descent=first_descent)
    cert["candidates"] = tried
    if fixed != core:
        cert["proper_submodule"] = fixed.serialize()
        return False, cert
    cert["verdict"] = "no candidate shrinks the module (heuristic pool)"
    return True, cert


# ---------------------------------------------------------------------------
# test elements


def _localized(cm, c, piece):
    """``cm`` with c inverted and ``piece``, saturated, as its carrier."""
    loc = cm.localize(c)
    return loc.with_carrier(loc.canon(piece.gens))


def _verify_test_element(cm, c, piece):
    """Check that ``piece``, the stable torsion of the core at a prime, is
    regular after inverting c.

    Only the verdict is read, so the regularity check stops at the first
    descent: a False verdict holds that first-descent witness as its proper
    submodule, not the walk's fixed point, and no verdict holds the
    candidate list (``candidates`` is None; ``_report_candidates`` fills it
    in).
    """
    if piece.is_trivial():
        return True, {"note": "torsion piece vanishes"}
    try:
        return is_f_regular(_localized(cm, c, piece), first_descent=True)
    except (UnsupportedShapeError, SearchBudgetError) as ex:
        return False, {"error": str(ex)}


def _order_by_inclusion(primes):
    """Minimal primes first; if eta is contained in nu, eta comes first."""
    remaining = list(primes)
    out = []
    while remaining:
        for pr in remaining:
            if not any(other is not pr
                       and pr.ideal.contains_ideal(other.ideal)
                       for other in remaining):
                out.append(pr)
                remaining.remove(pr)
                break
        else:
            out.extend(remaining)
            break
    return out


def _search_element(cmc, prime, core, isolate, mandatory_isolation):
    """First verified element c with c not in ``prime``.

    Candidates lying inside every prime of ``isolate`` are tried first,
    the cheapest (lowest total degree, then fewest terms) first, because
    every localized check saturates by the element; the rest follow in pool
    order.  Isolation pins the associated primes of the localized piece
    down to ``prime`` itself, which both matches the existence proof's
    search and keeps the recursive verification in its single-prime base
    case.  The pool stage skips the isolating candidates already tried.
    It reads a fresh ``_candidate_elements`` stream, so it builds the pool
    only as far as it walks: a search that accepts ``1`` or a variable
    factors nothing.  The isolating stage sorts, so it reads the whole
    memoised pool.
    """
    tried = []
    piece = stable_torsion(cmc, prime, core)
    stages = []
    if isolate:
        isolating = [c for c in _candidate_pool(cmc)[0]
                     if all(nu.contains(c) for nu in isolate)]
        stages.append(sorted(isolating,
                             key=lambda c: (c.total_degree(), len(c.terms))))
    if not mandatory_isolation or not isolate:
        stages.append(c for c, _pair in _candidate_elements(cmc))
    for stage in stages:
        for c in stage:
            if c in tried or prime.contains(c):
                continue
            ok, cert = _verify_test_element(cmc, c, piece)
            if ok:
                return TestElementEntry(prime, c, cert)
            tried.append(c)
    raise SearchBudgetError(f"no test element found for {prime!r}; "
                            f"tried {[str(c) for c in tried]}")


def _find_for_primes(cmc, core, primes, ass, mandatory_isolation):
    """One verified element per prime of ``primes``, isolating it from the
    associated primes ``ass`` strictly above it."""
    entries = []
    for prime in _order_by_inclusion(primes):
        isolate = [nu for nu in ass
                   if nu != prime and nu.ideal.contains_ideal(prime.ideal)]
        entries.append(_search_element(cmc, prime, core, isolate,
                                       mandatory_isolation))
    return TestElementSequence(entries)


@memo_scope()
def find_test_elements(cm):
    """Search a verified sequence of per-prime elements.

    For each associated prime eta, candidates are tried in order (isolating
    ones, which lie in every associated prime strictly containing eta,
    first; then the rest); the first one whose localized stable torsion
    piece passes the regularity check is recorded with its certificate,
    the candidate list filled in by ``_report_candidates``.
    """
    core, _ = underline(cm)
    cmc = cm.with_carrier(core)
    ass = ass_cartier(cmc)
    found = _find_for_primes(cmc, core, ass, ass, mandatory_isolation=False)
    for entry in found.entries:
        _report_candidates(cmc, core, entry)
    return found


def _report_candidates(cmc, core, entry):
    """Fill in the candidate list the verdict-only check left out of
    ``entry``'s certificate: the memoised pool of the localized core,
    filtered by its ``ass_cartier``, as ``is_f_regular`` reports it.  No
    memo table holds the certificate, so filling it in changes no stored
    value.
    """
    cert = entry.certificate
    if cert.get("candidates", ()) is not None:
        return
    loc = _localized(cmc, entry.element,
                     stable_torsion(cmc, entry.prime, core))
    loc_core, _k = underline(loc)
    loc = loc.with_carrier(loc_core)
    cert["candidates"] = _candidate_names(loc, ass_cartier(loc))


# ---------------------------------------------------------------------------
# the test module


def _nil_iso_at(cm, prime, big, small):
    """Is H0_eta(small) inside H0_eta(big) a nil-isomorphism at eta?

    Kernel is zero (inclusion); the cokernel is nilpotent at eta iff the
    stable chain member of the eta-torsion of ``big`` lands in ``small``
    after localizing, i.e.  ann(stable/small) is not inside eta.
    """
    stable = stable_torsion(cm, prime, big)
    tor_small = cm.canon_sub(torsion(cm.module, prime.ideal, within=small))
    return _equal_at(cm, prime, stable, tor_small)


def _equal_at(cm, prime, big, small):
    """Does the inclusion small <= big become an equality at ``prime``?

    Equal submodules are equal at every prime, so ``big == small`` answers
    True without the conductor, which would be (1) and so not inside the
    proper ideal ``prime``.
    """
    if big == small:
        return True
    gens = big.generators_reduced()
    return not gens or unit_at(small.conductor(gens), prime, cm.inverted)


def _tau_engine(cmc, stab, primes, test_elements, e0, holds_at):
    """Per-prime closure sum over the nonzero stable core ``cmc.carrier``.

    The result is post-verified: algebra-stable, inside the core, and
    ``holds_at(cmc, prime, core, result)`` at every prime.
    """
    core = cmc.carrier
    cert = {"stabilization_exponent": stab,
            "e0": e0,
            "primes": [pr.ideal.serialize() for pr in primes]}
    total = cmc.canon([])
    used = []
    windows = []
    for prime in primes:
        entry = test_elements.element_for(prime)
        if entry is None:
            raise SearchBudgetError(f"no test element supplied for {prime!r}")
        piece = stable_torsion(cmc, prime, core)
        seeded = piece.scale_poly(entry.element)
        part, info = graded_sum(cmc, cmc.canon(list(seeded.gens)), e_min=e0)
        windows.append(info)
        total = cmc.canon(list(total.gens) + list(part.gens))
        used.append({"prime": prime.ideal.serialize(),
                     "element": str(entry.element)})
    cert["test_elements"] = used
    cert["closure_info"] = windows
    checks = {}
    stable_sub, _info2 = graded_sum(cmc, total, e_min=1)
    checks["algebra_stable"] = total.contains_sub(stable_sub)
    checks["inside_core"] = core.contains_sub(total)
    per_prime = {}
    for prime in primes:
        key = ", ".join(prime.ideal.serialize()) or "0"
        per_prime[key] = holds_at(cmc, prime, core, total)
    checks["per_prime"] = per_prime
    cert["verification"] = checks
    if not (checks["algebra_stable"] and checks["inside_core"]
            and all(per_prime.values())):
        raise AssertionError(f"test-module verification failed: {checks}")
    return TauResult(total, cert)


@memo_scope()
def tau(cm, test_elements=None, e0=0):
    """Test module via the per-prime closure formula, with verification.

    Memoised in the ``tau`` table on the structure key, the carrier's basis
    and ``e0``: the associated primes and the test elements are computed
    from those alone, so the answer and its certificate depend on nothing
    else.  A call that supplies ``test_elements`` bypasses the table.  Each
    call gets its own copy of the certificate dict.
    """
    if test_elements is not None:
        return _tau(cm, test_elements, e0)
    key = (cm.structure_key(), cm.carrier_sub().basis(), e0)
    result = memoised("tau", key, _tau, cm, None, e0)
    return TauResult(result.submodule, dict(result.certificate))


def _tau(cm, test_elements, e0):
    core, stab = underline(cm)
    cmc = cm.with_carrier(core)
    if core.is_trivial():
        return TauResult(core, {"note": "stable core is zero"})
    primes = ass_cartier(cmc)
    if test_elements is None:
        test_elements = _find_for_primes(cmc, core, primes, primes,
                                         mandatory_isolation=False)
    return _tau_engine(cmc, stab, primes, test_elements, e0, _nil_iso_at)


@memo_scope()
def tau_prime(cm, test_elements=None, e0=0):
    """Legacy variant: generic agreement at the minimal support primes only.

    The per-prime elements must isolate their prime (lie in every associated
    prime strictly above it): without isolation the closure picks up embedded
    components and overshoots the minimal qualifying submodule.  Not
    memoised, unlike ``tau``.
    """
    core, stab = underline(cm)
    if core.is_trivial():
        return TauResult(core, {"note": "stable core is zero"})
    cmc = cm.with_carrier(core)
    ann = core.annihilator().saturation_elem(cm.inverted)
    primes = minimal_primes(ann)
    if test_elements is None:
        ass = ass_cartier(cmc)
        test_elements = _find_for_primes(cmc, core, primes, ass,
                                         mandatory_isolation=True)
    return _tau_engine(cmc, stab, primes, test_elements, e0, _equal_at)


# ---------------------------------------------------------------------------
# fast path for principal twists on the rank-1 free module


@memo_scope()
def tau_bms(f, t, e_max=None):
    """Stable value of the ascending chain J_e = root_e(f^ceil(t*p^e)).

    The stop is a proven fixed point (Blickle-Mustata-Smith, Michigan Math.
    J. 2008).  Write t*p^pre = s = a/(p^k - 1) with (pre, k) =
    ``ceil_pattern_period(p, t)`` and K_n = root_(nk)(f^ceil(s*p^(nk))).
    Since ceil(s*p^((n+1)k)) = a*p^(nk) + ceil(s*p^(nk)), K_(n+1) =
    Phi(K_n) with Phi(J) = root_k(f^a * J); so the first K_(n+1) = K_n is a
    fixed point of Phi and every later K equals it.  J_(pre+nk) =
    root_pre(K_n) and the J chain ascends, so J is constant from level
    pre + nk on, and the level pre + (n+1)k where the equality is seen is
    returned.  With A = ceil(t*p^e) at e = pre + nk, K_n = f^m * L_n for
    m = A // p^(nk) and L_n = root_(nk)(f^(A mod p^(nk))).

    The chain runs on ``root_automaton(f)``, and each level walks the
    lowest e digits of A once.  The walk covers the lowest nk digits
    first; the pair it reaches there is K_n.  It then resumes from that
    pair over the remaining pre digits, which gives J_e = root_pre(K_n).
    K_0 is the pair walk(ceil(t*p^pre), 0).  States are interned by
    reduced basis, so K_(n+1) = K_n is the equality of two pairs, and an
    ``Ideal`` is built only for the returned level and for an ascent
    check.

    Raises NoStabilizationError when level e_max passes without that
    equality.  The chain must ascend: where consecutive pairs differ,
    the automaton's ``contains`` tests that the later ideal contains the
    earlier one, once per two pairs in the open memo scope.  Equal pairs
    name equal ideals; unequal pairs can name equal ideals only with a
    quotient above 0, and then the test passes.
    """
    if f.is_zero():
        raise ValueError("hypersurface equation must be nonzero")
    t = Fraction(t)
    if t < 0:
        raise ValueError("exponent must be >= 0")
    ring = f.ring
    p = ring.p
    e_max = e_max if e_max is not None else ring.caps.chain_cap
    pre, period = ceil_pattern_period(p, t)
    num, den = t.numerator, t.denominator
    roots = root_automaton(f)
    prev_step = roots.walk(-(-num * p ** pre // den), 0)  # K_0
    prev = None
    for e in range(1, e_max + 1):
        exponent = -(-num * p ** e // den)  # ceil(t * p^e)
        step = roots.walk(exponent, max(e - pre, 0))
        current = roots.walk(step[1], min(e, pre), step[0])
        if (prev is not None and current != prev
                and not roots.contains(current, prev)):
            raise AssertionError(
                "root chain failed to ascend (internal error)")
        if e > pre and (e - pre) % period == 0:
            if step == prev_step:
                return roots.ideal(current)
            prev_step = step
        prev = current
    raise NoStabilizationError(
        f"root chain reached no certified fixed point by level "
        f"e_max={e_max}")
