"""Ideal arithmetic over F_p[x1..xn]: Groebner bases, quotients, saturation,
bracket powers, Frobenius roots, and minimal primes for restricted shapes.

Primality is *proved* only for shapes the desk-scale decision procedures
cover (zero, monomial primes, certified-irreducible principal generators,
triangular zero-dimensional quotients that are fields); anything else raises
``UnsupportedShapeError``.
"""

import math
import random
from functools import reduce
from itertools import product

from .errors import (CartierLabError, ResourceCapError, RingMismatchError,
                     UnsupportedShapeError)
from .fppoly import Poly, pe_decompose
from .groebner import (VecPoly, _divides, buchberger, intersection,
                       memoised, normal_form, syzygies)

IRREDUCIBILITY_DEGREE_CAP = 8
_POINT_ENUM_CAP = 4096
_MONOMIAL_BOX_CAP = 4096


def _vec(f):
    return VecPoly.from_columns(f.ring, [f])


class Ideal:
    """Ideal with a lazily computed, cached reduced Groebner basis."""

    __slots__ = ("ring", "gens", "_gb")

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = tuple(g for g in gens if not g.is_zero())
        for g in self.gens:
            if g.ring != ring:
                raise ValueError("generator from wrong ring")
        self._gb = None

    def groebner(self):
        if self._gb is None:
            gb = buchberger([_vec(g) for g in self.gens])
            self._gb = tuple(v.component(0) for v in gb)
        return self._gb

    def normal_form(self, f):
        gb = [_vec(g) for g in self.groebner()]
        return normal_form(_vec(f), gb).component(0)

    def contains(self, f):
        return self.normal_form(f).is_zero()

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.gens)

    def is_zero(self):
        return not self.groebner()

    def is_unit(self):
        gb = self.groebner()
        return len(gb) == 1 and gb[0].is_constant() and not gb[0].is_zero()

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.ring == other.ring
                and self.groebner() == other.groebner())

    def __hash__(self):
        return hash((self.ring, self.groebner()))

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.groebner()) or "0"
        return f"({inside})"

    def serialize(self):
        """Canonical form: reduced Groebner basis as a list of strings."""
        return [str(g) for g in self.groebner()]

    # -- arithmetic ----------------------------------------------------------

    def _same_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("ideals over different rings")

    def __add__(self, other):
        self._same_ring(other)
        return Ideal(self.ring, self.gens + other.gens)

    def __mul__(self, other):
        self._same_ring(other)
        if not self.gens or not other.gens:
            return Ideal(self.ring, [])
        return Ideal(self.ring,
                     [a * b for a in self.gens for b in other.gens])

    def power(self, k):
        result = Ideal(self.ring, [self.ring.one()])
        for _ in range(k):
            result = result * self
        return result

    def intersect(self, other):
        """Via ``groebner.intersection`` of the two reduced bases."""
        self._same_ring(other)
        a = [_vec(g) for g in self.groebner()]
        b = [_vec(g) for g in other.groebner()]
        return Ideal(self.ring,
                     [v.component(0) for v in intersection(a, b, 1)])

    def quotient(self, other):
        """(self : other) = {f : f*other <= self}."""
        self._same_ring(other)
        if other.is_zero():
            return Ideal(self.ring, [self.ring.one()])
        return reduce(Ideal.intersect,
                      [self.quotient_elem(g) for g in other.gens])

    def quotient_elem(self, g):
        if g.is_zero():
            return Ideal(self.ring, [self.ring.one()])
        cols = [_vec(g)] + [_vec(h) for h in self.groebner()]
        return Ideal(self.ring,
                     [s.component(0) for s in syzygies(cols, 1, 1)])

    def saturation(self, other):
        """(self : other^infty) with the stabilized chain certified."""
        return self.ring.caps.stabilize(
            lambda ideal: ideal.quotient(other), self,
            "saturation chain did not stabilize")

    def saturation_elem(self, c):
        """(self : c^infty).  ``c = None`` or ``c = 1`` inverts nothing, so
        the result is ``self``: (self : 1) = self, the chain's first step
        is already a fixed point, and ``stabilize`` returns its start."""
        if c is None or c.is_one():
            return self
        return self.saturation(Ideal(self.ring, [c]))

    def bracket_power(self, e):
        """Ideal generated by g^(p^e) over the stored generators."""
        self.ring.caps.check_e(e)
        return Ideal(self.ring, [g.frobenius(e) for g in self.gens])

    def is_monomial(self):
        return all(g.is_monomial() for g in self.groebner())



class PrimeIdeal:
    """A prime ideal.  ``serialize`` keeps the report format's fixed
    ``"provenance": "proved"`` field."""

    __slots__ = ("ideal",)

    def __init__(self, ideal):
        self.ideal = ideal

    @property
    def ring(self):
        return self.ideal.ring

    def contains(self, f):
        return self.ideal.contains(f)

    def is_zero(self):
        return self.ideal.is_zero()

    def __eq__(self, other):
        return isinstance(other, PrimeIdeal) and self.ideal == other.ideal

    def __hash__(self):
        return hash(self.ideal)

    def __repr__(self):
        return repr(self.ideal)

    def serialize(self):
        return {"generators": self.ideal.serialize(), "provenance": "proved"}


# ---------------------------------------------------------------------------
# Frobenius roots


def frobenius_root_gens(gens, e):
    """Generators of the smallest J with <gens> <= J^[p^e].

    Works on a plain generator list so callers can avoid materializing a
    Groebner basis of the (possibly huge) input ideal.
    """
    out = []
    for g in gens:
        for _a, piece in sorted(pe_decompose(g, e).items()):
            if not piece.is_zero():
                out.append(piece)
    return out


def frobenius_root(ideal, e):
    return Ideal(ideal.ring, frobenius_root_gens(ideal.gens, e))


def small_power(g, a):
    """``g ** a``, memoised in the ``small_power`` table.

    The key holds the ring's caps: ``RingSpec`` equality ignores them, and
    the power carries its ring, whose caps the degree checks of later
    products read.  A power cached under a roomy ring would otherwise let a
    product on an equal but tighter ring skip its ``ResourceCapError``.
    """
    return memoised("small_power", (g.ring.caps, g, a), pow, g, a)


class RootAutomaton:
    """The Frobenius roots of the powers of one f, walked digit by digit.

    root_e(f^A) is read off the base-p digits of A, from the lowest, via
    root_1(g^[p] * J) = g * root_1(J) and root_e = root_(e-1) o root_1.  A
    digit step takes the ideal J of the previous level (the unit ideal at
    the start) to the reduced basis of root_1(f^d * J), so it depends only
    on (f, the ring's caps, d, J).  States are reduced bases interned as
    small integers in ``states`` and ``ids`` (state 0 is the unit ideal),
    and ``steps`` maps (state, digit) to a state.  A chain of roots of
    powers of f meets only finitely many ideals (Blickle-Mustata-Smith,
    Michigan Math. J. 2008), and a jumping-number sweep reaches the same
    ideal through many digit prefixes, so most steps are transitions
    already taken.  A hit is exact: the step's input list
    ``[f^d * g for g in J]`` (J itself when d = 0), hence its
    ``buchberger`` basis, is a function of (caps, f, d, J), and reduced
    bases are unique and sorted, so equal ideals share one state.

    A walk ends in a pair (state, quotient) that names the ideal
    f^quotient * J_state.  The quotient is 0 at the zero state, so pairs of
    quotient 0 are equal exactly when their ideals are.  ``ascents`` keeps
    the verdicts of ``contains``, keyed by the two pairs.
    """

    __slots__ = ("f", "states", "ids", "steps", "ascents")

    def __init__(self, f):
        unit = (f.ring.one(),)
        self.f = f
        self.states = [unit]
        self.ids = {unit: 0}
        self.steps = {}
        self.ascents = {}

    def walk(self, exponent, e, state=0):
        """The pair (state', exponent // p^e) reached by walking the lowest
        e digits of ``exponent`` from ``state``; (zero state, 0) once a
        step reaches the zero ideal, which no later step leaves.  From the
        unit state the pair names root_e(f^exponent).  A walk resumes from
        a pair it returned, so walk(A, e) equals walk(m, e - k, s) with
        (s, m) = walk(A, k); walk(A, 0) is (unit state, A)."""
        f = self.f
        p = f.ring.p
        states, steps = self.states, self.steps
        for _ in range(e):
            exponent, digit = divmod(exponent, p)
            target = steps.get((state, digit))
            if target is None:
                gens = states[state]
                if digit:
                    fd = small_power(f, digit)
                    gens = [fd * g for g in gens]
                basis = tuple(v.component(0) for v in buchberger(
                    [_vec(g) for g in frobenius_root_gens(gens, 1)]))
                target = steps[state, digit] = self.ids.setdefault(
                    basis, len(states))
                if target == len(states):
                    states.append(basis)
            state = target
            if not states[state]:
                return state, 0
        return state, exponent

    def ideal(self, pair):
        """The ideal f^quotient * J_state that ``pair`` names.  With
        quotient 0 it carries the state's reduced basis as its own, so
        comparing it does not recompute it; the tail power comes from
        ``small_power``."""
        state, quotient = pair
        ring = self.f.ring
        basis = self.states[state]
        if quotient == 0:
            root = Ideal(ring, basis)
            root._gb = basis
            return root
        tail = small_power(self.f, quotient)
        return Ideal(ring, [tail * g for g in basis])

    def contains(self, pair, other):
        """Whether the ideal of ``pair`` contains that of ``other``, tested
        once per two pairs.  ``other``'s ideal is built first, so a degree
        cap trips in the order the chain reached the two."""
        key = pair, other
        verdict = self.ascents.get(key)
        if verdict is None:
            inner = self.ideal(other)
            verdict = self.ascents[key] = \
                self.ideal(pair).contains_ideal(inner)
        return verdict


def root_automaton(f):
    """The ``RootAutomaton`` of f, one per (caps, f) in the
    ``frobenius_root_of_power`` table.

    The caps are in the key because degree checks read them, so a hit
    never skips a ``ResourceCapError`` that a fresh walk would raise."""
    return memoised("frobenius_root_of_power", (f.ring.caps, f),
                    RootAutomaton, f)


def frobenius_root_of_power(f, exponent, e):
    """root_e of the ideal (f^exponent) without expanding f^exponent.

    Walks ``root_automaton(f)`` over the lowest e base-p digits of the
    exponent and expands only the leftover quotient power
    (exponent // p^e) at the bottom, so intermediate degrees stay
    contracted.  The digit powers f^d and the tail power come from
    ``small_power``, so a sweep builds each of them once.  ``tau_bms``
    walks the same automaton on state pairs, resuming each level's walk
    from its certificate pair, and builds an ideal only for the level it
    returns and for its ascent checks.
    """
    roots = root_automaton(f)
    return roots.ideal(roots.walk(exponent, e))


# ---------------------------------------------------------------------------
# univariate factorization over F_p (dense coefficient lists, trailing term
# nonzero, [] is the zero polynomial)


def _mod_sqrt(a, p):
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _u_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _u_deg(f):
    return len(f) - 1


def _u_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = (out[i + j] + a * b) % p
    return _u_trim(out)


def _u_monic(f, p):
    if not f:
        return f
    inv = pow(f[-1], p - 2, p)
    return [(c * inv) % p for c in f]


def _u_divmod(f, g, p):
    f = list(f)
    if not g:
        raise ZeroDivisionError
    q = [0] * max(0, len(f) - len(g) + 1)
    inv = pow(g[-1], p - 2, p)
    while len(f) >= len(g) and _u_trim(f):
        if len(f) < len(g):
            break
        k = len(f) - len(g)
        c = (f[-1] * inv) % p
        if c:
            q[k] = c
            for i, b in enumerate(g):
                f[k + i] = (f[k + i] - c * b) % p
        f.pop()
        _u_trim(f)
    return _u_trim(q), _u_trim(f)


def _u_gcd(f, g, p):
    f, g = list(f), list(g)
    while g:
        f, g = g, _u_divmod(f, g, p)[1]
    return _u_monic(f, p)


def _u_pow_mod(f, n, mod, p):
    result = [1]
    base = _u_divmod(f, mod, p)[1]
    while n:
        if n & 1:
            result = _u_divmod(_u_mul(result, base, p), mod, p)[1]
        base = _u_divmod(_u_mul(base, base, p), mod, p)[1]
        n >>= 1
    return result


def _u_deriv(f, p):
    return _u_trim([(i * c) % p for i, c in enumerate(f)][1:])


def _u_pth_root(f, p):
    return [f[i] for i in range(0, len(f), p)]


def _edf(f, d, p, rng):
    """Split squarefree f (all irreducible factors of degree d)."""
    if _u_deg(f) == d:
        return [f]
    n = _u_deg(f)
    while True:
        r = [rng.randrange(p) for _ in range(n)]
        _u_trim(r)
        if _u_deg(r) < 1:
            continue
        if p == 2:
            t = list(r)
            acc = list(r)
            for _ in range(d - 1):
                acc = _u_pow_mod(acc, 2, f, p)
                t = _u_trim([(a + b) % p for a, b in
                             zip(t + [0] * len(acc), acc + [0] * len(t))])
            g = _u_gcd(t, f, p)
        else:
            t = _u_pow_mod(r, (p ** d - 1) // 2, f, p)
            t = _u_trim([(c - (1 if i == 0 else 0)) % p
                         for i, c in enumerate(t)] or [p - 1])
            g = _u_gcd(t, f, p)
        if 0 < _u_deg(g) < _u_deg(f):
            rest = _u_divmod(f, g, p)[0]
            return _edf(g, d, p, rng) + _edf(rest, d, p, rng)


def _ddf_edf(f, p, rng):
    """Irreducible factors of squarefree monic f."""
    out = []
    x = [0, 1]
    h = list(x)
    v = list(f)
    d = 0
    while _u_deg(v) >= 2 * (d + 1):
        d += 1
        h = _u_pow_mod(h, p, v, p)
        diff = _u_trim([(a - b) % p for a, b in
                        zip(h + [0, 0], x + [0] * len(h))])
        g = _u_gcd(diff, v, p)
        if _u_deg(g) > 0:
            out.extend(_edf(g, d, p, rng))
            v = _u_divmod(v, g, p)[0]
            h = _u_divmod(h, v, p)[1] if _u_deg(v) > 0 else [0]
    if _u_deg(v) > 0:
        out.append(v)
    return out


def _u_factor(f, p, rng=None):
    """Full factorization of univariate f; returns {tuple(monic coeffs): mult}."""
    rng = rng or random.Random(0xCA27157)
    factors = {}
    f = _u_monic(list(f), p)
    while _u_deg(f) > 0:
        d = _u_deriv(f, p)
        if not d:
            sub = _u_factor(_u_pth_root(f, p), p, rng)
            for fac, m in sub.items():
                factors[fac] = factors.get(fac, 0) + m * p
            return factors
        s = _u_gcd(f, d, p)
        w = _u_divmod(f, s, p)[0]
        for g in _ddf_edf(_u_monic(w, p), p, rng):
            g = _u_monic(g, p)
            m = 0
            while True:
                q, r = _u_divmod(f, g, p)
                if r:
                    break
                f, m = q, m + 1
            if m:
                factors[tuple(g)] = factors.get(tuple(g), 0) + m
        f = _u_monic(f, p)
    return factors


# ---------------------------------------------------------------------------
# restricted multivariate factorization


def _coeffs_in_var(f, vi):
    """View f as a polynomial in variable vi: {exponent: coefficient Poly}."""
    out = {}
    for m, c in f.terms.items():
        e = m[vi]
        key = tuple(0 if i == vi else x for i, x in enumerate(m))
        out.setdefault(e, {})[key] = c
    return {e: Poly(f.ring, terms) for e, terms in out.items()}


def _from_coeffs_in_var(ring, vi, coeffs):
    acc = ring.zero()
    for e, g in coeffs.items():
        m = [0] * ring.nvars
        m[vi] = e
        acc = acc + g.mul_monomial(tuple(m))
    return acc


def poly_sqrt(f):
    """A square root of f in the polynomial ring, or None."""
    ring = f.ring
    p = ring.p
    if f.is_zero():
        return f
    if p == 2:
        if any(e % 2 for m in f.terms for e in m):
            return None
        root = Poly(ring, {tuple(e // 2 for e in m): c for m, c in f.terms.items()})
        return root if root * root == f else None
    if f.is_constant():
        c = next(iter(f.terms.values()))
        r = _mod_sqrt(c, p)
        return None if r is None else ring.const(r)
    vi = max(f.variables_used(), key=lambda i: f.degree_in(i))
    d2 = f.degree_in(vi)
    if d2 % 2:
        return None
    d = d2 // 2
    coeffs = _coeffs_in_var(f, vi)
    top = poly_sqrt(coeffs.get(d2, ring.zero()))
    if top is None or top.is_zero():
        return None
    s = {d: top}
    two_top_inv = (top * 2) if p != 2 else None
    for k in range(d2 - 1, d - 1, -1):
        target = coeffs.get(k, ring.zero())
        for i in range(k - d + 1, d + 1):
            j = k - i
            if i <= d and 0 <= j <= d and i != k - d:
                si, sj = s.get(i), s.get(j)
                if si is not None and sj is not None and i >= j:
                    prod = si * sj
                    target = target - (prod * 2 if i != j else prod)
        unknown = target.try_divide(two_top_inv)
        if unknown is None:
            return None
        s[k - d] = unknown
    cand = _from_coeffs_in_var(ring, vi, s)
    return cand if cand * cand == f else None


def _uni_poly_to_list(f, vi):
    out = [0] * (f.degree_in(vi) + 1)
    for m, c in f.terms.items():
        out[m[vi]] = c
    return out


def _list_to_poly(ring, vi, coeffs):
    terms = {}
    for e, c in enumerate(coeffs):
        if c % ring.p:
            m = [0] * ring.nvars
            m[vi] = e
            terms[tuple(m)] = c % ring.p
    return Poly(ring, terms)


def factor_restricted(f):
    """Factor f into irreducibles where the restricted procedures apply.

    Returns (unit, factors, certified) where factors is a list of
    (irreducible Poly, multiplicity) and certified is False when some
    returned piece could not be proved irreducible.
    """
    ring = f.ring
    p = ring.p
    if f.is_zero():
        raise ValueError("cannot factor 0")
    if f.is_constant():
        return next(iter(f.terms.values())), [], True
    factors = []
    unit = 1
    # monomial content
    content = [min(m[i] for m in f.terms) for i in range(ring.nvars)]
    if any(content):
        f = Poly(ring, {tuple(a - b for a, b in zip(m, content)): c
                        for m, c in f.terms.items()})
        for i, e in enumerate(content):
            if e:
                factors.append((ring.var(ring.vars[i]), e))
    if f.is_constant():
        return next(iter(f.terms.values())), factors, True

    def merge(unit2, subfactors, scale=1):
        nonlocal unit
        unit = (unit * unit2) % p
        for g, m in subfactors:
            factors.append((g, m * scale))

    # p-th power
    if all(e % p == 0 for m in f.terms for e in m):
        root = Poly(ring, {tuple(e // p for e in m): c for m, c in f.terms.items()})
        u2, sub, ok = factor_restricted(root)
        merge(u2, sub, scale=p)
        return unit, factors, ok
    used = sorted(f.variables_used())
    if len(used) == 1:
        vi = used[0]
        fac = _u_factor(_uni_poly_to_list(f, vi), p)
        lead = f.lead()[1]
        unit = (unit * lead) % p
        for coeffs, m in sorted(fac.items()):
            factors.append((_list_to_poly(ring, vi, list(coeffs)), m))
        return unit, factors, True
    # choose a variable of lowest positive degree
    vi = min(used, key=lambda i: (f.degree_in(i), i))
    dv = f.degree_in(vi)
    coeffs = _coeffs_in_var(f, vi)
    lead = coeffs.get(dv, ring.zero())
    if dv == 1 and lead.is_constant():
        return unit, factors + [(f, 1)], True
    if dv == 2 and lead.is_constant():
        a = next(iter(lead.terms.values()))
        b = coeffs.get(1, ring.zero())
        c = coeffs.get(0, ring.zero())
        if p != 2:
            disc = b * b - c.scale(4 * a)
            s = poly_sqrt(disc)
            if s is None:
                return unit, factors + [(f, 1)], True
            inv2a = pow(2 * a, p - 2, p)
            v = ring.var(ring.vars[vi])
            r1 = (s - b).scale(inv2a)
            r2 = (-s - b).scale(inv2a)
            unit = (unit * a) % p
            u2, sub, ok = factor_restricted(v - r1)
            merge(u2, sub)
            u2, sub, ok2 = factor_restricted(v - r2)
            merge(u2, sub)
            return unit, factors, ok and ok2
        # p == 2, leading unit
        v = ring.var(ring.vars[vi])
        if b.is_zero():
            sc = poly_sqrt(c)
            if sc is None:
                return unit, factors + [(f, 1)], True
            u2, sub, ok = factor_restricted(v + sc)
            merge(u2, sub, scale=2)
            return unit, factors, ok
        root = _char2_quadratic_root(b, c)
        if root is None:
            return unit, factors + [(f, 1)], True
        u2, sub, ok = factor_restricted(v + root)
        merge(u2, sub)
        u2, sub, ok2 = factor_restricted(v + root + b)
        merge(u2, sub)
        return unit, factors, ok and ok2
    return unit, factors + [(f, 1)], False


def _char2_quadratic_root(b, c):
    """Solve u^2 + b u + c = 0 over F_2[one variable], bounded search."""
    ring = b.ring
    used = sorted((b.variables_used() | c.variables_used()))
    if len(used) > 1:
        return None
    if not used:
        for val in (0, 1):
            u = ring.const(val)
            if u * u + b * u + c == ring.zero():
                return u
        return None
    vi = used[0]
    bound = max(c.degree_in(vi) // 2 + 1, b.degree_in(vi) + 1)
    if bound > IRREDUCIBILITY_DEGREE_CAP:
        return None
    for mask in range(1 << (bound + 1)):
        coeffs = [(mask >> i) & 1 for i in range(bound + 1)]
        u = _list_to_poly(ring, vi, coeffs)
        if u * u + b * u + c == ring.zero():
            return u
    return None


def irreducible_factors_best_effort(f):
    """Distinct candidate irreducible factors of f; may be incomplete."""
    try:
        _u, factors, _ok = factor_restricted(f)
    except CartierLabError:
        return [f]
    seen = []
    for g, _m in factors:
        if g not in seen:
            seen.append(g)
    return seen


# ---------------------------------------------------------------------------
# minimal primes (restricted shapes)


def _minimal_covers(supports):
    supports = [s for s in supports if s]
    if not supports:
        return [frozenset()]
    first = sorted(supports, key=lambda s: (len(s), sorted(s)))[0]
    covers = set()
    for v in sorted(first):
        rest = [s for s in supports if v not in s]
        for c in _minimal_covers(rest):
            covers.add(c | {v})
    minimal = []
    for c in sorted(covers, key=lambda s: (len(s), sorted(s))):
        if not any(o < c for o in covers):
            minimal.append(c)
    return minimal


def monomial_minimal_primes(ideal):
    ring = ideal.ring
    supports = [frozenset(i for i, e in enumerate(next(iter(g.terms))) if e)
                for g in ideal.groebner()]
    out = []
    for cover in _minimal_covers(supports):
        gens = [ring.var(ring.vars[i]) for i in sorted(cover)]
        out.append(PrimeIdeal(Ideal(ring, gens)))
    return out


def monomial_associated_primes(ideal):
    """Ass(R/I) for a monomial ideal, by scanning divisors of the lcm box."""
    ring = ideal.ring
    gb = ideal.groebner()
    lcm = [0] * ring.nvars
    for g in gb:
        m = next(iter(g.terms))
        lcm = [max(a, b) for a, b in zip(lcm, m)]
    box = 1
    for e in lcm:
        box *= e + 1
    if box > _MONOMIAL_BOX_CAP:
        raise UnsupportedShapeError(
            "monomial associated-prime scan exceeds box cap")
    out = []
    for exps in product(*[range(e + 1) for e in lcm]):
        mono = ring.monomial(exps)
        if ideal.contains(mono):
            continue
        colon = ideal.quotient_elem(mono)
        cgens = colon.groebner()
        if cgens and all(g.is_monomial() and sum(next(iter(g.terms))) == 1
                         for g in cgens):
            prime = PrimeIdeal(Ideal(ring, list(cgens)))
            if prime not in out:
                out.append(prime)
    return out


def _is_zero_dimensional(gb, nvars):
    covered = set()
    for g in gb:
        lt = g.lead()[0]
        idx = _pure_power_index(lt)
        if idx is not None:
            covered.add(idx)
    return covered >= set(range(nvars))


def _pure_power_index(mono):
    nz = [i for i, e in enumerate(mono) if e]
    return nz[0] if len(nz) == 1 else None


def standard_monomials(ideal):
    """Monomial basis of R/I for zero-dimensional I (capped enumeration)."""
    ring = ideal.ring
    gb = ideal.groebner()
    if not _is_zero_dimensional(gb, ring.nvars):
        raise UnsupportedShapeError("ideal is not visibly zero-dimensional")
    bounds = [None] * ring.nvars
    leads = [g.lead()[0] for g in gb]
    for lt in leads:
        i = _pure_power_index(lt)
        if i is not None:
            b = lt[i]
            if bounds[i] is None or b < bounds[i]:
                bounds[i] = b
    total = 1
    for b in bounds:
        total *= b
        if total > _POINT_ENUM_CAP:
            raise ResourceCapError("standard monomial enumeration exceeds cap")
    out = []
    for exps in product(*[range(b) for b in bounds]):
        if not any(_divides(lt, exps) for lt in leads):
            out.append(exps)
    return sorted(out, key=ring.monomial_key, reverse=True)


def _minimal_polynomial(ideal, vi, std):
    """Minimal polynomial of x_vi in R/I (I zero-dimensional)."""
    ring = ideal.ring
    p = ring.p
    index = {m: k for k, m in enumerate(std)}
    rows = []
    v = ring.var(ring.vars[vi])
    cur = ring.one()
    for _ in range(len(std) + 1):
        nf = ideal.normal_form(cur)
        vecrow = [0] * len(std)
        for m, c in nf.terms.items():
            vecrow[index[m]] = c
        rows.append(vecrow)
        dep = _find_dependency(rows, p)
        if dep is not None:
            return _u_trim(list(dep))
        cur = cur * v
    raise UnsupportedShapeError("no minimal polynomial found (not 0-dim?)")


def _find_dependency(rows, p):
    """Coefficients c with sum c_i rows_i = 0 and c_last = 1, if any."""
    n = len(rows)
    width = len(rows[0]) if rows else 0
    mat = [list(r) + [1 if i == j else 0 for j in range(n)]
           for i, r in enumerate(rows)]
    pivot_cols = []
    r = 0
    for col in range(width):
        sel = None
        for i in range(r, n):
            if mat[i][col] % p:
                sel = i
                break
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = pow(mat[r][col], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(n):
            if i != r and mat[i][col] % p:
                c = mat[i][col]
                mat[i] = [(x - c * y) % p for x, y in zip(mat[i], mat[r])]
        pivot_cols.append(col)
        r += 1
    for i in range(n):
        if all(x % p == 0 for x in mat[i][:width]):
            coeffs = mat[i][width:]
            if coeffs[n - 1] % p:
                inv = pow(coeffs[n - 1], p - 2, p)
                return [(c * inv) % p for c in coeffs]
    return None


def _zero_dim_minimal_primes(ideal):
    ring = ideal.ring
    std = standard_monomials(ideal)
    if not std:
        return []
    factor_lists = []
    for vi in range(ring.nvars):
        mp = _minimal_polynomial(ideal, vi, std)
        facs = sorted(_u_factor(mp, ring.p).keys())
        factor_lists.append([(vi, list(c)) for c in facs])
    out = []
    for combo in product(*factor_lists):
        gens = list(ideal.gens) + [_list_to_poly(ring, vi, coeffs)
                                   for vi, coeffs in combo]
        J = Ideal(ring, gens)
        if J.is_unit():
            continue
        dim = len(standard_monomials(J))
        degrees = [len(coeffs) - 1 for _vi, coeffs in combo]
        expected = 1
        for d in degrees:
            expected = math.lcm(expected, d)
        if dim == expected:
            prime = PrimeIdeal(J)
            if prime not in out:
                out.append(prime)
        else:
            raise UnsupportedShapeError(
                "zero-dimensional component needs a finer split")
    return out


def minimal_primes(ideal):
    """Complete list of minimal primes for the restricted shapes; any other
    shape raises ``UnsupportedShapeError``."""
    ring = ideal.ring
    if ideal.is_zero():
        return [PrimeIdeal(Ideal(ring, []))]
    if ideal.is_unit():
        return []
    if ideal.is_monomial():
        return monomial_minimal_primes(ideal)
    gb = ideal.groebner()
    if len(ideal.gens) == 1 or len(gb) == 1:
        f = ideal.gens[0] if len(ideal.gens) == 1 else gb[0]
        _unit, factors, certified = factor_restricted(f)
        if not certified:
            raise UnsupportedShapeError(
                f"cannot certify factorization of {f}")
        out = []
        for g, _m in factors:
            prime = PrimeIdeal(Ideal(ring, [g]))
            if prime not in out:
                out.append(prime)
        return out
    if _is_zero_dimensional(gb, ring.nvars):
        return _zero_dim_minimal_primes(ideal)
    raise UnsupportedShapeError(
        "ideal shape outside the restricted decision procedures")
