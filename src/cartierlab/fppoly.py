"""Exact multivariate polynomial arithmetic over the prime field F_p.

Polynomials are sparse: a term map from exponent vectors (tuples of
non-negative ints, one slot per ring variable) to nonzero coefficients in
{1, ..., p-1}.  All arithmetic is exact; there is no floating point anywhere
in this package.

The module also provides the two Frobenius-adapted primitives everything
else is built from:

* ``pe_decompose(f, e)`` writes f uniquely as  sum_a  g_a^(p^e) * x^a  with
  a ranging over [0, p^e-1]^n, and
* ``cartier_trace(f, e, premul)`` extracts the coefficient at the top basis
  monomial x^(p^e-1, ..., p^e-1), i.e. applies the trace operator to
  premul*f.

Since the Frobenius is the identity on F_p, taking p^e-th roots of
coefficients is free, which keeps the decomposition exact and cheap.

Gauges (max-norm degree filtrations) live here as well; they measure the
contraction behaviour of trace operators and drive the coherent-model
machinery in :mod:`cartierlab.functorops`.
"""

from dataclasses import dataclass, field
from typing import ClassVar

from .errors import ParseError, ResourceCapError, RingMismatchError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17):  # deterministic for n < 3.3e14
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class EngineCaps:
    """Hard resource limits; only ``max_total_degree`` is settable.
    Exceeding any of them raises, loudly.

    Memo keys hold the caps and hash them on every lookup, so the hash is
    computed once, as ``RingSpec`` does.  Equality stays the dataclass's:
    caps of another class (a subclass with a smaller ClassVar cap) are
    unequal even when they hash equal."""

    max_vars: ClassVar[int] = 6
    max_e: ClassVar[int] = 6
    chain_cap: ClassVar[int] = 64
    pair_cap: ClassVar[int] = 100000
    basis_enum_cap: ClassVar[int] = 1 << 20
    twist_expand_cap: ClassVar[int] = 512
    max_total_degree: int = 4096
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self.max_total_degree))

    def __hash__(self):
        return self._hash

    def check_degree(self, deg):
        if deg > self.max_total_degree:
            raise ResourceCapError(
                f"total degree {deg} exceeds cap {self.max_total_degree}"
            )

    def check_e(self, e):
        if e < 1:
            raise ValueError("Frobenius level e must be >= 1")
        if e > self.max_e:
            raise ResourceCapError(f"Frobenius level e={e} exceeds cap {self.max_e}")

    def stabilize(self, step, start, message):
        """The first of start, step(start), ... that ``step`` maps to an
        equal value; raises ``ResourceCapError(message)`` when ``chain_cap``
        steps find none, so a chain is never cut off silently."""
        current = start
        for _ in range(self.chain_cap):
            nxt = step(current)
            if nxt == current:
                return current
            current = nxt
        raise ResourceCapError(message)


class RingSpec:
    """A polynomial ring F_p[vars] with the graded reverse lexicographic
    term order (grevlex, x1 > x2 > ... > xn), the only order the engine
    uses.  ``monomial_key`` sorts the larger term first, so ``min`` picks a
    leading term and ``sorted`` lists terms in descending order.

    ``nvars == 0`` is allowed and denotes the base field itself; the
    pushforward of a one-variable ring to a point needs it.
    """

    __slots__ = ("p", "vars", "caps", "_var_index", "_hash")

    @staticmethod
    def monomial_key(m):
        """Higher total degree first; among equal degrees, the term with the
        smaller exponent in the last variable where the two differ."""
        return (-sum(m), m[::-1])

    def __init__(self, p, variables, caps=None):
        caps = caps or EngineCaps()
        if not is_prime(p) or not (2 <= p <= 1 << 16):
            raise ValueError(f"p must be a prime in [2, 2^16], got {p}")
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        if len(variables) > caps.max_vars:
            raise ResourceCapError(
                f"{len(variables)} variables exceeds cap {caps.max_vars}"
            )
        self.p = p
        self.vars = variables
        self.caps = caps
        self._var_index = {v: i for i, v in enumerate(variables)}
        # memo keys hash the ring on every lookup; the caps are not part of
        # it, so rings that differ only in caps hash equal
        self._hash = hash((p, variables))

    @property
    def nvars(self):
        return len(self.vars)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, RingSpec)
            and self.p == other.p
            and self.vars == other.vars
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"F_{self.p}[{','.join(self.vars)}]"

    def zero(self):
        return Poly(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c %= self.p
        if c == 0:
            return Poly(self, {})
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, name):
        i = self._var_index.get(name)
        if i is None:
            raise ValueError(f"no variable {name!r} in {self!r}")
        m = [0] * self.nvars
        m[i] = 1
        return Poly(self, {tuple(m): 1})

    def gens(self):
        return [self.var(v) for v in self.vars]

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps}")
        coeff %= self.p
        if coeff == 0:
            return self.zero()
        return Poly(self, {exps: coeff})

    def extend(self, *new_vars):
        """Ring with additional variables appended (same p and caps)."""
        return RingSpec(self.p, self.vars + tuple(new_vars), self.caps)

    def parse(self, text):
        return _parse_poly(self, text)


class Poly:
    """Immutable sparse polynomial.  Never mutate ``terms`` after creation:
    the hash and the leading term are cached on first use."""

    __slots__ = ("ring", "terms", "_hash", "_lead")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._hash = None
        self._lead = None

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _make(ring, terms):
        if terms:
            deg = max(sum(m) for m in terms)
            ring.caps.check_degree(deg)
        return Poly(ring, terms)

    def _check_same_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring!r} vs {other.ring!r}")

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(0,) * self.ring.nvars: 1}

    def is_constant(self):
        return all(sum(m) == 0 for m in self.terms)

    def is_monomial(self):
        return len(self.terms) == 1

    def total_degree(self):
        """-1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def degree_in(self, i):
        if not self.terms:
            return -1
        return max(m[i] for m in self.terms)

    def variables_used(self):
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return used

    # -- canonical views -----------------------------------------------------

    def sorted_terms(self):
        key = RingSpec.monomial_key
        return sorted(self.terms.items(), key=lambda t: key(t[0]))

    def lead(self):
        """(monomial, coeff) of the leading term; None for 0."""
        if self._lead is None and self.terms:
            m = min(self.terms, key=RingSpec.monomial_key)
            self._lead = m, self.terms[m]
        return self._lead

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self._check_same_ring(other)
        p = self.ring.p
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = (res.get(m, 0) + c) % p
            if s:
                res[m] = s
            else:
                res.pop(m, None)
        return Poly(self.ring, res)

    def __neg__(self):
        p = self.ring.p
        return Poly(self.ring, {m: p - c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_same_ring(other)
        p = self.ring.p
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        res = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                s = (res.get(m, 0) + ca * cb) % p
                if s:
                    res[m] = s
                else:
                    res.pop(m, None)
        return Poly._make(self.ring, res)

    __rmul__ = __mul__

    def scale(self, c):
        c %= self.ring.p
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        p = self.ring.p
        return Poly(self.ring, {m: (k * c) % p for m, k in self.terms.items()})

    def mul_monomial(self, exps, coeff=1):
        p = self.ring.p
        coeff %= p
        if coeff == 0:
            return self.ring.zero()
        res = {}
        for m, c in self.terms.items():
            res[tuple(x + y for x, y in zip(m, exps))] = (c * coeff) % p
        return Poly._make(self.ring, res)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def frobenius(self, e=1):
        """p^e-th power, computed by scaling exponents (freshman's dream)."""
        q = self.ring.p ** e
        return Poly._make(
            self.ring, {tuple(x * q for x in m): c for m, c in self.terms.items()}
        )

    def try_divide(self, divisor):
        """Exact division: return self/divisor, or None if not divisible."""
        self._check_same_ring(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self.ring.zero()
        p = self.ring.p
        dm, dc = divisor.lead()
        dc_inv = pow(dc, p - 2, p)
        rem = dict(self.terms)
        quot = {}
        while rem:
            m = min(rem, key=RingSpec.monomial_key)
            c = rem[m]
            q = tuple(x - y for x, y in zip(m, dm))
            if any(x < 0 for x in q):
                return None
            qc = (c * dc_inv) % p
            quot[q] = qc
            for m2, c2 in divisor.terms.items():
                mm = tuple(x + y for x, y in zip(q, m2))
                s = (rem.get(mm, 0) - qc * c2) % p
                if s:
                    rem[mm] = s
                else:
                    rem.pop(mm, None)
        return Poly(self.ring, quot)

    def map_ring(self, new_ring, var_map=None):
        """Reinterpret in ``new_ring``; var_map sends old var index -> new index.

        Defaults to matching variable names.
        """
        if var_map is None:
            var_map = [new_ring._var_index[v] for v in self.ring.vars]
        n = new_ring.nvars
        res = {}
        for m, c in self.terms.items():
            mm = [0] * n
            for i, e in enumerate(m):
                if e:
                    mm[var_map[i]] = e
            key = tuple(mm)
            res[key] = (res.get(key, 0) + c) % new_ring.p
        return Poly(new_ring, {m: c for m, c in res.items() if c})

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, tuple(self.sorted_terms())))
        return self._hash

    # -- text ----------------------------------------------------------------

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<{format_poly(self)} over {self.ring!r}>"


# ---------------------------------------------------------------------------
# text grammar: coefficients as decimal integers, '*' optional, '^' powers


def format_poly(f):
    if f.is_zero():
        return "0"
    ring = f.ring
    parts = []
    for m, c in f.sorted_terms():
        factors = []
        for v, e in zip(ring.vars, m):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    return " + ".join(parts)


def _tokenize(ring, text):
    tokens = []
    i, n = 0, len(text)
    names = sorted(ring.vars, key=len, reverse=True)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        for name in names:
            if text.startswith(name, i):
                tokens.append(("var", name, i))
                i += len(name)
                break
        else:
            raise ParseError(f"unexpected character {ch!r} in polynomial", column=i)
    tokens.append(("end", None, n))
    return tokens


def _parse_poly(ring, text):
    tokens = _tokenize(ring, text)
    pos = [0]

    def peek():
        return tokens[pos[0]]

    def advance():
        tok = tokens[pos[0]]
        pos[0] += 1
        return tok

    def parse_atom():
        kind, value, col = peek()
        if kind == "int":
            advance()
            return ring.const(value)
        if kind == "var":
            advance()
            exp = 1
            if peek()[0] == "^":
                advance()
                k, v, c = advance()
                if k != "int":
                    raise ParseError("expected integer exponent", column=c)
                exp = v
            m = [0] * ring.nvars
            m[ring._var_index[value]] = exp
            return ring.monomial(m)
        if kind == "(":
            advance()
            inner = parse_sum()
            k, _, c = advance()
            if k != ")":
                raise ParseError("expected ')'", column=c)
            return inner
        raise ParseError(f"unexpected token {value!r}", column=col)

    def parse_term():
        result = parse_atom()
        while True:
            kind, _, _ = peek()
            if kind == "*":
                advance()
                result = result * parse_atom()
            elif kind in ("var", "int", "("):
                result = result * parse_atom()
            else:
                return result

    def parse_sum():
        kind, _, _ = peek()
        sign = 1
        if kind in "+-":
            advance()
            sign = -1 if kind == "-" else 1
        result = parse_term().scale(sign)
        while True:
            kind, _, _ = peek()
            if kind in "+-":
                advance()
                t = parse_term()
                result = result + (t if kind == "+" else -t)
            else:
                return result

    result = parse_sum()
    kind, value, col = peek()
    if kind != "end":
        raise ParseError(f"trailing input {value!r}", column=col)
    return result


# ---------------------------------------------------------------------------
# Frobenius-adapted decomposition and the trace operator


def pe_decompose(f, e):
    """Write f = sum_a g_a^(p^e) x^a, a in [0, p^e-1]^n; return {a: g_a}.

    The map omits zero g_a.  Uniqueness comes from the freeness of the ring
    over its p^e-th powers on the monomial basis; exactness from Frobenius
    being the identity on F_p coefficients.
    """
    ring = f.ring
    ring.caps.check_e(e)
    q = ring.p ** e
    out = {}
    for m, c in f.terms.items():
        a = tuple(x % q for x in m)
        g = tuple(x // q for x in m)
        out.setdefault(a, {})[g] = c
    return {a: Poly(ring, terms) for a, terms in out.items()}


def cartier_trace(f, e, premul=None):
    """Trace operator of level e applied to premul*f.

    Returns g_a for a = (p^e-1, ..., p^e-1) of the decomposition; in
    particular the projection formula  trace(g^(p^e) * h) = g * trace(h)
    holds exactly.
    """
    ring = f.ring
    ring.caps.check_e(e)
    if premul is not None:
        f = premul * f
    q = ring.p ** e
    res = {}
    for m, c in f.terms.items():
        if all(x % q == q - 1 for x in m):
            res[tuple((x - (q - 1)) // q for x in m)] = c
    return Poly(ring, res)


# ---------------------------------------------------------------------------
# gauges


@dataclass(frozen=True)
class Gauge:
    """Max-norm gauge value; ``bottom`` is the gauge of 0."""

    is_finite: bool
    value: int = 0

    @staticmethod
    def bottom():
        return Gauge(False, -1)

    @staticmethod
    def of(value):
        return Gauge(True, value)

    def __repr__(self):
        return str(self.value) if self.is_finite else "-inf"


def gauge_of(f):
    """Max over terms of the max-norm of the exponent vector; bottom for 0."""
    if f.is_zero():
        return Gauge.bottom()
    if f.ring.nvars == 0:
        return Gauge.of(0)
    return Gauge.of(max(max(m) for m in f.terms))
