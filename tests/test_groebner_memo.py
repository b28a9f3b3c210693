"""The scoped memo of reduced Groebner bases, graded sums and the derived
invariants of a Cartier module.

Inside a ``memo_scope`` a repeated ``buchberger``, ``graded_sum``,
``underline``, ``stable_torsion``, ``ass_cartier`` or ``candidate_elements``
input returns the stored result; these tests pin down that a hit is
indistinguishable from a fresh computation, that an error is raised afresh,
and that the memo never outlives its outermost scope.

Keys are equal exactly when their inputs are, and are built from values at
hand: ``buchberger`` keys on each vector's cached ``VecPoly.frozen()``, and
``Submodule.basis()`` and ``relation_gb()`` return the stored tuples that
the other tables key on.  A work-count guard pins the fresh ``_buchberger``
and ``_graded_sum`` runs of a fixed workload, so a key that stops hitting,
or hits too widely, changes a number here instead of silently changing the
work.
"""

import random
from fractions import Fraction
from importlib import resources

import pytest

from cartierlab import cartiercore, cli, groebner, scene, testmod
from cartierlab.cartiercore import (CartierAlgebraSpec, CartierOp,
                                    ass_cartier, graded_sum, stable_torsion,
                                    underline, validate_structure)
from cartierlab.errors import ResourceCapError
from cartierlab.fpmod import PresentedModule
from cartierlab.filtration import gr, skoda_report
from cartierlab.fppoly import EngineCaps, Poly, RingSpec
from cartierlab.groebner import VecPoly, buchberger, memo_scope
from cartierlab.idealkit import Ideal, PrimeIdeal
from cartierlab.testmod import candidate_elements, tau, tau_bms

from instancegen import trace_grid


def _vecs(polys):
    return [VecPoly.from_columns(f.ring, [f]) for f in polys]


def _as_set(basis):
    return {frozenset((m, c) for (_pos, m), c in g.terms.items())
            for g in basis}


def random_ideal(ring, rng):
    """Two or three polynomials without constant term (so rarely the unit
    ideal), with one to three terms of degree at most 3."""
    polys = []
    for _ in range(rng.randint(2, 3)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 3)
            mono = [0] * ring.nvars
            for _ in range(deg):
                mono[rng.randrange(ring.nvars)] += 1
            terms[tuple(mono)] = rng.randrange(1, ring.p)
        polys.append(Poly(ring, terms))
    return polys


def sympy_basis(ring, polys):
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(ring.vars)
    exprs = []
    for f in polys:
        expr = 0
        for m, c in f.terms.items():
            term = c
            for s, e in zip(syms, m):
                term *= s ** e
            expr += term
        exprs.append(expr)
    gb = sympy.groebner(exprs, *syms, modulus=ring.p, order="grevlex")
    out = set()
    for g in gb.exprs:
        terms = sympy.Poly(g, *syms, modulus=ring.p).terms()
        # sympy prints coefficients in the symmetric range; map to [0, p)
        out.add(frozenset((tuple(m), int(c) % ring.p) for m, c in terms))
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_reduced_bases_match_sympy_inside_and_outside_a_scope(p):
    pytest.importorskip("sympy")
    rng = random.Random(1000 + p)
    for trial in range(8):
        ring = RingSpec(p, ("x", "y", "z")[:2 + trial % 2])
        polys = random_ideal(ring, rng)
        expected = sympy_basis(ring, polys)
        assert _as_set(buchberger(_vecs(polys))) == expected
        with memo_scope():
            assert _as_set(buchberger(_vecs(polys))) == expected
            assert _as_set(buchberger(_vecs(polys))) == expected


def test_a_hit_equals_a_fresh_computation_and_is_a_fresh_list(monkeypatch):
    R = RingSpec(3, ("x", "y"))
    gens = _vecs([R.parse("x^2 - y"), R.parse("x*y - 1")])
    fresh = buchberger(gens)
    computed = []
    real = groebner._buchberger

    def counting(*args):
        computed.append(1)
        return real(*args)

    monkeypatch.setattr(groebner, "_buchberger", counting)
    with memo_scope():
        first = buchberger(gens)
        first.clear()
        second = buchberger(_vecs([R.parse("x^2 - y"), R.parse("x*y - 1")]))
        assert second == fresh
        second.append(gens[0])
        assert buchberger(gens) == fresh
    assert computed == [1]


def test_the_memo_is_dropped_when_the_outermost_scope_exits():
    R = RingSpec(2, ("x", "y"))
    gens = _vecs([R.parse("x^2 + y"), R.parse("x*y")])
    assert groebner._MEMO.get() is None
    with memo_scope():
        with memo_scope():
            buchberger(gens)
        assert groebner._MEMO.get()
    assert groebner._MEMO.get() is None

    @memo_scope()
    def failing():
        buchberger(gens)
        assert groebner._MEMO.get()
        raise ValueError("boom")

    with pytest.raises(ValueError):
        failing()
    assert groebner._MEMO.get() is None

    cm = cusp_module("1/2")
    with memo_scope():
        for call, _owner, _inner in INVARIANTS.values():
            call(cm)
        assert set(INVARIANTS) <= set(groebner._MEMO.get())
    assert groebner._MEMO.get() is None


@pytest.mark.parametrize(
    "call", ["tau_bms", "underline", "stable_torsion", "ass_cartier", "gr",
             "skoda_report"])
def test_top_level_calls_memoise_and_leave_no_memo(call, monkeypatch):
    R = RingSpec(2, ("x", "y"))
    cm = cusp_module("1/2")
    cusp = Ideal(R, [R.parse("x^3 + y^2")])
    plain = validate_structure(PresentedModule.free(R, 1),
                               CartierAlgebraSpec([CartierOp(1, [[R.one()]])]))
    seen = []
    real = groebner._buchberger

    def recording(*args):
        seen.append(groebner._MEMO.get() is not None)
        return real(*args)

    monkeypatch.setattr(groebner, "_buchberger", recording)
    if call == "tau_bms":
        tau_bms(R.parse("x^3 + y^2"), "5/6")
    elif call == "gr":
        gr(plain, cusp, Fraction(3, 4), caps=(1, 1))
    elif call == "skoda_report":
        skoda_report(plain, cusp, 1)
    else:
        INVARIANTS[call][0](cm)
    assert seen and all(seen)
    assert groebner._MEMO.get() is None


class _NoPairs(EngineCaps):
    """Caps under which any S-pair exceeds the pair cap."""

    pair_cap = 0


def test_a_capped_call_still_raises_on_a_repeated_input():
    """The ring's caps are part of the memo key: an equal ring with a
    smaller pair cap does not read the basis of the uncapped one."""
    R = RingSpec(3, ("x", "y"))
    capped = RingSpec(3, ("x", "y"), _NoPairs())
    assert capped == R
    text = ["x^2 - y", "x*y - 1"]
    with memo_scope():
        buchberger(_vecs([R.parse(f) for f in text]))
        for _ in range(2):
            with pytest.raises(ResourceCapError):
                buchberger(_vecs([capped.parse(f) for f in text]))


def test_a_graded_sum_hit_equals_a_fresh_sum(monkeypatch):
    R = RingSpec(3, ("y",))
    alg = CartierAlgebraSpec([CartierOp(1, [[R.one()]])],
                             twist=(Ideal(R, [R.parse("y")]), Fraction(1, 2)))
    cm = validate_structure(PresentedModule.free(R, 1), alg)
    fresh, fresh_info = graded_sum(cm, cm.carrier_sub())
    computed = []
    real = cartiercore._graded_sum

    def counting(*args):
        computed.append(1)
        return real(*args)

    monkeypatch.setattr(cartiercore, "_graded_sum", counting)
    with memo_scope():
        first, info = graded_sum(cm, cm.carrier_sub())
        info.clear()
        again, again_info = graded_sum(cm, cm.module.full_submodule())
    assert computed == [1]
    assert first == again == fresh
    assert again_info == fresh_info


def cusp_module(t):
    """Tr on F_2[x,y] twisted by (x^3 + y^2)^t: the stable core is the whole
    ring for t = 1/4 and (x, y) for t = 1/2."""
    R = RingSpec(2, ("x", "y"))
    alg = CartierAlgebraSpec([CartierOp(1, [[R.one()]])],
                             twist=(Ideal(R, [R.parse("x^3 + y^2")]),
                                    Fraction(t)))
    return validate_structure(PresentedModule.free(R, 1), alg)


def _generic_point(cm):
    return PrimeIdeal(Ideal(cm.ring, []))


# memo table name -> (call, module owning the computation, its name)
INVARIANTS = {
    "underline": (underline, cartiercore, "_underline"),
    "stable_torsion": (
        lambda cm: stable_torsion(cm, _generic_point(cm), cm.carrier_sub()),
        cartiercore, "torsion"),
    "ass_cartier": (ass_cartier, cartiercore, "_ass_cartier"),
    "candidate_pool": (candidate_elements, testmod, "_candidate_elements"),
}


def _counting(monkeypatch, owner, name):
    computed = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        computed.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return computed


@pytest.mark.parametrize("table", sorted(INVARIANTS))
def test_an_invariant_hit_equals_a_fresh_computation(table, monkeypatch):
    call, owner, inner = INVARIANTS[table]
    # two twist exponents of one curve, each also with 1 inverted
    modules = [cusp_module(t) for t in ("1/4", "1/2")]
    modules += [cm.localize(cm.ring.one()) for cm in modules]
    fresh = []
    for cm in modules:
        with memo_scope():
            fresh.append(call(cm))
    # a key that dropped the exponent would hand t = 1/2 the core of 1/4
    assert underline(modules[0]) != underline(modules[1])
    computed = _counting(monkeypatch, owner, inner)
    with memo_scope():
        first = [call(cm) for cm in modules]
        for result in first:
            if isinstance(result, list):
                result.clear()
        again = [call(cm) for cm in modules]
    # one computation per exponent: inverting 1 reads as inverting nothing
    assert len(computed) == 2
    assert again == fresh


@pytest.mark.parametrize("table", sorted(INVARIANTS))
def test_an_invariant_error_is_not_stored(table, monkeypatch):
    call, owner, inner = INVARIANTS[table]
    cm = cusp_module("1/2")
    with memo_scope():
        fresh = call(cm)
    real = getattr(owner, inner)
    failures = [ResourceCapError("cap reached once")]

    def flaky(*args, **kwargs):
        if failures:
            raise failures.pop()
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, inner, flaky)
    with memo_scope():
        with pytest.raises(ResourceCapError):
            call(cm)
        assert call(cm) == fresh


def test_equal_modules_with_other_relations_keep_their_own_pool():
    """R/(x) and R/(x, xy^2+xy+x) are equal modules, but the candidate pool
    factors the relations as given, so the second has the larger pool and
    a memo hit from the first would change its regularity certificate."""
    R = RingSpec(2, ("x", "y"))
    alg = CartierAlgebraSpec([CartierOp(1, [[R.parse("x")]])])
    small, large = (
        validate_structure(
            PresentedModule(R, 1, [[R.parse(r)] for r in relations]), alg)
        for relations in (["x"], ["x", "x*y^2 + x*y + x"]))
    assert small.module == large.module
    fresh_pool = candidate_elements(large)
    fresh_verdict = testmod.is_f_regular(large)
    assert len(candidate_elements(small)) < len(fresh_pool)
    with memo_scope():
        candidate_elements(small)
        testmod.is_f_regular(small)
        assert candidate_elements(large) == fresh_pool
        assert testmod.is_f_regular(large) == fresh_verdict


def test_a_regularity_verdict_is_kept_per_localized_carrier():
    """The check of a test element decides on the piece it is given, also
    when both pieces share one scope, whose tables key on the carrier: the
    cusp at t = 1/2 is not F-pure on the whole ring but regular on its
    core."""
    cm = cusp_module("1/2")
    pieces = (cm.carrier_sub(), underline(cm)[0])
    fresh = []
    for piece in pieces:
        with memo_scope():
            fresh.append(testmod._verify_test_element(cm, cm.ring.one(),
                                                      piece))
    assert fresh[0][0] is False and fresh[1][0] is True
    with memo_scope():
        assert [testmod._verify_test_element(cm, cm.ring.one(), piece)
                for piece in pieces] == fresh


def test_nested_decorated_calls_share_the_outer_memo():
    seen = []

    @memo_scope()
    def inner():
        seen.append(groebner._MEMO.get())

    @memo_scope()
    def outer():
        seen.append(groebner._MEMO.get())
        inner()

    outer()
    outer()
    assert groebner._MEMO.get() is None
    first, nested, second, _ = seen
    assert first is not None and nested is first
    assert second is not first
    assert inner.__wrapped__ is not None and inner.__name__ == "inner"


def test_a_decorated_call_that_raises_leaves_no_memo():
    """An inner call that raises keeps the outer memo open; the outermost
    call that raises unsets it."""
    @memo_scope()
    def failing():
        raise ValueError("boom")

    @memo_scope()
    def outer():
        memo = groebner._MEMO.get()
        with pytest.raises(ValueError):
            failing()
        assert groebner._MEMO.get() is memo
        failing()

    with pytest.raises(ValueError):
        outer()
    assert groebner._MEMO.get() is None


def test_a_decorated_call_inside_a_given_memo_writes_into_it():
    cm = cusp_module("1/2")
    memo = {}
    with memo_scope(memo):
        with memo_scope():
            assert groebner._MEMO.get() is memo
        underline(cm)
    assert groebner._MEMO.get() is None
    assert {"underline", "graded_sum", "buchberger"} <= set(memo)
    with memo_scope({}):
        with memo_scope(memo):
            assert groebner._MEMO.get() is not memo


def test_equal_vectors_filled_in_other_orders_share_one_entry(monkeypatch):
    R = RingSpec(3, ("x", "y"))
    terms = list(VecPoly.from_columns(
        R, [R.parse("x^2*y - y^2 + x - 1")]).terms.items())
    a = VecPoly(R, 1, dict(terms))
    b = VecPoly(R, 1, dict(reversed(terms)))
    assert list(a.terms) != list(b.terms)
    assert a == b and hash(a) == hash(b) and a.frozen() == b.frozen()
    assert a.frozen() is a.frozen()
    other = VecPoly.from_columns(R, [R.parse("x*y - 1")])
    computed = _counting(monkeypatch, groebner, "_buchberger")
    memo = {}
    with memo_scope(memo):
        first = buchberger([a, other])
        assert buchberger([b, other]) == first
    assert len(memo["buchberger"]) == 1 and computed == [1]


def test_bases_are_the_stored_tuples():
    R = RingSpec(2, ("x", "y"))
    M = PresentedModule(R, 2, [[R.parse("x^2"), R.parse("y")]])
    sub = M.submodule([[R.parse("x"), R.one()]])
    basis = sub.basis()
    assert isinstance(basis, tuple) and sub.basis() is basis
    assert M.relation_gb() is M.relation_gb()
    assert M.zero_submodule().basis() is M.relation_gb()
    assert sub == sub and M == M


def test_equal_rings_with_other_caps_hash_equal():
    roomy = RingSpec(3, ("x", "y"))
    tight = RingSpec(3, ("x", "y"), EngineCaps(max_total_degree=5))
    assert roomy == tight and hash(roomy) == hash(tight)
    assert roomy.caps != tight.caps
    assert roomy != RingSpec(3, ("y", "x"))


# fresh (_buchberger, _graded_sum) runs, measured before the keys of the
# memo tables were last changed
GRID_RUNS = (586, 260)
CORPUS_RUNS = (697, 273)


def test_fresh_runs_of_a_fixed_workload_are_pinned(monkeypatch):
    """The 84 grid points of x^3 + y^2 over F_2 and x^2 + y^2 over F_3,
    one scope per ``tau`` call, and one replay of the bundled corpus, each
    scene in its own memo."""
    grid = [cm for p, text in ((2, "x^3 + y^2"), (3, "x^2 + y^2"))
            for _t, cm in trace_grid(p, text)]
    assert len(grid) == 84
    folder = resources.files("cartierlab").joinpath("corpus")
    bases = _counting(monkeypatch, groebner, "_buchberger")
    sums = _counting(monkeypatch, cartiercore, "_graded_sum")
    for cm in grid:
        tau(cm)
    assert (len(bases), len(sums)) == GRID_RUNS
    bases.clear()
    sums.clear()
    # the replay parses each scene (its validations count) and runs its
    # tasks in the memo the scene holds
    for name in cli.corpus_scene_names():
        sc = scene.parse_scene(folder.joinpath(name).read_text("utf-8"),
                               name=name.rsplit(".", 1)[0])
        for task in sc.tasks:
            scene.run_task(sc, task, {})
    assert (len(bases), len(sums)) == CORPUS_RUNS
