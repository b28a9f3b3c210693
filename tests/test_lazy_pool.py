"""The test-element search builds only the candidates it reads.

``_search_element`` walks a fresh ``_candidate_elements`` stream of the
candidate pool: a search that accepts ``1``, the pool's first candidate,
factors nothing and forms no product.  The memo tables hold only finished
values: the factor pool (``factor_pool``) and the whole pool with its
products' factors (``candidate_pool``).  A regularity check that reads
only the verdict (the check of ``tau``'s search) leaves its certificate's
candidate list out, and ``find_test_elements`` fills the list in for the
entries it reports.  Since ``tau`` and ``find_test_elements`` share the
``verify`` table of one memo scope, a ``find_test_elements`` report must
not depend on whether a ``tau`` ran before it.

The oracles are ``eager_pool``, the pool built whole in one go, in the
order of ``candidate_elements``'s docstring, and the public
``is_f_regular`` of each reported localized piece, which formats its own
candidate list.  The draws are the seeded ``random_cartier_module`` draws
whose associated primes nest, so the search isolates (``tau_prime`` must),
and the corpus pair of ``intro_example_p2``, whose primes (0) < (y) nest.
"""

import random

import pytest

from cartierlab import testmod
from cartierlab.cache import canonical_json
from cartierlab.cartiercore import ass_cartier, stable_torsion, underline
from cartierlab.errors import ResourceCapError
from cartierlab.groebner import memo_scope
from cartierlab.scene import parse_scene, run_task
from cartierlab.testmod import (candidate_elements, find_test_elements,
                                is_f_regular, tau, tau_prime)

from instancegen import corpus_pair, cusp_grid, random_cartier_module

# (p, seed) of the 2-variable ``random_cartier_module`` draws whose
# associated primes nest: (0) < (x + 1), (0) < (x), (y + 1) and the like
NESTED = [(2, 2), (2, 19), (2, 57), (3, 2), (3, 19), (3, 42), (3, 57)]


def nested_draw(p, seed):
    rng = random.Random(seed)
    return random_cartier_module(rng, p, 2, extra_generator=seed % 3 == 0)


def nested_modules():
    return ([nested_draw(p, seed) for p, seed in NESTED]
            + [corpus_pair("intro_example_p2")])


def eager_pool(cm):
    """(candidates, factors) built whole: ``1``, the variables, the factor
    pool, the pairwise products of the variables and factors, then 12
    seeded linear forms, each candidate once."""
    ring = cm.ring
    out, factors = [], {}

    def add(f, pair=None):
        if not f.is_zero() and f not in out:
            out.append(f)
            if pair is not None:
                factors[f] = pair

    variables = ring.gens()
    for f in [ring.one()] + variables:
        add(f)
    pool = testmod._factor_pool(cm)
    for f in pool:
        add(f)
    base = variables + pool
    for i, a in enumerate(base):
        for b in base[i:]:
            add(a * b, (a, b))
    rng = random.Random(0x7E57E1)
    for _ in range(12):
        coeffs = [rng.randrange(ring.p) for _ in range(ring.nvars + 1)]
        f = ring.const(coeffs[-1])
        for c, v in zip(coeffs, variables):
            f = f + v.scale(c)
        if not f.is_constant():
            add(f)
    return tuple(out), factors


def eager_stream(cm):
    """A stand-in for ``_candidate_elements`` that builds the whole pool
    before any candidate is read."""
    candidates, factors = eager_pool(cm)
    return iter([(c, factors.get(c)) for c in candidates])


def counting(monkeypatch, name):
    """Patch ``testmod.<name>`` to record its calls; returns the record."""
    calls = []
    real = getattr(testmod, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(testmod, name, counted)
    return calls


def recording_streams(monkeypatch):
    """Patch ``_candidate_elements`` to record, per stream, the candidates
    it yielded as text; returns the list of records."""
    streams = []
    real = testmod._candidate_elements

    def recording(cm):
        read = []
        streams.append(read)
        for f, pair in real(cm):
            read.append(str(f))
            yield f, pair

    monkeypatch.setattr(testmod, "_candidate_elements", recording)
    return streams


def reports(cm):
    """The canonical reports of ``tau``, ``tau_prime`` and
    ``find_test_elements``, each call in its own memo scope."""
    return [canonical_json(call(cm).serialize())
            for call in (tau, tau_prime, find_test_elements)]


def pools_of(cm):
    """``cm`` and the localized cores its test-element search checks."""
    core, _k = underline(cm)
    cmc = cm.with_carrier(core)
    out = [cm, cmc]
    for entry in find_test_elements(cm).entries:
        out.append(localized_core(cmc, core, entry))
    return out


def localized_core(cmc, core, entry):
    """The module whose regularity ``entry``'s check decided: the stable
    torsion piece at its prime, with its element inverted, cut down to its
    stable core."""
    piece = stable_torsion(cmc, entry.prime, core)
    loc = cmc.localize(entry.element)
    loc = loc.with_carrier(loc.canon(piece.gens))
    return loc.with_carrier(underline(loc)[0])


def test_a_search_that_accepts_one_builds_one_candidate(monkeypatch):
    """On the cusp grid every search accepts ``1`` through the one-closure
    proof: no factoring, streams that yield ``1`` alone, no pool in either
    table, and no candidate list in any verdict."""
    calls = [counting(monkeypatch, name)
             for name in ("irreducible_factors_best_effort", "_factor_pool",
                          "_candidate_names")]
    streams = recording_streams(monkeypatch)
    verdicts = 0
    for cm in cusp_grid():
        memo = {}
        with memo_scope(memo):
            result = tau(cm)
        elements = result.certificate.get("test_elements", [])
        assert all(e["element"] == "1" for e in elements)
        assert not memo.get("factor_pool") and not memo.get("candidate_pool")
        for ok, cert in memo.get("verify", {}).values():
            assert ok and cert["candidates"] is None
            verdicts += 1
    assert calls == [[], [], []]
    assert streams and all(read == ["1"] for read in streams)
    assert verdicts == 12


def test_the_search_stream_is_the_eager_pool(monkeypatch):
    """Read in part, up to ``1`` and the variables, the search's stream of
    each module, its cores and the localized cores its search checks
    factors nothing.  Read whole, it is ``eager_pool``, products' factors
    included, and so is the memoised pool, which factors nothing more."""
    modules = [module for cm in nested_modules() + cusp_grid()[5:7]
               for module in pools_of(cm)]
    wants = [eager_pool(module) for module in modules]
    pools = counting(monkeypatch, "_factor_pool")
    factored = counting(monkeypatch, "irreducible_factors_best_effort")
    for module, want in zip(modules, wants):
        pools.clear()
        with memo_scope():
            stream = testmod._candidate_elements(module)
            head = 1 + module.ring.nvars
            read = [next(stream) for _ in range(head)]
            assert read == [(c, None) for c in want[0][:head]]
            assert pools == []
            read += list(stream)
            assert pools == ["_factor_pool"]
            assert tuple(c for c, _pair in read) == want[0]
            assert {c: pair for c, pair in read if pair is not None} \
                == want[1]
            before = len(factored)
            assert testmod._candidate_pool(module) == want
            assert candidate_elements(module) == list(want[0])
            assert len(factored) == before
    assert len(modules) > 30


def test_lazy_search_matches_eager_search(monkeypatch):
    """The same test elements and byte-identical reports as a search that
    builds the whole pool before it reads any candidate."""
    modules = nested_modules()
    lazy = [reports(cm) for cm in modules]
    monkeypatch.setattr(testmod, "_candidate_elements", eager_stream)
    assert [reports(cm) for cm in modules] == lazy


def test_searches_accept_past_the_factor_pool():
    """The nested draws read the pool past its factors: isolating searches
    accept the products x*y + x and x*y, and searches with nothing to
    isolate, which read only the stream, accept the linear forms x + y and
    x + 1 after every product."""
    past = set()
    for cm in nested_modules():
        core, _k = underline(cm)
        cmc = cm.with_carrier(core)
        pool, factors = eager_pool(cmc)
        head = 1 + max(pool.index(g) for g in
                       cmc.ring.gens() + testmod._factor_pool(cmc))
        ass = ass_cartier(cmc)
        for entry in find_test_elements(cm).entries:
            if pool.index(entry.element) < head:
                continue
            isolating = any(nu != entry.prime
                            and nu.ideal.contains_ideal(entry.prime.ideal)
                            for nu in ass)
            past.add((str(entry.element), entry.element in factors,
                      isolating))
    assert {("x*y + x", True, True), ("x*y", True, True),
            ("x + y", False, False), ("x + 1", False, False)} <= past, past


def test_reported_candidates_are_the_checks_own():
    """Each certificate of ``find_test_elements`` whose check walked to a
    verdict is the public ``is_f_regular`` certificate of the localized
    piece, candidate list included.  Some of those lists drop pool
    candidates that lie in an associated prime of the piece."""
    compared = filtered = 0
    for cm in nested_modules():
        core, _k = underline(cm)
        cmc = cm.with_carrier(core)
        for entry in find_test_elements(cm).entries:
            if "ass" not in entry.certificate:
                continue
            loc = localized_core(cmc, core, entry)
            ok, cert = is_f_regular(loc)
            assert ok and entry.certificate == cert
            compared += 1
            filtered += len(cert["candidates"]) < len(candidate_elements(loc))
    assert compared > 10 and filtered > 3, (compared, filtered)


@pytest.mark.parametrize("first", [tau, tau_prime], ids=["tau", "tau_prime"])
def test_find_test_elements_after_tau_in_one_scope(first):
    """A ``tau`` that stored verdict-only checks earlier in the scope leaves
    the ``find_test_elements`` report as it is on its own."""
    for cm in nested_modules() + cusp_grid():
        fresh = canonical_json(find_test_elements(cm).serialize())
        with memo_scope():
            first(cm)
            after = canonical_json(find_test_elements(cm).serialize())
            again = canonical_json(find_test_elements(cm).serialize())
        assert after == again == fresh


def test_a_factoring_fault_stores_nothing(monkeypatch):
    """A fault while factoring the pool reaches the stream's reader at the
    fourth candidate, after ``1``, x and y, and then the reader of the
    whole pool; neither table stores anything.  The next read builds the
    whole pool."""
    cm = nested_draw(3, 42)
    want = eager_pool(cm)
    real = testmod.irreducible_factors_best_effort
    failures = [ResourceCapError("cap reached once") for _ in range(2)]

    def flaky(f):
        if failures:
            raise failures.pop()
        return real(f)

    monkeypatch.setattr(testmod, "irreducible_factors_best_effort", flaky)
    memo = {}
    with memo_scope(memo):
        read = []
        with pytest.raises(ResourceCapError):
            for c, _pair in testmod._candidate_elements(cm):
                read.append(c)
        assert read == list(want[0][:3])
        with pytest.raises(ResourceCapError):
            testmod._candidate_pool(cm)
        assert not memo.get("factor_pool") and not memo.get("candidate_pool")
        assert testmod._candidate_pool(cm) == want
        assert candidate_elements(cm) == list(want[0])
        assert list(memo["factor_pool"].values()) \
            == [testmod._factor_pool(cm)]


SCENE = """
scene nested
ring p=2 vars=x,y
module N rank=2 relations="y|0"
algebra C gens="1:y,0/0,x"
pair P module=N algebra=C
"""


@pytest.mark.parametrize("task", ["testelements", "fregular"])
def test_a_tau_task_before_a_reporting_task(task):
    """In one scene a ``tau`` task fills the ``verify`` table first; the
    ``testelements`` and ``fregular`` tasks that follow on the same pair
    report what they report in a scene of their own.  The ``testelements``
    task prints only (prime, element) pairs, so the certificates it leaves
    in the scene's memo are compared as well."""
    line = f"task {task} pair=P"
    shared = parse_scene(SCENE + "task tau pair=P\n" + line + "\n")
    alone = parse_scene(SCENE + line + "\n")

    def report(scene, task):
        return canonical_json(run_task(scene, task, {}).serialize())

    run_task(shared, shared.tasks[0], {})
    assert shared.memo["verify"]
    assert report(shared, shared.tasks[1]) == report(alone, alone.tasks[0])
    cm = shared.pairs["P"]
    fresh = canonical_json(find_test_elements(cm).serialize())
    with memo_scope(shared.memo):
        assert canonical_json(find_test_elements(cm).serialize()) == fresh
