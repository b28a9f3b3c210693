"""The ``tau`` and functor-report tables of a memo scope.

``tau`` is memoised on the structure key, the carrier's basis and ``e0``;
supplied test elements bypass the table.  ``tau_prime`` keeps no table,
but shares the scope's tables beneath it with ``tau``.
``commutation_suite`` is memoised on the module, its carrier and the map,
so a scene's ``pushforward`` task reads back the report that its
``pullback`` twin built.  Every read must equal a fresh computation.
"""

import pytest

from cartierlab import functorops, testmod
from cartierlab.cache import canonical_json
from cartierlab.cartiercore import (CartierAlgebraSpec, CartierOp,
                                    validate_structure)
from cartierlab.fppoly import RingSpec
from cartierlab.fpmod import PresentedModule
from cartierlab.groebner import memo_scope
from cartierlab.scene import parse_scene, run_task

from instancegen import corpus_pair

# One pair under two finite maps that differ only in their relation: the
# ramified double cover keeps tau upstairs strictly inside the transported
# tau, the etale one does not.
TWO_COVERS = """
scene two_covers
ring p=3 vars=x
module Q rank=1 relations="x"
algebra TRX gens="1:x^2"
pair P module=Q algebra=TRX
map ramified kind=finite adjoin=z relation="z^2+2x"
map etale kind=finite adjoin=z relation="z^2+x+1"
task pullback pair=P map=ramified check=tau-included
task pushforward pair=P map=ramified
task pullback pair=P map=etale check=tau-included
"""

SUPPLIED = """
scene supplied
ring p=2 vars=x,y
module M rank=1
algebra A gens="1:1"
pair P module=M algebra=A
task {op} pair=P ideal=(x*y) t=1/2 test-elements=(0):x
task {op} pair=P ideal=(x*y) t=1/2
"""


def outcome(scene, task):
    return canonical_json(run_task(scene, task, {}).serialize())


def alone(text, index):
    """The outcome of task ``index`` on a freshly parsed scene."""
    fresh = parse_scene(text)
    return outcome(fresh, fresh.tasks[index])


def counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records its first
    argument on every call; returns the list of recorded arguments."""
    calls = []
    real = getattr(module, name)

    def wrapper(first, *args, **kwargs):
        calls.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_a_pushforward_task_reads_back_its_pullback_twins_report(
        monkeypatch):
    scene = parse_scene(TWO_COVERS)
    suites = counting(monkeypatch, functorops, "_commutation_suite")
    taus = counting(monkeypatch, testmod, "_tau")
    together = [outcome(scene, task) for task in scene.tasks[:2]]
    upstairs = scene.maps["ramified"].target
    assert len(suites) == 1
    # tau upstairs serves both halves of the suite; downstairs tau and the
    # pushforward's tau are the other two
    assert [cm.ring == upstairs for cm in taus].count(True) == 1
    assert len(taus) == 3
    assert together == [alone(TWO_COVERS, i) for i in range(2)]


def test_maps_that_differ_only_in_their_relation_get_their_own_reports():
    scene = parse_scene(TWO_COVERS)
    together = [run_task(scene, task, {}) for task in scene.tasks]
    assert ([canonical_json(o.serialize()) for o in together]
            == [alone(TWO_COVERS, i) for i in range(3)])
    ramified, etale = together[0].result, together[2].result
    assert ramified["tau_equal"] is False and etale["tau_equal"] is True


@pytest.mark.parametrize("fn", [testmod.tau, testmod.tau_prime])
def test_tau_of_a_smaller_carrier_is_its_own_entry(fn):
    # F_2[x] + F_2[x] with the trace on each summand; the first summand is
    # a stable carrier whose tau is that summand, not the whole module
    R = RingSpec(2, ("x",))
    one, zero = R.one(), R.zero()
    M = PresentedModule.free(R, 2)
    alg = CartierAlgebraSpec([CartierOp(1, [[one, zero], [zero, one]])])
    cm = validate_structure(M, alg)
    summand = validate_structure(M, alg, carrier=M.submodule([[one, zero]]))
    fresh = [fn(cm), fn(summand)]
    with memo_scope():
        shared = [fn(cm), fn(summand), fn(cm)]
    assert fresh[0].submodule != fresh[1].submodule
    for got, want in zip(shared, fresh + fresh[:1]):
        assert got.submodule == want.submodule
        assert got.certificate == want.certificate


def test_tau_prime_after_tau_in_one_scope_is_its_own():
    """``tau_prime`` reads no ``tau`` entry: in a scope where ``tau`` ran
    first it returns its own, different answer."""
    cm = corpus_pair("intro_example_p2")
    fresh = [testmod.tau(cm).submodule, testmod.tau_prime(cm).submodule]
    with memo_scope():
        shared = [testmod.tau(cm).submodule, testmod.tau_prime(cm).submodule]
    assert fresh[0] != fresh[1]
    assert shared == fresh


def test_a_hit_hands_out_its_own_certificate():
    R = RingSpec(2, ("x",))
    cm = validate_structure(PresentedModule.free(R, 1),
                            CartierAlgebraSpec([CartierOp(1, [[R.one()]])]))
    with memo_scope():
        first = testmod.tau(cm)
        first.certificate["e0"] = "changed by a caller"
        assert testmod.tau(cm).certificate["e0"] == 0


@pytest.mark.parametrize("op", ["tau", "tauprime"])
@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_supplied_test_elements_bypass_the_table(op, order):
    text = SUPPLIED.format(op=op)
    scene = parse_scene(text)
    together = {i: outcome(scene, scene.tasks[i]) for i in order}
    assert together == {i: alone(text, i) for i in order}
    # the supplied element x is not the one the search picks
    assert '"element":"x"' in together[0]
    assert '"element":"x"' not in together[1]
