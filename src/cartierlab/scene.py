"""Scene files: one reproducible experiment per file.

Grammar (line-based; ``#`` starts a comment; values with spaces are quoted):

    scene NAME
    ring p=P vars=x,y [order=grevlex] [maxdeg=N]
    module NAME rank=R [relations="p|p ; p|p"]
    submodule NAME of=MODULE gens="p|p ; p|p"
    algebra NAME gens="E:row/row ; E:row/row" [twist="(f,g)^N/D ; (h)^N/D"]
    map NAME kind=finite adjoin=z relation="z^2+2x"
    map NAME kind=localize at="x"
    map NAME kind=affine-line var=u
    pair NAME module=M algebra=A [carrier=SUB] [invert="c"]
    task OP key=value ...

Vectors separate components with ``|``; lists of vectors with ``;``; matrix
rows with ``/`` and entries with ``,``.  Polynomials use the engine's text
grammar.  Every pair is validated before any task runs.  Rationals are
always N/D in lowest terms.
"""

import shlex
from fractions import Fraction

from .cartiercore import (CartierAlgebraSpec, CartierOp, ass_cartier,
                          nilpotence, underline, validate_structure)
from .errors import (CartierLabError, InvalidStructureError, ParseError,
                     ResourceCapError)
from .filtration import gr, jumping_numbers, skoda_report
from .fppoly import EngineCaps, RingSpec
from .fpmod import PresentedModule
from .functorops import RingMap, coherent_model, pushforward_point
from .groebner import memo_scope
from .idealkit import Ideal, PrimeIdeal
from .testmod import find_test_elements, is_f_regular, tau, tau_bms, tau_prime


class Scene:
    def __init__(self, name):
        self.name = name
        self.ring = None
        self.modules = {}
        self.submodules = {}
        self.algebras = {}
        self.maps = {}
        self.pairs = {}
        self.tasks = []


def _kv(parts, line_no):
    out = {}
    for part in parts:
        if "=" not in part:
            raise ParseError(f"expected key=value, got {part!r}", line=line_no)
        k, v = part.split("=", 1)
        out[k] = v
    return out


def _parse_fraction(text):
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def parse_scene(text, name="scene"):
    scene = Scene(name)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            parts = shlex.split(line)
        except ValueError as ex:
            raise ParseError(str(ex), line=line_no)
        head, rest = parts[0], parts[1:]
        if head == "scene":
            scene.name = rest[0] if rest else name
        elif head == "ring":
            kv = _kv(rest, line_no)
            caps = EngineCaps(max_total_degree=int(kv["maxdeg"])) \
                if "maxdeg" in kv else EngineCaps()
            variables = [v for v in kv.get("vars", "").split(",") if v]
            scene.ring = RingSpec(int(kv["p"]), variables,
                                  kv.get("order", "grevlex"), caps)
        elif head == "module":
            kv = _kv(rest[1:], line_no)
            name_ = rest[0]
            rels = _parse_vectors(scene, kv.get("relations", ""), line_no)
            scene.modules[name_] = PresentedModule(
                scene.ring, int(kv["rank"]), rels)
        elif head == "submodule":
            kv = _kv(rest[1:], line_no)
            parent = scene.modules[kv["of"]]
            gens = _parse_vectors(scene, kv["gens"], line_no)
            scene.submodules[rest[0]] = parent.submodule(gens)
        elif head == "algebra":
            kv = _kv(rest[1:], line_no)
            gens = []
            for chunk in _split_list(kv["gens"]):
                e_text, matrix_text = chunk.split(":", 1)
                rows = [[scene.ring.parse(entry) for entry in row.split(",")]
                        for row in matrix_text.split("/")]
                gens.append(CartierOp(int(e_text), rows))
            twists = []
            for chunk in _split_list(kv.get("twist", "")):
                ideal_text, t_text = chunk.rsplit("^", 1)
                twists.append((_parse_ideal(scene, ideal_text, line_no),
                               _parse_fraction(t_text)))
            scene.algebras[rest[0]] = CartierAlgebraSpec(gens, twists or None)
        elif head == "map":
            kv = _kv(rest[1:], line_no)
            if "compose" in kv:
                # left-to-right composition of previously declared maps
                chain = []
                base = scene.ring
                for name_ in kv["compose"].split(","):
                    step = scene.maps[name_.strip()]
                    if isinstance(step, list):
                        chain.extend(step)
                    else:
                        chain.append(step)
                scene.maps[rest[0]] = chain
                continue
            kind = kv["kind"]
            if kind == "finite":
                m = RingMap.finite(scene.ring, kv["adjoin"], kv["relation"])
            elif kind == "localize":
                m = RingMap.localize(scene.ring, kv["at"])
            elif kind == "affine-line":
                m = RingMap.affine_line(scene.ring, kv["var"])
            else:
                raise ParseError(f"unknown map kind {kind!r}", line=line_no)
            scene.maps[rest[0]] = m
        elif head == "pair":
            kv = _kv(rest[1:], line_no)
            module = scene.modules[kv["module"]]
            algebra = scene.algebras[kv["algebra"]]
            carrier = scene.submodules.get(kv["carrier"]) \
                if "carrier" in kv else None
            inverted = scene.ring.parse(kv["invert"]) if "invert" in kv \
                else None
            scene.pairs[rest[0]] = validate_structure(
                module, algebra, carrier=carrier, inverted=inverted)
        elif head == "task":
            kv = _kv(rest[1:], line_no)
            kv["op"] = rest[0]
            kv["line"] = line_no
            scene.tasks.append(kv)
        else:
            raise ParseError(f"unknown directive {head!r}", line=line_no)
    return scene


def _split_list(text):
    return [c.strip() for c in text.split(";") if c.strip()]


def _parse_vectors(scene, text, line_no):
    out = []
    for chunk in _split_list(text):
        out.append([scene.ring.parse(c) for c in chunk.split("|")])
    return out


def _parse_ideal(scene, text, line_no):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"ideal must be parenthesized: {text!r}",
                         line=line_no)
    inner = text[1:-1].strip()
    if not inner or inner == "0":
        return Ideal(scene.ring, [])
    return Ideal(scene.ring, [scene.ring.parse(c)
                              for c in inner.split(",")])


def _parse_prime(scene, text, line_no=0):
    return PrimeIdeal(_parse_ideal(scene, text, line_no), proved=True)


def load_scene(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    import os

    return parse_scene(text, name=os.path.splitext(os.path.basename(path))[0])


# ---------------------------------------------------------------------------
# task execution


class TaskOutcome:
    def __init__(self, task, status, result):
        self.task = task
        self.status = status  # ok | fail | expected-negative
        self.result = result

    def serialize(self):
        echo = {k: v for k, v in self.task.items() if k != "line"}
        return {"task": echo, "status": self.status, "result": self.result}


def _submodule_matches(scene, sub, expected_text):
    parent = sub.parent
    want = parent.submodule(_parse_vectors(scene, expected_text, 0))
    return sub == parent.submodule(tuple(want.gens))


def _expect_check(outcome_value, expected_text):
    return str(outcome_value) == expected_text


@memo_scope()
def run_task(scene, task, flags):
    op = task["op"]
    seed = int(flags.get("seed", task.get("seed", 0)))
    e_max = flags.get("e_max")
    cache = flags.get("cache")

    def pair():
        return scene.pairs[task["pair"]]

    if op == "tau" or op == "tauprime":
        cm = pair()
        fn = tau if op == "tau" else tau_prime
        if "t" in task and "ideal" in task:
            alg = cm.algebra.with_twist(_parse_ideal(scene, task["ideal"], 0),
                                        _parse_fraction(task["t"]))
            cm = validate_structure(cm.module, alg, carrier=cm.carrier,
                                    inverted=cm.inverted)
        supplied = None
        if "test-elements" in task:
            from .testmod import TestElementEntry, TestElementSequence

            entries = []
            for chunk in _split_list(task["test-elements"]):
                prime_text, elem = chunk.rsplit(":", 1)
                entries.append(TestElementEntry(
                    _parse_prime(scene, prime_text), scene.ring.parse(elem),
                    {"provenance": "supplied"}))
            supplied = TestElementSequence(entries)
        res = fn(cm, test_elements=supplied, e0=int(task.get("e0", 0)),
                 seed=seed)
        result = res.serialize()
        ok = True
        if "expect" in task:
            ok = _submodule_matches(scene, res.submodule, task["expect"])
        return TaskOutcome(task, "ok" if ok else "fail", result)
    if op == "taubms":
        f = scene.ring.parse(task["f"])
        t = _parse_fraction(task["t"])
        J = tau_bms(f, t, e_max=int(e_max) if e_max else None)
        ok = True
        if "expect" in task:
            ok = J == _parse_ideal(scene, task["expect"], 0)
        return TaskOutcome(task, "ok" if ok else "fail",
                           {"ideal": J.serialize()})
    if op == "stabilize":
        core, k = underline(pair())
        ok = True
        if "expect-exponent" in task:
            ok &= k == int(task["expect-exponent"])
        if "expect" in task:
            ok &= _submodule_matches(scene, core, task["expect"])
        return TaskOutcome(task, "ok" if ok else "fail",
                           {"exponent": k, "core": core.serialize()})
    if op == "nilpotent":
        cm = pair()
        sub = scene.submodules[task["sub"]] if "sub" in task \
            else cm.carrier_sub()
        at = _parse_prime(scene, task["at"]) if "at" in task else None
        value = nilpotence(cm, sub, at=at)
        ok = True
        if "expect" in task:
            ok = str(value).lower() == task["expect"].lower()
        return TaskOutcome(task, "ok" if ok else "fail", {"nilpotent": value})
    if op == "ass":
        primes = ass_cartier(pair())
        got = [p.ideal.serialize() for p in primes]
        ok = True
        if "expect" in task:
            want = sorted(tuple(_parse_prime(scene, t).ideal.serialize())
                          for t in _split_list(task["expect"]))
            ok = sorted(tuple(g) for g in got) == want
        return TaskOutcome(task, "ok" if ok else "fail", {"primes": got})
    if op == "fregular":
        value, cert = is_f_regular(pair(), seed=seed)
        ok = True
        if "expect" in task:
            ok = str(value).lower() == task["expect"].lower()
        return TaskOutcome(task, "ok" if ok else "fail",
                           {"f_regular": value, "certificate": cert})
    if op == "testelements":
        seq = find_test_elements(pair(), seed=seed)
        got = [(",".join(e.prime.ideal.serialize()) or "0", str(e.element))
               for e in seq.entries]
        ok = True
        if "expect" in task:
            want = []
            for chunk in _split_list(task["expect"]):
                prime_text, elem = chunk.rsplit(":", 1)
                want.append((",".join(_parse_prime(scene, prime_text)
                                      .ideal.serialize()) or "0", elem))
            ok = sorted(got) == sorted(want)
        return TaskOutcome(task, "ok" if ok else "fail",
                           {"sequence": got})
    if op == "jumps":
        cm = pair()
        ideal = _parse_ideal(scene, task["ideal"], 0)
        caps_text = flags.get("denom_caps") or task.get("denom-caps", "2,2")
        A, B = (int(x) for x in caps_text.split(","))
        policy = flags.get("exact_policy") or task.get("exact-policy",
                                                       "strict")
        spectrum = jumping_numbers(
            cm, ideal, _parse_fraction(task["max-t"]), caps=(A, B),
            exact_policy=policy, e_max=int(e_max) if e_max else None,
            seed=seed, cache=cache)
        got = [f"{t.numerator}/{t.denominator}" for t in
               spectrum.jump_values()]
        ok = all(j.right_continuity_ok for j in spectrum.jumps)
        if "expect-jumps" in task:
            want = []
            for t in task["expect-jumps"].split(","):
                if t.strip():
                    fr = _parse_fraction(t)
                    want.append(f"{fr.numerator}/{fr.denominator}")
            ok &= got == want
        return TaskOutcome(task, "ok" if ok else "fail",
                           spectrum.serialize())
    if op == "gr":
        cm = pair()
        ideal = _parse_ideal(scene, task["ideal"], 0)
        qcm, info = gr(cm, ideal, _parse_fraction(task["t"]), seed=seed)
        nonzero = not qcm.module.is_zero_module()
        nilp = True
        if nonzero:
            nilp = nilpotence(qcm, qcm.module.full_submodule())
        result = {"rank": qcm.module.rank, "nonzero": nonzero,
                  "nilpotent": nilp,
                  "delta": f"{info['delta'].numerator}/"
                           f"{info['delta'].denominator}"}
        ok = True
        if "expect-nonzero" in task:
            ok &= str(nonzero).lower() == task["expect-nonzero"].lower()
        if "expect-nilpotent" in task:
            ok &= str(nilp).lower() == task["expect-nilpotent"].lower()
        return TaskOutcome(task, "ok" if ok else "fail", result)
    if op == "skoda":
        cm = pair()
        report = skoda_report(cm, _parse_ideal(scene, task["ideal"], 0),
                              _parse_fraction(task["t"]), seed=seed)
        return TaskOutcome(task, "ok" if report["ok"] else "fail", report)
    if op == "pullback":
        return _run_pullback(scene, task, seed)
    if op == "pushforward":
        return _run_pushforward(scene, task, seed)
    if op == "quasifinite":
        from .functorops import quasi_finite_check, shriek_finite

        cm = pair()
        rmap = scene.maps[task["map"]]
        if isinstance(rmap, list):
            raise ParseError("quasifinite expects one finite map")
        upstairs = cm if cm.ring == rmap.target else \
            shriek_finite(cm, rmap).cm
        invert = rmap.target.parse(task["invert"])
        report = quasi_finite_check(upstairs, invert, rmap, seed=seed)
        ok = report["included"]
        if "expect-strict" in task:
            ok &= str(report["strict"]).lower() == \
                task["expect-strict"].lower()
        return TaskOutcome(task, "ok" if ok else "fail", report)
    if op == "model":
        cm = pair()
        res = coherent_model(cm)
        tau_model = tau(res.cm, seed=seed).submodule
        result = res.serialize()
        result["tau_core"] = tau_model.serialize()
        ok = True
        if "expect-core" in task:
            ok &= _submodule_matches(scene, res.core(), task["expect-core"])
        if "expect-tau" in task:
            ok &= _submodule_matches(scene, tau_model, task["expect-tau"])
        if "expect-strict" in task:
            strict = res.core().contains_sub(tau_model) \
                and res.core() != tau_model
            ok &= str(strict).lower() == task["expect-strict"].lower()
        return TaskOutcome(task, "ok" if ok else "fail", result)
    if op == "point-pushforward":
        cm = pair()
        model, core = pushforward_point(cm)
        tau_sub = tau(cm, seed=seed).submodule
        _m2, core2 = pushforward_point(cm.with_carrier(tau_sub))
        mismatch = core.dim() != core2.dim()
        result = {"tau_of_pushforward_dim": core.dim(),
                  "pushforward_of_tau_dim": core2.dim(),
                  "mismatch": mismatch}
        if task.get("expect-negative", "false").lower() == "true":
            status = "expected-negative" if mismatch else "fail"
        else:
            status = "ok" if not mismatch else "fail"
        return TaskOutcome(task, status, result)
    raise ParseError(f"unknown task op {op!r}", line=task.get("line"))


def _run_pullback(scene, task, seed):
    from .functorops import commutation_suite, composite_pullback_report

    cm = scene.pairs[task["pair"]]
    rmap = scene.maps[task["map"]]
    check = task.get("check", "tau-commutes")
    if isinstance(rmap, list):
        report = composite_pullback_report(cm, rmap, seed=seed)
        return TaskOutcome(task, "ok" if report["ok"] else "fail", report)
    report = commutation_suite(cm, rmap, seed=seed)
    ok = report["ok"]
    if rmap.kind == "finite" and check == "tau-commutes":
        ok = ok and bool(report.get("tau_equal"))
    return TaskOutcome(task, "ok" if ok else "fail", report)


def _run_pushforward(scene, task, seed):
    from .functorops import commutation_suite

    cm = scene.pairs[task["pair"]]
    rmap = scene.maps[task["map"]]
    if rmap.kind != "finite":
        raise ParseError("pushforward tasks need a finite map")
    report = commutation_suite(cm, rmap, seed=seed)
    ok = bool(report["pushforward_tau_commutes"]) and \
        bool(report["pushforward_ass_transport"])
    return TaskOutcome(task, "ok" if ok else "fail", report)


def run_scene(scene, flags=None):
    """Execute the task list; returns (report dict, exit code)."""
    flags = flags or {}
    outcomes = []
    code = 0
    expect_negative_mode = bool(flags.get("expect_negative"))
    for task in scene.tasks:
        try:
            outcome = run_task(scene, task, flags)
        except ResourceCapError as ex:
            outcomes.append(TaskOutcome(task, "resource-cap",
                                        {"error": str(ex)}))
            code = max(code, 2)
            continue
        except InvalidStructureError as ex:
            outcomes.append(TaskOutcome(
                task, "invalid-structure",
                {"error": str(ex), "witness": list(ex.witness or ())}))
            code = max(code, 3)
            continue
        except CartierLabError as ex:
            outcomes.append(TaskOutcome(task, "error", {"error": str(ex)}))
            code = max(code, 5)
            continue
        outcomes.append(outcome)
        if outcome.status == "fail":
            code = max(code, 5)
        elif outcome.status == "expected-negative" and expect_negative_mode:
            code = max(code, 4)
    cache = flags.get("cache")
    report = {
        "scene": scene.name,
        "tasks": [o.serialize() for o in outcomes],
        "summary": {
            "ok": sum(1 for o in outcomes if o.status == "ok"),
            "fail": sum(1 for o in outcomes if o.status == "fail"),
            "expected_negative": sum(1 for o in outcomes
                                     if o.status == "expected-negative"),
            "errors": sum(1 for o in outcomes
                          if o.status in ("error", "resource-cap",
                                          "invalid-structure")),
            "cache_hits": cache.hits if cache is not None else 0,
        },
    }
    return report, code
