"""Scene files: one reproducible experiment per file.

Grammar (line-based; ``#`` starts a comment; values with spaces are quoted):

    scene NAME
    ring p=P vars=x,y [maxdeg=N]
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
always N/D in lowest terms.  A task line takes only the fields its op reads
(``_TASK_FIELDS``); any other field, or a field given twice on one line, is
a parse error.
"""

import contextlib
import os
import shlex
from fractions import Fraction

from .cartiercore import (CartierAlgebraSpec, CartierOp, ass_cartier,
                          nilpotence, underline, validate_structure)
from .errors import (CartierLabError, InvalidStructureError, ParseError,
                     ResourceCapError, UnsupportedShapeError)
from .filtration import gr, grid_denominator, jumping_numbers, skoda_report
from .fppoly import EngineCaps, RingSpec
from .fpmod import PresentedModule
from .functorops import (RingMap, coherent_model, commutation_suite,
                         composite_pullback_report, pushforward_point,
                         quasi_finite_check, shriek_finite)
from .groebner import memo_scope
from .idealkit import Ideal, PrimeIdeal, minimal_primes
from .testmod import (TestElementEntry, TestElementSequence,
                      find_test_elements, is_f_regular, tau, tau_bms,
                      tau_prime)


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
        # the memo_scope tables that all tasks of this scene share
        self.memo = {}


class _Fields:
    """The key=value fields of one scene line, read against its scene.

    A missing field, a malformed value or an unknown object name raises
    ParseError with the line number, so a bad scene never ends in a
    traceback.  Engine calls on the values read stay outside: their own
    faults propagate.  Polynomial text is parsed inside ``_at_line``, which
    adds the line to the polynomial parser's errors.  ``cache`` is the
    run's ``ResultCache`` (or None), which a ``jumps`` task reads.
    """

    def __init__(self, scene, kv, line, cache=None):
        self.scene = scene
        self.kv = kv
        self.line = line
        self.cache = cache

    def __contains__(self, key):
        return key in self.kv

    def only(self, allowed, what):
        """Reject a field outside ``allowed``: a misspelt key would
        otherwise drop the check or setting it names without a word."""
        unknown = sorted(set(self.kv) - set(allowed))
        if unknown:
            raise self.error(f"unknown {what} field {unknown[0]}=")

    def error(self, message):
        return ParseError(message, line=self.line)

    def text(self, key):
        if key not in self.kv:
            raise self.error(f"missing field {key}=")
        return self.kv[key]

    def make(self, fn, *args):
        """``fn(*args)``, reporting a rejected value as a ParseError."""
        try:
            return fn(*args)
        except (ValueError, ZeroDivisionError, UnsupportedShapeError) as ex:
            raise self.error(str(ex)) from None

    def integer(self, key):
        return self.make(int, self.text(key))

    def fraction(self, key):
        return self.make(_parse_fraction, self.text(key))

    def ideal(self, key):
        return _parse_ideal(self.scene.ring, self.text(key))

    def prime(self, text):
        return PrimeIdeal(_parse_ideal(self.scene.ring, text))

    def checked_prime(self, key):
        """The ideal of field ``key`` as a PrimeIdeal, refused unless it is
        its own only minimal prime: the unit ideal has none, (x*y) two and
        (x^2) the prime (x)."""
        ideal = self.ideal(key)
        prime = PrimeIdeal(ideal)
        if self.make(minimal_primes, ideal) != [prime]:
            raise self.error(f"{key}= is not a prime ideal")
        return prime

    def prime_pairs(self, key):
        """``(prime):element ; ...`` as (PrimeIdeal, element text) pairs."""
        chunks = [c.rpartition(":") for c in _split_list(self.text(key))]
        return [(self.prime(prime), elem) for prime, _, elem in chunks]

    def lookup(self, table, name):
        objects = getattr(self.scene, table)
        if name not in objects:
            raise self.error(f"no {table[:-1]} named {name!r}")
        return objects[name]

    def pair(self):
        return self.lookup("pairs", self.text("pair"))


@contextlib.contextmanager
def _at_line(line):
    """Add ``line`` to a ParseError that names none (polynomial text)."""
    try:
        yield
    except ParseError as ex:
        if ex.line is not None or line is None:
            raise
        raise ParseError(str(ex), line=line) from None


def _kv(parts):
    out = {}
    for part in parts:
        if "=" not in part:
            raise ParseError(f"expected key=value, got {part!r}")
        k, v = part.split("=", 1)
        if k in out:
            raise ParseError(f"repeated field {k}=")
        out[k] = v
    return out


def _parse_fraction(text):
    num, slash, den = text.partition("/")
    try:
        return Fraction(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational N or N/D: {text!r}") from None


def _fraction_text(t):
    return f"{t.numerator}/{t.denominator}"


def _split_list(text):
    return [c.strip() for c in text.split(";") if c.strip()]


def _parse_vectors(ring, text):
    return [[ring.parse(c) for c in chunk.split("|")]
            for chunk in _split_list(text)]


def _parse_ideal(ring, text):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"ideal must be parenthesized: {text!r}")
    inner = text[1:-1].strip()
    if not inner or inner == "0":
        return Ideal(ring, [])
    return Ideal(ring, [ring.parse(c) for c in inner.split(",")])


def _parse_op(ring, chunk):
    e_text, matrix_text = chunk.split(":", 1)
    rows = [[ring.parse(entry) for entry in row.split(",")]
            for row in matrix_text.split("/")]
    return CartierOp(int(e_text), rows)


def _parse_twist(ring, chunk):
    ideal_text, t_text = chunk.rsplit("^", 1)
    return _parse_ideal(ring, ideal_text), _parse_fraction(t_text)


def parse_scene(text, name="scene"):
    scene = Scene(name)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            with _at_line(line_no):
                _parse_line(scene, line, line_no, name)
    return scene


def _parse_line(scene, line, line_no, default_name):
    try:
        parts = shlex.split(line)
    except ValueError as ex:
        raise ParseError(str(ex)) from None
    head, rest = parts[0], parts[1:]
    if head == "scene":
        scene.name = rest[0] if rest else default_name
        return
    if head == "ring":
        f = _Fields(scene, _kv(rest), line_no)
        f.only({"p", "vars", "maxdeg"}, "ring")
        caps = EngineCaps(max_total_degree=f.integer("maxdeg")) \
            if "maxdeg" in f else EngineCaps()
        variables = [v for v in f.kv.get("vars", "").split(",") if v]
        scene.ring = f.make(RingSpec, f.integer("p"), variables, caps)
        return
    if head not in ("module", "submodule", "algebra", "map", "pair", "task"):
        raise ParseError(f"unknown directive {head!r}")
    if scene.ring is None:
        raise ParseError(f"{head} before the ring line")
    if not rest:
        raise ParseError(f"{head} needs a name")
    name_ = rest[0]
    f = _Fields(scene, _kv(rest[1:]), line_no)
    ring = scene.ring
    if head == "module":
        rels = _parse_vectors(ring, f.kv.get("relations", ""))
        scene.modules[name_] = f.make(PresentedModule, ring,
                                      f.integer("rank"), rels)
    elif head == "submodule":
        parent = f.lookup("modules", f.text("of"))
        scene.submodules[name_] = f.make(
            parent.submodule, _parse_vectors(ring, f.text("gens")))
    elif head == "algebra":
        gens = [f.make(_parse_op, ring, chunk)
                for chunk in _split_list(f.text("gens"))]
        twists = [f.make(_parse_twist, ring, chunk)
                  for chunk in _split_list(f.kv.get("twist", ""))]
        scene.algebras[name_] = f.make(CartierAlgebraSpec, gens,
                                       twists or None)
    elif head == "map":
        scene.maps[name_] = _parse_map(f)
    elif head == "pair":
        module = f.lookup("modules", f.text("module"))
        algebra = f.lookup("algebras", f.text("algebra"))
        carrier = f.lookup("submodules", f.text("carrier")) \
            if "carrier" in f else None
        inverted = ring.parse(f.text("invert")) if "invert" in f else None
        if inverted is not None and inverted.is_zero():
            raise f.error("cannot invert zero")
        scene.pairs[name_] = validate_structure(
            module, algebra, carrier=carrier, inverted=inverted)
    else:
        add_task(scene, name_, f.kv, line_no)


def add_task(scene, op, fields, line=None):
    """Check a task's ``fields`` and append it to the scene's task list.

    A task line and a command-line task both come here, so both take only
    the fields their op reads and a ``pullback`` ``check=`` only one of
    ``_PULLBACK_CHECKS``.  An unknown op is left to ``run_task``, which
    reports it as the task's error.
    """
    f = _Fields(scene, fields, line)
    if op in _TASK_FIELDS:
        f.only(_TASK_FIELDS[op], op)
    if "check" in f and f.kv["check"] not in _PULLBACK_CHECKS:
        raise f.error(f"check must be one of {', '.join(_PULLBACK_CHECKS)}"
                      f", got {f.kv['check']!r}")
    scene.tasks.append({**fields, "op": op, "line": line})


def _parse_map(f):
    ring = f.scene.ring
    if "compose" in f:
        # left-to-right composition of previously declared maps; each
        # stage's new variable must be new to the ring the chain has reached
        chain = []
        for name in f.text("compose").split(","):
            step = f.lookup("maps", name.strip())
            chain.extend(step if isinstance(step, list) else [step])
        adjoined = [m.data["var"] for m in chain if m.kind != "localize"]
        for i, var in enumerate(adjoined):
            if var in adjoined[:i]:
                raise f.error(f"composite adjoins {var} twice")
        return chain
    # the constructors only parse and check their arguments: a ValueError
    # or UnsupportedShapeError from them rejects a value (e.g. a variable
    # the ring already has, or a relation not monic in the new variable)
    kind = f.text("kind")
    if kind == "finite":
        return f.make(RingMap.finite, ring, f.text("adjoin"),
                      f.text("relation"))
    if kind == "localize":
        return f.make(RingMap.localize, ring, f.text("at"))
    if kind == "affine-line":
        return f.make(RingMap.affine_line, ring, f.text("var"))
    raise f.error(f"unknown map kind {kind!r}")


def load_scene(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
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


def _outcome(f, result, *checks):
    """The task's outcome: ok when every check holds, else fail."""
    return TaskOutcome(f.kv, "ok" if all(checks) else "fail", result)


def _expect(f, key, value):
    """True unless the task states ``key`` and ``value`` differs from it."""
    return key not in f or str(value).lower() == f.text(key).lower()


def _expect_sub(f, key, sub):
    """True unless the task states ``key`` and ``sub`` is another submodule."""
    if key not in f:
        return True
    want = f.make(sub.parent.submodule,
                  _parse_vectors(f.scene.ring, f.text(key)))
    return sub == want


def _prime_label(prime):
    return ",".join(prime.ideal.serialize()) or "0"


def _finite_map(f):
    rmap = f.lookup("maps", f.text("map"))
    if isinstance(rmap, list) or rmap.kind != "finite":
        raise f.error(f"{f.kv['op']} needs one finite map")
    return rmap


def _run_tau(f):
    cm = f.pair()
    if "t" in f and "ideal" in f:
        alg = f.make(cm.algebra.with_twist, f.ideal("ideal"),
                     f.fraction("t"))
        cm = validate_structure(cm.module, alg, carrier=cm.carrier,
                                inverted=cm.inverted)
    supplied = None
    if "test-elements" in f:
        supplied = TestElementSequence([
            TestElementEntry(prime, f.scene.ring.parse(elem),
                             {"provenance": "supplied"})
            for prime, elem in f.prime_pairs("test-elements")])
    fn = tau if f.kv["op"] == "tau" else tau_prime
    res = fn(cm, test_elements=supplied,
             e0=f.integer("e0") if "e0" in f else 0)
    return _outcome(f, res.serialize(),
                    _expect_sub(f, "expect", res.submodule))


def _run_taubms(f):
    hypersurface = f.scene.ring.parse(f.text("f"))
    t = f.fraction("t")
    if hypersurface.is_zero() or t < 0:
        raise f.error("taubms needs f != 0 and t >= 0")
    J = tau_bms(hypersurface, t)
    return _outcome(f, {"ideal": J.serialize()},
                    "expect" not in f or J == f.ideal("expect"))


def _run_stabilize(f):
    core, k = underline(f.pair())
    return _outcome(f, {"exponent": k, "core": core.serialize()},
                    "expect-exponent" not in f
                    or k == f.integer("expect-exponent"),
                    _expect_sub(f, "expect", core))


def _run_nilpotent(f):
    cm = f.pair()
    sub = f.lookup("submodules", f.text("sub")) if "sub" in f \
        else cm.carrier_sub()
    at = f.checked_prime("at") if "at" in f else None
    value = nilpotence(cm, sub, at=at)
    return _outcome(f, {"nilpotent": value}, _expect(f, "expect", value))


def _run_ass(f):
    got = [p.ideal.serialize() for p in ass_cartier(f.pair())]
    return _outcome(f, {"primes": got},
                    "expect" not in f
                    or sorted(tuple(g) for g in got)
                    == sorted(tuple(f.prime(t).ideal.serialize())
                              for t in _split_list(f.text("expect"))))


def _run_fregular(f):
    value, cert = is_f_regular(f.pair())
    return _outcome(f, {"f_regular": value, "certificate": cert},
                    _expect(f, "expect", value))


def _run_testelements(f):
    seq = find_test_elements(f.pair())
    got = [(_prime_label(e.prime), str(e.element)) for e in seq.entries]
    return _outcome(f, {"sequence": got},
                    "expect" not in f
                    or sorted(got) == sorted(
                        (_prime_label(prime), elem)
                        for prime, elem in f.prime_pairs("expect")))


def _denom_caps(p, text):
    a, b = text.split(",")
    caps = int(a), int(b)
    grid_denominator(p, caps)
    return caps


def _run_jumps(f):
    cm = f.pair()
    ideal = f.ideal("ideal")
    caps = f.make(_denom_caps, f.scene.ring.p, f.kv.get("denom-caps", "2,2"))
    top = f.fraction("max-t")
    if top <= 0:
        raise f.error("jumps needs max-t > 0")
    spectrum = jumping_numbers(cm, ideal, top, caps=caps, cache=f.cache)
    got = [_fraction_text(t) for t in spectrum.jump_values()]
    return _outcome(f, spectrum.serialize(),
                    all(j.right_continuity_ok for j in spectrum.jumps),
                    "expect-jumps" not in f
                    or got == [_fraction_text(f.make(_parse_fraction, t))
                               for t in f.text("expect-jumps").split(",")
                               if t.strip()])


def _run_gr(f):
    t = f.fraction("t")
    if t < 0:
        raise f.error("gr needs t >= 0")
    qcm, info = gr(f.pair(), f.ideal("ideal"), t)
    nonzero = not qcm.module.is_zero_module()
    nilp = nilpotence(qcm, qcm.module.full_submodule()) if nonzero else True
    result = {"rank": qcm.module.rank, "nonzero": nonzero,
              "nilpotent": nilp, "delta": _fraction_text(info["delta"])}
    return _outcome(f, result, _expect(f, "expect-nonzero", nonzero),
                    _expect(f, "expect-nilpotent", nilp))


def _run_skoda(f):
    t = f.fraction("t")
    if t < 1:
        raise f.error("skoda needs t >= 1")
    report = skoda_report(f.pair(), f.ideal("ideal"), t)
    return _outcome(f, report, report["ok"])


def _run_pullback(f):
    cm = f.pair()
    rmap = f.lookup("maps", f.text("map"))
    if isinstance(rmap, list):
        report = composite_pullback_report(cm, rmap)
        return _outcome(f, report, report["ok"])
    report = commutation_suite(cm, rmap)
    tau_checked = rmap.kind == "finite" \
        and f.kv.get("check", "tau-commutes") == "tau-commutes"
    return _outcome(f, report, report["ok"],
                    not tau_checked or report.get("tau_equal"))


def _run_pushforward(f):
    cm = f.pair()
    rmap = _finite_map(f)
    if cm.algebra.is_twisted():
        # commutation_suite leaves the pushforward half out for twists
        raise UnsupportedShapeError(
            "push the module forward before twisting: twists over the "
            "extension do not contract along the map")
    report = commutation_suite(cm, rmap)
    return _outcome(f, report, report["pushforward_tau_commutes"],
                    report["pushforward_ass_transport"])


def _run_quasifinite(f):
    cm = f.pair()
    rmap = _finite_map(f)
    upstairs = cm if cm.ring == rmap.target else shriek_finite(cm, rmap).cm
    invert = rmap.target.parse(f.text("invert"))
    report = quasi_finite_check(upstairs, invert, rmap)
    return _outcome(f, report, report["included"],
                    _expect(f, "expect-strict", report["strict"]))


def _run_model(f):
    res = coherent_model(f.pair())
    tau_model = tau(res.cm).submodule
    result = res.serialize()
    result["tau_core"] = tau_model.serialize()
    core = res.core()
    strict = core.contains_sub(tau_model) and core != tau_model
    return _outcome(f, result, _expect_sub(f, "expect-core", core),
                    _expect_sub(f, "expect-tau", tau_model),
                    _expect(f, "expect-strict", strict))


def _run_point_pushforward(f):
    cm = f.pair()
    _model, core = pushforward_point(cm)
    tau_sub = tau(cm).submodule
    _model2, core2 = pushforward_point(cm.with_carrier(tau_sub))
    mismatch = core.dim() != core2.dim()
    result = {"tau_of_pushforward_dim": core.dim(),
              "pushforward_of_tau_dim": core2.dim(),
              "mismatch": mismatch}
    if f.kv.get("expect-negative", "false").lower() == "true":
        status = "expected-negative" if mismatch else "fail"
    else:
        status = "fail" if mismatch else "ok"
    return TaskOutcome(f.kv, status, result)


_TASK_OPS = {"tau": _run_tau, "tauprime": _run_tau, "taubms": _run_taubms,
             "stabilize": _run_stabilize, "nilpotent": _run_nilpotent,
             "ass": _run_ass, "fregular": _run_fregular,
             "testelements": _run_testelements, "jumps": _run_jumps,
             "gr": _run_gr, "skoda": _run_skoda, "pullback": _run_pullback,
             "pushforward": _run_pushforward,
             "quasifinite": _run_quasifinite, "model": _run_model,
             "point-pushforward": _run_point_pushforward}

# the fields each op's handler reads; add_task rejects any other
_TAU_FIELDS = {"pair", "t", "ideal", "test-elements", "e0", "expect"}
_TASK_FIELDS = {
    "tau": _TAU_FIELDS, "tauprime": _TAU_FIELDS,
    "taubms": {"f", "t", "expect"},
    "stabilize": {"pair", "expect-exponent", "expect"},
    "nilpotent": {"pair", "sub", "at", "expect"},
    "ass": {"pair", "expect"}, "fregular": {"pair", "expect"},
    "testelements": {"pair", "expect"},
    "jumps": {"pair", "ideal", "max-t", "denom-caps", "expect-jumps"},
    "gr": {"pair", "ideal", "t", "expect-nonzero", "expect-nilpotent"},
    "skoda": {"pair", "ideal", "t"},
    "pullback": {"pair", "map", "check"},
    "pushforward": {"pair", "map"},
    "quasifinite": {"pair", "map", "invert", "expect-strict"},
    "model": {"pair", "expect-core", "expect-tau", "expect-strict"},
    "point-pushforward": {"pair", "expect-negative"}}
# a finite pullback's check: tau equal up and down, or only included
_PULLBACK_CHECKS = ("tau-commutes", "tau-included")


def run_task(scene, task, flags):
    """Run one task in the scene's memo scope.  Of ``flags`` it reads only
    ``cache`` (a ``ResultCache`` for ``jumps``); any other key is ignored."""
    f = _Fields(scene, task, task.get("line"), flags.get("cache"))
    handler = _TASK_OPS.get(task["op"])
    if handler is None:
        raise f.error(f"unknown task op {task['op']!r}")
    with _at_line(f.line), memo_scope(scene.memo):
        return handler(f)


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
            # the grid values the scene's sweeps read from the cache
            "cache_hits": sum(o.result.get("cache_hits", 0) for o in outcomes
                              if o.task["op"] == "jumps"),
        },
    }
    return report, code
