"""Run one benchmark unit in this (fresh) interpreter.

Reads a job as JSON on stdin and prints the result as one JSON line:

    job    = {"workload", "unit": inputs, "trace": bool,
              "reference": {task id: output}, "cache_dir"}
    result = {"first_task": monotonic, "tasks": [[id, seconds, ok, output,
              error]], "calibration": [seconds], "rss_kb",
              "cache": [hits, misses], "trace"}

A task is what a user waits for: one ``tau`` call, one scene task or one
jumping-number sweep, timed up to its canonical output.  Checks against
``tau_bms``, frozen references and earlier visits run outside the timed
region, and so does a calibration loop after each task, which measures
the speed the shared host gives this interpreter at that moment.  Every
task of the unit runs.
"""

import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Iterations of the calibration loop: about 1.5 ms on the baseline machine.
CALIBRATION_LOOP = 20000


def import_checkout_library():
    """Import cartierlab from this checkout's ``src``, never another copy."""
    sys.path.insert(0, str(SRC))
    import cartierlab

    if Path(cartierlab.__file__).resolve().parent != SRC / "cartierlab":
        raise ImportError(f"cartierlab imported from {cartierlab.__file__}, "
                          f"not from {SRC}")


def calibrate():
    """Seconds a fixed pure-Python loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


class Unit:
    """Timing and checking shared by the workload runners."""

    def __init__(self, reference):
        self.reference = reference or {}
        self.tasks = []
        self.calibration = []
        self.first_task = None

    def run(self, task_id, compute, check):
        """Time ``compute() -> (output, value)``, then ``check(value)``.

        A task fails when it raises, when its check fails, or when its
        output differs from the reference for its id.
        """
        if self.first_task is None:
            self.first_task = time.monotonic()
        output = value = error = None
        start = time.perf_counter()
        try:
            output, value = compute()
        except Exception as ex:  # a failed task is counted, not fatal
            error = f"{type(ex).__name__}: {ex}"
        elapsed = time.perf_counter() - start
        if error is None:
            try:
                if not check(value):
                    error = "check failed"
            except Exception as ex:  # likewise for a check that raises
                error = f"check raised {type(ex).__name__}: {ex}"
        if (error is None and task_id in self.reference
                and self.reference[task_id] != output):
            error = "output differs from reference"
        self.tasks.append([task_id, elapsed, error is None, output, error])
        self.calibration.append(calibrate())

    def output(self, task_id):
        """Output of a passed task of this unit, or None."""
        for tid, _s, ok, output, _error in self.tasks:
            if tid == task_id and ok:
                return output
        return None


def oracle_grid(job, unit):
    """General ``tau`` at every grid point t = k/(p^2(p^2-1)) of one surface,
    each result checked against ``tau_bms``."""
    from cartierlab import cartiercore, testmod
    from cartierlab.cache import canonical_json
    from cartierlab.cartiercore import CartierAlgebraSpec, CartierOp
    from cartierlab.fpmod import PresentedModule
    from cartierlab.fppoly import EngineCaps, RingSpec
    from cartierlab.idealkit import Ideal

    inputs = job["unit"]
    p = inputs["p"]
    ring = RingSpec(p, ("x", "y"), caps=EngineCaps(max_total_degree=10 ** 6))
    f = ring.parse(inputs["f"])
    module = PresentedModule.free(ring, 1)
    den = p ** 2 * (p ** 2 - 1)
    grid = []
    for k in range(1, den + 1):
        t = Fraction(k, den)
        algebra = CartierAlgebraSpec([CartierOp(1, [[ring.one()]])],
                                     twist=(Ideal(ring, [f]), t))
        grid.append((k, t, cartiercore.validate_structure(module, algebra)))

    for k, t, cm in grid:
        def compute():
            basis = testmod.tau(cm).submodule.basis()
            ideal = Ideal(ring, [g.component(0) for g in basis])
            return canonical_json(ideal.serialize()), ideal

        unit.run(f"{inputs['surface']}/{k}", compute,
                 lambda ideal: ideal == testmod.tau_bms(f, t))


def corpus(job, unit):
    """Replay every bundled scene task by task."""
    from importlib import resources

    from cartierlab import cli, scene
    from cartierlab.cache import canonical_json

    folder = resources.files("cartierlab").joinpath("corpus")
    scenes = [scene.parse_scene(folder.joinpath(name).read_text("utf-8"),
                                name=name.rsplit(".", 1)[0])
              for name in cli.corpus_scene_names()]
    for sc in scenes:
        for index, task in enumerate(sc.tasks):
            def compute():
                outcome = scene.run_task(sc, task, {"seed": 0})
                return canonical_json(outcome.serialize()), outcome

            unit.run(f"{sc.name}/{index}", compute,
                     lambda outcome: outcome.status in ("ok",
                                                        "expected-negative"))


def bms_spectrum(job, unit):
    """``jumping_numbers(cm, (f), 1, caps=(2, 2))`` on the principal fast
    path.  Each first visit gets its own cache directory under the run's
    ``cache_dir``; a revisit reuses the directory of the sweep it repeats,
    as ``--cache-dir`` would on a re-run.  First visits therefore always
    compute, and only revisits read the cache."""
    from cartierlab import cartiercore, filtration
    from cartierlab.cache import ResultCache, canonical_json
    from cartierlab.cartiercore import CartierAlgebraSpec, CartierOp
    from cartierlab.fpmod import PresentedModule
    from cartierlab.fppoly import RingSpec
    from cartierlab.idealkit import Ideal

    root = Path(job["cache_dir"])
    pairs = {}
    sweeps = []
    for sweep in job["unit"]["sweeps"]:
        p = sweep["p"]
        if p not in pairs:
            ring = RingSpec(p, ("x", "y"))
            algebra = CartierAlgebraSpec([CartierOp(1, [[ring.one()]])])
            pairs[p] = cartiercore.validate_structure(
                PresentedModule.free(ring, 1), algebra)
        cm = pairs[p]
        cache = ResultCache(str(root / (sweep["revisit_of"] or sweep["id"])))
        sweeps.append((sweep, cm, Ideal(cm.ring, [cm.ring.parse(sweep["f"])]),
                       cache))

    for sweep, cm, ideal, cache in sweeps:
        target = sweep["revisit_of"]
        if target is not None and sweep["id"] not in unit.reference:
            earlier = unit.output(target)  # a first visit in this unit
            if earlier is not None:
                unit.reference[sweep["id"]] = earlier

        def compute():
            doc = filtration.jumping_numbers(cm, ideal, 1, caps=(2, 2),
                                             cache=cache).serialize()
            hits = doc.pop("cache_hits")
            return canonical_json(doc), (doc, hits)

        def check(value):
            doc, hits = value
            revisit_ok = target is None or hits > 0
            return (doc["exactness"] == "EXACT" and revisit_ok
                    and all(j["right_continuity_ok"] for j in doc["jumps"]))

        unit.run(sweep["id"], compute, check)
    caches = [cache for *_rest, cache in sweeps]
    return [sum(c.hits for c in caches), sum(c.misses for c in caches)]


RUNNERS = {"oracle-grid": oracle_grid, "corpus": corpus,
           "bms-spectrum": bms_spectrum}


def run_job(job):
    import_checkout_library()
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    unit = Unit(job.get("reference"))
    try:
        cache = RUNNERS[job["workload"]](job, unit)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"first_task": unit.first_task,
            "tasks": unit.tasks,
            "calibration": unit.calibration,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "cache": cache or [0, 0],
            "trace": tracer.snapshot() if tracer is not None else None}


def main():
    job = json.loads(sys.stdin.read())
    result = run_job(job)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
