"""cartierlab benchmark.

    python3 bench/run.py --workload oracle-grid|corpus|bms-spectrum|all
                         [--seed N] [--seconds S] [--trace 0|1]

Every workload is a closed loop: one caller waits for each exact result
before asking for the next, in one process with no threads.  Each unit of
work runs in a fresh interpreter (``bench/worker.py``), because module-level
and per-object caches would make a second in-process pass a warm, different
program, and every command-line invocation pays those caches cold.  A run
makes passes over the workload's fixed timed units, each pass with a fresh
result cache: at least ``MIN_PASSES``, then more while one more should end
within ``--seconds``.  The host is shared, and the speed it gives one
interpreter drifts by a fifth or more over minutes, so every time metric
is scaled to a reference speed: each unit runs a fixed pure-Python loop
between its tasks, and its set-up and task times are multiplied by the
loop's reference time over its median time in that unit.  A task's time is
then the median over its runs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the first
``TRACE_UNITS`` units twice each, plain then traced, checks that both
passes give the same outputs, and prints the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object {"correct", "attempted", "failed",
"metrics"}.  ``--workload all`` runs the three in turn and ends with one
such object whose metric names carry the workload as a prefix.  A harness
fault exits with code 2 and prints no result.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
WORK_DIR = ROOT / ".bench_work"

# Every run, workers included, must end well inside three minutes.
RUN_LIMIT_S = 170.0

# The units one pass runs, in order: about 9 s (oracle-grid: x^3 + y^2,
# x*y, x^2*y + y^3 and x over F_2 and x^2 + y^2 over F_3), 3 s (corpus: one
# replay) and 12 s (bms-spectrum: three units of sixteen sweeps) on the
# baseline machine (bench/baseline.json).  Short passes give each task
# several runs spread over the whole run.  Three bms-spectrum units put
# the tail, the eleventh-slowest of 48 sweeps, inside the costlier class
# of p = 3 sweeps rather than on its edge.
PASS_UNITS = {"oracle-grid": (0, 2, 3, 4, 6), "corpus": (0,),
              "bms-spectrum": (0, 1, 2)}
MIN_PASSES = 3

# Median seconds of the calibration loop (worker.calibrate) on the baseline
# machine in a quiet stretch; set-up and task times are scaled to this
# speed.
REFERENCE_CALIBRATION_S = 1.5e-3

# A run that has not made MIN_PASSES passes by ``--seconds`` keeps going,
# but starts no pass after this many times ``--seconds``.
EXTENSION = 3
TAIL_BEYOND = 10

# Units the traced run repeats plain and traced.
TRACE_UNITS = {"oracle-grid": 2, "corpus": 2, "bms-spectrum": 2}


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def load_reference(workload, seed):
    """Frozen outputs of the default seed (the corpus ignores the seed)."""
    if workload != "corpus" and seed != inputs.DEFAULT_SEED:
        return {}
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def spawn(job, started):
    """Run one unit in a fresh interpreter; returns the worker's result."""
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    if remaining <= 0:
        raise HarnessError(f"run exceeded {RUN_LIMIT_S:.0f} s")
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
            capture_output=True, text=True, timeout=remaining, env=env,
            cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker exceeded the {RUN_LIMIT_S:.0f} s limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"worker exited with code {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - spawned
    result["setup_s"] = result["first_task"] - spawned
    return result


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory inside the checkout, removed afterwards."""
    path = WORK_DIR / f"{os.getpid()}-{time.monotonic_ns()}"
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # absent, or in use by another run
            pass


def run_units(workload, seed, units, started, cache_dir, trace=False,
              known=None):
    """Run ``units`` in order, each in a fresh interpreter.

    ``known`` maps task ids to expected outputs (default: the frozen
    reference); outputs of passed tasks join it, so that revisits and
    repeated units must match them.
    """
    known = load_reference(workload, seed) if known is None else known
    results = []
    for index in units:
        unit = inputs.unit_inputs(workload, seed, index)
        reference = dict(known)
        for sweep in unit.get("sweeps", ()):
            target = sweep["revisit_of"]
            if target is not None and target in known:
                reference[sweep["id"]] = known[target]
        result = spawn({"workload": workload, "unit": unit, "trace": trace,
                        "reference": reference,
                        "cache_dir": str(cache_dir)}, started)
        results.append(result)
        for task_id, _s, ok, output, _error in result["tasks"]:
            if ok:
                known.setdefault(task_id, output)
    return results


def run_passes(workload, seed, seconds, started):
    """Passes over the timed units: at least ``MIN_PASSES``, then more while
    one more, as long as the last, ends by ``seconds``.  Returns every
    unit's result."""
    deadline, latest = started + seconds, started + EXTENSION * seconds
    known = load_reference(workload, seed)
    results = []
    passes = last = 0
    while True:
        now = time.monotonic()
        if passes and (now >= latest
                       or passes >= MIN_PASSES and now + last > deadline):
            return results
        with scratch_dir() as cache_dir:
            results += run_units(workload, seed, PASS_UNITS[workload],
                                 started, cache_dir, known=known)
        passes += 1
        last = time.monotonic() - now


def tasks_of(results):
    return [task for result in results for task in result["tasks"]]


def failures(tasks):
    return [task for task in tasks if not task[2]]


def speed(result):
    """How fast the host ran a unit, relative to the reference speed."""
    return REFERENCE_CALIBRATION_S / statistics.median(result["calibration"])


def end_to_end(workload, results):
    """The six end-to-end metrics, with every time at the reference speed.
    Task timings are per distinct task, each the median of its runs; a task
    passes only if every run of it passed."""
    tasks = tasks_of(results)
    runs = {}
    for result in results:
        factor = speed(result)
        for task_id, elapsed, ok, _output, _error in result["tasks"]:
            runs.setdefault(task_id, []).append((elapsed * factor, ok))
    seconds = sorted(statistics.median(s for s, _ok in task_runs)
                     for task_runs in runs.values())
    passed = sum(all(ok for _s, ok in task_runs)
                 for task_runs in runs.values())
    passes = min(len(task_runs) for task_runs in runs.values())
    # the highest rank with TAIL_BEYOND tasks above it (the slowest task
    # when there are too few)
    rank = len(seconds) - TAIL_BEYOND - 1
    if rank < 0:
        rank = len(seconds) - 1
    metrics = {
        "tasks_per_s": (passed / sum(seconds), "1/s"),
        "task_p50_ms": (statistics.median(seconds) * 1e3, "ms"),
        "task_tail_ms": (seconds[rank] * 1e3, "ms"),
        "setup_s": (statistics.median(r["setup_s"] * speed(r)
                                      for r in results), "s"),
        "peak_rss_mb": (max(r["rss_kb"] for r in results) / 1024, "MB"),
        "ok_frac": (1 - len(failures(tasks)) / len(tasks), "ratio"),
    }
    pct = 100 * rank / max(1, len(seconds) - 1)
    notes = [f"timed: {len(seconds)} tasks, each the median of at least "
             f"{passes} runs; {len(tasks)} runs in {len(results)} fresh "
             f"interpreters",
             f"host speed: median {statistics.median(map(speed, results)):.3f}"
             f" of the reference speed over the run's units",
             f"task_tail_ms is p{pct:.1f}: {len(seconds) - rank - 1} of "
             f"{len(seconds)} timed tasks beyond it"]
    if passes < MIN_PASSES:
        notes.append(f"WARNING: only {passes} passes; the benchmark "
                     f"times the median of {MIN_PASSES}")
    return metrics, notes


def per_layer(plain, traced):
    """Per-layer metrics of the traced pass, less the run's fail_frac."""
    spans = {}
    regularity_sums = 0  # graded_sum spans whose parent is is_f_regular
    for result in traced:
        for name, parent, calls, self_s, errors in result["trace"]["spans"]:
            rec = spans.setdefault(name, [0, 0.0, 0])
            rec[0] += calls
            rec[1] += self_s
            rec[2] += errors
            if (name, parent) == ("cartiercore.graded_sum",
                                  "testmod.is_f_regular"):
                regularity_sums += calls
    counters = {key: sum(r["trace"][key] for r in traced)
                for key in ("buchberger_repeats", "buchberger_modules",
                            "groebner_hits")}
    hits = sum(r["cache"][0] for r in traced)
    lookups = hits + sum(r["cache"][1] for r in traced)

    def calls(name):
        return spans.get(name, [0])[0]

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = (sum(
            spans.get(name, [0, 0.0])[1] for name in tracer.SPAN_NAMES
            if name.startswith(layer + ".")), "s")
    for name in tracer.SPAN_NAMES:
        rec = spans.get(name, [0, 0.0, 0])
        metrics[f"{name}.calls"] = (rec[0], "count")
        metrics[f"{name}.self_s"] = (rec[1], "s")
        metrics[f"{name}.errors"] = (rec[2], "count")
    bb = calls("groebner.buchberger")
    metrics["groebner.buchberger.repeat_frac"] = (
        ratio(counters["buchberger_repeats"], bb), "ratio")
    metrics["groebner.buchberger.module_frac"] = (
        ratio(counters["buchberger_modules"], bb), "ratio")
    metrics["idealkit.gb_hit_frac"] = (
        ratio(counters["groebner_hits"], calls("idealkit.groebner")), "ratio")
    metrics["testmod.graded_sums_per_regularity"] = (
        ratio(regularity_sums, calls("testmod.is_f_regular")), "ratio")
    metrics["cache.hit_frac"] = (ratio(hits, lookups), "ratio")
    metrics["trace.overhead_frac"] = (
        sum(r["wall_s"] for r in traced) / sum(r["wall_s"] for r in plain) - 1,
        "ratio")
    return metrics


def outputs(results):
    return [(task[0], task[3]) for task in tasks_of(results)]


def measure(workload, seed, seconds, trace):
    """Returns (report lines, result object) for one benchmark run."""
    started = time.monotonic()
    if trace:
        # Plain and traced units alternate, so that drifts in machine speed
        # hit both passes alike; each pass has its own cache and outputs.
        plain, traced = [], []
        known = [load_reference(workload, seed) for _ in range(2)]
        with scratch_dir() as plain_dir, scratch_dir() as traced_dir:
            for index in range(TRACE_UNITS[workload]):
                plain += run_units(workload, seed, [index], started,
                                   plain_dir, known=known[0])
                traced += run_units(workload, seed, [index], started,
                                    traced_dir, trace=True, known=known[1])
        metrics = per_layer(plain, traced)
        tasks = tasks_of(plain) + tasks_of(traced)
        failed = failures(tasks)
        if outputs(plain) != outputs(traced):
            failed.append(["*", 0, False, None,
                           "traced and plain outputs differ"])
        metrics["fail_frac"] = (len(failed) / len(tasks), "ratio")
        notes = [f"{TRACE_UNITS[workload]} units, each run plain and traced"]
    else:
        results = run_passes(workload, seed, seconds, started)
        metrics, notes = end_to_end(workload, results)
        tasks = tasks_of(results)
        failed = failures(tasks)
    lines = [f"workload {workload}  seed {seed}  trace {int(trace)}"]
    lines += [f"  {name:<48} {value:>14.6g} {unit}"
              for name, (value, unit) in metrics.items()]
    lines += [f"  {note}" for note in notes]
    lines.append(f"  correct: {'yes' if not failed else 'NO'}  "
                 f"attempted {len(tasks)}  failed {len(failed)}")
    lines += [f"  FAILED {task[0]}: {task[4]}" for task in failed[:10]]
    result = {"correct": not failed, "attempted": len(tasks),
              "failed": len(failed),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cartierlab" / "__init__.py").is_file():
        print(f"no cartierlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = (inputs.WORKLOADS if args.workload == "all"
                 else (args.workload,))
    results = {}
    for workload in workloads:
        try:
            lines, results[workload] = measure(
                workload, args.seed, args.seconds, bool(args.trace))
        except (HarnessError, OSError, ValueError) as ex:
            print(f"benchmark failed: {ex}", file=sys.stderr)
            return 2
        print("\n".join(lines))
    if len(workloads) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": value for w, r in results.items()
                        for name, value in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
