"""Tests of the benchmark harness itself.

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

# Cheapest oracle-grid units of the default seed: x^3 + y^2 and x*y, p = 2.
CUSP, NODE = 0, 2


def spawn(unit, reference=None, trace=False):
    return run.spawn({"workload": "oracle-grid", "unit": unit,
                      "trace": trace, "reference": reference or {},
                      "cache_dir": None},
                     time.monotonic())


def trace_counts(result):
    snap = result["trace"]
    spans = [(name, parent, calls, errors)
             for name, parent, calls, _self_s, errors in snap["spans"]]
    return spans, {k: v for k, v in snap.items() if k != "spans"}


def test_tracer_restores_every_patched_binding():
    worker.import_checkout_library()
    tracer.import_library()
    from cartierlab import cartiercore, fpmod, fppoly, groebner, idealkit, testmod

    graded_sum, normal_form = cartiercore.graded_sum, groebner.normal_form
    mul = fppoly.Poly.__mul__
    before = tracer.bindings()
    t = tracer.Tracer()
    t.install()
    try:
        # bindings outside the defining module are patched too
        assert testmod.graded_sum.__wrapped__ is graded_sum
        assert fpmod.normal_form.__wrapped__ is normal_form
        assert idealkit.normal_form.__wrapped__ is normal_form
        assert fppoly.Poly.__rmul__.__wrapped__ is mul
        assert tracer.bindings() != before
    finally:
        t.uninstall()
    assert tracer.bindings() == before
    assert testmod.graded_sum is graded_sum and fppoly.Poly.__mul__ is mul


def test_traced_and_plain_runs_agree_and_counts_repeat():
    unit = inputs.unit_inputs("oracle-grid", inputs.DEFAULT_SEED, CUSP)
    plain = spawn(unit)
    first = spawn(unit, trace=True)
    second = spawn(unit, trace=True)
    assert run.outputs([plain]) == run.outputs([first])
    assert not run.failures(first["tasks"])
    assert trace_counts(first) == trace_counts(second)
    metrics = run.per_layer([plain], [first])
    assert metrics["testmod.tau.calls"][0] == len(first["tasks"])
    assert metrics["groebner.buchberger.calls"][0] > 0


def test_wrong_reference_raises_fail_frac():
    unit = inputs.unit_inputs("oracle-grid", inputs.DEFAULT_SEED, NODE)
    good = spawn(unit, reference=run.load_reference("oracle-grid",
                                                    inputs.DEFAULT_SEED))
    assert run.end_to_end("oracle-grid", [good])[0]["ok_frac"][0] == 1.0
    bad = spawn(unit, reference={f"{NODE}/1": "[\"wrong\"]"})
    failed = run.failures(bad["tasks"])
    assert [(task[0], task[4]) for task in failed] == [
        (f"{NODE}/1", "output differs from reference")]
    metrics, _notes = run.end_to_end("oracle-grid", [bad])
    assert metrics["ok_frac"][0] == 1 - 1 / len(bad["tasks"])


def test_task_times_are_medians_at_the_reference_speed():
    def result(times, ok=True, slowdown=1):
        return {"tasks": [[f"t{i}", s, ok, "out", None]
                          for i, s in enumerate(times)],
                "calibration": [run.REFERENCE_CALIBRATION_S * slowdown] * 3,
                "setup_s": 0.1, "rss_kb": 1024}

    # the second pass ran on a host twice as slow
    first = result([0.5, 0.25, 1.0])
    second = result([1.0, 0.5, 2.0], slowdown=2)
    metrics, _notes = run.end_to_end("corpus", [first, second])
    assert metrics["task_p50_ms"][0] == 500.0
    assert metrics["task_tail_ms"][0] == 1000.0
    assert metrics["tasks_per_s"][0] == 3 / 1.75
    # a task that failed in any pass does not count as done
    metrics, _notes = run.end_to_end("corpus", [first, result([0.25] * 3,
                                                              ok=False)])
    assert metrics["tasks_per_s"][0] == 0.0
    assert metrics["ok_frac"][0] == 0.5


def test_unsupported_draw_counts_as_failure_without_redraw():
    result = spawn({"surface": 0, "p": 2, "f": "x^3 + y^3"})
    assert len(result["tasks"]) == 12
    failed = run.failures(result["tasks"])
    assert len(failed) == 5
    assert all(task[4].startswith("UnsupportedShapeError") for task in failed)


def test_inputs_depend_only_on_seed():
    for workload in inputs.WORKLOADS:
        assert (inputs.unit_inputs(workload, 7, 3)
                == inputs.unit_inputs(workload, 7, 3))
    assert [inputs.oracle_surface(inputs.DEFAULT_SEED, i)["f"]
            for i in range(8)] == [f for _p, f in inputs.CRITERION_10]
    assert ([inputs.oracle_surface(1, i) for i in range(8)]
            != [inputs.oracle_surface(2, i) for i in range(8)])
    sweeps = [inputs.bms_sweep(5, i) for i in range(24)]
    revisits = [s for s in sweeps if s["revisit_of"] is not None]
    assert len(revisits) == len(sweeps) // 4
    for sweep in revisits:
        target = sweeps[int(sweep["revisit_of"])]
        assert target["revisit_of"] is None
        assert int(target["id"]) < int(sweep["id"])
        assert (target["p"], target["f"]) == (sweep["p"], sweep["f"])


def test_revisit_reads_the_cache_and_must_match(tmp_path):
    first = {"id": "0", "p": 3, "f": "x^3 + y^2", "revisit_of": None}
    sweeps = [first, dict(first, id="1", revisit_of="0")]
    job = {"workload": "bms-spectrum", "unit": {"sweeps": sweeps},
           "trace": False, "reference": {}, "cache_dir": str(tmp_path)}
    result = run.spawn(job, time.monotonic())
    assert not run.failures(result["tasks"])
    assert result["tasks"][0][3] == result["tasks"][1][3]
    hits, misses = result["cache"]
    assert hits > 0 and misses > 0
    job["reference"] = {"1": "{}"}
    job["cache_dir"] = str(tmp_path / "again")
    result = run.spawn(job, time.monotonic())
    assert [task[0] for task in run.failures(result["tasks"])] == ["1"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    unit = inputs.unit_inputs("oracle-grid", inputs.DEFAULT_SEED, NODE)
    plain, traced = spawn(unit), spawn(unit, trace=True)
    assert (list(run.per_layer([plain], [traced])) + ["fail_frac"]
            == [m["name"] for m in spec["per_layer"]])
    assert (list(run.end_to_end("oracle-grid", [plain])[0])
            == [m["name"] for m in spec["end_to_end"]])
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
