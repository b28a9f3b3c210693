"""Write the frozen reference outputs of each workload's default seed.

    python3 bench/freeze.py [workload ...]

Every output must pass its own checks first (``tau == tau_bms``, scene
statuses, EXACT spectra with right-continuous jumps).  Re-freeze only for a
deliberate, documented output change.
"""

import json
import sys
import time

import inputs
import run

FREEZE_UNITS = {"oracle-grid": len(inputs.CRITERION_10), "corpus": 1,
                "bms-spectrum": 8}


def freeze(workload):
    with run.scratch_dir() as cache_dir:
        results = run.run_units(workload, inputs.DEFAULT_SEED,
                                range(FREEZE_UNITS[workload]),
                                time.monotonic(), cache_dir, known={})
    tasks = run.tasks_of(results)
    failed = run.failures(tasks)
    if failed:
        raise SystemExit(f"{workload}: {len(failed)} tasks failed, e.g. "
                         f"{failed[0][0]}: {failed[0][4]}")
    path = run.REFERENCE_DIR / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({task[0]: task[3] for task in tasks}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"{workload}: {len(tasks)} outputs -> {path}")


if __name__ == "__main__":
    for name in sys.argv[1:] or inputs.WORKLOADS:
        freeze(name)
