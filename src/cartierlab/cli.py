"""Command-line interface: a thin front for the scene runner.

    cartierlab tau|tauprime --scene FILE [--pair NAME] [--t T] [--ideal I]
               [--e0 N] [--test-elements LIST]
    cartierlab stabilize|nilpotent|ass|fregular|testelements --scene FILE
               [--pair NAME]
    cartierlab jumps --scene FILE [--pair NAME] --ideal I --max-t T
               [--denom-caps A,B] [--cache-dir DIR]
    cartierlab gr --scene FILE [--pair NAME] --ideal I --t T
    cartierlab pullback --scene FILE [--pair NAME] --map NAME [--check C]
    cartierlab pushforward --scene FILE [--pair NAME] --map NAME
    cartierlab check --scene FILE [--expect-negative] [--cache-dir DIR]
    cartierlab corpus [--cache-dir DIR]

Every subcommand also takes ``--json``.  A single-operation subcommand's
options, besides ``--scene``, are fields of its task: the task goes through
the scene parser's ``add_task``, takes the checks of a task line, and runs
against the scene's objects.  ``--json``, ``--cache-dir`` and
``--expect-negative`` are run flags, set only here.  ``check`` runs the
scene's own task list (with ``--expect-negative`` the documented negative
assertions map to exit code 4); ``corpus`` replays every bundled scene.
Exit codes: 0 success, 2 resource cap, 3 invalid structure, 4
expected-negative matched, 5 expectation/property failure.
"""

import argparse
import sys
from importlib import resources

from .cache import ENGINE_VERSION, ResultCache, canonical_json
from .errors import (CartierLabError, InvalidStructureError, ParseError,
                     ResourceCapError)
from .scene import add_task, load_scene, parse_scene, run_scene


# the task fields that each single-operation subcommand takes as options,
# besides --pair; all of them are fields of its op in scene._TASK_FIELDS
_TAU_OPTIONS = ("t", "ideal", "e0", "test-elements")
_TASK_OPTIONS = {
    "tau": _TAU_OPTIONS, "tauprime": _TAU_OPTIONS, "stabilize": (),
    "nilpotent": (), "ass": (), "fregular": (), "testelements": (),
    "jumps": ("ideal", "max-t", "denom-caps"),
    "gr": ("ideal", "t"), "pullback": ("map", "check"),
    "pushforward": ("map",)}
_OPTION_HELP = {
    "pair": "name of the (module, algebra) pair",
    "test-elements": 'override: "(prime):element ; ..."',
    "denom-caps": "A,B for the grid denominator p^A(p^B-1)"}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cartierlab",
        description="Exact engine for Frobenius-trace module structures.")
    parser.add_argument("--version", action="version", version=ENGINE_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_TASK_OPTIONS, "check", "corpus"):
        sp = sub.add_parser(name)
        if name != "corpus":
            sp.add_argument("--scene", required=True,
                            help="scene file describing the objects")
        if name in _TASK_OPTIONS:
            for field in ("pair", *_TASK_OPTIONS[name]):
                sp.add_argument(f"--{field}", help=_OPTION_HELP.get(field))
        if name == "check":
            sp.add_argument("--expect-negative", action="store_true")
        # run flags, on the commands with a task that reads them
        if name in ("jumps", "check", "corpus"):
            sp.add_argument("--cache-dir", default=None)
        sp.add_argument("--json", action="store_true",
                        help="print the canonical JSON report")
    return parser


def _flags(args):
    """The run flags: the settings that are not task fields."""
    flags = {}
    if getattr(args, "cache_dir", None):
        flags["cache"] = ResultCache(args.cache_dir)
    if getattr(args, "expect_negative", False):
        flags["expect_negative"] = True
    return flags


def _emit(report, as_json):
    if as_json:
        sys.stdout.write(canonical_json(report) + "\n")
        return
    for entry in report.get("tasks", []):
        task = entry["task"]
        status = entry["status"].upper()
        sys.stdout.write(f"[{status:>18}] {task.get('op', '?')} "
                         f"{ {k: v for k, v in task.items() if k != 'op'} }\n")
    summary = report.get("summary", {})
    sys.stdout.write("summary: " + ", ".join(
        f"{k}={v}" for k, v in sorted(summary.items())) + "\n")


def _single_task(args):
    """Run one task, built from the options, on the objects of a scene.

    The task goes through the scene parser's ``add_task``, so it takes the
    checks of a task line; its pair defaults to the scene's first.
    """
    scene = load_scene(args.scene)
    values = {"pair": args.pair or next(iter(scene.pairs), None)}
    for field in _TASK_OPTIONS[args.command]:
        values[field] = getattr(args, field.replace("-", "_"))
    scene.tasks = []
    add_task(scene, args.command,
             {k: v for k, v in values.items() if v is not None})
    return run_scene(scene, _flags(args))


def corpus_scene_names():
    files = resources.files("cartierlab").joinpath("corpus")
    return sorted(f.name for f in files.iterdir() if f.name.endswith(".scene"))


def run_corpus(flags):
    reports = []
    code = 0
    files = resources.files("cartierlab").joinpath("corpus")
    for name in corpus_scene_names():
        text = files.joinpath(name).read_text(encoding="utf-8")
        scene = parse_scene(text, name=name.rsplit(".", 1)[0])
        report, scene_code = run_scene(scene, flags)
        reports.append(report)
        code = max(code, scene_code)
    combined = {
        "engine_version": ENGINE_VERSION,
        "scenes": reports,
        "summary": {
            "ok": sum(r["summary"]["ok"] for r in reports),
            "fail": sum(r["summary"]["fail"] for r in reports),
            "expected_negative": sum(r["summary"]["expected_negative"]
                                     for r in reports),
            "errors": sum(r["summary"]["errors"] for r in reports),
        },
    }
    return combined, code


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "corpus":
            report, code = run_corpus(_flags(args))
        elif args.command == "check":
            report, code = run_scene(load_scene(args.scene), _flags(args))
            report["engine_version"] = ENGINE_VERSION
        else:
            report, code = _single_task(args)
        _emit(report, args.json)
        return code
    except ResourceCapError as ex:
        sys.stderr.write(f"resource cap: {ex}\n")
        return 2
    except InvalidStructureError as ex:
        sys.stderr.write(f"invalid structure: {ex} "
                         f"(witness: {ex.witness})\n")
        return 3
    except ParseError as ex:
        sys.stderr.write(f"parse error: {ex}\n")
        return 5
    except CartierLabError as ex:
        sys.stderr.write(f"error: {ex}\n")
        return 5


if __name__ == "__main__":
    sys.exit(main())
