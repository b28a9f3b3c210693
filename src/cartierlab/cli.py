"""Command-line interface.

    cartierlab tau|tauprime|jumps|gr|stabilize|nilpotent|ass|pullback|
               pushforward|check|corpus
               [--scene FILE] [--pair NAME] [--e-max N] [--seed N]
               [--cache-dir DIR] [--denom-caps A,B] [--json] ...

Single-operation subcommands run one task against a scene's objects;
``check`` runs the scene's own task list (with ``--expect-negative`` the
documented negative assertions map to exit code 4); ``corpus`` replays every
bundled scene.  Exit codes: 0 success, 2 resource cap, 3 invalid structure,
4 expected-negative matched, 5 expectation/property failure.
"""

import argparse
import sys
from importlib import resources

from .cache import ENGINE_VERSION, ResultCache, canonical_json
from .errors import (CartierLabError, InvalidStructureError, ParseError,
                     ResourceCapError)
from .scene import load_scene, parse_scene, run_scene


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cartierlab",
        description="Exact engine for Frobenius-trace module structures.")
    parser.add_argument("--version", action="version", version=ENGINE_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, scene_required=True):
        sp.add_argument("--scene", required=scene_required,
                        help="scene file describing the objects")
        sp.add_argument("--pair", help="name of the (module, algebra) pair")
        sp.add_argument("--e-max", type=int, default=None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--cache-dir", default=None)
        sp.add_argument("--denom-caps", default=None,
                        help="A,B for the grid denominator p^A(p^B-1)")
        sp.add_argument("--exact-policy", choices=["strict", "lower-bound"],
                        default=None)
        sp.add_argument("--json", action="store_true",
                        help="print the canonical JSON report")
        return sp

    for name in ("tau", "tauprime", "stabilize", "nilpotent", "ass",
                 "fregular", "testelements"):
        sp = common(sub.add_parser(name))
        if name in ("tau", "tauprime"):
            sp.add_argument("--t", default=None)
            sp.add_argument("--ideal", default=None)
            sp.add_argument("--e0", default=None)
            sp.add_argument("--test-elements", default=None,
                            help='override: "(prime):element ; ..."')
    sp = common(sub.add_parser("jumps"))
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--max-t", required=True)
    sp = common(sub.add_parser("gr"))
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--t", required=True)
    sp = common(sub.add_parser("pullback"))
    sp.add_argument("--map", required=True)
    sp.add_argument("--check", default="tau-commutes")
    sp = common(sub.add_parser("pushforward"))
    sp.add_argument("--map", required=True)
    sp = common(sub.add_parser("check"))
    sp.add_argument("--expect-negative", action="store_true")
    sp = common(sub.add_parser("corpus"), scene_required=False)
    return parser


def _flags(args):
    flags = {"seed": args.seed}
    if args.e_max is not None:
        flags["e_max"] = args.e_max
    if args.denom_caps:
        flags["denom_caps"] = args.denom_caps
    if getattr(args, "exact_policy", None):
        flags["exact_policy"] = args.exact_policy
    if args.cache_dir:
        flags["cache"] = ResultCache(args.cache_dir)
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


def _single_task(args, op):
    """Run the scene's objects through one task built from the options."""
    scene = load_scene(args.scene)
    task = {"op": op}
    pair = args.pair or next(iter(scene.pairs), None)
    if pair is not None:
        task["pair"] = pair
    for key in ("t", "ideal", "e0", "map", "check", "max-t", "denom-caps",
                "test-elements"):
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            task[key] = value
    scene.tasks = [task]
    report, code = run_scene(scene, _flags(args))
    _emit(report, args.json)
    return code


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
        if args.command == "check":
            scene = load_scene(args.scene)
            flags = _flags(args)
            flags["expect_negative"] = args.expect_negative
            report, code = run_scene(scene, flags)
            report["engine_version"] = ENGINE_VERSION
            _emit(report, args.json)
            return code
        if args.command == "corpus":
            flags = _flags(args)
            if args.scene:
                scene = load_scene(args.scene)
                report, code = run_scene(scene, flags)
                _emit(report, args.json)
                return code
            combined, code = run_corpus(flags)
            _emit({"tasks": [], "summary": combined["summary"],
                   **combined} if not args.json else combined, args.json)
            return code
        return _single_task(args, args.command)
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
