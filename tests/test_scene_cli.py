"""Scene parsing, task execution, caching, CLI exit codes, determinism."""

import argparse
import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from cartierlab import groebner
from cartierlab.cache import ResultCache, canonical_json
from cartierlab.cli import (_build_parser, _flags, corpus_scene_names, main,
                            run_corpus)
from cartierlab.errors import ParseError
from cartierlab.scene import _TASK_FIELDS, parse_scene, run_scene, run_task

ROOT = Path(__file__).resolve().parent.parent

FLOOR = """
scene floor
ring p=2 vars=y
module M rank=1
algebra A gens="1:1"
pair P module=M algebra=A
task tau pair=P ideal=(y) t=3/2 expect="y"
"""

# intro_example_p2's direct sum R/(y) (+) R; a task line appended is line 7
DIRECT_SUM = """
scene direct_sum
ring p=2 vars=x,y
module N rank=2 relations="y|0"
algebra C gens="1:y,0/0,x"
pair P module=N algebra=C
"""

BAD_STRUCTURE = """
scene bad
ring p=2 vars=x,y
module My rank=1 relations="y"
algebra C gens="1:x"
pair P module=My algebra=C
"""


class TestSceneParsing:
    def test_parse_and_run(self):
        scene = parse_scene(FLOOR)
        report, code = run_scene(scene)
        assert code == 0
        assert report["summary"]["ok"] == 1

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_scene("frobnicate a=b")

    def test_invalid_structure_at_pair(self):
        from cartierlab.errors import InvalidStructureError

        with pytest.raises(InvalidStructureError):
            parse_scene(BAD_STRUCTURE)

    def test_empty_tasks(self):
        scene = parse_scene("scene empty\nring p=2 vars=x\n")
        report, code = run_scene(scene)
        assert code == 0 and report["tasks"] == []

    def test_a_repeated_field_is_named_with_its_line(self):
        with pytest.raises(ParseError, match=r"repeated field t= \(line 7\)"):
            parse_scene(FLOOR.replace("t=3/2", "t=3/2 t=0"))

    def test_parse_error_names_only_what_is_known(self):
        assert str(ParseError("bad", line=3)) == "bad (line 3)"
        assert str(ParseError("bad", line=3, column=7)) == \
            "bad (line 3, column 7)"
        assert str(ParseError("bad")) == "bad"


class TestCorpus:
    def test_all_bundled_scenes_pass(self):
        report, code = run_corpus({})
        assert code == 0
        assert report["summary"]["fail"] == 0
        assert report["summary"]["errors"] == 0
        assert report["summary"]["ok"] >= 40
        assert report["summary"]["expected_negative"] == 2

    def test_determinism_byte_identical(self):
        a, _ = run_corpus({})
        b, _ = run_corpus({})
        assert canonical_json(a) == canonical_json(b)

    def test_replay_matches_frozen_reference(self):
        """Every task's canonical report equals the benchmark's frozen one."""
        path = ROOT / "bench" / "reference" / "corpus.json"
        reference = json.loads(path.read_text(encoding="utf-8"))
        report, _ = run_corpus({})
        replayed = {f"{scene['scene']}/{i}": canonical_json(task)
                    for scene in report["scenes"]
                    for i, task in enumerate(scene["tasks"])}
        assert replayed == reference

    @pytest.mark.parametrize("name", corpus_scene_names())
    def test_a_shared_scene_memo_changes_no_task(self, name):
        """The tasks of one scene share its memo; run in order, each reports
        byte for byte what it reports alone on a freshly parsed scene."""
        text = resources.files("cartierlab").joinpath(
            "corpus", name).read_text(encoding="utf-8")

        def report(scene, task):
            outcome = canonical_json(run_task(scene, task, {}).serialize())
            assert groebner._MEMO.get() is None
            return outcome

        shared = parse_scene(text, name=name)
        together = [report(shared, task) for task in shared.tasks]
        alone = []
        for index in range(len(together)):
            fresh = parse_scene(text, name=name)
            alone.append(report(fresh, fresh.tasks[index]))
        assert together == alone

    def test_a_task_leaves_its_verdicts_in_the_scene_memo(self):
        scene = parse_scene(FLOOR)
        run_task(scene, scene.tasks[0], {})
        assert groebner._MEMO.get() is None
        assert scene.memo["tau"]

    def test_scene_names_stable(self):
        names = corpus_scene_names()
        assert "intro_example_p2.scene" in names
        assert "sec3_example_p3.scene" in names


class TestCache:
    def test_roundtrip_and_hits(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = {"op": "probe", "x": 1}
        assert cache.lookup(key) is None
        cache.store(key, {"value": [1, 2, 3]})
        assert cache.lookup(key) == {"value": [1, 2, 3]}
        assert cache.hits == 1 and cache.misses == 1

    def test_version_bump_invalidates(self, tmp_path):
        c1 = ResultCache(str(tmp_path), engine_version="v1")
        c1.store({"op": "probe"}, 42)
        c2 = ResultCache(str(tmp_path), engine_version="v2")
        assert c2.lookup({"op": "probe"}) is None

    def test_corrupted_entry_recomputed(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = {"op": "probe"}
        cache.store(key, 1)
        path = cache._path(key)
        with open(path, "w") as fh:
            fh.write("{ not json")
        assert cache.lookup(key) is None
        cache.store(key, 2)
        assert cache.lookup(key) == 2

    def test_jumps_sweep_uses_cache(self, tmp_path):
        from cartierlab.cartiercore import (CartierAlgebraSpec, CartierOp,
                                            validate_structure)
        from cartierlab.filtration import jumping_numbers
        from cartierlab.fppoly import RingSpec
        from cartierlab.fpmod import PresentedModule
        from cartierlab.idealkit import Ideal

        R = RingSpec(2, ("y",))
        M = PresentedModule.free(R, 1)
        cm = validate_structure(M, CartierAlgebraSpec(
            [CartierOp(1, [[R.one()]])]))
        cache = ResultCache(str(tmp_path))
        ideal = Ideal(R, [R.var("y")])
        first = jumping_numbers(cm, ideal, 2, caps=(1, 1), cache=cache)
        assert first.cache_hits == 0
        second = jumping_numbers(cm, ideal, 2, caps=(1, 1), cache=cache)
        assert second.cache_hits > 0
        assert first.serialize()["jumps"] == second.serialize()["jumps"]


class TestCLI:
    def run_cli(self, *args):
        proc = subprocess.run([sys.executable, "-m", "cartierlab.cli",
                               *args], capture_output=True, text=True)
        return proc

    def test_invalid_structure_exit_3(self, tmp_path):
        scene = tmp_path / "bad.scene"
        scene.write_text(BAD_STRUCTURE)
        proc = self.run_cli("check", "--scene", str(scene))
        assert proc.returncode == 3
        assert "witness" in proc.stderr

    def test_expected_negative_exit_4(self, tmp_path):
        scene = tmp_path / "neg.scene"
        scene.write_text("""
scene neg
ring p=2 vars=x
module M rank=1
algebra W gens="1:x"
pair P module=M algebra=W
task point-pushforward pair=P expect-negative=true
""")
        proc = self.run_cli("check", "--scene", str(scene),
                            "--expect-negative")
        assert proc.returncode == 4

    def test_carrier_from_another_module_exit_3(self, tmp_path):
        scene = tmp_path / "foreign.scene"
        scene.write_text(FLOOR + """module N rank=2
submodule S of=N gens="1|0"
pair Q module=M algebra=A carrier=S
""")
        proc = self.run_cli("check", "--scene", str(scene))
        assert proc.returncode == 3
        assert "carrier is a submodule of another module" in proc.stderr

    def test_twisted_point_pushforward_is_refused(self, tmp_path):
        scene = tmp_path / "twisted.scene"
        scene.write_text("""
scene twisted
ring p=2 vars=x
module M rank=1
algebra T gens="1:1" twist="(x)^1"
pair P module=M algebra=T
task point-pushforward pair=P
""")
        proc = self.run_cli("check", "--scene", str(scene), "--json")
        assert proc.returncode == 5
        task, = json.loads(proc.stdout)["tasks"]
        assert task["status"] == "error"
        assert "untwisted" in task["result"]["error"]

    def test_twisted_pullback_along_a_finite_map(self, tmp_path):
        """The pullback of a twisted pair is checked and its pushforward
        half left out; the pushforward task itself is still refused."""
        scene = tmp_path / "twisted.scene"
        scene.write_text("""
scene twisted
ring p=2 vars=x
module M rank=1
algebra T gens="1:1" twist="(x)^1"
pair P module=M algebra=T
map f kind=finite adjoin=z relation="z^2+x"
task pullback pair=P map=f
task pushforward pair=P map=f
""")
        proc = self.run_cli("check", "--scene", str(scene), "--json")
        assert proc.returncode == 5
        pullback, pushforward = json.loads(proc.stdout)["tasks"]
        assert pullback["status"] == "ok"
        assert pullback["result"]["tau_equal"] is True
        assert pullback["result"]["pushforward_tau_commutes"] is None
        assert pullback["result"]["pushforward_ass_transport"] is None
        assert pushforward["status"] == "error"
        assert "before twisting" in pushforward["result"]["error"]

    def test_expectation_failure_exit_5(self, tmp_path):
        scene = tmp_path / "wrong.scene"
        scene.write_text("""
scene wrong
ring p=2 vars=y
module M rank=1
algebra A gens="1:1"
pair P module=M algebra=A
task tau pair=P ideal=(y) t=1 expect="y^5"
""")
        proc = self.run_cli("check", "--scene", str(scene))
        assert proc.returncode == 5

    def test_single_op_reports_cache_hits(self, tmp_path, capsys):
        scene = tmp_path / "floor.scene"
        scene.write_text(FLOOR)
        argv = ["jumps", "--scene", str(scene), "--pair", "P", "--ideal",
                "(y)", "--max-t", "1", "--denom-caps", "1,1", "--cache-dir",
                str(tmp_path / "cache"), "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["summary"]["cache_hits"] == 0
        assert second["summary"]["cache_hits"] > 0
        # the grid values read, as with one cache file per grid point
        assert second["summary"]["cache_hits"] == 3
        jumps = [doc["tasks"][0]["result"]["jumps"] for doc in (first, second)]
        assert jumps[0] == jumps[1]

    # (scene text, line of the fault); FLOOR's first line is blank
    MALFORMED = {
        "unknown-algebra": (FLOOR.replace("algebra=A", "algebra=B"), 6),
        "ring-p-not-prime": (FLOOR.replace("p=2", "p=4"), 3),
        "rank-not-integer": (FLOOR.replace("rank=1", "rank=x"), 4),
        "max-t-not-rational": (
            FLOOR + "task jumps pair=P ideal=(y) max-t=abc\n", 8),
        "taubms-zero-f": (FLOOR + "task taubms f=0 t=1\n", 8),
        "finite-map-adjoins-a-ring-variable": (
            FLOOR + 'map F kind=finite adjoin=y relation="y^2"\n', 8),
        "relation-outside-the-ring": (
            FLOOR.replace("rank=1", 'rank=1 relations="z"'), 4),
        "expect-not-a-polynomial": (
            FLOOR + 'task tau pair=P expect="y$"\n', 8),
        "tau-negative-t": (FLOOR + "task tau pair=P ideal=(y) t=-1\n", 8),
        "tauprime-negative-t": (
            FLOOR + "task tauprime pair=P ideal=(y) t=-1\n", 8),
        "jumps-max-t-zero": (
            FLOOR + "task jumps pair=P ideal=(y) max-t=0\n", 8),
        "jumps-zero-grid-denominator": (
            FLOOR + "task jumps pair=P ideal=(y) max-t=1 denom-caps=1,0\n",
            8),
        "jumps-unknown-exact-policy": (
            FLOOR + "task jumps pair=P ideal=(y) max-t=1 denom-caps=1,1 "
            "exact-policy=strcit\n", 8),
        "skoda-t-below-1": (
            FLOOR + "task skoda pair=P ideal=(y) t=1/2\n", 8),
        "gr-negative-t": (FLOOR + "task gr pair=P ideal=(y) t=-1\n", 8),
        "submodule-of-wrong-rank": (
            FLOOR + 'submodule S of=M gens="y|y"\n', 8),
        "pair-inverts-zero": (
            FLOOR + 'pair Q module=M algebra=A invert="0"\n', 8),
        "ring-order-is-not-a-field": (
            FLOOR.replace("vars=y", "vars=y order=grlex"), 3),
        "finite-map-relation-not-monic": (
            FLOOR + 'map g kind=finite adjoin=z relation="y*z^2+1"\n', 8),
        "stabilize-expect-of-wrong-rank": (
            FLOOR + "task stabilize pair=P expect=1|0\n", 8),
        "tau-expect-of-wrong-rank": (
            FLOOR + 'task tau pair=P expect="y|y"\n', 8),
        "composite-adjoins-a-variable-twice": (
            FLOOR + 'map F kind=finite adjoin=z relation="z^2+y"\n'
            "map G compose=F,F\n", 9),
        "composite-adjoins-a-line-variable-twice": (
            FLOOR + "map F kind=affine-line var=u\n"
            "map G compose=F,F\n", 9),
        "repeated-task-field": (
            FLOOR + 'task tau pair=P ideal=(y) t=3/2 t=0 expect="y"\n', 8),
        "repeated-expect": (
            FLOOR + 'task tau pair=P ideal=(y) t=3/2 expect="y^5" '
            'expect="y"\n', 8),
    }

    @pytest.mark.parametrize("text, line", MALFORMED.values(),
                             ids=MALFORMED.keys())
    def test_malformed_scene_exits_5_with_line(self, tmp_path, capsys,
                                                text, line):
        scene = tmp_path / "bad.scene"
        scene.write_text(text)
        assert main(["check", "--scene", str(scene), "--json"]) == 5
        captured = capsys.readouterr()
        assert f"(line {line})" in captured.out + captured.err

    # (scene text, line, the rejected field or value the message names)
    TYPOS = {
        "misspelt-expect": (FLOOR + 'task tau pair=P expct="y"\n', 8,
                            "expct="),
        "misspelt-pullback-check": (
            FLOOR + 'map F kind=finite adjoin=z relation="z^2+y"\n'
            "task pullback pair=P map=F check=tau-comutes\n", 9,
            "'tau-comutes'"),
        "task-level-seed": (FLOOR + "task fregular pair=P seed=3\n", 8,
                            "seed="),
    }

    @pytest.mark.parametrize("text, line, named", TYPOS.values(),
                             ids=TYPOS.keys())
    def test_unknown_task_field_exits_5_with_line(self, tmp_path, capsys,
                                                  text, line, named):
        """A typo must not turn a check off: before, both typos reported OK
        (the expectation skipped, the pullback checked for inclusion)."""
        scene = tmp_path / "typo.scene"
        scene.write_text(text)
        assert main(["check", "--scene", str(scene), "--json"]) == 5
        err = capsys.readouterr().err
        assert f"(line {line})" in err and named in err

    @pytest.mark.parametrize("line, rejected", [
        ("task tau pair=P ideal=(y) t=1/0", "1/0"),
        ('algebra B gens="1:1" twist="(y)^1/0"', "1/0"),
        ("task tau pair=P ideal=(y) t=1/2/3", "1/2/3"),
    ], ids=["task-t-zero-denominator", "twist-zero-denominator",
            "task-t-two-slashes"])
    def test_bad_rational_is_named(self, tmp_path, capsys, line, rejected):
        scene = tmp_path / "rational.scene"
        scene.write_text(FLOOR + line + "\n")
        assert main(["check", "--scene", str(scene), "--json"]) == 5
        captured = capsys.readouterr()
        assert f"not a rational N or N/D: {rejected!r} (line 8)" in \
            captured.out + captured.err

    @pytest.mark.parametrize("at", ["(x+1,x)", "(x*y)", "(x^2)"],
                             ids=["unit-ideal", "two-primes", "not-radical"])
    def test_nilpotent_at_a_non_prime_exits_5_with_line(self, tmp_path,
                                                        capsys, at):
        """Localizing at an ideal that is not prime means nothing; each of
        these reported ``"nilpotent": false`` with status ok before."""
        scene = tmp_path / "at.scene"
        scene.write_text(DIRECT_SUM + f'task nilpotent pair=P at="{at}"\n')
        assert main(["check", "--scene", str(scene), "--json"]) == 5
        task, = json.loads(capsys.readouterr().out)["tasks"]
        assert task["status"] == "error"
        assert task["result"]["error"] == "at= is not a prime ideal (line 7)"

    @pytest.mark.parametrize("at", ["(x)", "(x+1, y)"])
    def test_nilpotent_at_a_prime_runs(self, tmp_path, capsys, at):
        scene = tmp_path / "at.scene"
        scene.write_text(DIRECT_SUM + f'task nilpotent pair=P at="{at}"\n')
        assert main(["check", "--scene", str(scene), "--json"]) == 0
        task, = json.loads(capsys.readouterr().out)["tasks"]
        assert task["status"] == "ok"

    def test_scene_report_is_the_same_with_and_without_cli_flags(self):
        """``run_scene`` without flags, with the flags of ``cartierlab
        check`` and with the bench corpus worker's ``{"seed": 0}``, a key
        no task reads, gives one report."""
        text = FLOOR + "task fregular pair=P\ntask testelements pair=P\n"
        flags = _flags(_build_parser().parse_args(["check", "--scene", "-"]))
        plain, plain_code = run_scene(parse_scene(text))
        assert plain_code == 0
        for other in (flags, {"seed": 0}):
            report, code = run_scene(parse_scene(text), other)
            assert code == 0
            assert canonical_json(report) == canonical_json(plain)

    # the options that are no task field; check's --expect-negative (exit 4
    # on a matched negative) is not point-pushforward's expect-negative=
    RUN_FLAGS = {"help", "scene", "json", "cache-dir", "expect-negative"}

    def test_options_are_task_fields_or_run_flags(self):
        """A single-op subcommand's options are fields of its task, so a
        setting has one source; ``check`` and ``corpus`` take none."""
        action, = [a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
        for name, sub in action.choices.items():
            options = {o[2:] for a in sub._actions for o in a.option_strings
                       if o.startswith("--")}
            fields = set() if name in ("check", "corpus") \
                else _TASK_FIELDS[name]
            assert options - self.RUN_FLAGS <= fields, name

    def test_cli_task_takes_the_checks_of_a_task_line(self, tmp_path,
                                                      capsys):
        scene = tmp_path / "pullback.scene"
        scene.write_text(
            FLOOR + 'map F kind=finite adjoin=z relation="z^2+y"\n')
        assert main(["pullback", "--scene", str(scene), "--map", "F",
                     "--check", "tau-comutes"]) == 5
        assert "check must be one of" in capsys.readouterr().err

    def test_jumps_zero_grid_denominator_option_exits_5(self, tmp_path,
                                                        capsys):
        scene = tmp_path / "jumps.scene"
        scene.write_text(FLOOR)
        assert main(["jumps", "--scene", str(scene), "--ideal", "(y)",
                     "--max-t", "1", "--denom-caps", "1,0", "--json"]) == 5
        task, = json.loads(capsys.readouterr().out)["tasks"]
        assert task["status"] == "error"
        assert "denom-caps need A >= 0 and B >= 1" in task["result"]["error"]

    @pytest.mark.parametrize("argv", [
        ["check", "--scene", "x.scene", "--denom-caps", "1,1"],
        ["ass", "--scene", "x.scene", "--denom-caps", "9,9"],
        ["corpus", "--scene", "x.scene"],
        ["check", "--scene", "x.scene", "--seed", "1"],
        ["tau", "--scene", "x.scene", "--seed", "1"],
        ["jumps", "--scene", "x.scene", "--e-max", "3"],
    ], ids=["check-denom-caps", "ass-denom-caps", "corpus-scene",
            "check-seed", "tau-seed", "jumps-e-max"])
    def test_an_option_of_no_task_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_single_op_and_json(self, tmp_path):
        scene = tmp_path / "ok.scene"
        scene.write_text(FLOOR)
        proc = self.run_cli("tau", "--scene", str(scene), "--pair", "P",
                            "--t", "3/2", "--ideal", "(y)", "--json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["tasks"][0]["result"]["submodule"]["generators"] == [["y"]]
