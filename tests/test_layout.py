"""Repository layout: the corpus is the one home of the worked examples,
every library name the bench tracer hooks exists, no library module
keeps a cache of its own, every memo table is filled through
``groebner.memoised`` by one owner and is read back by the corpus, and
every memo entry is a finished value."""

import ast
from collections.abc import Iterator
import importlib
import importlib.resources
import importlib.util
import re
from pathlib import Path

from cartierlab.cli import corpus_scene_names
from cartierlab.scene import parse_scene, run_task

ROOT = Path(__file__).resolve().parent.parent


def test_scenes_dir_holds_no_copy_of_a_corpus_scene():
    local = {path.name for path in (ROOT / "scenes").iterdir()}
    assert sorted(local & set(corpus_scene_names())) == []


def test_scene_paths_in_the_readmes_exist():
    for readme in (ROOT / "README.md", ROOT / "scenes" / "README.md"):
        paths = re.findall(r"--scene\s+([\w./-]+\.scene)", readme.read_text())
        assert paths, readme
        for path in paths:
            assert (ROOT / path).is_file(), f"{readme.name}: {path}"


def test_every_name_the_bench_tracer_wraps_resolves():
    """The traced bench run wraps these names by path; a rename breaks it."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tracer.import_library()
    for _layer, module, attr, _name in tracer.WRAPPED:
        owner = importlib.import_module(f"cartierlab.{module}")
        for part in attr.split("."):
            assert part in vars(owner), f"cartierlab.{module}.{attr}"
            owner = vars(owner)[part]
    # bindings outside the defining module that the bench tests expect
    from cartierlab import cartiercore, fpmod, fppoly, groebner, idealkit
    from cartierlab import testmod

    assert testmod.graded_sum is cartiercore.graded_sum
    assert fpmod.normal_form is groebner.normal_form
    assert idealkit.normal_form is groebner.normal_form
    assert fppoly.Poly.__rmul__ is fppoly.Poly.__mul__


def _empty_container(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "dict")
            and not node.args and not node.keywords)


def test_no_library_module_binds_an_empty_container():
    """Module-level caches make an answer depend on what ran earlier in the
    process; memoised work belongs in a table of the open ``memo_scope``,
    filled through ``groebner.memoised``."""
    found = []
    for path in sorted((ROOT / "src" / "cartierlab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) \
                    and node.value is not None \
                    and _empty_container(node.value):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _memo_calls(callee):
    """{first argument: functions of ``src/cartierlab`` that call
    ``callee``}, keyed by the argument when it is a constant (a table
    name), else by None."""
    owners = {}

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{where}.{child.name}"
            elif isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name == callee:
                    first = child.args[0] if child.args else None
                    label = (first.value if isinstance(first, ast.Constant)
                             else None)
                    owners.setdefault(label, set()).add(where)
            visit(child, inner)

    for path in sorted((ROOT / "src" / "cartierlab").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return owners


def _memo_table_openers():
    """{table name: functions of ``src/cartierlab`` that call
    ``memoised("<name>", ...)``}."""
    return _memo_calls("memoised")


def test_each_memo_table_is_opened_in_one_function():
    """A table filled in two places can be filled under two key shapes;
    one function per table keeps one."""
    owners = _memo_table_openers()
    assert "small_power" in owners and "buchberger" in owners
    shared = {name: sorted(where) for name, where in owners.items()
              if len(where) != 1 or name is None}
    assert shared == {}


def test_only_groebner_reads_a_memo_table():
    """Every table is read and filled through ``groebner.memoised``: no
    other library module opens a table with ``memo_table`` or touches the
    memo's context variable."""
    callers = {where.split(".")[0]
               for owners in _memo_calls("memo_table").values()
               for where in owners}
    assert callers <= {"groebner"}
    touching = [path.name
                for path in sorted((ROOT / "src" / "cartierlab").glob("*.py"))
                if path.name != "groebner.py"
                and "_MEMO" in path.read_text()]
    assert touching == []


def _iterators_in(value):
    """Paths to the iterators (generators included) reachable from
    ``value`` through tuples, lists, sets, dict values and instance
    attributes, each object visited once."""
    found, seen = [], set()
    stack = [(value, "")]
    while stack:
        obj, path = stack.pop()
        if id(obj) in seen or isinstance(obj, (str, bytes, int, type)):
            continue
        seen.add(id(obj))
        if isinstance(obj, Iterator):
            found.append(f"{path}: {type(obj).__name__}")
            continue
        if isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend((item, f"{path}[{i}]") for i, item in enumerate(obj))
        elif isinstance(obj, dict):
            stack.extend((item, f"{path}[{i}]")
                         for i, item in enumerate(obj.values()))
        else:
            attrs = dict(getattr(obj, "__dict__", {}))
            for cls in type(obj).__mro__:
                for name in getattr(cls, "__slots__", ()):
                    if hasattr(obj, name):
                        attrs[name] = getattr(obj, name)
            stack.extend((item, f"{path}.{name}")
                         for name, item in attrs.items())
    return found


def test_every_memo_entry_of_the_corpus_is_a_finished_value():
    """After the 13 corpus scenes run into one scene memo, no table value
    is ``None``, the miss sentinel of ``groebner.memoised``, and none holds
    a generator or another iterator: an entry that keeps a half-read
    stream answers later readers by what earlier ones read."""
    folder = importlib.resources.files("cartierlab").joinpath("corpus")
    names = corpus_scene_names()
    assert len(names) == 13
    memo = {}
    for name in names:
        scene = parse_scene(folder.joinpath(name).read_text("utf-8"),
                            name=name)
        scene.memo = memo
        for task in scene.tasks:
            run_task(scene, task, {"seed": 0})
    assert {"candidate_pool", "graded_step", "tau"} <= set(memo)
    empty = [table for table, entries in memo.items()
             if any(value is None for value in entries.values())]
    assert empty == []
    found = [f"{table}{path}" for table, entries in memo.items()
             for path in _iterators_in(entries)]
    assert found == []


class _CountingTable(dict):
    """A memo table that counts the ``get`` calls that find their key."""

    hits = 0

    def get(self, key, default=None):
        value = super().get(key, default)
        if key in self:
            self.hits += 1
        return value


def test_the_corpus_reads_back_every_memo_table():
    """Replayed as ``run_scene`` holds it, one memo per scene, the corpus
    reads each memo table back at least once: a table that no traffic
    reads back only costs its keys and its memory."""
    folder = importlib.resources.files("cartierlab").joinpath("corpus")
    names = corpus_scene_names()
    assert len(names) == 13
    tables = {name: [] for name in _memo_table_openers()}
    for name in names:
        scene = parse_scene(folder.joinpath(name).read_text("utf-8"),
                            name=name)
        for table, seen in tables.items():
            seen.append(scene.memo.setdefault(table, _CountingTable()))
        for task in scene.tasks:
            run_task(scene, task, {"seed": 0})
    hits = {table: sum(t.hits for t in seen)
            for table, seen in tables.items()}
    assert [table for table, count in hits.items() if count == 0] == [], \
        hits
