"""Seeded fuzz of the scene and polynomial parsers, and of the scene runner.

Malformed input must end in an engine error, never in another exception:
``parse_scene`` and ``RingSpec.parse`` may raise only ``CartierLabError``
subclasses, and a ``ParseError`` from ``parse_scene`` always names its line
(the CLI turns it into exit code 5 with that line).  A mutant that parses
runs through ``run_scene``, which must end each task in a documented status
and the scene in a documented exit code.  Scene inputs are corpus scenes
with a few character edits on one line, or with one line dropped or
repeated; polynomial inputs are random token strings and edited well-formed
polynomials.
"""

from importlib import resources

from hypothesis import assume, given, settings, strategies as st

from cartierlab.cli import corpus_scene_names
from cartierlab.errors import CartierLabError, ParseError
from cartierlab.fppoly import RingSpec
from cartierlab.scene import parse_scene, run_scene

CORPUS = [resources.files("cartierlab").joinpath("corpus", name)
          .read_text(encoding="utf-8") for name in corpus_scene_names()]

# characters the scene and polynomial grammars give a meaning to
ALPHABET = "xyzuw0123456789 =|;/,:()^*+-\"'#\\.ab"

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                database=None)

# the task statuses of a scene report, and the scene exit codes of the CLI
# docs; exit code 4 needs ``expect_negative``, which the fuzz does not set
STATUSES = {"ok", "fail", "expected-negative", "error", "resource-cap",
            "invalid-structure"}
EXIT_CODES = {0, 2, 3, 5}


def edit(data, text):
    """``text`` after one to three random character edits."""
    for _ in range(data.draw(st.integers(1, 3))):
        pos = data.draw(st.integers(0, len(text)))
        kind = data.draw(st.sampled_from(["delete", "insert", "replace"]))
        char = data.draw(st.sampled_from(ALPHABET))
        if kind == "insert":
            text = text[:pos] + char + text[pos:]
        elif kind == "delete":
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + char + text[pos + 1:]
    return text


def mutated_scene(data):
    lines = data.draw(st.sampled_from(CORPUS)).splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    kind = data.draw(st.sampled_from(["edit", "edit", "drop", "repeat"]))
    if kind == "edit":
        lines[i] = edit(data, lines[i])
    elif kind == "drop":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


@FUZZ
@given(st.data())
def test_mutated_scenes_raise_only_engine_errors_with_a_line(data):
    text = mutated_scene(data)
    try:
        parse_scene(text)
    except ParseError as ex:
        assert ex.line is not None, f"{ex} has no line"
    except CartierLabError:
        pass


@FUZZ
@given(st.data())
def test_parsed_mutants_run_to_a_documented_status(data):
    try:
        scene = parse_scene(mutated_scene(data))
    except CartierLabError:
        scene = None
    assume(scene is not None)
    try:
        report, code = run_scene(scene)
    except CartierLabError:
        return
    assert code in EXIT_CODES
    assert {task["status"] for task in report["tasks"]} <= STATUSES


@FUZZ
@given(st.data())
def test_polynomial_text_raises_only_engine_errors(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    ring = RingSpec(p, ("x", "y"))
    if data.draw(st.booleans()):
        text = data.draw(st.text(alphabet="xyz0123456789 +-*^()", max_size=24))
    else:
        text = edit(data, "x^3 + 2*x*y^2 - (y + 1)*(x - y)")
    try:
        ring.parse(text)
    except CartierLabError:
        pass
