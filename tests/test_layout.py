"""Repository layout: the corpus is the one home of the worked examples."""

import re
from pathlib import Path

from cartierlab.cli import corpus_scene_names

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
