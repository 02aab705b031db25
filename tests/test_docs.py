"""The README's library example runs as written and names the package root's
exports, and its CLI facts match the code."""

import re
import types
from pathlib import Path

import wheelecc
from wheelecc import checks, cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_readme_python_example_runs():
    blocks = _python_blocks()
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_package_root_exports_the_readme_example_names():
    exported = {
        name for name, obj in vars(wheelecc).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert exported == set(re.findall(r"\bw\.(\w+)", _python_blocks()[0]))


def test_readme_gen_objects_match_cli():
    text = README.read_text()
    listed = re.search(r"^Objects for `gen`: (.*?)\.\s", text, flags=re.M | re.S).group(1)
    assert re.findall(r"`([^`]+)`", listed) == list(cli.GEN_OBJECTS)


def test_readme_check_count_matches_registry():
    counts = re.findall(r"(\d+) named checks", README.read_text())
    assert counts and all(int(c) == len(checks.CHECKS) for c in counts)
