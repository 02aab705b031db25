"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_readme_python_example_runs():
    blocks = _python_blocks()
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
