"""Interpreters the tests start (`python -m wheelecc ...`) import the checkout's
`src`, as pytest itself does through `pythonpath` in pyproject.toml."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
