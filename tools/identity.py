"""Stdout identity of the wheelecc CLI: run a fixed command list against one source tree.

    python tools/identity.py --src src > change.txt
    python tools/identity.py --src parent/src --against change.txt

Each command runs as `python [-O] -m wheelecc ...` in a fresh interpreter with
PYTHONPATH set to `--src`.  One line per command is written to stdout: the
exit code, the sha256 of stdout and the command.  With `--against FILE` (lines
written by an earlier run) every command whose line differs, or is missing, is
named on stderr and the exit code is 1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

FORMATS = ("json", "csv", "pretty")
GEN_OBJECTS = ("E", "E_minus_edge", "Ltilde", "Lhat", "inverse", "pinv", "w", "nullvecs", "quotient")
# The objects `gen` prints only where E is invertible (n % 3 != 1), and only where it is singular.
INVERTIBLE_ONLY, SINGULAR_ONLY = ("Ltilde", "inverse"), ("Lhat", "pinv", "nullvecs")


def _commands() -> list[tuple[str, ...]]:
    """The identity list; a leading "-O" is an interpreter flag, the rest the CLI's argv."""
    cmds = [("sweep", a, b, "--format", f) for a, b in (("4", "60"), ("4", "24")) for f in FORMATS]
    cmds += [("verify", "4", "--format", f) for f in ("json", "pretty")]
    cmds += [("verify", str(n), "--format", "json") for n in (41, 42, 49, 198, 199, 200)]
    cmds += [("-O", "verify", str(n), "--format", "json") for n in (41, 42, 49)]
    cmds += [("gen", o, str(n), "--format", f) for o in GEN_OBJECTS for n in (150, 151, 152)
             for f in FORMATS]
    cmds += [("gen", o, str(n)) for o in ("inverse", "pinv", "Ltilde", "Lhat", "nullvecs")
             for n in range(4, 8)]
    cmds += [("gen", o, str(n), "--format", f) for n in (25, 26, 27) for o in GEN_OBJECTS
             if o not in (INVERTIBLE_ONLY if n % 3 == 1 else SINGULAR_ONLY) for f in FORMATS]
    return cmds


COMMANDS = _commands()


def run_one(cmd: tuple[str, ...], src: Path) -> str:
    """The line for one command: exit code, stdout sha256, command."""
    flags, argv = (["-O"], cmd[1:]) if cmd[0] == "-O" else ([], cmd)
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, *flags, "-m", "wheelecc", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return f"{proc.returncode} {hashlib.sha256(proc.stdout).hexdigest()} {' '.join(cmd)}"


def run(commands, src: Path) -> list[str]:
    """One line per command, in the order of commands; two commands run at once."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(lambda c: run_one(c, src), commands))


def differing(lines: list[str], reference: list[str]) -> list[str]:
    """The commands whose line is not in reference, in the order of lines."""
    known = set(reference)
    return [line.split(" ", 2)[2] for line in lines if line not in known]


def main(argv: list[str] | None = None, commands=COMMANDS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", type=Path, required=True, help="the tree holding the wheelecc package")
    parser.add_argument("--against", type=Path, help="lines of an earlier run to compare with")
    args = parser.parse_args(argv)
    lines = run(commands, args.src.resolve())
    print("\n".join(lines))
    if args.against is None:
        return 0
    changed = differing(lines, args.against.read_text().splitlines())
    for cmd in changed:
        print(f"differs: {cmd}", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
