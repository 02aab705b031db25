"""`tools/identity.py`: stable digests per command, a changed renderer is named alone, and
every command whose stdout `test_cli.py` pins by sha256 is on its list."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = [("gen", "w", "7", "--format", "json"), ("-O", "verify", "5", "--format", "csv")]


def _tool():
    spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identity_tool_repeats_its_digests_and_names_only_the_changed_command(tmp_path, capsys):
    tool = _tool()
    first = tool.run(COMMANDS, ROOT / "src")
    assert first == tool.run(COMMANDS, ROOT / "src")
    assert [line.split(" ", 2)[0] for line in first] == ["0", "0"]
    assert [line.split(" ", 2)[2] for line in first] == [" ".join(c) for c in COMMANDS]

    patched = tmp_path / "src"
    shutil.copytree(ROOT / "src", patched, ignore=shutil.ignore_patterns("__pycache__"))
    cli = patched / "wheelecc" / "cli.py"
    text = cli.read_text()
    marker = 'header = "n,check,status,expected,actual"'
    assert text.count(marker) == 1
    cli.write_text(text.replace(marker, 'header = "n,check,status,expected,actual "'))
    reference = tmp_path / "parent.txt"
    reference.write_text("\n".join(first) + "\n")
    capsys.readouterr()
    code = tool.main(["--src", str(patched), "--against", str(reference)], commands=COMMANDS)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "differs: -O verify 5 --format csv\n"
    assert captured.out.splitlines()[0] == first[0]
    assert tool.main(["--src", str(ROOT / "src"), "--against", str(reference)], commands=COMMANDS) == 0


def test_identity_list_covers_every_command_test_cli_pins():
    import test_cli as pins

    fmts = ("json", "csv", "pretty")
    pinned = [("sweep", "4", "24", "--format", "json")]
    pinned += [("sweep", "4", "24", "--format", f) for f in pins.SWEEP_4_24_SHA256]
    pinned += [("verify", str(n), "--format", "json") for n in pins.VERIFY_JSON_SHA256]
    pinned += [("-O", "verify", "42", "--format", "json")]
    pinned += [("gen", obj, str(n), "--format", f) for obj, n in pins.GEN_SHA256 for f in fmts]
    assert len(pinned) == 1 + 2 + 3 + 1 + 19 * 3
    assert set(pinned) <= set(_tool().COMMANDS)
