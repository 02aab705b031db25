"""Tests for the command-line front end and the verification report schema."""

import dataclasses
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from wheelecc import checks, cli, graphs, oracle, ratq
from wheelecc import closedform as cf
from wheelecc.checks import Check, CheckResult, run_checks
from wheelecc.circulant import CirculantQ
from wheelecc.cli import cmd_gen, cmd_sweep, cmd_verify, main
from wheelecc.ratq import MatrixQ, VectorQ, identity


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_E5_pretty(capsys):
    code, out, _ = run_main(capsys, ["gen", "E", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "[0  1  1  1  1]"
    assert lines[1] == "[1  0  0  2  0]"
    assert len(lines) == 5


def test_gen_w7_json(capsys):
    code, out, _ = run_main(capsys, ["gen", "w", "7", "--format", "json"])
    assert code == 0
    assert json.loads(out) == ["0", "1/6", "1/6", "1/6", "1/6", "1/6", "1/6"]


def test_gen_quotient_json(capsys):
    code, out, _ = run_main(capsys, ["gen", "quotient", "7", "--format", "json"])
    assert code == 0
    assert json.loads(out) == [["0", "6"], ["1", "6"]]


def test_gen_nullvecs_json(capsys):
    code, out, _ = run_main(capsys, ["gen", "nullvecs", "7", "--format", "json"])
    assert code == 0
    assert json.loads(out) == [
        ["0", "1", "0", "-1", "1", "0", "-1"],
        ["0", "0", "1", "-1", "0", "1", "-1"],
    ]


def test_gen_inverse_singular_case_is_usage_error(capsys):
    code, _, err = run_main(capsys, ["gen", "inverse", "7"])
    assert code == 2
    assert "singular" in err
    assert "n % 3" in err


@pytest.mark.parametrize("obj", ["inverse", "pinv"])
def test_gen_inverse_below_five_names_the_size_not_the_residue(capsys, obj):
    """At n = 4 neither formula applies, so neither message may point to the other builder."""
    code, out, err = run_main(capsys, ["gen", obj, "4"])
    assert (code, out) == (2, "")
    assert err == f"error: {obj} needs n >= 5, got n = 4\n"


def test_gen_lhat_wrong_residue(capsys):
    code, _, err = run_main(capsys, ["gen", "Lhat", "8"])
    assert code == 2
    assert "n % 3 == 1" in err


@pytest.mark.parametrize("obj, n", [("Ltilde", 7), ("Lhat", 8), ("Ltilde", 4), ("Lhat", 4)])
def test_gen_laplacian_outside_its_class_names_itself(capsys, obj, n):
    """Each Laplacian checks its class under its own name, not that of its cyclic block."""
    code, out, err = run_main(capsys, ["gen", obj, str(n)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {obj} needs n % 3 == ")


def test_gen_csv_round_trip(capsys):
    code, out, _ = run_main(capsys, ["gen", "E", "5", "--format", "csv"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0] == ["0", "1", "1", "1", "1"]
    assert len(rows) == 5


def test_verify_6_all_pass(capsys):
    code, out, _ = run_main(capsys, ["verify", "6", "--format", "json"])
    assert code == 0
    body = json.loads(out)
    assert body["n"] == 6
    assert body["fail"] == 0
    statuses = {c["name"]: c["status"] for c in body["checks"]}
    assert statuses["inverse_thm_5_8"] == "pass"
    assert statuses["pinv_thm_6_6"] == "skip"


def test_verify_7_skips_inverse_runs_pinv(capsys):
    code, out, _ = run_main(capsys, ["verify", "7", "--format", "json"])
    assert code == 0
    body = json.loads(out)
    statuses = {c["name"]: c["status"] for c in body["checks"]}
    assert statuses["inverse_thm_5_8"] == "skip"
    assert statuses["pinv_thm_6_6"] == "pass"
    assert statuses["nullvec_thm_4_5"] == "pass"
    assert statuses["rank_thm_4_5"] == "pass"
    assert statuses["rank_cert_lem_6_9"] == "skip"  # needs n >= 10


def test_verify_10_runs_rank_certificate(capsys):
    code, out, _ = run_main(capsys, ["verify", "10", "--format", "json"])
    assert code == 0
    body = json.loads(out)
    statuses = {c["name"]: c["status"] for c in body["checks"]}
    assert statuses["rank_cert_lem_6_9"] == "pass"


def test_verify_4_oracle_only(capsys):
    code, out, _ = run_main(capsys, ["verify", "4", "--format", "json"])
    assert code == 0
    body = json.loads(out)
    statuses = {c["name"]: c["status"] for c in body["checks"]}
    assert statuses["closed_forms"] == "skip"
    assert statuses["oracle_det"] == "pass"
    values = {c["name"]: c["actual"] for c in body["checks"]}
    assert values["oracle_det"] == "-3"
    assert values["oracle_inertia"] == "(1, 3, 0)"
    assert values["oracle_rank"] == "4"


def test_verify_rejects_tiny_n(capsys):
    code, _, err = run_main(capsys, ["verify", "3"])
    assert code == 2
    assert "n >= 4" in err


def test_every_check_name_appears_exactly_once(capsys):
    _, out, _ = run_main(capsys, ["verify", "12", "--format", "json"])
    body = json.loads(out)
    names = [c["name"] for c in body["checks"]]
    assert names == [c.name for c in checks.CHECKS]
    assert len(names) == len(set(names))
    for c in body["checks"]:
        assert c["status"] in ("pass", "fail", "skip")


def test_every_size_rule_excludes_some_n_of_its_residue_classes():
    """A least n above 5 that skips no n >= 5 in the check's classes says nothing."""
    for c in checks.CHECKS:
        if c.case.min_n > 5:
            assert any(n % 3 in c.case.residues for n in range(5, c.case.min_n)), c.name


def test_skip_only_for_inapplicable_residue_or_size(capsys):
    _, out, _ = run_main(capsys, ["verify", "13", "--format", "json"])
    body = json.loads(out)
    for c in body["checks"]:
        if c["status"] == "skip":
            assert "not applicable" in c["actual"] or "needs n >=" in c["actual"]


def test_sweep_range_equals_single_verify():
    reports = cmd_sweep(7, 7)
    single = cmd_verify(7)
    assert len(reports) == 1
    assert [(c.name, c.status, c.expected, c.actual) for c in reports[0].checks] == [
        (c.name, c.status, c.expected, c.actual) for c in single.checks
    ]


def test_sweep_exit_zero_and_counts(capsys):
    """n = 4..13 holds every Case's least n (5, 6, 7, 10) and its neighbours."""
    code, out, _ = run_main(capsys, ["sweep", "4", "13", "--format", "json"])
    assert code == 0
    body = json.loads(out)
    assert body["n_min"] == 4 and body["n_max"] == 13
    assert body["total_fail"] == 0
    assert body["first_failure"] is None
    assert [r["n"] for r in body["reports"]] == list(range(4, 14))
    statuses = {c["status"] for r in body["reports"] for c in r["checks"]}
    assert "error" not in statuses and "fail" not in statuses


def test_sweep_of_one_n_keeps_the_sweep_layout(capsys):
    code, out, _ = run_main(capsys, ["sweep", "7", "7", "--format", "json"])
    assert code == 0
    body = json.loads(out)
    single = json.loads(run_main(capsys, ["verify", "7", "--format", "json"])[1])
    assert body == {
        "n_min": 7, "n_max": 7, "total_pass": single["pass"], "total_fail": 0,
        "total_skip": single["skip"], "first_failure": None, "reports": [single],
    }
    _, pretty, _ = run_main(capsys, ["sweep", "7", "7"])
    _, single_pretty, _ = run_main(capsys, ["verify", "7"])
    summary = f"sweep n = 7..7: {single['pass']} pass, 0 fail, {single['skip']} skip\n"
    assert pretty == single_pretty + summary


def test_sweep_invalid_range(capsys):
    code, _, err = run_main(capsys, ["sweep", "9", "5"])
    assert code == 2
    assert "invalid range" in err


def test_sweep_guardrail(capsys):
    code, _, err = run_main(capsys, ["sweep", "5", "201"])
    assert code == 2
    assert "guardrail" in err
    assert "--max-n-override" in err


def test_sweep_jobs_byte_identical():
    cmd = [sys.executable, "-m", "wheelecc", "sweep", "5", "8", "--format", "json"]
    one = subprocess.run(cmd + ["--jobs", "1"], capture_output=True, check=True)
    four = subprocess.run(cmd + ["--jobs", "4"], capture_output=True, check=True)
    assert one.stdout == four.stdout
    assert one.stdout  # non-empty


# Loaded only by `sweep --jobs N>1` (the process pool) or by a check that raises.
DEFERRED_MODULES = {"traceback", "socket", "pickle", "subprocess", "logging"}
DEFERRED_PACKAGES = ("concurrent", "multiprocessing")


# Loaded only by verify and sweep: the check registry and what only it imports.
REGISTRY_MODULES = {"wheelecc.checks", "wheelecc.graphs", "dataclasses", "inspect"}


def _modules_loaded(*argvs: list[str]) -> list[list[str]]:
    """The modules that importing `wheelecc.cli` adds in a fresh `python -I` child, then
    the modules that each `main(argv)` adds in turn."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = (
        "import json, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "seen = set(sys.modules)\n"
        "import wheelecc.cli\n"
        "added = [sorted(set(sys.modules) - seen)]\n"
        f"for argv in {list(argvs)!r}:\n"
        "    seen = set(sys.modules)\n"
        "    wheelecc.cli.main(argv)\n"
        "    added.append(sorted(set(sys.modules) - seen))\n"
        "print(json.dumps(added))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", probe], capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_serial_cli_run_loads_no_process_pool_machinery():
    on_import, on_sweep = _modules_loaded(["sweep", "5", "6", "--format", "json"])
    assert "wheelecc.cli" in on_import
    for added in (on_import, on_sweep):
        deferred = [
            m for m in added if m in DEFERRED_MODULES or m.split(".")[0] in DEFERRED_PACKAGES
        ]
        assert deferred == []


def test_gen_loads_no_check_registry():
    *on_gen, on_verify = _modules_loaded(
        *(["gen", "E", "7", "--format", fmt] for fmt in ("json", "csv", "pretty")), ["verify", "5"]
    )
    assert "wheelecc.cli" in on_gen[0]
    assert [sorted(REGISTRY_MODULES.intersection(added)) for added in on_gen] == [[]] * 4
    assert "wheelecc.checks" in on_verify  # so the probe can see the registry load


def test_repeated_invocations_byte_identical(capsys):
    _, out1, _ = run_main(capsys, ["verify", "9", "--format", "csv"])
    _, out2, _ = run_main(capsys, ["verify", "9", "--format", "csv"])
    assert out1 == out2


def test_timings_flag_adds_column(capsys):
    _, out, _ = run_main(capsys, ["verify", "5", "--format", "csv", "--timings"])
    assert out.splitlines()[0].endswith(",wall_time_ms")


def test_failure_exit_code(monkeypatch, capsys):
    def always_fails(ctx):
        return "1", "0", False

    fake = (Check("synthetic_failure", cf.WHEEL, always_fails),)
    monkeypatch.setattr(checks, "CHECKS", fake)
    code, out, _ = run_main(capsys, ["verify", "6", "--format", "json"])
    assert code == 1
    body = json.loads(out)
    assert body["fail"] == 1


def test_cmd_gen_library_entry():
    out = cmd_gen("E", 5, "json")
    assert json.loads(out)[0] == ["0", "1", "1", "1", "1"]
    with pytest.raises(ValueError):
        cmd_gen("inverse", 7, "json")
    with pytest.raises(ValueError, match="unknown object 'bogus'"):
        cmd_gen("bogus", 5)


@pytest.mark.parametrize(
    "argv", [[], ["gen"], ["verify"], ["sweep"]], ids=["top", "gen", "verify", "sweep"]
)
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: wheelecc")
    if argv:
        assert "--format" in out and "--max-n-override" in out
        assert ("--tol" in out and "--timings" in out) == (argv != ["gen"])
        assert ("--jobs" in out) == (argv == ["sweep"])


def test_report_dataclass_counts():
    report = run_checks(6)
    assert report.n_pass + report.n_fail + report.n_skip == len(report.checks)
    assert report.ok
    assert all(isinstance(c, CheckResult) for c in report.checks)


# sha256 of `sweep 4 24 --format json` stdout, recorded before the oracle's
# three eliminations became one fraction-free routine.
SWEEP_4_24_JSON_SHA256 = "cb5c0ac8a5d0adf0cb10e4d12eeda2ee8a3f34d204d2f3783631ef7800b68132"


def test_sweep_stdout_identity(capsys):
    code, out, _ = run_main(capsys, ["sweep", "4", "24", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_4_24_JSON_SHA256


# sha256 of `sweep 4 24` stdout in the other two layouts, recorded while each
# check still had its own `_chk_*` runner and built the paper's side inline.
SWEEP_4_24_SHA256 = {
    "csv": "995f263ac2459e693fb9c7fdd9381e7e1f4ed14dc6992cfbb1d0662d3ad8c15c",
    "pretty": "d79957c75d1a4f4f5e9ee7d105fef13341477170083de905269f8bf7a5b695fa",
}


@pytest.mark.parametrize("fmt", sorted(SWEEP_4_24_SHA256))
def test_sweep_stdout_identity_in_csv_and_pretty(capsys, fmt):
    code, out, _ = run_main(capsys, ["sweep", "4", "24", "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_4_24_SHA256[fmt]


# sha256 of `verify n --format json` stdout at the sizes where the dense exact
# kernels dominate, recorded while `mat_mul` and `inertia_exact` still ran on
# Fraction entries.
VERIFY_JSON_SHA256 = {
    41: "53ca132bbd2ffcac9256ecfdce97f14e62f58124f43a3a7c96082ed8d584b7f4",
    42: "0c9e8c8dee4044cdf3928ae01ab1af9a9ab93a27d4af44f5278024629bbdc0e9",
    49: "278608a13100dba8a1730115880ea7ed91cdbb27869c42449f3ffc5b510d713c",
}


@pytest.mark.parametrize("n", sorted(VERIFY_JSON_SHA256))
def test_verify_stdout_identity(capsys, n):
    code, out, _ = run_main(capsys, ["verify", str(n), "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_JSON_SHA256[n]


def test_verify_stdout_identity_under_optimize():
    done = subprocess.run(
        [sys.executable, "-O", "-m", "wheelecc", "verify", "42", "--format", "json"],
        capture_output=True,
        check=True,
    )
    assert hashlib.sha256(done.stdout).hexdigest() == VERIFY_JSON_SHA256[42]


# sha256 of the stdout of `gen <obj> n` in json, csv and pretty, concatenated
# in that order, for every object that applies at n = 25, 26, 27; recorded
# while identity, zeros, jmatrix and to_dense still built Fraction entries.
GEN_SHA256 = {
    ("E", 25): "2cc54391e62a353b460df3c9b870518ac1396774313e43e0b531ec7a4b0c843e",
    ("E_minus_edge", 25): "f442e6b5bb4819bcf3507aca9fcdb24a5d558e4fa09cd77a68a34086c1103f9a",
    ("Lhat", 25): "34161f3a29e5c6a53ec14beee302c1168ed381fd7c66ac8b63d6d0f56f3507bf",
    ("pinv", 25): "6cd7f2c6b18d5b3f8eab231710f4dd938f572d8a12a4468efc9320ac7a2ada72",
    ("w", 25): "924663793f44e5ee136073de125cadfba03032dc533e7971aa1bbdf838fbaa31",
    ("nullvecs", 25): "ff649939094e6c9513da175e6624520388417da981bba54bacf2f8c9925fb161",
    ("quotient", 25): "06a566cafa6bae095514e9ccd661a1ba4c86a042b63a3d6716b68984e4224e85",
    ("E", 26): "d98f804ea5140292503d28331db5d900df72448b5b6077c9c668ae18fbf6be1d",
    ("E_minus_edge", 26): "2065b62b805b62e6641970af411c1ab1207b59025bd3283b007979a80562175b",
    ("Ltilde", 26): "dd3e395709c0993490f9f032b450dd2b104997f8e6a2a760220068dcafdb44fb",
    ("inverse", 26): "4bce35264ad410453eb0b5e15ea92fbb8e58762c53b262523016576e062e40dd",
    ("w", 26): "f02291f0e54af1aa8b7539a4c52eabb3154de73c10bc374a4d70132c08597ce6",
    ("quotient", 26): "38eb66eba534e67a26ce7b4311945dd4fb958807e1181b9595cd902431a31fef",
    ("E", 27): "531fc5ab474458a1eeba00ec159993f3da5c026b2c324f80c4ba25124bfcd0fd",
    ("E_minus_edge", 27): "25adeb8b909f7367549a66e9c2dc288c5e2bf5589d4153296254b1b4e0312955",
    ("Ltilde", 27): "1c5d9a2e89b40c9cefb5295941ef13dff4c1400e1afd2329f82ea989384a5897",
    ("inverse", 27): "c9f8be246e3af8b3126ed69fceab82a4734e5c259d3af0fe2cf86a3ef43c4adf",
    ("w", 27): "cfaf07012c1cefc224e3f16267ddfb5be0f778b34b98f584d7096249bb85bb7f",
    ("quotient", 27): "3014d5b916e6acc7b122acd44b6f54038fd653edf27e4c545cbdf66e95ce9ff6",
}


@pytest.mark.parametrize("obj, n", sorted(GEN_SHA256))
def test_gen_stdout_identity(capsys, obj, n):
    text = ""
    for fmt in ("json", "csv", "pretty"):
        code, out, _ = run_main(capsys, ["gen", obj, str(n), "--format", fmt])
        assert code == 0
        text += out
    assert hashlib.sha256(text.encode()).hexdigest() == GEN_SHA256[obj, n]


def test_gen_stdout_identity_covers_every_applicable_object(capsys):
    for n in (25, 26, 27):
        for obj in cli.GEN_OBJECTS:
            if (obj, n) not in GEN_SHA256:
                code, out, _ = run_main(capsys, ["gen", obj, str(n), "--format", "json"])
                assert (code, out) == (2, "")


@pytest.mark.parametrize("argv", [["gen", "E", "201"], ["verify", "201"], ["sweep", "200", "201"]])
def test_n_guardrail_applies_to_every_verb(monkeypatch, capsys, argv):
    built = []

    def fake_run_checks(n, tol):
        built.append(n)
        return checks.VerificationReport(n, (CheckResult("stub", "pass", "", "", 0.0),))

    def fake_builder(n):
        built.append(n)
        return VectorQ([n])

    monkeypatch.setattr(checks, "run_checks", fake_run_checks)
    monkeypatch.setitem(cli.GEN_OBJECTS, "E", fake_builder)
    code, out, err = run_main(capsys, argv)
    what = "n_max" if argv[0] == "sweep" else "n"
    assert (code, out, built) == (2, "", [])
    assert err == (
        f"error: {what} = 201 exceeds the dense-exact guardrail {cli.MAX_N}; "
        "pass --max-n-override to proceed\n"
    )
    code, out, err = run_main(capsys, argv + ["--max-n-override"])
    assert code == 0 and out
    assert built == ([200, 201] if argv[0] == "sweep" else [201])


@pytest.mark.parametrize("verb", [["verify", "6"], ["sweep", "5", "6"]])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1", "abc"])
def test_tol_must_be_finite_and_positive(capsys, verb, tol):
    with pytest.raises(SystemExit) as exc:
        main(verb + ["--tol", tol])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "--tol" in captured.err


@pytest.mark.parametrize("jobs", ["0", "-3", "x"])
def test_jobs_below_one_is_usage_error(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "5", "6", "--jobs", jobs])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "--jobs" in captured.err


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_library_entries_reject_the_tol_the_cli_rejects(tol):
    with pytest.raises(ValueError, match="tol must be a finite number > 0"):
        run_checks(12, tol=tol)
    with pytest.raises(ValueError, match="tol must be a finite number > 0"):
        cmd_sweep(5, 6, tol=tol)


@pytest.mark.parametrize("jobs", [0, -3])
def test_library_sweep_rejects_the_jobs_the_cli_rejects(jobs):
    with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
        cmd_sweep(5, 6, jobs=jobs)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: run_checks(7.0), "n"),
        (lambda: run_checks(True), "n"),
        (lambda: cmd_verify(7.0), "n"),
        (lambda: cmd_gen("E", 7.0), "n"),
        (lambda: cmd_gen("w", "7"), "n"),
        (lambda: cmd_sweep(5.0, 6), "n_min"),
        (lambda: cmd_sweep(5, 6.0), "n_max"),
        (lambda: cmd_sweep(5, 6, jobs=1.5), "jobs"),
        (lambda: cmd_sweep(5, 6, jobs=True), "jobs"),
    ],
    ids=["run_checks-float", "run_checks-bool", "verify-float", "gen-float", "gen-str",
         "sweep-n_min", "sweep-n_max", "sweep-jobs-float", "sweep-jobs-bool"],
)
def test_library_entries_take_only_int_orders_and_job_counts(call, name):
    """The CLI's argparse `int` holds these; the library holds them to one rule, not a bool."""
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    started: list[int] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, work):
        return map(fn, work)


@pytest.mark.parametrize(
    "cpus, jobs, expected",
    [(8, 5000, [3]), (2, 5000, [2]), (8, 2, [2]), (None, 5000, []), (8, 1, [])],
)
def test_jobs_capped_at_cpus_and_work(monkeypatch, cpus, jobs, expected):
    monkeypatch.setattr(_RecordingPool, "started", [])
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    reports = cmd_sweep(5, 7, jobs=jobs)
    assert _RecordingPool.started == expected
    assert [r.n for r in reports] == [5, 6, 7]


@pytest.mark.parametrize("n", [8, 9])
def test_pattern_mismatch_is_reported_not_raised(monkeypatch, n):
    baseline = {c.name: c.status for c in run_checks(n).checks}
    name = "combination_x" if n % 3 == 2 else "combination_y"
    genuine = getattr(cf, name)

    def perturbed(m):
        v = genuine(m)
        return VectorQ([v[0] + 1] + list(v.entries[1:]))

    monkeypatch.setattr(cf, name, perturbed)
    statuses = {c.name: c.status for c in run_checks(n).checks}
    assert baseline["lemma_5_1_patterns"] == "pass"
    assert statuses.pop("lemma_5_1_patterns") == "fail"
    del baseline["lemma_5_1_patterns"]
    assert statuses == baseline


def test_oracle_only_report_times_each_measurement(monkeypatch):
    ticks = iter(range(100))
    # call k returns k^2 ms, so the i-th start/stop pair measures 4i + 1 ms
    monkeypatch.setattr(checks.time, "perf_counter", lambda: next(ticks) ** 2 / 1000.0)
    timed = [c for c in run_checks(4).checks if c.name.startswith("oracle_")]
    assert [c.name for c in timed] == [
        "oracle_det", "oracle_inertia", "oracle_rank", "oracle_irreducible", "oracle_spectral_radius",
    ]
    assert [c.wall_time_ms for c in timed] == pytest.approx([1.0, 5.0, 9.0, 13.0, 17.0])


def test_oracle_only_report_measures_no_closed_form(monkeypatch):
    def oracle_only(report):
        return [(c.name, c.status, c.actual) for c in report.checks if c.name.startswith("oracle_")]

    baseline = oracle_only(run_checks(4))
    assert len(baseline) == 5 and all(status == "pass" for _, status, _ in baseline)

    def no_closed_form(n):
        raise AssertionError("n = 4 must be measured on the BFS matrix")

    for mod in [m for k, m in sys.modules.items() if k.startswith("wheelecc")]:
        if getattr(mod, "ecc_matrix_wheel", None) is cf.ecc_matrix_wheel:
            monkeypatch.setattr(mod, "ecc_matrix_wheel", no_closed_form)
    assert oracle_only(run_checks(4)) == baseline


@pytest.mark.parametrize("n", [12, 13, 14])
def test_each_closed_form_is_built_once_per_n(monkeypatch, n):
    calls = Counter()
    for name in ("laplacian_tilde", "laplacian_hat", "ecc_matrix_wheel"):
        genuine = getattr(cf, name)

        def counted(*args, _name=name, _genuine=genuine):
            calls[_name] += 1
            return _genuine(*args)

        for mod in [m for k, m in sys.modules.items() if k.startswith("wheelecc")]:
            if getattr(mod, name, None) is genuine:
                monkeypatch.setattr(mod, name, counted)
    assert run_checks(n).ok
    lap = "laplacian_hat" if n % 3 == 1 else "laplacian_tilde"
    assert calls == {"ecc_matrix_wheel": 1, lap: 1}


@pytest.mark.parametrize("n", range(12, 18))
def test_each_dense_product_is_formed_once_per_n(monkeypatch, n):
    genuine, genuine_eliminate = checks.mat_mul, oracle.eliminate
    operands = []  # holding every operand keeps its id from being reused
    inverses = []  # E_inv: inverse_thm_5_8 compares it with X, and no product re-tests it

    def recorded(a, b):
        operands.append((a, b))
        return genuine(a, b)

    def eliminate(m):
        inverses.append(genuine_eliminate(m))
        return inverses[-1]

    monkeypatch.setattr(oracle, "eliminate", eliminate)
    for mod in [m for k, m in sys.modules.items() if k.startswith("wheelecc")]:
        if getattr(mod, "mat_mul", None) is genuine:
            monkeypatch.setattr(mod, "mat_mul", recorded)
    assert run_checks(n).ok
    repeated = [pair for pair, k in Counter((id(a), id(b)) for a, b in operands).items() if k > 1]
    assert operands and repeated == []
    assert len(inverses) == (n % 3 != 1)
    assert not [pair for pair in operands for inv in inverses if any(m is inv for m in pair)]


@pytest.mark.parametrize("n", [12, 13, 14])
def test_verify_reads_the_bfs_matrices_without_fractions(monkeypatch, n):
    genuine_ecc, genuine_fractions = graphs.eccentricity_matrix_definitional, ratq._fractions
    bfs, converted = [], []

    def ecc(d):
        bfs.append(genuine_ecc(d))
        return bfs[-1]

    def fractions(m):
        converted.append(m)
        return genuine_fractions(m)

    monkeypatch.setattr(graphs, "eccentricity_matrix_definitional", ecc)
    monkeypatch.setattr(ratq, "_fractions", fractions)
    assert run_checks(n).ok
    assert len(bfs) == 2  # E_def and E_me_def
    assert not [m for m in converted if any(m is e for e in bfs)]


def _raise_in(monkeypatch, name):
    """Make the runner of the named check raise ZeroDivisionError("boom at n = <n>")."""

    def boom(ctx):
        raise ZeroDivisionError(f"boom at n = {ctx.n}")

    patched = tuple(dataclasses.replace(c, run=boom) if c.name == name else c for c in checks.CHECKS)
    monkeypatch.setattr(checks, "CHECKS", patched)


def test_raising_check_becomes_error_result(monkeypatch, capsys):
    code, out, _ = run_main(capsys, ["verify", "7", "--format", "json"])
    baseline = json.loads(out)
    assert code == 0
    _raise_in(monkeypatch, "det_thm_3_4")
    code, out, _ = run_main(capsys, ["verify", "7", "--format", "json"])
    report = json.loads(out)
    assert code == 1
    assert list(report) == list(baseline)  # no new summary key
    assert (report["pass"], report["fail"], report["skip"]) == (
        baseline["pass"] - 1, baseline["fail"] + 1, baseline["skip"],
    )
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["det_thm_3_4"] == {
        "name": "det_thm_3_4",
        "status": "error",
        "expected": "",
        "actual": "ZeroDivisionError: boom at n = 7",
    }
    others = [c for c in report["checks"] if c["name"] != "det_thm_3_4"]
    assert others == [c for c in baseline["checks"] if c["name"] != "det_thm_3_4"]
    code, out, err = run_main(capsys, ["verify", "7"])
    assert code == 1
    assert "  ERROR  det_thm_3_4" in out and "ZeroDivisionError: boom at n = 7" in out
    assert "check det_thm_3_4 raised at n = 7:" in err and "Traceback" in err


def test_raising_oracle_measurement_at_n4_becomes_error_result(monkeypatch):
    def boom(m):
        raise ArithmeticError("no congruence")

    monkeypatch.setattr(oracle, "inertia_exact", boom)
    report = run_checks(4)
    statuses = {c.name: (c.status, c.actual) for c in report.checks}
    for name in ("oracle_det", "oracle_inertia", "oracle_rank"):  # one congruence, three reads
        assert statuses[name] == ("error", "ArithmeticError: no congruence")
    assert statuses["oracle_irreducible"] == ("pass", "true")
    assert not report.ok


def test_raising_check_under_jobs_is_reported(monkeypatch, capsys):
    monkeypatch.setattr(_RecordingPool, "started", [])
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    _raise_in(monkeypatch, "inertia_thm_4_6")
    code, out, err = run_main(capsys, ["sweep", "5", "7", "--jobs", "3", "--format", "json"])
    assert _RecordingPool.started == [3]
    assert code == 1
    body = json.loads(out)
    assert body["total_fail"] == 3 and body["first_failure"] == 5
    for r in body["reports"]:
        errors = [c for c in r["checks"] if c["status"] == "error"]
        assert [(c["name"], c["actual"]) for c in errors] == [
            ("inertia_thm_4_6", f"ZeroDivisionError: boom at n = {r['n']}")
        ]
    assert "3 failing checks" in err


def test_irreducibility_routes_disagreeing_is_a_failure(monkeypatch):
    genuine = oracle.literal_power_positive
    baseline = {c.name: c for c in run_checks(7).checks}
    monkeypatch.setattr(oracle, "literal_power_positive", lambda m: not genuine(m))
    report = {c.name: c for c in run_checks(7).checks}
    got = report.pop("irreducible_prop_2_3")
    assert baseline.pop("irreducible_prop_2_3").status == "pass"
    assert (got.status, got.expected) == ("fail", "true")
    assert got.actual == (
        "false (routes disagree: strong connectivity true, (I + E)^(n-1) > 0 false)"
    )
    assert {k: c.status for k, c in report.items()} == {k: c.status for k, c in baseline.items()}
    # above the literal-power cutoff only strong connectivity runs
    assert {c.name: c.status for c in run_checks(13).checks}["irreducible_prop_2_3"] == "pass"


@pytest.mark.parametrize(
    "actual, shape",
    [
        (identity(2), "2x2"),
        (identity(4), "4x4"),
        (MatrixQ([[1, 0], [0, 1], [0, 0]]), "3x2"),  # every shared cell agrees
    ],
    ids=["smaller", "larger", "narrower"],
)
def test_mat_eq_shape_mismatch_is_a_failure(actual, shape):
    assert checks._mat_eq(identity(3), actual) == (
        "exact matrix equality", f"shape mismatch: expected 3x3, got {shape}", False,
    )


def test_shape_mismatch_inside_a_check_is_reported_as_fail(monkeypatch):
    genuine = cf.ecc_matrix_wheel_minus_edge

    def padded(n):
        rows = [list(r) + [0] for r in genuine(n).iter_rows()]
        return MatrixQ(rows + [[0] * (n + 1)])

    baseline = {c.name: c.status for c in run_checks(7).checks}
    monkeypatch.setattr(cf, "ecc_matrix_wheel_minus_edge", padded)
    report = {c.name: c for c in run_checks(7).checks}
    got = report.pop("ecc_minus_edge_sec_4")
    assert baseline.pop("ecc_minus_edge_sec_4") == "pass"
    assert (got.status, got.actual) == ("fail", "shape mismatch: expected 7x7, got 8x8")
    assert {k: c.status for k, c in report.items()} == baseline


@pytest.mark.parametrize("n", [12, 13, 14])
def test_each_bfs_matrix_is_reduced_once_per_verify(monkeypatch, n):
    """One congruence per BFS matrix; E's inverse only where that congruence reports full rank."""
    wheel = graphs.build_wheel(n)
    bfs = {
        "E": graphs.eccentricity_matrix_definitional(graphs.bfs_distances(wheel)),
        "E_me": graphs.eccentricity_matrix_definitional(
            graphs.bfs_distances(graphs.delete_cycle_edge(wheel))
        ),
    }
    calls = Counter()

    def counting(name):
        genuine = getattr(oracle, name)

        def counted(m):
            matrix = next((k for k, b in bfs.items() if m == b), None)
            if matrix is not None:
                calls[name, matrix] += 1
            return genuine(m)

        return counted

    for name in ("bareiss_det", "rank_exact", "eliminate", "inertia_exact"):
        monkeypatch.setattr(oracle, name, counting(name))
    assert run_checks(n).ok
    expected = {("inertia_exact", "E"): 1, ("inertia_exact", "E_me"): 1}
    if n % 3 != 1:
        expected["eliminate", "E"] = 1
    assert dict(calls) == expected


@pytest.mark.parametrize("n", [13, 16])
def test_rank_certificate_mutant_fails_only_its_check(monkeypatch, n):
    """The certificate's X comes from `closedform`, so a wrong entry of it fails one check."""
    genuine = cf.rank_certificate

    def mutant(m):
        x, c = genuine(m)
        rows = [list(r) for r in x.iter_rows()]
        rows[0][0] += 1
        return MatrixQ(rows), c

    baseline = {c.name: c for c in run_checks(n).checks}
    monkeypatch.setattr(cf, "rank_certificate", mutant)
    report = {c.name: c for c in run_checks(n).checks}
    got = report.pop("rank_cert_lem_6_9")
    assert baseline.pop("rank_cert_lem_6_9").status == "pass"
    assert (got.status, got.actual) == ("fail", "false (certificate)")
    assert {k: (c.status, c.actual) for k, c in report.items()} == {
        k: (c.status, c.actual) for k, c in baseline.items()
    }


@pytest.mark.parametrize("n", [12, 13, 14])
@pytest.mark.parametrize(
    "builder, check",
    [("ecc_matrix_wheel", "ecc_blockform_eq_2_5"),
     ("ecc_matrix_wheel_minus_edge", "ecc_minus_edge_sec_4")],
)
def test_closed_form_E_mutant_fails_only_its_compare_check(monkeypatch, builder, check, n):
    """Every oracle reads the BFS matrices, so a wrong closed-form E fails one check."""
    genuine = getattr(cf, builder)

    def mutant(m):  # one entry, on the diagonal, so E stays symmetric
        rows = [list(r) for r in genuine(m).iter_rows()]
        rows[0][0] += 1
        return MatrixQ(rows)

    baseline = {c.name: c for c in run_checks(n).checks}
    for mod in [m for k, m in sys.modules.items() if k.startswith("wheelecc")]:
        if getattr(mod, builder, None) is genuine:
            monkeypatch.setattr(mod, builder, mutant)
    report = {c.name: c for c in run_checks(n).checks}
    got = report.pop(check)
    assert baseline.pop(check).status == "pass"
    assert (got.status, got.actual) == ("fail", "differs at (0,0): expected 0, got 1")
    assert {k: (c.status, c.actual) for k, c in report.items()} == {
        k: (c.status, c.actual) for k, c in baseline.items()
    }


def _one_off(value):
    """value with one entry moved by 1: a matrix's (0,0), a vector's or circulant's first; or the value."""
    if isinstance(value, MatrixQ):
        rows = [list(r) for r in value.iter_rows()]
        rows[0][0] += 1
        return MatrixQ(rows)
    if isinstance(value, CirculantQ):
        return CirculantQ(_one_off(value.first_row))
    if isinstance(value, VectorQ):
        return VectorQ([value[0] + 1, *value.entries[1:]])
    return value + 1


# closedform statement -> {n: the checks that read it there}, at one n per
# residue class where those checks run.
STATEMENT_READERS = {
    "det_E_closed": {  # invertible_thm_3_5 reads only whether it is zero
        12: {"det_thm_3_4", "recur_3_2"},
        13: {"det_thm_3_4", "recur_3_2", "invertible_thm_3_5"},
        14: {"det_thm_3_4", "recur_3_2"},
    },
    "rank_L_closed": {
        12: {"rank_Ltilde_thm_5_10"},
        13: {"rank_Lhat_thm_6_10", "rank_cert_lem_6_9"},
        14: {"rank_Ltilde_thm_5_10"},
    },
    "pattern_sum_closed": {
        12: {"lemma_5_1_patterns"}, 13: {"zvec_6_1_6_2"}, 14: {"lemma_5_1_patterns"},
    },
    "block_e_closed": {12: {"lemma_Me"}, 13: {"lemma_Pe"}, 14: {"lemma_Me"}},
    "Ew_closed": {n: {"identity_Ew_5_1"} for n in (12, 13, 14)},
    "MU_closed": {12: {"lemma_Si"}, 14: {"lemma_Si"}},
    "ltilde_E_closed": {12: {"identity_LE_5_1"}, 14: {"identity_LE_5_1"}},
    "v_circulant": {13: {"lemma_2_1_period3", "lemma_PV", "pinv_XE_structure"}},
    "PV_closed": {13: {"lemma_PV"}},
    "PU_closed": {13: {"lemma_PU"}},
    "ubar_circulant": {13: {"lemma_PU"}},
    "lhat_E_closed": {13: {"lemma_LhatE"}},
    "pinv_XE_closed": {13: {"pinv_XE_structure"}},
    "combination_x": {14: {"lemma_5_1_patterns"}},
    "combination_y": {12: {"lemma_5_1_patterns"}},
}


@functools.cache
def _unpatched_report(n):
    """run_checks(n) before any patch, shared by the mutant tests below."""
    return run_checks(n)


@pytest.mark.parametrize(
    "builder, n, readers",
    [(b, n, readers) for b, by_n in STATEMENT_READERS.items() for n, readers in by_n.items()],
    ids=lambda v: "-".join(sorted(v)) if isinstance(v, set) else str(v),
)
def test_closed_form_statement_mutant_fails_only_its_readers(monkeypatch, builder, n, readers):
    """Each check takes the paper's side from `closedform`, so a wrong statement fails its readers."""
    baseline = {c.name: c for c in _unpatched_report(n).checks}
    genuine = getattr(cf, builder)
    for mod in [m for k, m in sys.modules.items() if k.startswith("wheelecc")]:
        if getattr(mod, builder, None) is genuine:
            monkeypatch.setattr(mod, builder, lambda *args: _one_off(genuine(*args)))
    report = {c.name: c for c in run_checks(n).checks}
    changed = {
        k for k, c in report.items() if (c.status, c.actual) != (baseline[k].status, baseline[k].actual)
    }
    assert changed == readers
    assert all(baseline[k].status == "pass" and report[k].status == "fail" for k in readers)


@pytest.mark.parametrize("n", [12, 13, 14])
def test_tridiagonal_recurrence_mutant_fails_only_det_T(monkeypatch, n):
    """det_T_lem_3_2 also runs Theorem 3.1's recurrence branch (a = b = c = -2, discriminant -12)."""
    genuine = cf.det_tridiagonal_closed

    def flipped(order, a, b, c):  # the recurrence with the sign of its b c term flipped
        if cf._perfect_square_root(Fraction(a * a - 4 * b * c)):
            return genuine(order, a, b, c)
        prev, cur = Fraction(1), Fraction(a)
        for _ in range(order - 1):
            prev, cur = cur, a * cur + b * c * prev
        return cur

    baseline = {c.name: c for c in _unpatched_report(n).checks}
    monkeypatch.setattr(cf, "det_tridiagonal_closed", flipped)
    report = {c.name: c for c in run_checks(n).checks}
    got, want = report.pop("det_T_lem_3_2"), baseline.pop("det_T_lem_3_2")
    assert want.status == "pass"
    assert (got.status, got.expected) == ("fail", want.expected)
    assert got.actual.startswith(f"{want.actual} (recurrence gives ")
    assert {k: (c.status, c.actual) for k, c in report.items()} == {
        k: (c.status, c.actual) for k, c in baseline.items()
    }
