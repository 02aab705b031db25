"""Tests for the command-line front end and the verification report schema."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from wheelecc import checks, cli, oracle
from wheelecc import closedform as cf
from wheelecc.checks import Check, CheckResult, run_checks
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


def test_gen_lhat_wrong_residue(capsys):
    code, _, err = run_main(capsys, ["gen", "Lhat", "8"])
    assert code == 2
    assert "n % 3 == 1" in err


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
    code, out, _ = run_main(capsys, ["sweep", "5", "8", "--format", "json"])
    assert code == 0
    body = json.loads(out)
    assert body["n_min"] == 5 and body["n_max"] == 8
    assert body["total_fail"] == 0
    assert body["first_failure"] is None
    assert [r["n"] for r in body["reports"]] == [5, 6, 7, 8]


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

    fake = (Check("synthetic_failure", frozenset({0, 1, 2}), always_fails),)
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

    monkeypatch.setattr(cli, "run_checks", fake_run_checks)
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
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    reports = cmd_sweep(5, 7, jobs=jobs)
    assert _RecordingPool.started == expected
    assert [r.n for r in reports] == [5, 6, 7]


@pytest.mark.parametrize("n", [8, 9])
def test_pattern_mismatch_is_reported_not_raised(monkeypatch, n):
    baseline = {c.name: c.status for c in run_checks(n).checks}
    name = "combination_x" if n % 3 == 2 else "combination_y"
    genuine = getattr(checks, name)

    def perturbed(m):
        v = genuine(m)
        return VectorQ([v[0] + 1] + list(v.entries[1:]))

    monkeypatch.setattr(checks, name, perturbed)
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
        raise ArithmeticError("no determinant")

    monkeypatch.setattr(oracle, "bareiss_det", boom)
    report = run_checks(4)
    statuses = {c.name: (c.status, c.actual) for c in report.checks}
    assert statuses["oracle_det"] == ("error", "ArithmeticError: no determinant")
    assert statuses["oracle_rank"] == ("pass", "4")
    assert not report.ok


def test_raising_check_under_jobs_is_reported(monkeypatch, capsys):
    monkeypatch.setattr(_RecordingPool, "started", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
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
    def padded(ctx):
        rows = [list(r) + [0] for r in ctx.E_me.iter_rows()]
        return MatrixQ(rows + [[0] * (ctx.n + 1)])

    baseline = {c.name: c.status for c in run_checks(7).checks}
    monkeypatch.setattr(checks.VerifyContext, "E_me_def", property(padded))
    report = {c.name: c for c in run_checks(7).checks}
    got = report.pop("ecc_minus_edge_sec_4")
    assert baseline.pop("ecc_minus_edge_sec_4") == "pass"
    assert (got.status, got.actual) == ("fail", "shape mismatch: expected 8x8, got 7x7")
    assert {k: c.status for k, c in report.items()} == baseline
