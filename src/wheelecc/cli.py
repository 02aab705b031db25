"""Command-line front end: gen, verify and sweep.

`gen` prints an exact object for one n, `verify` runs every applicable
closed-form-vs-oracle check at one n, and `sweep` does that over a range,
optionally with parallel worker processes.  Output on stdout is
deterministic byte-for-byte across invocations and job counts; wall-clock
timings are only included when --timings is given (and the sweep summary
with timing goes to stderr).

Exit codes: 0 all checks pass, 1 at least one verification failure,
2 usage error (including residue-class violations in gen).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import closedform as cf
from .checks import DEFAULT_REPORT_TOL, VerificationReport, run_checks
from .ratq import MatrixQ, VectorQ

MAX_N = 200  # dense exact matrices: memory and bignum growth set the limit

# `gen` object -> its closedform builder.  Each entry reads the builder off
# the module when called, so a builder wrapped or patched after import (by
# perfbench's tracer, say) is the one that runs.
GEN_OBJECTS = {
    "E": lambda n: cf.ecc_matrix_wheel(n),
    "E_minus_edge": lambda n: cf.ecc_matrix_wheel_minus_edge(n),
    "Ltilde": lambda n: cf.laplacian_tilde(n),
    "Lhat": lambda n: cf.laplacian_hat(n),
    "inverse": lambda n: cf.inverse_E_closed(n),
    "pinv": lambda n: cf.pinv_E_closed(n),
    "w": lambda n: cf.weight_w(n),
    "nullvecs": lambda n: cf.null_vectors(n),
    "quotient": lambda n: cf.quotient_matrix(n),
}


def _render_gen(value, fmt: str) -> str:
    """A matrix, a vector, or a tuple of vectors (`nullvecs`: one per line outside json)."""
    if isinstance(value, MatrixQ) and fmt == "pretty":
        return value.pretty()
    if isinstance(value, (MatrixQ, VectorQ)):
        cells = value.as_strings()
    else:
        cells = [v.as_strings() for v in value]
    if fmt == "json":
        return json.dumps(cells)
    rows = [cells] if isinstance(value, VectorQ) else cells
    if fmt == "csv":
        return "\n".join(",".join(r) for r in rows)
    return "\n".join("(" + "  ".join(r) + ")" for r in rows)


def _check_max_n(n: int, max_n_override: bool, what: str = "n") -> None:
    """The guardrail shared by all three verbs: n above MAX_N needs the override."""
    if n > MAX_N and not max_n_override:
        raise ValueError(
            f"{what} = {n} exceeds the dense-exact guardrail {MAX_N}; "
            "pass --max-n-override to proceed"
        )


def cmd_gen(obj: str, n: int, fmt: str = "pretty", max_n_override: bool = False) -> str:
    """Serialize one closed-form object; raises ValueError (ResidueClassError is one)."""
    _check_max_n(n, max_n_override)
    if obj not in GEN_OBJECTS:
        raise ValueError(f"unknown object {obj!r}")
    return _render_gen(GEN_OBJECTS[obj](n), fmt)


def cmd_verify(
    n: int, tol: float = DEFAULT_REPORT_TOL, max_n_override: bool = False
) -> VerificationReport:
    _check_max_n(n, max_n_override)
    return run_checks(n, tol)


def _sweep_worker(args: tuple[int, float]) -> VerificationReport:
    n, tol = args
    return run_checks(n, tol)


def cmd_sweep(
    n_min: int,
    n_max: int,
    jobs: int = 1,
    tol: float = DEFAULT_REPORT_TOL,
    max_n_override: bool = False,
) -> list[VerificationReport]:
    """Verify every n in [n_min, n_max]; deterministic order regardless of jobs.

    At most min(jobs, cpu count, number of n) worker processes are started.
    """
    if n_min < 4 or n_max < n_min:
        raise ValueError(f"invalid range {n_min}..{n_max}; need 4 <= n_min <= n_max")
    _check_max_n(n_max, max_n_override, "n_max")
    work = [(n, tol) for n in range(n_min, n_max + 1)]
    workers = min(jobs, os.cpu_count() or 1, len(work))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_sweep_worker, work))
    else:
        reports = [_sweep_worker(w) for w in work]
    return sorted(reports, key=lambda r: r.n)


def _report_dict(report: VerificationReport, timings: bool) -> dict:
    checks = []
    for c in report.checks:
        entry = {
            "name": c.name,
            "status": c.status,
            "expected": c.expected,
            "actual": c.actual,
        }
        if timings:
            entry["wall_time_ms"] = round(c.wall_time_ms, 3)
        checks.append(entry)
    return {
        "n": report.n,
        "pass": report.n_pass,
        "fail": report.n_fail,
        "skip": report.n_skip,
        "checks": checks,
    }


def _render_report_json(reports: list[VerificationReport], timings: bool) -> str:
    if len(reports) == 1:
        return json.dumps(_report_dict(reports[0], timings), indent=2)
    body = {
        "n_min": reports[0].n,
        "n_max": reports[-1].n,
        "total_pass": sum(r.n_pass for r in reports),
        "total_fail": sum(r.n_fail for r in reports),
        "total_skip": sum(r.n_skip for r in reports),
        "first_failure": next((r.n for r in reports if not r.ok), None),
        "reports": [_report_dict(r, timings) for r in reports],
    }
    return json.dumps(body, indent=2)


def _csv_escape(s: str) -> str:
    if any(ch in s for ch in ',"\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _render_report_csv(reports: list[VerificationReport], timings: bool) -> str:
    header = "n,check,status,expected,actual" + (",wall_time_ms" if timings else "")
    lines = [header]
    for r in reports:
        for c in r.checks:
            cells = [str(r.n), c.name, c.status, _csv_escape(c.expected), _csv_escape(c.actual)]
            if timings:
                cells.append(f"{c.wall_time_ms:.3f}")
            lines.append(",".join(cells))
    return "\n".join(lines)


def _render_report_pretty(reports: list[VerificationReport], timings: bool) -> str:
    lines = []
    width = max(len(c.name) for r in reports for c in r.checks)
    for r in reports:
        lines.append(f"n = {r.n}")
        for c in r.checks:
            mark = {"pass": "PASS", "fail": "FAIL", "skip": "skip", "error": "ERROR"}[c.status]
            detail = c.expected if c.status == "pass" else c.actual
            if c.expected == "oracle-only":
                detail = c.actual
            suffix = f"  [{c.wall_time_ms:.1f} ms]" if timings and c.status != "skip" else ""
            lines.append(f"  {mark}  {c.name.ljust(width)}  {detail}{suffix}")
        lines.append(f"  -> {r.n_pass} pass, {r.n_fail} fail, {r.n_skip} skip")
    if len(reports) > 1:
        lines.append(
            f"sweep n = {reports[0].n}..{reports[-1].n}: "
            f"{sum(r.n_pass for r in reports)} pass, {sum(r.n_fail for r in reports)} fail, "
            f"{sum(r.n_skip for r in reports)} skip"
        )
    return "\n".join(lines)


def _render_reports(reports: list[VerificationReport], fmt: str, timings: bool) -> str:
    if fmt == "json":
        return _render_report_json(reports, timings)
    if fmt == "csv":
        return _render_report_csv(reports, timings)
    return _render_report_pretty(reports, timings)


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite float > 0 (NaN, inf, 0 and below are rejected)."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return tol


def _job_count(text: str) -> int:
    """argparse type of --jobs: an int >= 1."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return jobs


def _build_parser() -> argparse.ArgumentParser:
    every_verb = argparse.ArgumentParser(add_help=False)
    every_verb.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    every_verb.add_argument(
        "--max-n-override", action="store_true",
        help=f"allow n (n_max of sweep) beyond the default guardrail of {MAX_N}",
    )
    checking = argparse.ArgumentParser(add_help=False)
    checking.add_argument("--tol", type=_tolerance, default=DEFAULT_REPORT_TOL,
                          help="report tolerance for the power-iteration check")
    checking.add_argument("--timings", action="store_true",
                          help="include wall times (breaks byte-determinism)")

    parser = argparse.ArgumentParser(
        prog="wheelecc",
        description=(
            "Exact construction and oracle verification of wheel-graph "
            "eccentricity-matrix identities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_gen = sub.add_parser("gen", parents=[every_verb], help="print one exact object")
    p_gen.add_argument("object", choices=GEN_OBJECTS)
    p_gen.add_argument("n", type=int)
    p_verify = sub.add_parser("verify", parents=[every_verb, checking],
                              help="run all checks for one n")
    p_verify.add_argument("n", type=int)
    p_sweep = sub.add_parser("sweep", parents=[every_verb, checking], help="verify a range of n")
    p_sweep.add_argument("n_min", type=int)
    p_sweep.add_argument("n_max", type=int)
    p_sweep.add_argument("--jobs", type=_job_count, default=1,
                         help="worker processes, capped at the cpu count and the number of n")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            print(cmd_gen(args.object, args.n, args.format, args.max_n_override))
            return 0
        if args.command == "verify":
            reports = [cmd_verify(args.n, args.tol, args.max_n_override)]
        else:
            reports = cmd_sweep(args.n_min, args.n_max, args.jobs, args.tol, args.max_n_override)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_render_reports(reports, args.format, args.timings))
    fails = sum(r.n_fail for r in reports)
    if args.command == "sweep":
        ms = [c.wall_time_ms for r in reports for c in r.checks]
        print(
            f"sweep timing: total {sum(ms):.0f} ms, slowest check {max(ms, default=0.0):.1f} ms, "
            f"{fails} failing checks",
            file=sys.stderr,
        )
    return 0 if fails == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
