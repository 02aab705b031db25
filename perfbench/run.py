"""Benchmark for the wheelecc command line: `verify`, `sweep` and `gen`.

    python3 perfbench/run.py --workload verify_dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke        # every workload at small n, in seconds

Run from the root of a checkout.  Each timed pass runs in a fresh
interpreter (`worker.py`) that calls `wheelecc.cli.main(argv)` serially for
each operation of the workload.  The seed chooses the operations; the
program only sees their argv.  With `--trace 0` passes repeat until about
`--seconds` of operations have been timed, and the end-to-end metrics are
medians over passes.  With `--trace 1` one untraced and one traced pass run,
and the per-layer metrics come from the traced one (see `tracer.py`).

All times reported are speed-normalised (see `speed.py`): each is scaled
to a fixed speed of a reference computation sampled in the same process
while it ran (for setup_s, right after it), because the shared host's speed
drifts by up to 2x between runs.  Raw times are in the record.

Every output is checked by `outcheck.py`, outside the timed region and
without wheelecc code, and an output with one corrupted entry must be
rejected (the negative control).  An operation fails when it exits non-zero,
reports a `fail`, shows the wrong pass/skip set for its residue class, or
its output is rejected; error_rate = failed / attempted.

The last line of stdout is the result.  Each run also appends a record with
the seed, the commit, the environment and the full result to
`.bench_out/results.jsonl`; traced runs write their spans to
`.bench_out/spans-<workload>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import outcheck
import speed
import tracer
from layers import LAYER_MAP

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")
RUN_LIMIT_S = 165.0  # a run must end within 180 s; leave room for the last checks
SETUP_SAMPLES = 4  # at the start; one more is taken after each untraced pass

# verify_dense verifies one n per residue class.  Only triples whose sum of
# n^3 (the O(n^3) exact products dominate) lies within this share of the
# median over all triples are drawn, so the seed changes which n are
# verified but hardly how much work a pass is.
VERIFY_COST_BAND = 0.03

# gen_render: (object when n % 3 == 1, object otherwise, format for each).
# Each object is generated at a seeded n with n % 3 == 1 and at mirror - n
# (n % 3 == 2), so every pass takes both the singular and the invertible
# path at about the same total n^2, and no two operations of a pass share
# an n.
GEN_SLOTS = (
    ("E", "E", "json", "csv"),
    ("E_minus_edge", "E_minus_edge", "csv", "pretty"),
    ("Lhat", "Ltilde", "pretty", "json"),
    ("pinv", "inverse", "json", "csv"),
    ("w", "w", "pretty", "json"),
)

# Times the import and one trivial command, then takes reference-speed
# samples in the same process (after the timed region, so that importing the
# sampler costs nothing) and prints the raw time and the sample median.
SETUP_SNIPPET = """
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import wheelecc.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = wheelecc.cli.main(["gen", "w", "5"])
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import speed
print(seconds, speed.edge_sample() if rc == 0 else "failed")
"""


class BenchError(RuntimeError):
    """The benchmark could not measure (missing program, crash, time limit)."""


# --- workloads -----------------------------------------------------------------


def ops_verify_dense(rng: random.Random, smoke: bool):
    lo, hi = (10, 15) if smoke else (36, 50)
    classes = [[n for n in range(lo, hi + 1) if n % 3 == r] for r in range(3)]
    triples = list(itertools.product(*classes))
    mid = statistics.median(sum(n**3 for n in t) for t in triples)
    band = 1.0 if smoke else VERIFY_COST_BAND
    ns = list(rng.choice([t for t in triples if abs(sum(n**3 for n in t) / mid - 1) <= band]))
    rng.shuffle(ns)
    return [["verify", str(n), "--format", "json"] for n in ns], ["verify", "5", "--format", "json"]


def ops_sweep_small(rng: random.Random, smoke: bool):
    # Two consecutive windows that always cover 5..end, split at a seeded n:
    # a single window starting at a seeded n would change the number of
    # checks, and so checks per second, with the seed.
    end, split = (10, rng.randint(6, 8)) if smoke else (24, rng.randint(6, 9))
    return (
        [["sweep", "5", str(split), "--format", "json"], ["sweep", str(split + 1), str(end), "--format", "json"]],
        ["sweep", "5", "6", "--format", "json"],
    )


def ops_gen_render(rng: random.Random, smoke: bool):
    lo, hi, mirror = (16, 30, 46) if smoke else (150, 200, 351)
    singular = [n for n in range(lo, hi + 1) if n % 3 == 1 and lo <= mirror - n <= hi]
    ops = []
    for (obj_s, obj_i, fmt_s, fmt_i), n in zip(GEN_SLOTS, rng.sample(singular, len(GEN_SLOTS))):
        ops.append(["gen", obj_s, str(n), "--format", fmt_s])
        ops.append(["gen", obj_i, str(mirror - n), "--format", fmt_i])
    rng.shuffle(ops)
    return ops, ["gen", "E", "5", "--format", "json"]


WORKLOADS = {
    "verify_dense": ops_verify_dense,
    "sweep_small": ops_sweep_small,
    "gen_render": ops_gen_render,
}


def verb_items(workload: str) -> str:
    """The workload-specific name of throughput_per_s, as kept in the record."""
    return "entries_per_s" if workload == "gen_render" else "checks_per_s"


# --- running -------------------------------------------------------------------


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time limit reached")
    return left


def measure_setup(deadline: float) -> tuple[float, float]:
    """Normalised and raw seconds for a fresh interpreter to import wheelecc.cli and run `gen w 5`."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_SNIPPET, os.path.join(ROOT, "src"), HERE],
        capture_output=True, text=True, cwd=ROOT, timeout=_remaining(deadline),
    )
    try:
        raw, sample = (float(x) for x in proc.stdout.split())
    except ValueError:
        raise BenchError(f"set-up child failed: {proc.stderr.strip()[-500:]}") from None
    return raw * speed.REF_S / sample, raw


def run_pass(ops, warm, trace: bool, spans_path: str, deadline: float) -> dict:
    spec = {"root": ROOT, "warm": warm, "ops": ops, "trace": trace, "spans_path": spans_path}
    try:
        proc = subprocess.run(
            [sys.executable, "-I", WORKER], input=json.dumps(spec),
            capture_output=True, text=True, cwd=ROOT, timeout=_remaining(deadline),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a pass did not finish within the run's time limit") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != len(ops) + 1:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    results = [json.loads(line) for line in lines[:-1]]
    summary = None
    if trace:
        spans, counts, pauses = tracer.read_spans(spans_path)
        summary = tracer.summarize(spans, counts, [r["scale"] for r in results], pauses)
    return {
        "wall_s": sum(r["seconds"] * r["scale"] for r in results),
        "raw_wall_s": sum(r["seconds"] for r in results),
        "results": results,
        "rss_mb": json.loads(lines[-1])["rss_kb"] / 1024.0,
        "trace": summary,
    }


class Judge:
    """Checks outputs once per distinct (operation, stdout) and runs negative controls."""

    def __init__(self, seed: int, ops):
        self.seed = seed
        self.ops = ops
        self.verdicts: dict = {}
        self.controls: dict[int, bool] = {}
        self.problems: list[str] = []

    def _rng(self, i: int, what: str) -> random.Random:
        return random.Random(f"{self.seed}:{i}:{what}")

    def judge_pass(self, p: dict) -> tuple[int, int]:
        """Returns (failed operations, items) for one pass."""
        failed = items = 0
        for i, (argv, r) in enumerate(zip(self.ops, p["results"])):
            if r["rc"] != 0:
                problem, n_items = f"exit code {r['rc']}: {r['stderr'].strip()[-300:]}", 0
            else:
                key = (i, hashlib.sha256(r["stdout"].encode()).hexdigest())
                if key not in self.verdicts:
                    self.verdicts[key] = outcheck.check_output(argv, r["stdout"], self._rng(i, "check"))
                problem, n_items = self.verdicts[key]
                if problem is None and i not in self.controls:
                    self.controls[i] = outcheck.negative_control(argv, r["stdout"], self._rng(i, "control"))
            if problem is not None:
                failed += 1
                self.problems.append(f"{' '.join(argv)}: {problem}")
            items += n_items
        return failed, items

    @property
    def controls_rejected(self) -> bool:
        return bool(self.controls) and all(self.controls.values())


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    ops, warm = WORKLOADS[name](random.Random(f"{name}:{seed}"), smoke)
    judge = Judge(seed, ops)
    measure_setup(deadline)  # compiles bytecode; not counted
    setup = [measure_setup(deadline) for _ in range(SETUP_SAMPLES)]
    spans_path = os.path.join(OUT_DIR, f"spans-{name}.json")

    passes, failed, items = [], 0, []
    want_traced = trace or smoke
    while True:
        traced = want_traced and len(passes) == 1
        p = run_pass(ops, warm, traced, spans_path, deadline)
        passes.append(p)
        f, n = judge.judge_pass(p)
        failed += f
        items.append(n)
        if want_traced:
            if traced:
                break
            continue
        setup.append(measure_setup(deadline))
        timed = sum(q["raw_wall_s"] for q in passes)
        if timed + p["raw_wall_s"] / 2 >= seconds:
            break
        if time.monotonic() + 1.5 * (time.monotonic() - start) / len(passes) > deadline:
            break

    untraced = [p for p in passes if p["trace"] is None]
    walls = [p["wall_s"] for p in untraced]
    rates = [n / p["wall_s"] for p, n in zip(passes, items) if p["trace"] is None]
    attempted = len(passes) * len(ops)
    end_to_end = {
        "wall_s": statistics.median(walls),
        "throughput_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
        "setup_s": statistics.median(norm for norm, _ in setup),
    }
    per_layer, detail = {}, None
    if want_traced:
        summary = passes[-1]["trace"]
        per_layer = dict(summary["metrics"])
        per_layer["trace.overhead_s"] = passes[-1]["wall_s"] - passes[0]["wall_s"]
        detail = summary["detail"]
    return {
        "workload": name,
        "seed": seed,
        "ops": ops,
        "passes": [{"wall_s": p["wall_s"], "raw_wall_s": p["raw_wall_s"], "rss_mb": p["rss_mb"],
                    "traced": p["trace"] is not None, "op_s": [r["seconds"] for r in p["results"]],
                    "op_scale": [r["scale"] for r in p["results"]]}
                   for p in passes],
        "setup_samples_s": [norm for norm, _ in setup],
        "raw_setup_samples_s": [raw for _, raw in setup],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        verb_items(name): end_to_end["throughput_per_s"],
        "negative_control_rejected": judge.controls_rejected,
        "problems": judge.problems[:20],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "trace_detail": detail,
        "elapsed_s": time.monotonic() - start,
    }


# --- provenance ------------------------------------------------------------------


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def source_sha256() -> str:
    """Digest of src/, which identifies the code where there is no git commit."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, fn)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def _metric_block(values: dict, specs: list[dict]) -> dict:
    if set(values) != {s["name"] for s in specs}:
        raise BenchError(f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ {s['name'] for s in specs})}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload (or --workload) at small n, one untraced and one traced pass")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    if not os.path.isfile(os.path.join(ROOT, "src", "wheelecc", "cli.py")):
        print(f"error: no wheelecc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    provenance = {"commit": commit(), "source_sha256": source_sha256(), "env": environment()}
    print("record: " + json.dumps({"seed": args.seed, **provenance}))

    names = [args.workload] if args.workload else list(WORKLOADS)
    lines, all_ok = [], True
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        correct = run["failed"] == 0 and run["negative_control_rejected"]
        all_ok = all_ok and correct
        why = next(w["why"] for w in bench["workloads"] if w["name"] == name)
        record = {**provenance, "workload_why": why, "layer_map": LAYER_MAP,
                  "trace": args.trace, "smoke": args.smoke, "seconds": args.seconds, "correct": correct, **run}
        with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as fh:
            fh.write(json.dumps(record) + "\n")
        for problem in run["problems"]:
            print(f"{name}: {problem}", file=sys.stderr)
        print(f"{name}: {len(run['passes'])} passes, wall_s {[round(p['wall_s'], 3) for p in run['passes']]}, "
              f"failed {run['failed']}/{run['attempted']}, negative control rejected: "
              f"{run['negative_control_rejected']}", file=sys.stderr)
        if args.smoke:
            metrics = {**run["end_to_end"], **run["per_layer"], "error_rate": run["error_rate"],
                       verb_items(name): run[verb_items(name)]}
            lines.append({"workload": name, "correct": correct, "metrics": metrics})
            continue
        values = run["per_layer"] if args.trace else run["end_to_end"]
        specs = bench["per_layer"] if args.trace else bench["end_to_end"]
        lines.append({"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": _metric_block(values, specs)})
    for line in lines:
        print(json.dumps(line))
    return 0 if all_ok or not args.smoke else 1


if __name__ == "__main__":
    raise SystemExit(main())
