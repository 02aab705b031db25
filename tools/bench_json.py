"""Summarise perfbench runs of two source trees as one `BENCH_<label>.json`.

    python tools/bench_json.py --label LABEL --parent PARENT_COMMIT \
        parent/.bench_out/results.jsonl change/.bench_out/results.jsonl

Every record of the given `results.jsonl` files with `trace == 0` and
`smoke == false` is grouped by its `source_sha256` and workload.  `--parent`
names the parent's group by a prefix of its commit or its `source_sha256`;
exactly one other group must remain, the change.  Runs of one workload with
the same seed on both sides form a pair (a later record of a seed replaces
an earlier one).  For each end-to-end metric of `BENCHMARK.json` the file
holds each side's median, quartiles and runs (in seed order), the pairs the
change won and lost (ties count for neither), and the relative change of
the median.  It also holds the seeds, each side's failed and attempted
operations, both commits and source digests, and the recorded environments.
Quartiles are `statistics.quantiles(..., n=4, method="inclusive")`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def read_records(paths) -> list[dict]:
    """The end-to-end records (untraced, not smoke) of every jsonl file, in file order."""
    records = []
    for path in paths:
        with open(path) as fh:
            records += [r for r in map(json.loads, filter(str.strip, fh))
                        if r["trace"] == 0 and not r["smoke"]]
    return records


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def summarise(records: list[dict], parent: str, label: str, metrics: list[dict]) -> dict:
    """The BENCH document for `records`; `parent` is a commit or source_sha256 prefix."""
    sources = {r["source_sha256"]: r.get("commit") for r in records}
    old = [s for s, c in sources.items() if s.startswith(parent) or (c or "").startswith(parent)]
    new = [s for s in sources if s not in old]
    if len(old) != 1 or len(new) != 1:
        raise ValueError(f"need one parent and one change source, got {len(old)} and {len(new)}")
    side = {"parent": old[0], "change": new[0]}
    workloads = {}
    for name in sorted({r["workload"] for r in records}):
        runs = {k: {r["seed"]: r for r in records if r["workload"] == name and r["source_sha256"] == s}
                for k, s in side.items()}
        seeds = sorted(runs["parent"].keys() & runs["change"].keys())
        if not seeds:
            continue
        block = {"seeds": seeds, "failed": {}, "metrics": {}}
        for k in side:
            done = [runs[k][s] for s in seeds]
            block["failed"][k] = [sum(r["failed"] for r in done), sum(r["attempted"] for r in done)]
        for spec in metrics:
            m, sign = spec["name"], 1 if spec["better"] == "lower" else -1
            values = {k: [runs[k][s]["end_to_end"][m] for s in seeds] for k in side}
            deltas = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
            before, after = (_spread(values[k]) for k in side)
            block["metrics"][m] = {
                "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                "parent": before, "change": after,
                "pairs_won": sum(d > 0 for d in deltas), "pairs_lost": sum(d < 0 for d in deltas),
                "median_change": after["median"] / before["median"] - 1,
            }
        workloads[name] = block
    envs = []
    for r in records:
        if r["env"] not in envs:
            envs.append(r["env"])
    return {
        "label": label,
        "made_by": "tools/bench_json.py",
        "parent": {"commit": sources[side["parent"]], "source_sha256": side["parent"]},
        "change": {"commit": sources[side["change"]], "source_sha256": side["change"]},
        "seconds": sorted({r["seconds"] for r in records}),
        "env": envs,
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+", help="perfbench results.jsonl files")
    parser.add_argument("--label", required=True, help="written to BENCH_<label>.json")
    parser.add_argument("--parent", required=True, help="prefix of the parent's commit or source_sha256")
    parser.add_argument("--out-dir", default=str(ROOT), help="where BENCH_<label>.json goes (default: repo root)")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]
    try:
        doc = summarise(read_records(args.results), args.parent, args.label, metrics)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out_dir) / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
