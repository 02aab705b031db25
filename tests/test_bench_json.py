"""`tools/bench_json.py` on a synthetic `results.jsonl`: it keeps only untraced,
non-smoke records, pairs the two sources by seed, and writes medians,
quartiles and pairs won per workload.  It runs in-process and starts nothing."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PARENT, CHANGE = "a" * 64, "b" * 64
ENV = {"python": "3.11.7", "cpu_count": 2}


def _tool():
    spec = importlib.util.spec_from_file_location("bench_json", ROOT / "tools" / "bench_json.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(source, seed, wall, workload="verify_dense", trace=0, smoke=False, failed=0):
    return {
        "source_sha256": source, "commit": "c0ffee" + "0" * 34 if source == PARENT else None,
        "env": ENV, "trace": trace, "smoke": smoke, "seconds": 30.0, "workload": workload,
        "seed": seed, "failed": failed, "attempted": 100,
        "end_to_end": {"wall_s": wall, "throughput_per_s": 1 / wall, "peak_rss_mb": 20.0, "setup_s": 0.01},
    }


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def test_bench_json_pairs_seeds_and_summarises_each_metric(tmp_path, capsys):
    parent = [_record(PARENT, s, w) for s, w in zip((1, 2, 3, 4, 5), (1.0, 1.2, 1.1, 0.9, 1.3))]
    change = [_record(CHANGE, s, w) for s, w in zip((1, 2, 3, 4, 5), (0.8, 1.0, 1.2, 0.7, 1.0))]
    noise = [
        _record(CHANGE, 1, 9.0, trace=1),  # a traced run: per-layer, not end to end
        _record(PARENT, 1, 9.0, smoke=True),
        _record(PARENT, 9, 9.0),  # no change run with this seed, so no pair
        _record(PARENT, 7, 2.0, workload="gen_render"),
        _record(CHANGE, 7, 2.0, workload="gen_render", failed=3),
    ]
    files = [_write(tmp_path / "parent.jsonl", parent + noise[1:3]),
             _write(tmp_path / "change.jsonl", change + noise[:1] + noise[3:])]
    assert _tool().main(files + ["--label", "t", "--parent", "c0ffee", "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"{tmp_path / 'BENCH_t.json'}\n"
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())

    assert doc["parent"] == {"commit": "c0ffee" + "0" * 34, "source_sha256": PARENT}
    assert doc["change"] == {"commit": None, "source_sha256": CHANGE}
    assert doc["env"] == [ENV] and doc["seconds"] == [30.0]
    dense = doc["workloads"]["verify_dense"]
    assert dense["seeds"] == [1, 2, 3, 4, 5]
    assert dense["failed"] == {"parent": [0, 500], "change": [0, 500]}
    wall = dense["metrics"]["wall_s"]
    assert (wall["unit"], wall["better"], wall["bound"]) == ("s", "lower", 0.25)
    assert wall["parent"] == {"median": 1.1, "q1": 1.0, "q3": 1.2, "runs": [1.0, 1.2, 1.1, 0.9, 1.3]}
    assert wall["change"]["median"] == 1.0 and wall["change"]["runs"] == [0.8, 1.0, 1.2, 0.7, 1.0]
    assert (wall["pairs_won"], wall["pairs_lost"]) == (4, 1)
    assert wall["median_change"] == pytest.approx(1.0 / 1.1 - 1)
    rate = dense["metrics"]["throughput_per_s"]  # higher is better: same pairs, same verdict
    assert (rate["pairs_won"], rate["pairs_lost"]) == (4, 1)
    rss = dense["metrics"]["peak_rss_mb"]
    assert (rss["pairs_won"], rss["pairs_lost"], rss["median_change"]) == (0, 0, 0.0)

    gen = doc["workloads"]["gen_render"]
    assert gen["seeds"] == [7] and gen["failed"] == {"parent": [0, 100], "change": [3, 100]}
    assert gen["metrics"]["wall_s"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "runs": [2.0]}


def test_bench_json_needs_one_parent_and_one_change_source(tmp_path, capsys):
    third = _record("c" * 64, 1, 1.0)
    path = _write(tmp_path / "r.jsonl", [_record(PARENT, 1, 1.0), _record(CHANGE, 1, 1.0), third])
    assert _tool().main([path, "--label", "t", "--parent", "c0ffee", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: need one parent and one change source, got 1 and 2\n"
    assert _tool().main([path, "--label", "t", "--parent", "f00", "--out-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "BENCH_t.json").exists()
