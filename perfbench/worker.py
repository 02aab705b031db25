"""One timed pass of wheelecc CLI operations, in a fresh interpreter.

Reads a JSON spec on stdin: the checkout root, the warm-up argv, the list
of operation argvs, whether to trace, and where to write the spans.  Each
operation calls `wheelecc.cli.main(argv)` with stdout and stderr captured;
only that call is timed, less the reference samples taken inside it (see
`speed.py`).  After each operation one JSON line with its exit code,
seconds, speed scale and captured output goes to stdout, so outputs never
pile up in this process's memory.  The last line holds the peak resident
memory; a traced pass writes its spans and counters to the spans file.

A fresh interpreter per pass keeps anything one pass leaves in memory (say,
a cache keyed by n) from speeding up the next, as it could not between two
separate runs of the command.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import traceback


def _call(cli, argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = None
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    spec = json.load(sys.stdin)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import wheelecc
    from wheelecc import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"imported {cli.__file__}, not the checkout's copy", file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import speed

    tr = None
    if spec["trace"]:
        import tracer

        tr = tracer.instrument(wheelecc)

    warm_rc = _call(cli, spec["warm"])[0]  # its outcome shows in the operations themselves
    if tr is not None:
        tr.reset()

    emit = sys.stdout
    sampler = speed.Sampler()
    for i, argv in enumerate(spec["ops"]):
        gc.collect()
        if tr is not None:
            tr.begin_op(i)
        (rc, out, err), seconds = sampler.around(lambda: _call(cli, argv))
        record = {"op": i, "rc": rc, "seconds": seconds, "scale": sampler.scale(), "samples": len(sampler.samples)}
        emit.write(json.dumps({**record, "stdout": out, "stderr": err[-2000:]}) + "\n")
        emit.flush()

    final = {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "warm_rc": warm_rc}
    if tr is not None:
        tracer.write_spans(tr, sampler.intervals, spec["spans_path"])
    emit.write(json.dumps(final) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
