"""``repro fleet worker`` with the CLI's defaults, traceable.

The socket workload launches its worker through this shim instead of
``python -m repro fleet worker`` so the traced run can install the
same wrappers in the worker process.  Otherwise it is exactly the CLI
worker: ``run_worker`` with every option at its command-line default.
At exit it writes to ``--stats-out`` the seconds the worker spent
running leases -- the part of the socket workload's wall that is work
rather than waiting -- and with ``--trace-out`` the worker's spans,
counters and execution-cache stats.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--connect", required=True, metavar="HOST:PORT")
    parser.add_argument("--stats-out", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    from repro.fleet.net import worker
    tracer = None
    if args.trace_out:
        import tracer as tracing
        tracer = tracing.install("worker")
        root = tracer.open("harness")
    run_lease = worker._run_lease
    busy = [0.0]

    def timed_lease(*lease_args, **kwargs):
        start = time.perf_counter()
        try:
            return run_lease(*lease_args, **kwargs)
        finally:
            busy[0] += time.perf_counter() - start

    worker._run_lease = timed_lease
    try:
        return worker.run_worker(args.connect, report=print)
    finally:
        Path(args.stats_out).write_text(json.dumps({"busy_s": busy[0]}))
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
            Path(args.trace_out).write_text(
                json.dumps(tracing.snapshot(tracer)))


if __name__ == "__main__":
    raise SystemExit(main())
