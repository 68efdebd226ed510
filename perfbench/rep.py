"""One repetition of one workload, in a fresh process.

``run.py`` starts this once per repetition so every repetition starts
cold: a new interpreter (no in-process build, prototype, translation
or trace caches) and new, empty cache directories under ``--work``.
It prints one JSON object as its last line: set-up and timed-phase
seconds, peak RSS, operations attempted and failed, and what the
checks found.  ``--setup-only`` stops after the cold set-up, which
gives ``run.py`` more set-up samples than it has repetitions.  With
``--trace-out`` it also installs the tracer and writes every span and
counter of both processes to that file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: knobs that would disable or bound a cache tier, or change how the
#: socket workload authenticates; a rep runs with the defaults
_CLEARED_ENV = ("REPRO_NO_CACHE", "REPRO_EXEC_CACHE", "REPRO_TRACE_CACHE",
                "REPRO_CACHE_MAX_MB", "REPRO_EXEC_CACHE_MAX_MB",
                "REPRO_TRACE_CACHE_MAX_MB", "REPRO_FLEET_SECRET")


def private_tiers(work: Path) -> None:
    """Point every cache tier at a fresh directory under ``work``."""
    for name in _CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_CACHE_DIR"] = str(work / "firmware")
    os.environ["REPRO_EXEC_CACHE_DIR"] = str(work / "exec")
    os.environ["REPRO_TRACE_CACHE_DIR"] = str(work / "trace")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)])


def unpin() -> None:
    """Let this process, and the worker it starts, use every vCPU
    again: ``run.py`` pins each repetition to one, but the socket
    workload's scheduling (when the worker asks for a lease that is
    not ready yet) is part of what it measures."""
    try:
        os.sched_setaffinity(0, range(os.cpu_count()))
    except (AttributeError, OSError):
        pass                    # no affinity control, or a restricted set


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args) -> dict:
    work = Path(args.work)
    private_tiers(work)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads as W
    from repro.fleet import executor  # noqa: F401  (import, untimed)
    from repro.experiments import parallel  # noqa: F401

    workload = W.WORKLOADS[args.workload]
    if args.toy:
        workload = W.toy(workload)
    tracer = tracing = None
    if args.trace_out:
        import tracer as tracing
        tracer = tracing.install("harness")

    def span(name):
        return tracer.open(name) if tracer is not None else None

    def end(opened):
        if opened is not None:
            tracer.close(opened)

    result = {"workload": workload.name, "seed": args.seed}
    out = work / "out"
    if workload.fleet:
        chosen = args.fleet_seed
        if chosen is None:
            chosen = W.fleet_seed(workload.shape, args.seed)
        config = W.fleet_config(workload.shape, chosen)
        result["fleet_seed"] = config.seed
        result["load"] = W.population_load(
            W.distinct_specs(workload.shape, config.seed),
            workload.shape.sim_s * 1000)

        def setup() -> int:
            return W.prebuild_fleet(config)
    else:
        setup = W.prebuild_paper

    # ``spans`` are time.monotonic() stamps, which run.py's host-speed
    # probe shares
    spans = result["spans"] = {}
    opened = span("setup")
    start = time.perf_counter()
    spans["setup"] = [time.monotonic()]
    result["builds"] = setup()
    spans["setup"].append(time.monotonic())
    result["build_setup_s"] = time.perf_counter() - start
    end(opened)
    if args.setup_only:
        return result
    stored = W.stored_builds(work)
    join_s = 0.0
    if workload.socket:
        unpin()
        campaign = W.SocketCampaign(
            config, out, workload.cohort,
            worker_trace=(work / "worker-trace.json")
            if tracer is not None else None)
        if tracer is not None:
            # the coordinator's spans live on the campaign thread
            original = campaign._campaign

            def rooted():
                opened = span("harness")
                try:
                    original()
                finally:
                    end(opened)
            campaign._campaign = rooted
        timed = campaign.run()
        join_s = timed["join_s"]
        spans["join"] = timed["join_span"]
        spans["wall"] = timed["wall_span"]
        result["busy_s"] = timed["busy_s"]
        result["worker_rss_mb"] = campaign.worker_rss_mb
        stats = campaign.transport.worker_stats()
        rows = stats["workers"].values()
        result["net"] = {
            "requeues": stats["requeues"],
            "reconnects": sum(r["reconnects"] for r in rows),
            "lease_timeouts": sum(r["lease_timeouts"] for r in rows),
            "kb_in": sum(r["bytes_from_worker"] for r in rows) / 1024,
            "kb_out": sum(r["bytes_to_worker"] for r in rows) / 1024,
        }
    else:
        opened = span("harness")
        spans["wall"] = [time.monotonic()]
        start = time.perf_counter()
        if workload.fleet:
            W.run_local_campaign(config, out, workload.cohort)
        else:
            paper = W.run_paper()
        timed = {"wall_s": time.perf_counter() - start}
        spans["wall"].append(time.monotonic())
        end(opened)
        result["net"] = {"requeues": 0}
    result["timed_builds"] = W.stored_builds(work) - stored
    if workload.fleet:
        result.update(W.verify_fleet(
            workload.shape, args.seed, config, out,
            requeues=result["net"]["requeues"]))
        result["device_sim_hours_per_s"] = (
            config.devices * config.hours / timed["wall_s"])
    else:
        result.update(W.verify_paper(paper))
    if result["timed_builds"]:
        result["checks"].append(
            f"{result['timed_builds']} cacheable build(s) ran in the "
            "timed phase")
    result["join_s"] = join_s
    result["wall_s"] = timed["wall_s"]
    result["setup_s"] = result["build_setup_s"] + join_s
    result["peak_rss_mb"] = max(rss_mb(), result.get("worker_rss_mb", 0))
    result["disk_mb"] = {tier: W.dir_mb(work / tier)
                         for tier in ("firmware", "exec", "trace")}
    if tracer is not None:
        tracer.uninstall()
        processes = [tracing.snapshot(tracer)]
        worker_trace = work / "worker-trace.json"
        if worker_trace.exists():
            processes.append(json.loads(worker_trace.read_text()))
        Path(args.trace_out).write_text(json.dumps(
            {"result": result, "processes": processes}))
    shutil.rmtree(out, ignore_errors=True)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--fleet-seed", type=int, default=None,
                        help="the population run.py chose for --seed")
    parser.add_argument("--work", required=True,
                        help="an empty directory this rep may use")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--toy", action="store_true",
                        help="the cold-state test's size")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the cold set-up")
    args = parser.parse_args()
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
