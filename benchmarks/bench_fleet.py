"""Fleet campaign throughput microbenchmark.

Tracks how much simulated fleet time one wall-clock second buys:
``devices * sim-hours / s`` for a small-but-representative campaign
(jittered populations, rogues present, checkpoints written at the
default fleet cadence).  This is the number that says whether a
"100 devices for a week" study is an hour or a weekend.

Every recorded row is self-describing: the label carries the worker
count, the execution-cache state, and the host CPU count, because all
three change what the number means (``jobs=4`` on a 1-core container
measures scheduling overhead, not parallelism; a warm disk cache
skips the translation the cold number includes).

Cache states:

* ``default`` — whatever the environment provides (CI floor checks
  use this: it is what a user sees).
* ``cold``    — a fresh, empty on-disk execution cache per campaign
  and a cleared in-memory registry: the full translate-everything
  cost.
* ``warm``    — an unmeasured campaign first populates the disk
  cache, then the measured campaign starts from a cleared in-memory
  registry and revives translations from disk: the fresh-process
  steady state a resumed or repeated study enjoys.

``--trace`` applies the same three states to the cohort trace tier
(the ``.tbx`` entries every campaign publishes): ``cold`` starts from
an empty tier, ``warm`` lets an unmeasured campaign publish its
segment memos first so the measured one restores them instead of
executing — the repeated-study number cross-unit memo sharing exists
for.

Run standalone (``PYTHONPATH=src python benchmarks/bench_fleet.py``)
to append a record to ``BENCH_fleet.json`` at the repo root, or via
pytest for a quick smoke.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_fleet.json"

#: enough devices for population variety (app subsets, rogues) while
#: keeping the standalone run under a minute on one core
DEVICES = 8
SIM_HOURS = 0.01            # 36 simulated seconds per device
MODEL = "mpu"

CACHE_STATES = ("default", "cold", "warm")


def _one_campaign(config, jobs: int, transport: str = "local") -> float:
    """Wall seconds for one campaign into a throwaway directory."""
    from repro.fleet.executor import run_campaign

    out = Path(tempfile.mkdtemp(prefix="bench_fleet_"))
    try:
        if transport == "socket":
            return _one_socket_campaign(config, jobs, out)
        start = time.perf_counter()
        run_campaign(config, out, jobs=jobs)
        return time.perf_counter() - start
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _one_socket_campaign(config, jobs: int, out: Path) -> float:
    """Wall seconds for the same campaign dispatched over loopback
    TCP to ``jobs`` worker subprocesses — the measured time includes
    worker spawn and handshake, because a real socket campaign pays
    them too."""
    import subprocess
    import sys
    import threading

    from repro.fleet.executor import run_campaign
    from repro.fleet.net.coordinator import SocketTransport

    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    start = time.perf_counter()
    transport = SocketTransport(lease_timeout_s=60.0, heartbeat_s=1.0)
    failure = []

    def _campaign():
        try:
            run_campaign(config, out, jobs=jobs, transport=transport)
        except BaseException as error:
            failure.append(error)

    thread = threading.Thread(target=_campaign, daemon=True)
    thread.start()
    addr_path = out / "coordinator.addr"
    while not addr_path.exists():
        if failure:
            raise failure[0]
        time.sleep(0.01)
    address = addr_path.read_text().strip()
    workers = [subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "fleet", "worker",
         "--connect", address, "--worker-id", f"bench-w{index}"],
        env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL) for index in range(jobs)]
    thread.join()
    for worker in workers:
        worker.wait(timeout=120)
    if failure:
        raise failure[0]
    return time.perf_counter() - start


def bench_campaign(devices: int = DEVICES, hours: float = SIM_HOURS,
                   jobs: int = 1, seed: int = 0,
                   cache: str = "default",
                   homogeneous: bool = False,
                   transport: str = "local",
                   trace: str = "default") -> float:
    """Device-sim-hours per wall second for one full campaign.

    ``homogeneous=True`` clones device 0 fleet-wide — the one-firmware
    fleet that is the cohort scenario's subject (the jittered default
    has nothing to share, so it measures lockstep's digest and publish
    overhead with a cold tier).  ``trace`` pins the ``.tbx`` trace-tier state exactly like
    ``cache`` pins the ``.sbx`` one; the warm-up campaign runs with
    the same knobs as the measured one."""
    from repro.fleet import tracetier
    from repro.fleet.executor import FleetConfig
    from repro.msp430.execcache import clear_registry

    config = FleetConfig(devices=devices, hours=hours,
                         models=(MODEL,), seed=seed,
                         rogue_fraction=0.25,
                         homogeneous=homogeneous)

    def _measured() -> float:
        return devices * hours / _one_campaign(config, jobs, transport)

    def _with_trace_tier(run):
        if trace == "default":
            return run()
        saved = os.environ.get("REPRO_TRACE_CACHE_DIR")
        trace_dir = tempfile.mkdtemp(prefix="bench_trace_")
        os.environ["REPRO_TRACE_CACHE_DIR"] = trace_dir
        tracetier.clear_tier()
        try:
            if trace == "warm":
                _one_campaign(config, jobs, transport)    # publish traces
                tracetier.clear_tier()    # warmth must come from disk
            return run()
        finally:
            if saved is None:
                os.environ.pop("REPRO_TRACE_CACHE_DIR", None)
            else:
                os.environ["REPRO_TRACE_CACHE_DIR"] = saved
            tracetier.clear_tier()
            shutil.rmtree(trace_dir, ignore_errors=True)

    if cache == "default":
        return _with_trace_tier(_measured)

    saved = os.environ.get("REPRO_EXEC_CACHE_DIR")
    cache_dir = tempfile.mkdtemp(prefix="bench_exec_")
    os.environ["REPRO_EXEC_CACHE_DIR"] = cache_dir
    clear_registry()
    try:
        if cache == "warm":
            _one_campaign(config, jobs, transport)    # populate disk
            clear_registry()              # warmth must come from disk
        return _with_trace_tier(_measured)
    finally:
        if saved is None:
            os.environ.pop("REPRO_EXEC_CACHE_DIR", None)
        else:
            os.environ["REPRO_EXEC_CACHE_DIR"] = saved
        clear_registry()
        shutil.rmtree(cache_dir, ignore_errors=True)


def run_benchmarks(repeats: int = 3, jobs: int = 1,
                   cache: str = "default", homogeneous: bool = False,
                   devices: int = DEVICES,
                   transport: str = "local",
                   trace: str = "default") -> dict:
    # Best-of-N: interference only ever lowers a rate, so the max over
    # repeats is the least-noisy estimate (same rule as BENCH_sim).
    # A different seed per repeat keeps the firmware build cache from
    # turning later repeats into pure-simulation measurements only.
    return {
        "device_sim_hours_per_sec": round(max(
            bench_campaign(devices=devices, jobs=jobs, seed=n,
                           cache=cache, homogeneous=homogeneous,
                           transport=transport, trace=trace)
            for n in range(repeats)), 4),
        "devices": devices,
        "sim_hours_per_device": SIM_HOURS,
        "model": MODEL,
        "jobs": jobs,
        "cache": cache,
        "homogeneous": homogeneous,
        "transport": transport,
        "trace": trace,
        "host_cpus": os.cpu_count(),
    }


def record(label: str, repeats: int = 3, jobs: int = 1,
           cache: str = "default",
           homogeneous: bool = False, devices: int = DEVICES,
           transport: str = "local",
           trace: str = "default") -> dict:
    """Append one measurement record to BENCH_fleet.json.  The stored
    label is annotated with everything that disambiguates the row —
    two rows are only comparable when jobs, cache state, population
    shape, trace-tier state, and host CPU count all match."""
    entry = {
        "label": f"{label} [jobs={jobs} cache={cache} "
                 f"{'homogeneous' if homogeneous else 'jittered'} "
                 f"devices={devices} transport={transport} "
                 f"trace={trace} "
                 f"cpus={os.cpu_count()}]",
        "date": time.strftime("%Y-%m-%d %H:%M:%S"),
        "repeats": repeats,
        "results": run_benchmarks(repeats, jobs, cache, homogeneous,
                                  devices, transport, trace),
    }
    history = []
    if BENCH_JSON.exists():
        history = json.loads(BENCH_JSON.read_text()).get("runs", [])
    history.append(entry)
    BENCH_JSON.write_text(json.dumps({"runs": history}, indent=2)
                          + "\n")
    return entry


def _parse_jobs(text: str) -> list:
    """``"1,2,4"`` -> ``[1, 2, 4]`` (a single value stays a 1-list)."""
    jobs = [int(part) for part in text.split(",") if part.strip()]
    if not jobs or any(j < 1 for j in jobs):
        raise argparse.ArgumentTypeError(
            f"--jobs wants positive integers, got {text!r}")
    return jobs


# -- pytest smoke (fast; asserts a campaign actually completes) --------
def test_fleet_throughput_smoke():
    rate = bench_campaign(devices=2, hours=0.001)
    assert rate > 0


def test_fleet_cohort_smoke():
    rate = bench_campaign(devices=2, hours=0.001, homogeneous=True)
    assert rate > 0


def test_fleet_warm_trace_smoke():
    rate = bench_campaign(devices=2, hours=0.001, trace="warm")
    assert rate > 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="fleet campaign throughput microbenchmark")
    parser.add_argument("--label", default="run",
                        help="label stored with the record (jobs, "
                             "cache state, and CPU count are appended "
                             "automatically)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="campaigns run; best is kept")
    parser.add_argument("--jobs", type=_parse_jobs, default=[1],
                        metavar="J[,J...]",
                        help="worker-process counts; a comma list "
                             "(e.g. 1,2,4) records one scaling row "
                             "per value")
    parser.add_argument("--cache", default="default",
                        choices=CACHE_STATES,
                        help="execution-cache state the campaign "
                             "starts from (see module docstring)")
    parser.add_argument("--homogeneous", action="store_true",
                        help="clone device 0 fleet-wide instead of "
                             "the jittered population")
    parser.add_argument("--devices", type=int, default=DEVICES,
                        metavar="N",
                        help="fleet size (cohort rows want enough "
                             "clones per worker to amortize the "
                             "leader)")
    parser.add_argument(
        "--transport", default="local", choices=("local", "socket"),
        help="dispatch units to an in-process pool, or over loopback "
             "TCP to --jobs worker subprocesses (spawn and handshake "
             "included in the measured time)")
    parser.add_argument("--trace", default="default",
                        choices=CACHE_STATES,
                        help="cohort trace-tier (.tbx) state the "
                             "campaign starts from (mirrors --cache)")
    parser.add_argument(
        "--check-floor", type=float, default=None, metavar="RATE",
        help="CI mode: run without recording, exit 1 unless "
             "device-sim-hours/s >= RATE (uses the first --jobs value)")
    args = parser.parse_args()
    if args.check_floor is not None:
        results = run_benchmarks(args.repeats, args.jobs[0],
                                 args.cache, args.homogeneous,
                                 args.devices, args.transport,
                                 args.trace)
        rate = results["device_sim_hours_per_sec"]
        ok = rate >= args.check_floor
        print(f"fleet throughput {rate} device-sim-hours/s "
              f"(floor {args.check_floor}): "
              + ("PASS" if ok else "FAIL"))
        return 0 if ok else 1
    for jobs in args.jobs:
        entry = record(args.label, args.repeats, jobs, args.cache,
                       args.homogeneous, args.devices, args.transport,
                       args.trace)
        print(json.dumps(entry, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
