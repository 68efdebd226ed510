"""The repo benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload fleet-jittered --seed 4 \\
        --seconds 25 --trace 0

Runs repetitions of the workload (each in a fresh process, from
private empty cache tiers; see ``rep.py``), each followed by one more
cold set-up in its own fresh process, for about ``--seconds``; checks
every repetition's outputs, and prints one line per repetition, a
summary, and -- as the last line -- one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

Each process runs pinned to the vCPU that is faster when it starts,
and each phase's seconds are scaled to reference-host seconds by a
host-speed probe in this process (``hostspeed.py``); the lines print
both.  ``--trace 0`` reports the end-to-end metrics as medians:
``wall_s`` and ``peak_rss_mb`` over the repetitions, ``setup_s`` as
the median cold set-up (both kinds of process) plus, on the socket
workload, the median worker join.  ``--trace 1`` runs the untraced
repetitions for half the time, then one traced repetition, and
reports the per-layer metrics plus the tracing overhead (traced wall
minus the untraced median); the spans of both processes are written
to ``perfbench/_out/``.

Workloads, metrics and bounds are described in ``WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
OUT = HERE / "_out"
#: a run must end within 180 s: no repetition starts after
#: ``RUN_DEADLINE_S`` and none outlives ``RUN_LIMIT_S``
RUN_DEADLINE_S = 120.0
RUN_LIMIT_S = 170.0
MIN_REPS = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def run_rep(args, name: str, fleet_seed, timeout: float,
            *options: str) -> dict:
    """One process, pinned to the faster vCPU with the probe beside
    it; adds each phase's reference-host seconds to its result."""
    cpu = hostspeed.pick_cpu()
    with hostspeed.Probe() as probe:
        result = _run_rep(args, name, fleet_seed, timeout, *options)
    result["cpu"] = cpu
    if "error" in result:
        return result
    spans = result["spans"]
    result["probe_us"] = 1e6 * probe.median_s()
    result["build_setup_ref_s"] = hostspeed.scaled(
        result["build_setup_s"], probe.median_s(spans["setup"]))
    if "wall_s" not in result:
        return result
    # the socket workload's waits (idle retries, close) take the same
    # time on any host: only the worker's time in its leases scales
    busy = result.get("busy_s", result["wall_s"])
    result["wall_ref_s"] = result["wall_s"] - busy + hostspeed.scaled(
        busy, probe.median_s(spans["wall"]))
    result["join_ref_s"] = hostspeed.scaled(
        result["join_s"], probe.median_s(spans["join"])) \
        if result["join_s"] else 0.0
    return result


def _run_rep(args, name: str, fleet_seed, timeout: float,
             *options: str) -> dict:
    work = WORK / str(os.getpid()) / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    command = [sys.executable, str(HERE / "rep.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--work", str(work), *options]
    if fleet_seed is not None:
        command += ["--fleet-seed", str(fleet_seed)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"repetition exited {done.returncode}: {tail}"}
    return json.loads(lines[-1])


def describe(index: int, rep: dict) -> str:
    if "error" in rep:
        return f"rep {index}: FAILED {rep['error']}"
    probe = f"on {rep['cpu']}, probe {rep['probe_us']:.0f} us"
    if "wall_s" not in rep:
        return (f"set-up {index}: {rep['build_setup_ref_s']:.3f} s "
                f"(measured {rep['build_setup_s']:.3f}) for "
                f"{rep['builds']} builds {probe}")
    text = (f"rep {index}: set-up {rep['build_setup_ref_s']:.3f} s "
            f"(measured {rep['build_setup_s']:.3f}) + join "
            f"{rep['join_ref_s']:.3f} ({rep['join_s']:.3f}), wall "
            f"{rep['wall_ref_s']:.3f} s ({rep['wall_s']:.3f}), "
            f"peak_rss_mb={rep['peak_rss_mb']:.1f} "
            f"failed={rep['failed']}/{rep['attempted']}")
    if "rogues" in rep:
        text += (f" rogues={rep['rogues']} "
                 f"dispatches={rep['dispatches']} "
                 f"sim_Mcycles={rep['sim_cycles'] / 1e6:.1f} "
                 f"device-sim-h/s={rep['device_sim_hours_per_s']:.5f}")
    if "table1_err_pct" in rep:
        text += f" table1_err={rep['table1_err_pct']:.2f}%"
    text += " " + probe
    verdict = "verified" if rep["reference"] else "checked (no reference)"
    if rep["checks"]:
        verdict = "FAILED: " + "; ".join(rep["checks"])
    return f"{text} [{verdict}]"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no repro sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import metrics
    import workloads as W
    if args.workload not in W.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r} (choose from "
                     f"{', '.join(W.WORKLOADS)})")
    workload = W.WORKLOADS[args.workload]
    fleet_seed = (W.fleet_seed(workload.shape, args.seed)
                  if workload.fleet else None)
    print(f"workload {args.workload}, seed {args.seed}"
          + (f" (fleet seed {fleet_seed})" if workload.fleet else ""))

    start = time.monotonic()
    budget = args.seconds / 2 if args.trace else args.seconds
    min_reps = 1 if args.trace else MIN_REPS
    reps = []
    setups = []
    traced = None

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    try:
        while True:
            elapsed = time.monotonic() - start
            # stop when one more round would end past the budget by
            # more than half a round
            rounds = len(reps)
            if elapsed >= RUN_DEADLINE_S or (rounds >= min_reps and (
                    elapsed + 0.5 * elapsed / rounds > budget)):
                break
            reps.append(run_rep(args, f"rep{rounds}", fleet_seed,
                                left()))
            print(describe(rounds, reps[-1]), flush=True)
            if not args.trace:
                setups.append(run_rep(args, f"setup{rounds}",
                                      fleet_seed,
                                      left(), "--setup-only"))
                print(describe(rounds, setups[-1]), flush=True)
        if args.trace:
            OUT.mkdir(exist_ok=True)
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
            traced = run_rep(args, "traced", fleet_seed, left(),
                             "--trace-out", str(trace_path))
            print(describe(len(reps), traced) + " (traced)")
    finally:
        shutil.rmtree(WORK / str(os.getpid()), ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass                # another run is still using it

    good = [rep for rep in reps if "error" not in rep]
    runs = reps + ([traced] if traced is not None else [])
    attempted = sum(rep.get("attempted", 0) for rep in good) or 1
    failed = sum(rep["failed"] for rep in good) + sum(
        1 for rep in runs + setups if "error" in rep) + sum(
        1 for rep in setups if good and "error" not in rep
        and rep["builds"] != good[0]["builds"])
    if traced is not None and "error" not in traced:
        attempted += traced["attempted"]
        failed += traced["failed"]
    correct = failed == 0 and all(
        not rep["checks"] for rep in runs if "error" not in rep)
    if not good:
        print("no repetition completed", file=sys.stderr)
        return 1

    # reference-host seconds, and as measured
    names = ("wall_ref_s", "wall_s", "join_ref_s", "join_s",
             "peak_rss_mb", "probe_us")
    samples = {name: [rep[name] for rep in good] for name in names}
    for name in ("build_setup_ref_s", "build_setup_s"):
        samples[name] = [rep[name] for rep in good + setups
                         if "error" not in rep]
    for name, values in samples.items():
        q1, q3 = quartiles(values)
        print(f"{name}: median {statistics.median(values):.4f} "
              f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})")
    medians = {name: statistics.median(values)
               for name, values in samples.items()}
    medians["setup_measured_s"] = (medians["build_setup_s"]
                                   + medians["join_s"])
    medians["wall_measured_s"] = medians["wall_s"]
    medians["setup_s"] = medians["build_setup_ref_s"] + medians["join_ref_s"]
    medians["wall_s"] = medians["wall_ref_s"]
    print(f"measured: wall_s {medians['wall_measured_s']:.4f} s, "
          f"setup_s {medians['setup_measured_s']:.4f} s; host probe "
          f"{medians['probe_us']:.1f} us against "
          f"{1e6 * hostspeed.REFERENCE_S:.0f} us")
    results = {name: {"value": medians[name], "unit": unit}
               for name, unit, _better, _bound in metrics.END_TO_END}
    if args.trace:
        if traced is None or "error" in traced:
            print("the traced repetition failed", file=sys.stderr)
            return 1
        results = traced_metrics(traced, medians, trace_path, metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": results}))
    return 0


def traced_metrics(traced: dict, untraced: dict, trace_path: Path,
                   metrics) -> dict:
    data = json.loads(trace_path.read_text())
    net = traced.get("net", {})
    extra = {
        "fleet.net.join_s": traced.get("join_s", 0.0),
        "fleet.net.requeues": net.get("requeues", 0),
        "fleet.net.reconnects": net.get("reconnects", 0),
        "fleet.net.lease_timeouts": net.get("lease_timeouts", 0),
        "fleet.net.kb_in": net.get("kb_in", 0.0),
        "fleet.net.kb_out": net.get("kb_out", 0.0),
        "msp430.execcache.disk_mb": traced["disk_mb"]["exec"],
        "fleet.tracetier.store_mb": traced["disk_mb"]["trace"],
        "experiments.table1_err_pct": traced.get("table1_err_pct", 0.0),
        "trace.wall_s": traced["wall_ref_s"],
        "trace.overhead_s": traced["wall_ref_s"] - untraced["wall_s"],
        "trace.overhead_pct": 100.0 * (traced["wall_ref_s"]
                                       / untraced["wall_s"] - 1.0),
        "host.wall_measured_s": untraced["wall_measured_s"],
        "host.setup_measured_s": untraced["setup_measured_s"],
        "host.probe_us": untraced["probe_us"],
    }
    values = metrics.layer_metrics(data["processes"], extra)
    units = {name: unit for name, unit, _b in metrics.PER_LAYER}
    print_layers(data["processes"], traced["wall_s"], metrics)
    return {name: {"value": values[name], "unit": units[name]}
            for name, _u, _b in metrics.PER_LAYER}


def print_layers(processes, wall: float, metrics) -> None:
    """The traced run's time by span, self and inclusive, per process,
    set-up spans included; shares are of the timed phase.  Each
    process's line also checks that the per-layer self-time metrics
    and ``trace.harness_s`` cover its traced root: a span whose time
    no metric reports shows up as unattributed."""
    for process in processes:
        root = process["root"]
        covered = sum(seconds for span, seconds in root["self_s"].items()
                      if metrics.reported(span))
        print(f"{process['process']}: traced root {root['wall_s']:.3f} s, "
              f"reported self times {covered:.3f} s, unattributed "
              f"{root['wall_s'] - covered:.3f} s (timed phase "
              f"{wall:.3f} s; shares below are of it)")
        rows = sorted(process["layers"].items(),
                      key=lambda item: -item[1]["self_s"])
        for name, row in rows:
            if max(row["self_s"], row["incl_s"]) < 0.0005 * wall:
                continue
            print(f"  {name:<30} calls {row['calls']:>7}  self "
                  f"{row['self_s']:8.3f} s "
                  f"({100 * row['self_s'] / wall:5.1f}%)  incl "
                  f"{row['incl_s']:8.3f} s "
                  f"({100 * row['incl_s'] / wall:5.1f}%)")


if __name__ == "__main__":
    raise SystemExit(main())
