"""Record the reference outputs the benchmark verifies against.

    python3 perfbench/make_refs.py --seeds 0-15
    python3 perfbench/make_refs.py --costs
    python3 perfbench/make_refs.py --distribution

Runs one repetition per seed of ``fleet-jittered`` (whose records
``fleet-cohort`` must reproduce byte for byte) and of
``fleet-clones-socket``, plus one of ``paper-quick``, and stores their
result digests in ``refs.json``.  Rerun it only when a change is meant
to alter simulated results -- or when a workload's shape changes,
which changes its populations.

``--costs`` measures ``workloads.HANDLER_CYCLES``: one device per
catalog handler, that handler alone at its manifest rate, 30 simulated
seconds under each of the four models.  ``--distribution`` prints the
medians and quartiles of the population load over ``device_spec``'s
populations of each fleet shape's size, where the shapes' filter
targets come from.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads as W  # noqa: E402


def rep(workload: str, seed: int) -> dict:
    work = HERE / "_work" / f"refs-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), "--workload", workload,
             "--seed", str(seed), "--work", str(work)],
            capture_output=True, text=True, check=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result["checks"]:
        raise SystemExit(f"{workload} seed {seed}: {result['checks']}")
    return result


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def costs() -> None:
    work = HERE / "_work" / f"costs-{os.getpid()}"
    os.environ["REPRO_CACHE_DIR"] = str(work / "firmware")
    os.environ["REPRO_EXEC_CACHE_DIR"] = str(work / "exec")
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.apps.manifests import MANIFESTS
    from repro.fleet.device import simulate_device
    from repro.fleet.population import SUITE_NAMES, DeviceSpec, SourceSpec
    from repro.fleet.telemetry import MODELS_BY_KEY
    sim_ms = 30_000
    try:
        for app in SUITE_NAMES:
            for rate in MANIFESTS[app].rates:
                source = SourceSpec(app, rate.handler,
                                    rate.event_type.value, rate.period_ms,
                                    phase_ms=0)
                events = W._events(source, sim_ms)
                if not events:
                    continue
                spec = DeviceSpec(device_id=0, fleet_seed=0, apps=(app,),
                                  rogue=False, env_seed=12345,
                                  battery_mah=110, sources=(source,))
                cycles = sum(simulate_device(spec, MODELS_BY_KEY[key],
                                             sim_ms).machine.cpu.cycles
                             for key in W.MODELS)
                print(f"({app!r}, {rate.handler!r}): "
                      f"{round(cycles / events)},")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def distribution(populations: int = 40_000) -> None:
    import statistics
    sys.path.insert(0, str(HERE.parent / "src"))
    for shape in (W.JITTERED, W.CLONES):
        loads = [W.population_load(W.distinct_specs(shape, seed),
                                   shape.sim_s * 1000)
                 for seed in range(populations)]
        for key in ("apps", "compactions", "accel", "cycles", "rogues"):
            values = [load[key] for load in loads]
            q1, _median, q3 = statistics.quantiles(values, n=4)
            distinct = 1 if shape.homogeneous else shape.devices
            print(f"{shape.kind} ({distinct} distinct): {key} median "
                  f"{statistics.median(values)} "
                  f"q1 {q1} q3 {q3}")
        accepted = sum(W._accepts(shape, W.distinct_specs(shape, seed))
                       for seed in range(populations))
        print(f"{shape.kind}: {accepted} of {populations} populations "
              "pass the filter")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default="0-15")
    parser.add_argument("--costs", action="store_true")
    parser.add_argument("--distribution", action="store_true")
    args = parser.parse_args()
    if args.costs:
        costs()
        return 0
    if args.distribution:
        distribution()
        return 0
    refs = W.load_refs()
    for seed in args.seeds:
        for workload in ("fleet-jittered", "fleet-clones-socket"):
            kind = W.WORKLOADS[workload].shape.kind
            result = rep(workload, seed)
            refs.setdefault(kind, {})[str(seed)] = result["digests"]
            print(f"{workload} seed {seed}: {result['summary_sha']} "
                  f"(wall {result['wall_s']:.2f} s, "
                  f"{result['dispatches']} dispatches, "
                  f"{result['sim_cycles'] / 1e6:.1f} Mcycles)", flush=True)
    result = rep("paper-quick", 0)
    refs["paper-quick"] = {"report": result["report_sha"],
                           "sections": result["sections"]}
    W.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True)
                           + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
