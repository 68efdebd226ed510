"""The benchmark's metrics: what each one is, and how it is computed.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json``
holds (``python3 perfbench/metrics.py`` prints them).  ``LAYERS`` also
records which end-to-end metric, on which workload, each layer's
metrics should move -- the map ``WORKLOADS.md`` tabulates, which
``BENCHMARK.json`` has no field for.
"""

from __future__ import annotations

import json
from typing import Dict, List

#: name, unit, better, bound (share of the parent's median).  The two
#: times are reference-host seconds (``hostspeed.py``); the bounds are
#: wide because even so the host's spells leave spreads of about a
#: tenth (see WORKLOADS.md, Steadiness)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

S_LOW = ("s", "lower")
N_LOW = ("count", "lower")
N_HIGH = ("count", "higher")

#: layer -> (metric, (unit, better)), and what the layer should move
LAYERS = [
    ("aft, cc, asm",
     "setup_s on fleet-jittered and fleet-cohort (cold builds); wall_s "
     "on paper-quick (ARP build); wall_s on fleet-clones-socket (the "
     "worker's disk-cache firmware loads)",
     [("aft.builds", N_LOW), ("aft.build_s", S_LOW),
      ("cc.parse_s", S_LOW), ("cc.sema_s", S_LOW),
      ("cc.codegen_s", S_LOW), ("asm.assemble_s", S_LOW),
      ("asm.link_s", S_LOW), ("aft.cache_hits", N_HIGH),
      ("aft.cache_load_s", S_LOW)]),
    ("kernel.machine",
     "wall_s on fleet-jittered (many short dispatches) against "
     "paper-quick (few long ones); .new_s moves setup_s through "
     "prototypes",
     [("kernel.machine.new", N_LOW), ("kernel.machine.new_s", S_LOW),
      ("kernel.machine.dispatches", N_LOW),
      ("kernel.machine.dispatch_s", S_LOW),
      ("kernel.machine.us_per_dispatch", ("us", "lower"))]),
    ("msp430.cpu",
     "wall_s on paper-quick most, then fleet-jittered; about zero for "
     "fleet-clones-socket followers",
     [("msp430.cpu.run_s", S_LOW), ("msp430.cpu.insns", N_LOW),
      ("msp430.cpu.cycles", N_LOW),
      ("msp430.cpu.minsn_per_s", ("Minsn/s", "higher"))]),
    ("msp430.execcache",
     "wall_s on fleet-jittered (many firmwares translating cold while "
     "sharing OS bytes)",
     [("msp430.execcache.publishes", N_LOW),
      ("msp430.execcache.block_pulls", N_HIGH),
      ("msp430.execcache.page_pulls", N_HIGH),
      ("msp430.execcache.rejects", N_LOW),
      ("msp430.execcache.pull_hit_ratio", ("ratio", "higher")),
      ("msp430.execcache.disk_published", N_LOW),
      ("msp430.execcache.disk_loaded", N_HIGH),
      ("msp430.execcache.disk_corrupt", N_LOW),
      ("msp430.execcache.disk_mb", ("MB", "lower"))]),
    ("msp430.memory",
     "wall_s on fleet-cohort (two page diffs per recorded dispatch) and "
     "on fleet-clones-socket (one apply per replayed dispatch)",
     [("msp430.memory.delta_since", N_LOW),
      ("msp430.memory.delta_since_s", S_LOW),
      ("msp430.memory.apply_pages", N_LOW),
      ("msp430.memory.apply_pages_s", S_LOW)]),
    ("kernel.scheduler",
     "wall_s on fleet-clones-socket (steps remain after dispatches are "
     "replayed)",
     [("kernel.scheduler.steps", N_LOW),
      ("kernel.scheduler.step_s", S_LOW),
      ("kernel.scheduler.seed_s", S_LOW)]),
    ("fleet.device",
     "wall_s on every fleet workload (a fixed cost per device)",
     [("fleet.device.make_s", S_LOW),
      ("fleet.device.simulate_s", S_LOW)]),
    ("fleet.cohort",
     "wall_s and peak_rss_mb on fleet-cohort; wall_s on "
     "fleet-clones-socket",
     [("fleet.cohort.executed", N_LOW), ("fleet.cohort.replayed", N_HIGH),
      ("fleet.cohort.leads", N_LOW), ("fleet.cohort.joins", N_HIGH),
      ("fleet.cohort.rejects", N_LOW), ("fleet.cohort.forks", N_LOW),
      ("fleet.cohort.rejoins", N_HIGH),
      ("fleet.cohort.replay_ratio", ("ratio", "higher")),
      ("fleet.cohort.digests", N_LOW), ("fleet.cohort.digest_s", S_LOW),
      ("fleet.cohort.recorder_s", S_LOW),
      ("fleet.cohort.follower_s", S_LOW)]),
    ("fleet.tracetier",
     "wall_s and peak_rss_mb on fleet-cohort",
     [("fleet.tracetier.hits", N_HIGH), ("fleet.tracetier.misses", N_LOW),
      ("fleet.tracetier.published", N_LOW),
      ("fleet.tracetier.load_s", S_LOW),
      ("fleet.tracetier.publish_s", S_LOW),
      ("fleet.tracetier.store_mb", ("MB", "lower"))]),
    ("fleet.snapshot, fleet.ckptio",
     "wall_s on fleet-jittered (local writes) and on "
     "fleet-clones-socket (coordinator-side validation)",
     [("fleet.snapshot.snapshots", N_LOW),
      ("fleet.snapshot.snapshot_s", S_LOW),
      ("fleet.snapshot.serialize_s", S_LOW),
      ("fleet.snapshot.parses", N_LOW), ("fleet.snapshot.parse_s", S_LOW),
      ("fleet.ckptio.flushes", N_LOW), ("fleet.ckptio.kb", ("KB", "lower")),
      ("fleet.ckptio.stall_s", S_LOW)]),
    ("fleet.telemetry, fleet.executor",
     "wall_s on fleet-jittered (expected to be about 0; kept as a "
     "guard)",
     [("fleet.telemetry.record_s", S_LOW),
      ("fleet.telemetry.fold_s", S_LOW),
      ("fleet.executor.units", N_LOW),
      ("fleet.executor.coordinator_s", S_LOW)]),
    ("fleet.net",
     "setup_s (through .join_s) and wall_s on fleet-clones-socket",
     [("fleet.net.join_s", S_LOW), ("fleet.net.leases", N_LOW),
      ("fleet.net.idle_replies", N_LOW),
      ("fleet.net.worker_idle_s", S_LOW),
      ("fleet.net.frames_in", N_LOW), ("fleet.net.frames_out", N_LOW),
      ("fleet.net.kb_in", ("KB", "lower")),
      ("fleet.net.kb_out", ("KB", "lower")),
      ("fleet.net.batches", N_LOW), ("fleet.net.coordinator_s", S_LOW),
      ("fleet.net.close_s", S_LOW), ("fleet.net.worker_send_s", S_LOW),
      ("fleet.net.worker_lease_s", S_LOW),
      ("fleet.net.worker_import_s", S_LOW),
      ("fleet.net.requeues", N_LOW), ("fleet.net.reconnects", N_LOW),
      ("fleet.net.lease_timeouts", N_LOW)]),
    ("experiments, profiler",
     "wall_s on paper-quick",
     [("experiments.table1_s", S_LOW), ("experiments.figure2_s", S_LOW),
      ("experiments.figure3_s", S_LOW),
      ("experiments.code_size_s", S_LOW),
      ("experiments.table1_err_pct", ("%", "lower"))]),
    ("tracing",
     "nothing: the traced run's own cost",
     [("trace.wall_s", S_LOW), ("trace.overhead_s", S_LOW),
      ("trace.overhead_pct", ("%", "lower")),
      ("trace.harness_s", S_LOW), ("trace.spans", N_LOW)]),
    ("host",
     "nothing: the untraced repetitions' medians as measured, before "
     "scaling to reference-host seconds, and the host-speed probe",
     [("host.wall_measured_s", S_LOW), ("host.setup_measured_s", S_LOW),
      ("host.probe_us", ("us", "lower"))]),
]

PER_LAYER = [(name, unit, better) for _layer, _moves, metrics in LAYERS
             for name, (unit, better) in metrics]

#: span name -> the ``*_s`` metric its self time adds to
SELF_TIME = {
    "aft.build": "aft.build_s", "aft.cache_store": "aft.build_s",
    "aft.cache_load": "aft.cache_load_s",
    "cc.parse": "cc.parse_s", "cc.sema": "cc.sema_s",
    "cc.codegen": "cc.codegen_s", "asm.assemble": "asm.assemble_s",
    "asm.link": "asm.link_s",
    "kernel.machine.new": "kernel.machine.new_s",
    "kernel.machine.dispatch": "kernel.machine.dispatch_s",
    "msp430.cpu.run": "msp430.cpu.run_s",
    "msp430.memory.delta_since": "msp430.memory.delta_since_s",
    "msp430.memory.apply_pages": "msp430.memory.apply_pages_s",
    "kernel.scheduler.step": "kernel.scheduler.step_s",
    "kernel.scheduler.seed": "kernel.scheduler.seed_s",
    "fleet.device.make": "fleet.device.make_s",
    "fleet.device.simulate": "fleet.device.simulate_s",
    "fleet.cohort.digest": "fleet.cohort.digest_s",
    "fleet.cohort.recorder": "fleet.cohort.recorder_s",
    "fleet.cohort.follower": "fleet.cohort.follower_s",
    "fleet.tracetier.load": "fleet.tracetier.load_s",
    "fleet.tracetier.publish": "fleet.tracetier.publish_s",
    "fleet.snapshot.snapshot": "fleet.snapshot.snapshot_s",
    "fleet.snapshot.serialize": "fleet.snapshot.serialize_s",
    "fleet.snapshot.parse": "fleet.snapshot.parse_s",
    "fleet.ckptio.stall": "fleet.ckptio.stall_s",
    "fleet.telemetry.record": "fleet.telemetry.record_s",
    "fleet.telemetry.fold": "fleet.telemetry.fold_s",
    "fleet.executor.campaign": "fleet.executor.coordinator_s",
    "fleet.executor.unit": "fleet.executor.coordinator_s",
    "fleet.executor.run_units": "fleet.executor.coordinator_s",
    "fleet.net.wait": "fleet.net.coordinator_s",
    "fleet.net.close": "fleet.net.close_s",
    "fleet.net.idle": "fleet.net.worker_idle_s",
    "fleet.net.import": "fleet.net.worker_import_s",
    "fleet.net.lease": "fleet.net.worker_lease_s",
    "experiments.table1": "experiments.table1_s",
    "experiments.figure2": "experiments.figure2_s",
    "experiments.figure3": "experiments.figure3_s",
    "experiments.code_size": "experiments.code_size_s",
    "harness": "trace.harness_s",
}

#: span name -> the count metric its call count is
CALLS = {
    "kernel.machine.new": "kernel.machine.new",
    "kernel.machine.dispatch": "kernel.machine.dispatches",
    "msp430.memory.delta_since": "msp430.memory.delta_since",
    "msp430.memory.apply_pages": "msp430.memory.apply_pages",
    "kernel.scheduler.step": "kernel.scheduler.steps",
    "fleet.cohort.digest": "fleet.cohort.digests",
    "fleet.snapshot.snapshot": "fleet.snapshot.snapshots",
    "fleet.snapshot.parse": "fleet.snapshot.parses",
    "fleet.executor.unit": "fleet.executor.units",
}

#: CohortStats field -> metric
COHORT = {
    "executed": "fleet.cohort.executed", "replayed": "fleet.cohort.replayed",
    "leads": "fleet.cohort.leads", "joins": "fleet.cohort.joins",
    "rejects": "fleet.cohort.rejects", "forks": "fleet.cohort.forks",
    "rejoins": "fleet.cohort.rejoins",
    "trace_hits": "fleet.tracetier.hits",
    "trace_misses": "fleet.tracetier.misses",
    "trace_published": "fleet.tracetier.published",
}


#: spans whose self time goes to a metric chosen per process
SPLIT = ("fleet.net.send", "fleet.net.pack")


def reported(span: str) -> bool:
    """Whether some per-layer metric includes this span's self time."""
    return span in SELF_TIME or span in SPLIT


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(processes: List[dict], extra: Dict[str, float]) -> dict:
    """Per-layer metrics from the traced run's process snapshots (see
    :func:`tracer.snapshot`); ``extra`` supplies what the harness
    measured itself (join time, disk sizes, transport counters, the
    traced and untraced walls, the Table 1 error)."""
    values: Dict[str, float] = {name: 0.0 for name, _u, _b in PER_LAYER}
    harness = processes[0]
    for process in processes:
        for span, row in process["layers"].items():
            if span == "harness" and process is not harness:
                continue
            if span in SELF_TIME:
                values[SELF_TIME[span]] += row["self_s"]
            if span in CALLS:
                values[CALLS[span]] += row["calls"]
            if span == "fleet.net.send":
                key = ("fleet.net.coordinator_s" if process is harness
                       else "fleet.net.worker_send_s")
                values[key] += row["self_s"]
            if span == "fleet.net.pack":
                values["fleet.net.worker_send_s"] += row["self_s"]
        counts = process["counts"]
        for key in ("aft.builds", "aft.cache_hits", "msp430.cpu.insns",
                    "msp430.cpu.cycles", "fleet.net.batches"):
            values[key] += counts.get(key, 0)
        for field, metric in COHORT.items():
            values[metric] += process["cohort"].get(field, 0)
        for key, count in process["execcache"].items():
            values[f"msp430.execcache.{key}"] += count
    for key in ("fleet.net.frames_in", "fleet.net.frames_out",
                "fleet.net.leases", "fleet.net.idle_replies"):
        values[key] = harness["counts"].get(key, 0)
    for stats in harness["units"]:
        values["fleet.ckptio.flushes"] += stats.get("ckpt_flushes", 0)
        values["fleet.ckptio.kb"] += stats.get("ckpt_bytes", 0) / 1024.0
    if not values["fleet.executor.units"]:
        values["fleet.executor.units"] = len(harness["units"])

    def incl(span: str) -> float:
        return sum(p["layers"].get(span, {}).get("incl_s", 0.0)
                   for p in processes)

    dispatches = values["kernel.machine.dispatches"]
    values["kernel.machine.us_per_dispatch"] = 1e6 * _ratio(
        incl("kernel.machine.dispatch"), dispatches)
    values["msp430.cpu.minsn_per_s"] = _ratio(
        values["msp430.cpu.insns"], incl("msp430.cpu.run")) / 1e6
    pulls = (values["msp430.execcache.block_pulls"]
             + values["msp430.execcache.page_pulls"])
    values["msp430.execcache.pull_hit_ratio"] = _ratio(
        pulls, pulls + values["msp430.execcache.rejects"])
    values["fleet.cohort.replay_ratio"] = _ratio(
        values["fleet.cohort.replayed"],
        values["fleet.cohort.replayed"] + values["fleet.cohort.executed"])
    values["trace.spans"] = sum(len(spans) for p in processes
                                for spans in p["spans"].values())
    values.update(extra)
    return values


if __name__ == "__main__":
    print(json.dumps({
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER]}, indent=2))
