"""Fleet telemetry: per-device records and the fleet summary.

Records are plain JSON dicts, one per (device, model), streamed as
JSONL while shards run and folded into a single ``summary.json`` at
campaign end.  Everything here is a pure function of the records, the
records are a pure function of ``(fleet_seed, device_id, model)``, and
the fold sorts by device id — so the summary is byte-identical no
matter how many worker processes produced the records.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.aft.models import IsolationModel
from repro.apps.manifests import MS_PER_WEEK
from repro.fleet.device import DeviceRun
from repro.fleet.population import ROGUE_APP
from repro.profiler.energy import EnergyModel

#: CLI-facing model names (matches ``repro experiments`` naming)
MODELS_BY_KEY: Dict[str, IsolationModel] = {
    "none": IsolationModel.NO_ISOLATION,
    "feature-limited": IsolationModel.FEATURE_LIMITED,
    "software-only": IsolationModel.SOFTWARE_ONLY,
    "mpu": IsolationModel.MPU,
    "advanced-mpu": IsolationModel.ADVANCED_MPU,
}

#: what ``--model all`` expands to (the paper's four evaluated models)
DEFAULT_MODELS = ("none", "feature-limited", "software-only", "mpu")


def device_record(run: DeviceRun, model_key: str) -> dict:
    """One device's telemetry, JSON-plain and fully deterministic."""
    spec = run.spec
    stats = run.scheduler.stats
    cycles = sum(stats.per_app_cycles.values())
    rogue_cycles = stats.per_app_cycles.get(ROGUE_APP, 0)
    rogue_events = stats.per_app_events.get(ROGUE_APP, 0)

    faults_by_origin: Dict[str, int] = {}
    for record in run.machine.fault_log.records:
        key = record.origin.value
        faults_by_origin[key] = faults_by_origin.get(key, 0) + 1

    # projected battery cost of a week at this duty cycle, against
    # this device's actual battery (integer scaling keeps it exact)
    weekly_cycles = (cycles * MS_PER_WEEK // run.sim_ms
                     if run.sim_ms else 0)
    energy = EnergyModel(battery_mah=float(spec.battery_mah))
    battery_pct = energy.battery_impact_percent(weekly_cycles)

    return {
        "device": spec.device_id,
        "model": model_key,
        "apps": list(spec.apps),
        "rogue": spec.rogue,
        "rogue_built": run.rogue_built,
        "battery_mah": spec.battery_mah,
        "sim_ms": run.sim_ms,
        "dispatches": stats.events_delivered,
        "dropped": stats.events_dropped,
        "cycles": cycles,
        "faults": stats.faults,
        "restarts": stats.restarts,
        "cycles_app": cycles - rogue_cycles,
        "dispatches_app": stats.events_delivered - rogue_events,
        "faults_by_app": dict(sorted(stats.per_app_faults.items())),
        "faults_by_origin": dict(sorted(faults_by_origin.items())),
        "battery_week_pct": round(battery_pct, 6),
    }


def record_line(record: dict) -> str:
    """Canonical JSONL encoding (sorted keys, no whitespace)."""
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")) + "\n"


def _percentiles(values: Sequence[float]) -> dict:
    """Nearest-rank percentiles — integer indexing only, so the result
    never depends on float interpolation quirks."""
    ordered = sorted(values)
    n = len(ordered)

    def rank(q: int) -> float:
        return ordered[min(n - 1, max(0, (q * n + 99) // 100 - 1))]

    return {
        "min": ordered[0],
        "p50": rank(50),
        "p90": rank(90),
        "p99": rank(99),
        "max": ordered[-1],
        "mean": round(sum(ordered) / n, 6),
    }


def _model_summary(records: List[dict]) -> dict:
    devices = len(records)
    cycles_app = sum(r["cycles_app"] for r in records)
    dispatches_app = sum(r["dispatches_app"] for r in records)
    rogue = [r for r in records if r["rogue"]]
    rogue_built = [r for r in rogue if r["rogue_built"]]
    rogue_caught = [r for r in rogue_built
                    if r["faults_by_app"].get(ROGUE_APP, 0) > 0]
    # any fault logged against a catalog app means the rogue's damage
    # (or a kernel bug) escaped its sandbox
    collateral = sum(count
                     for r in records
                     for app, count in r["faults_by_app"].items()
                     if app != ROGUE_APP)
    summary = {
        "devices": devices,
        "dispatches": sum(r["dispatches"] for r in records),
        "cycles": sum(r["cycles"] for r in records),
        "faults": sum(r["faults"] for r in records),
        "restarts": sum(r["restarts"] for r in records),
        # per-dispatch cost of the nine-app workload itself, rogue
        # excluded — the cross-model comparable number
        "cycles_per_dispatch": round(cycles_app / dispatches_app, 6)
        if dispatches_app else 0.0,
        "rogue_devices": len(rogue),
        "rogue_rejected_at_build": len(rogue) - len(rogue_built),
        "rogue_faulted": len(rogue_caught),
        "collateral_faults": collateral,
        "rogue_contained": len(rogue_caught) == len(rogue_built)
        and collateral == 0,
        "battery_week_pct": _percentiles(
            [r["battery_week_pct"] for r in records]),
        "device_cycles": _percentiles([r["cycles"] for r in records]),
        "device_dispatches": _percentiles(
            [r["dispatches"] for r in records]),
    }
    return summary


class SummaryFold:
    """Streaming summary fold for the coordinator.

    Per-device records arrive in whatever order the work-stealing
    units finish; the fold ingests them incrementally (deduplicating
    by device id — a record is a pure function of
    ``(seed, device_id, model)``, so duplicates from a resumed unit
    are byte-identical and harmless) and keeps running counts for
    progress reporting.  :meth:`summary` re-sorts by device id before
    computing, so the result is byte-identical to a one-shot
    post-hoc :func:`fleet_summary` over the same records — the
    property the ``--jobs`` invariance tests pin.
    """

    def __init__(self) -> None:
        self._by_model: Dict[str, Dict[int, dict]] = {}

    def add(self, model_key: str, record: dict) -> None:
        self._by_model.setdefault(model_key, {})[record["device"]] = \
            record

    def ingest(self, model_key: str, records: List[dict]) -> None:
        for record in records:
            self.add(model_key, record)

    def count(self, model_key: str) -> int:
        return len(self._by_model.get(model_key, {}))

    def device_ids(self, model_key: str) -> set:
        """Ids of devices already folded for this model (the
        coordinator's 'what is still pending' query)."""
        return set(self._by_model.get(model_key, {}))

    def records(self, model_key: str) -> List[dict]:
        """This model's records, sorted by device id."""
        by_device = self._by_model.get(model_key, {})
        return [by_device[device] for device in sorted(by_device)]

    def summary(self, config: dict) -> dict:
        return fleet_summary(config,
                             {key: self.records(key)
                              for key in self._by_model})


def fleet_summary(config: dict,
                  records_by_model: Dict[str, List[dict]]) -> dict:
    """Fold per-device records into the campaign summary.

    ``records_by_model`` maps model key -> records; order of the input
    lists is irrelevant (they are re-sorted by device id)."""
    models = {}
    for key in sorted(records_by_model):
        records = sorted(records_by_model[key],
                         key=lambda r: r["device"])
        models[key] = _model_summary(records)

    # isolation overhead relative to the no-isolation baseline, on the
    # rogue-free per-dispatch cost (paper Table 1's fleet-level analog)
    base = models.get("none")
    if base and base["cycles_per_dispatch"]:
        for key, model in models.items():
            model["overhead_vs_none_pct"] = round(
                100.0 * (model["cycles_per_dispatch"]
                         / base["cycles_per_dispatch"] - 1.0), 3)

    return {"version": 1, "config": config, "models": models}


def summary_text(summary: dict) -> str:
    """Human-readable digest of a fleet summary."""
    lines = []
    config = summary["config"]
    lines.append(f"fleet seed {config['seed']}: "
                 f"{config['devices']} devices x "
                 f"{config['hours']} h simulated")
    header = (f"{'model':<17}{'disp':>10}{'cyc/disp':>12}"
              f"{'ovh%':>8}{'faults':>8}{'restarts':>9}"
              f"{'rogue':>12}")
    lines.append(header)
    for key, model in summary["models"].items():
        overhead = model.get("overhead_vs_none_pct")
        rogue = (f"{model['rogue_faulted']}/{model['rogue_devices']}"
                 + (" +rej" if model["rogue_rejected_at_build"] else ""))
        lines.append(
            f"{key:<17}{model['dispatches']:>10}"
            f"{model['cycles_per_dispatch']:>12.1f}"
            f"{overhead if overhead is not None else '-':>8}"
            f"{model['faults']:>8}{model['restarts']:>9}"
            f"{rogue:>12}")
    return "\n".join(lines)


def worker_summary(workers: Dict[str, dict]) -> dict:
    """Fold the coordinator's per-worker attribution rows into fleet
    totals for ``coordinator.json`` — how much work and wire traffic
    the socket campaign cost, worker count included so reconnect and
    timeout rates can be read per worker.  ``wait_s`` is the time
    workers' lease requests sat parked with no unit to hand out —
    the campaign's starvation, at model boundaries and at its end."""
    return {
        "workers": len(workers),
        "units_run": sum(w["units_run"] for w in workers.values()),
        "devices_done": sum(
            w["devices_done"] for w in workers.values()),
        "bytes_to_workers": sum(
            w["bytes_to_worker"] for w in workers.values()),
        "bytes_from_workers": sum(
            w["bytes_from_worker"] for w in workers.values()),
        "reconnects": sum(w["reconnects"] for w in workers.values()),
        "lease_timeouts": sum(
            w["lease_timeouts"] for w in workers.values()),
        "wait_s": round(sum(w["wait_s"] for w in workers.values()), 3),
    }
