"""Coordinator/worker fleet campaigns with work-stealing and resume.

The executor used to split devices statically (``device_id % shards``)
and give each shard one synchronous worker.  Jittered per-device
workloads made the static split straggle — one slow shard pinned the
campaign while finished workers idled — and synchronous checkpoint
writes serialized the rest.  This module replaces that with a
coordinator/worker architecture:

* the **coordinator** groups the pending devices by firmware into
  work units (:func:`plan_units`) and submits them all up front; idle
  workers pull the next unit the moment they finish one
  (work-stealing — no worker waits on another's tail), and the
  coordinator folds telemetry incrementally as unit results arrive
  (:class:`~repro.fleet.telemetry.SummaryFold`) instead of in one
  post-hoc merge;
* each **worker** runs its unit through the one unit runner,
  :func:`_run_unit`, whatever the transport: it advances the unit's
  devices in cohort lockstep over the persistent trace tier
  (:func:`~repro.fleet.device.simulate_cohort`), serializing the next
  delta checkpoint while a double-buffered writer thread
  (:class:`~repro.fleet.ckptio.AsyncCheckpointWriter`) flushes the
  previous one into a **sink** — :class:`FileSink`, whose
  rename-into-place commit (:func:`land_checkpoint`) means a kill
  mid-write always resumes from the last *complete* checkpoint, or
  the socket worker's ``WireSink`` — and reports one
  :class:`UnitStats` record;
* all persistent state is **per-device** — one checkpoint file per
  in-progress device, one record line per completed device — so a
  resume never depends on how work was chunked: kill a ``--jobs 4``
  run, resume it with ``--jobs 1``, and the unit layout may differ
  while every completed device is found and every in-progress device
  picks up from its newest complete checkpoint.

Determinism contract (unchanged): every per-device record is a pure
function of ``(fleet_seed, device_id, model)``, and the summary fold
sorts by device id — so the final ``summary.json`` is byte-identical
for any ``--jobs``, any unit layout, any transport, and any
interrupt/resume history.  Each commit point calls
:func:`repro.faults.hit`, so ``REPRO_FAULT=site:N`` can kill any
process of a campaign there and a test can resume it.

The output directory is stamped with a config key (campaign identity:
seed, devices, hours, models, checkpoint cadence); a rerun with
different parameters against the same directory fails loudly instead
of mixing campaigns.  ``--jobs``, the transport, the trace tier's
state and profiling are execution details and free to differ between
run and resume.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import faults
from repro.aft.models import IsolationModel
from repro.errors import ReproError
from repro.fleet.ckptio import AsyncCheckpointWriter
from repro.fleet.cohort import CohortStats
from repro.fleet.device import simulate_cohort
from repro.fleet.population import device_spec
from repro.fleet.snapshot import STATE_VERSION, checkpoint_bytes, \
    parse_checkpoint
from repro.fleet.telemetry import MODELS_BY_KEY, SummaryFold, \
    device_record, record_line, worker_summary
from repro.fleet.tracetier import trace_tier
from repro.pool import completed as completed_futures
from repro.pool import worker_pool

# unused here — the runner calls simulate_cohort — but
# perfbench/tracer.py patches this name in this module as well
from repro.fleet.device import simulate_device  # noqa: F401


@dataclass(frozen=True)
class FleetConfig:
    """Campaign identity — everything that determines its results."""

    devices: int
    hours: float
    models: Tuple[str, ...]
    seed: int = 0
    checkpoint_minutes: float = 10.0
    rogue_fraction: float = 0.125
    #: every device a clone of device 0 (the cohort showcase) — see
    #: :func:`repro.fleet.population.device_spec`
    homogeneous: bool = False

    def __post_init__(self) -> None:
        for key in self.models:
            if key not in MODELS_BY_KEY:
                raise ReproError(
                    f"unknown isolation model {key!r} "
                    f"(choose from {', '.join(MODELS_BY_KEY)})")
        if self.devices < 1:
            raise ReproError("need at least one device")
        if self.hours <= 0:
            raise ReproError(
                f"hours must be positive (got {self.hours})")
        if self.checkpoint_minutes <= 0:
            raise ReproError(
                f"checkpoint_minutes must be positive "
                f"(got {self.checkpoint_minutes})")
        if not 0.0 <= self.rogue_fraction <= 1.0:
            raise ReproError(
                f"rogue_fraction must be within [0, 1] "
                f"(got {self.rogue_fraction})")

    @property
    def sim_ms(self) -> int:
        return int(round(self.hours * 3_600_000))

    @property
    def checkpoint_ms(self) -> int:
        return max(1, int(round(self.checkpoint_minutes * 60_000)))

    def key(self) -> str:
        """Hash of the campaign identity.  ``--jobs`` and the unit
        layout are deliberately absent: chunking is an execution
        detail, so a campaign may be resumed under any worker count."""
        text = repr((self.devices, self.hours, tuple(self.models),
                     self.seed, self.checkpoint_minutes,
                     self.rogue_fraction, self.homogeneous,
                     STATE_VERSION))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def plan_units(config: FleetConfig, model: IsolationModel,
               device_ids: List[int], jobs: int) -> List[List[int]]:
    """Chunk pending devices into work units: same-firmware devices
    land in one unit.

    Lockstep only pays when a unit holds several devices of one
    firmware identity — ``(app subset, rogue built)``, the inputs to
    :func:`repro.fleet.device.build_device_apps` — so devices are
    grouped by that signature and each group is chunked into at most
    ``jobs`` units (big units maximize in-unit lockstep, the per-group
    split keeps every worker fed); units are ordered by first device.
    Unit layout is an execution detail: results are byte-identical
    for any layout.
    """
    groups: Dict[tuple, List[int]] = {}
    for device_id in device_ids:
        spec = device_spec(config.seed, device_id,
                           config.rogue_fraction, config.homogeneous)
        rogue_built = (spec.rogue and
                       model is not IsolationModel.FEATURE_LIMITED)
        groups.setdefault((spec.apps, rogue_built),
                          []).append(device_id)
    units: List[List[int]] = []
    for signature in sorted(groups):
        members = groups[signature]
        size = max(1, -(-len(members) // max(1, jobs)))
        units.extend(members[i:i + size]
                     for i in range(0, len(members), size))
    units.sort(key=lambda unit: unit[0])
    return units


def _shards_dir(out_dir: Path) -> Path:
    return Path(out_dir) / "shards"


def _ckpt_path(out_dir: Path, model_key: str, device_id: int) -> Path:
    return _shards_dir(out_dir) / f"{model_key}-dev{device_id:05d}.ckpt"


def _unit_stream_path(out_dir: Path, model_key: str,
                      first_device: int) -> Path:
    return _shards_dir(out_dir) / f"{model_key}-u{first_device:05d}.jsonl"


def land_checkpoint(out_dir: Path, model_key: str, device_id: int,
                    payload: bytes) -> None:
    """Commit one device checkpoint: a temp write renamed into
    place, so the checkpoint path never holds a torn file.  The local
    pool's :class:`FileSink` and the socket coordinator both land
    checkpoints here."""
    path = _ckpt_path(out_dir, model_key, device_id)
    tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
    tmp.write_bytes(payload)
    faults.hit("ckpt.before_replace")
    os.replace(tmp, path)
    faults.hit("ckpt.after_replace")


def _unlink_quiet(path: Path) -> None:
    try:
        path.unlink()
    except FileNotFoundError:
        pass


def _sweep_stale_tmp(out_dir: Path) -> int:
    """Delete ``*.tmp<pid>`` litter a killed writer left behind.

    Every atomic write (checkpoints, the coordinator's merge, summary
    and status writes, profile dumps) stages through a per-process
    temp file and renames it into place; a kill between write and
    rename strands the temp forever — no later process reuses the
    name (it embeds the dead pid).  Nothing ever reads a ``.tmp``
    file, so sweeping at campaign start (when no writer is active) is
    always safe."""
    count = 0
    for directory in (Path(out_dir), _shards_dir(out_dir),
                      Path(out_dir) / "profiles"):
        if not directory.is_dir():
            continue
        for path in directory.glob("*.tmp*"):
            _unlink_quiet(path)
            count += 1
    return count


def _cleanup_model_shards(out_dir: Path, model_key: str) -> None:
    """Drop a completed model's shard files: once
    ``devices-<model>.jsonl`` is committed, the per-unit record
    streams are redundant and any leftover per-device checkpoint is
    stale by definition (every device has a record)."""
    shards = _shards_dir(out_dir)
    if not shards.is_dir():
        return
    for path in sorted(shards.glob(f"{model_key}-u*.jsonl")):
        _unlink_quiet(path)
    for path in sorted(shards.glob(f"{model_key}-dev*.ckpt")):
        _unlink_quiet(path)


def scan_completed_records(out_dir: Path,
                           model_key: str) -> Dict[int, dict]:
    """Collect completed per-device records from every unit stream,
    whatever unit layout wrote them.  A line torn by a kill mid-append
    fails to parse and is skipped — its device simply reruns from its
    newest checkpoint; duplicate records (a unit resumed under a
    different layout) collapse by device id and are byte-identical by
    the determinism contract."""
    records: Dict[int, dict] = {}
    shards = _shards_dir(out_dir)
    if not shards.is_dir():
        return records
    for path in sorted(shards.glob(f"{model_key}-u*.jsonl")):
        for line in path.read_text().splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            records[record["device"]] = record
    return records


@dataclass
class UnitStats:
    """One work unit's measurements, whichever sink it ran against:
    the runner builds it, the wire carries ``asdict()``, and the
    coordinator reads any transport's copy back with
    :meth:`from_wire`.  Profile and status totals sum
    :meth:`counters`."""

    devices: List[int] = field(default_factory=list)
    t_start: float = 0.0
    t_end: float = 0.0
    worker: Optional[str] = None       # the socket worker, if any
    ckpt_flushes: int = 0
    ckpt_stall_s: float = 0.0
    ckpt_bytes: int = 0
    cohort_replayed: int = 0
    cohort_executed: int = 0
    trace_hits: int = 0
    trace_misses: int = 0
    trace_published: int = 0

    def counters(self) -> Dict[str, float]:
        """The summable fields: everything after ``worker``."""
        return {item.name: getattr(self, item.name)
                for item in fields(self)[4:]}

    def add(self, other: "UnitStats") -> None:
        for name, value in other.counters().items():
            total = getattr(self, name) + value
            setattr(self, name, round(total, 6)
                    if isinstance(total, float) else total)

    @classmethod
    def from_wire(cls, data) -> "UnitStats":
        """Keep the known fields of ``data`` that have the field's
        type and zero the rest: a peer's malformed stats must not
        abort the campaign."""
        data = data if isinstance(data, dict) else {}
        kept = {}
        for item in fields(cls):
            value = data.get(item.name)
            if item.name == "devices":
                good = isinstance(value, list) and \
                    all(type(device) is int for device in value)
            elif item.name == "worker":
                good = isinstance(value, str)
            elif isinstance(item.default, float):
                good = type(value) in (int, float)
            else:
                good = type(value) is int
            if good:
                kept[item.name] = value
        return cls(**kept)


def profiled(call: Callable[[], object]) -> Tuple[object, bytes]:
    """``call()`` under cProfile: its result, and the dump as the
    bytes ``Profile.dump_stats`` would write."""
    import cProfile
    import marshal
    profile = cProfile.Profile()
    result = profile.runcall(call)
    profile.create_stats()
    return result, marshal.dumps(profile.stats)


class FileSink:
    """The local pool's unit sink: the campaign's shard files.  A
    checkpoint lands through :func:`land_checkpoint`; a commit
    appends the record to the unit stream, then drops the
    checkpoint."""

    def __init__(self, out_dir: Path, model_key: str,
                 first_device: int):
        self._out = Path(out_dir)
        self._model_key = model_key
        self._stream_path = _unit_stream_path(self._out, model_key,
                                              first_device)
        _shards_dir(self._out).mkdir(parents=True, exist_ok=True)

    def load_resume(self, device_id: int) -> Optional[bytes]:
        path = _ckpt_path(self._out, self._model_key, device_id)
        return path.read_bytes() if path.exists() else None

    def checkpoint(self, device_id: int, payload: bytes) -> None:
        land_checkpoint(self._out, self._model_key, device_id, payload)

    def commit(self, device_id: int, record: dict) -> None:
        # append: a resumed unit adds only its still-pending devices
        with self._stream_path.open("a") as stream:
            stream.write(record_line(record))
        faults.hit("record.after_append")
        _unlink_quiet(_ckpt_path(self._out, self._model_key, device_id))

    def finish(self, stats: UnitStats) -> None:
        pass                 # run_unit returns the stats itself


def run_unit(config_dict: dict, model_key: str,
             device_ids: List[int], sink: FileSink,
             profile_dir: Optional[str] = None) -> dict:
    """Pool entry point: run (or resume) one unit into ``sink``.
    Returns ``{"records": {device_id: record}, "stats":
    asdict(UnitStats)}``; with ``profile_dir`` the unit's cProfile dump
    lands there."""
    config = FleetConfig(**{**config_dict,
                            "models": tuple(config_dict["models"])})
    run = partial(_run_unit, config, model_key, device_ids, sink)
    if profile_dir is None:
        records, stats = run()
    else:
        (records, stats), dump = profiled(run)
        _atomic_write(Path(profile_dir)
                      / f"{model_key}-u{device_ids[0]:05d}.prof", dump)
    return {"records": records, "stats": asdict(stats)}


def _run_unit(config: FleetConfig, model_key: str,
              device_ids: List[int],
              sink) -> Tuple[Dict[int, dict], UnitStats]:
    """The one unit runner, for pool and socket workers alike: run the
    unit's devices in cohort lockstep over the trace tier, driving
    ``sink`` through ``load_resume(device)`` (checkpoint bytes or
    ``None``), ``checkpoint(device, payload)`` (on the writer thread),
    ``commit(device, record)`` and ``finish(stats)``; returns the
    records and the stats."""
    t_start = time.time()
    config_key = config.key()
    model = MODELS_BY_KEY[model_key]
    specs = [device_spec(config.seed, device_id, config.rogue_fraction,
                         config.homogeneous) for device_id in device_ids]
    cohort_stats = CohortStats()
    records: Dict[int, dict] = {}

    def submit_checkpoint(device_id: int, sim_ms: int,
                          snapshot: dict) -> None:
        # serialize here (this thread), flush over there (the
        # writer thread) — the double-buffer hand-off
        writer.submit(device_id,
                      checkpoint_bytes(config_key, device_id,
                                       snapshot))

    # commit order matters: drain pending checkpoint flushes, then
    # commit the record — a kill between any two steps leaves a
    # resumable state, and frames reach the coordinator in order
    with AsyncCheckpointWriter(sink.checkpoint) as writer:
        resumes = {device_id: parse_checkpoint(blob, config_key,
                                               device_id)
                   for device_id in device_ids
                   if (blob := sink.load_resume(device_id)) is not None}
        runs = simulate_cohort(
            specs, model, sim_ms=config.sim_ms,
            checkpoint_every_ms=config.checkpoint_ms,
            on_checkpoint=submit_checkpoint, resumes=resumes,
            stats=cohort_stats, tier=trace_tier())
        writer.drain()
        # records commit only once the whole unit finished (the
        # devices advance interleaved); a kill mid-unit resumes every
        # member from its newest checkpoint
        for device_id in device_ids:
            records[device_id] = device_record(runs[device_id],
                                               model_key)
            sink.commit(device_id, records[device_id])
    stats = UnitStats(
        devices=list(device_ids), t_start=t_start, t_end=time.time(),
        ckpt_flushes=writer.flushes,
        ckpt_stall_s=round(writer.stall_s, 6),
        ckpt_bytes=writer.bytes_written,
        cohort_replayed=cohort_stats.replayed,
        cohort_executed=cohort_stats.executed,
        trace_hits=cohort_stats.trace_hits,
        trace_misses=cohort_stats.trace_misses,
        trace_published=cohort_stats.trace_published)
    sink.finish(stats)
    return records, stats


# -- transports -------------------------------------------------------------
#
# The coordinator's scheduling policy (chunk into units, submit all,
# fold in completion order) is transport-agnostic; what varies is
# *where* a unit runs.  A transport owns that: it receives each
# model's planned units and yields ``(devices, t_submit, result)``
# rows in completion order, where ``result`` has exactly the shape
# :func:`run_unit` returns.  ``LocalTransport`` is the in-process
# worker pool this module always had; ``SocketTransport``
# (:mod:`repro.fleet.net.coordinator`) serves the same queue to
# remote ``repro fleet worker`` processes over TCP.  Byte-identity of
# the campaign output across transports is pinned by tests and CI.

class LocalTransport:
    """In-process pool transport: units run via :mod:`repro.pool`
    workers on this host, each into its own :class:`FileSink`."""

    kind = "local"

    def __init__(self, jobs: int = 1):
        self.jobs = jobs
        self._campaign: Optional[dict] = None

    def open_campaign(self, campaign: dict) -> None:
        """``campaign`` carries the shared context: ``config_dict``,
        ``config_key``, ``out_dir``, ``profile_dir`` and the ``say``
        reporter."""
        self._campaign = campaign

    def run_units(self, model_key: str, units: List[List[int]]):
        campaign = self._campaign
        with worker_pool(self.jobs) as pool:
            submitted = {}
            for unit in units:
                t_submit = time.time()
                sink = FileSink(Path(campaign["out_dir"]), model_key,
                                unit[0])
                future = pool.submit(
                    run_unit, campaign["config_dict"], model_key,
                    unit, sink, campaign["profile_dir"])
                submitted[future] = (unit, t_submit)
            # stream the fold: consume results the moment any worker
            # finishes a unit, in completion order
            for future in completed_futures(submitted):
                unit, t_submit = submitted[future]
                yield unit, t_submit, future.result()

    def worker_stats(self) -> dict:
        return {}

    def close(self) -> None:
        pass


def run_campaign(config: FleetConfig, out_dir: Path, jobs: int = 1,
                 report: Optional[Callable[[str], None]] = None,
                 profile_dir: Optional[Path] = None,
                 cohort: bool = False,
                 transport=None) -> dict:
    """Run (or resume) a whole campaign; returns the summary dict.

    ``jobs``, the transport and profiling are execution details — they
    never change the results and are free to differ between the
    original run and a resume.  Every unit runs in cohort lockstep;
    ``cohort`` is accepted for old callers (the benchmark harness
    passes it) and ignored.  ``transport`` defaults to an in-process
    :class:`LocalTransport` pool of ``jobs`` workers; pass a
    :class:`repro.fleet.net.coordinator.SocketTransport` to serve the
    same unit queue to remote ``repro fleet worker`` processes (the
    ``--listen`` path).  ``jobs`` still sizes the work units either
    way.

    Layout under ``out_dir``::

        campaign.json          identity stamp (config + key)
        shards/<model>-uNNNNN.jsonl    unit record streams (append-only)
        shards/<model>-devNNNNN.ckpt   in-progress device checkpoints
        devices-<model>.jsonl  merged per-device records (atomic)
        summary.json           fleet summary (atomic, canonical JSON)
        profiles/              per-unit cProfile dumps and
                               coordinator.json (with ``profile_dir``)

    The shard files are transient: unit streams and checkpoints exist
    only while their model is in flight, and are removed once its
    ``devices-<model>.jsonl`` merge commits.  Stale temp files
    (``*.tmp<pid>``) from killed writers are swept at campaign start.
    """
    say = report if report is not None else (lambda _line: None)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    stamp_path = out_dir / "campaign.json"
    stamp = {"config": asdict(config), "config_key": config.key(),
             "state_version": STATE_VERSION}
    if stamp_path.exists():
        previous = json.loads(stamp_path.read_text())
        if previous.get("config_key") != config.key():
            raise ReproError(
                f"{out_dir} holds a different campaign "
                f"(key {previous.get('config_key')}, this command is "
                f"{config.key()}) — use a fresh --out")
        say(f"resuming campaign in {out_dir}")
    else:
        _atomic_write(stamp_path,
                      json.dumps(stamp, indent=2,
                                 sort_keys=True).encode())
    swept = _sweep_stale_tmp(out_dir)
    if swept:
        say(f"swept {swept} stale temp file(s)")

    config_dict = asdict(config)
    fold = SummaryFold()
    coordinator_profile: Optional[dict] = None
    if profile_dir is not None:
        profile_dir = Path(profile_dir)
        profile_dir.mkdir(parents=True, exist_ok=True)
        coordinator_profile = {"jobs": jobs, "models": {}}

    if transport is None:
        transport = LocalTransport(jobs)
    transport.open_campaign({
        "config_dict": config_dict,
        "config_key": config.key(),
        "out_dir": str(out_dir),
        "profile_dir": str(profile_dir)
        if profile_dir is not None else None,
        "say": say,
    })
    if coordinator_profile is not None:
        coordinator_profile["transport"] = transport.kind

    try:
        _run_models(config, out_dir, jobs, transport, fold,
                    coordinator_profile, say)
    finally:
        transport.close()

    # only result-determining parameters go into the summary: the
    # worker count, unit layout, and checkpoint cadence are execution
    # details, and the summary must be byte-identical across them
    # (campaign.json keeps the full execution config)
    summary = fold.summary(
        {"devices": config.devices, "hours": config.hours,
         "models": list(config.models), "seed": config.seed,
         "rogue_fraction": config.rogue_fraction,
         "homogeneous": config.homogeneous})
    faults.hit("summary.before_replace")
    _atomic_write(out_dir / "summary.json",
                  (json.dumps(summary, indent=2, sort_keys=True)
                   + "\n").encode())
    if coordinator_profile is not None:
        net = transport.worker_stats()
        if net:
            coordinator_profile["workers"] = net["workers"]
            coordinator_profile["requeues"] = net.get("requeues", 0)
            coordinator_profile["worker_totals"] = worker_summary(
                net["workers"])
        _atomic_write(profile_dir / "coordinator.json",
                      (json.dumps(coordinator_profile, indent=2,
                                  sort_keys=True) + "\n").encode())
    return summary


def _run_models(config: FleetConfig, out_dir: Path, jobs: int,
                transport, fold: SummaryFold,
                coordinator_profile: Optional[dict],
                say: Callable[[str], None]) -> None:
    """Per-model unit planning, dispatch through the transport, and
    incremental folding — the coordinator's inner loop."""
    for model_key in config.models:
        merged_path = out_dir / f"devices-{model_key}.jsonl"
        if merged_path.exists():
            records = [json.loads(line) for line
                       in merged_path.read_text().splitlines()]
            fold.ingest(model_key, records)
            # the merge may have committed right before a kill, with
            # the shard cleanup still pending — finish it now
            _cleanup_model_shards(out_dir, model_key)
            if coordinator_profile is not None:
                coordinator_profile["models"][model_key] = {
                    "resumed": True,
                    "units_run": 0,
                    "devices_resumed": len(records),
                }
            say(f"{model_key}: already complete "
                f"({len(records)} devices)")
            continue

        t_model = time.time()
        for record in scan_completed_records(out_dir,
                                             model_key).values():
            fold.add(model_key, record)
        done = fold.device_ids(model_key)
        # a worker killed after flushing a device's record but before
        # unlinking its checkpoint leaves a stale .ckpt; the record
        # wins, so drop the orphan here rather than carrying it forever
        for device_id in done:
            _unlink_quiet(_ckpt_path(out_dir, model_key, device_id))
        pending = [device_id for device_id in range(config.devices)
                   if device_id not in done]
        units = plan_units(config, MODELS_BY_KEY[model_key], pending,
                           jobs)
        say(f"{model_key}: {config.devices} devices "
            f"({len(pending)} pending) over {len(units)} work "
            f"unit(s), jobs={jobs}")

        unit_rows: List[dict] = []
        totals = UnitStats()
        try:
            # stream the fold: consume results the moment any worker
            # (pool process or socket peer) finishes a unit, in
            # completion order
            for unit, t_submit, result in transport.run_units(
                    model_key, units):
                t_fold = time.time()
                for record in result["records"].values():
                    fold.add(model_key, record)
                stats = UnitStats.from_wire(result["stats"])
                totals.add(stats)
                unit_rows.append({
                    "devices": stats.devices,
                    "queue_wait_s": round(
                        max(0.0, stats.t_start - t_submit), 6),
                    "run_s": round(stats.t_end - stats.t_start, 6),
                    "fold_s": round(time.time() - t_fold, 6),
                    "worker": stats.worker,
                    **stats.counters(),
                })
                say(f"{model_key}: "
                    f"{fold.count(model_key)}/{config.devices} "
                    "devices")
        except Exception as error:
            # a killed worker (BrokenProcessPool), a dropped socket,
            # or a ReproError — completed records and checkpoints are
            # on disk, the same command resumes
            raise ReproError(
                f"fleet worker failed under model {model_key!r}: "
                f"{error} — re-run the same command to resume "
                "from the newest checkpoints") from error

        records = fold.records(model_key)
        _atomic_write(merged_path,
                      "".join(record_line(r) for r in records)
                      .encode())
        faults.hit("merge.after_replace")
        # the merged file is now the single source of truth for this
        # model — the unit streams and any checkpoints are garbage
        _cleanup_model_shards(out_dir, model_key)
        if coordinator_profile is not None:
            unit_rows.sort(key=lambda row: row["devices"][:1])
            coordinator_profile["models"][model_key] = {
                "resumed": bool(done),
                "devices_resumed": len(done),
                "units_run": len(unit_rows),
                "wall_s": round(time.time() - t_model, 6),
                "units": unit_rows,
                "queue_wait_s": round(sum(
                    row["queue_wait_s"] for row in unit_rows), 6),
                **totals.counters(),
            }
