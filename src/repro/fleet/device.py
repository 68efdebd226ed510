"""Simulate fleet devices, checkpoint segment by segment.

The driver advances simulated time in fixed segments: seed the
periodic sources over ``[t, t+K)``, drain every event before the
boundary, snapshot, repeat.  Because windowed seeding and boundary-
bounded stepping deliver exactly the event sequence a single
full-horizon run would (see ``PeriodicSource.events_until`` and
``Scheduler.step``), a run resumed from any checkpoint is
byte-identical to an uninterrupted one.

Fleet campaigns run every work unit through :func:`simulate_cohort`.
:func:`simulate_device` is the plain per-device loop it must agree
with: the reference campaign tests compare against, and the entry
point of single-device studies (``examples/wearable_week.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.aft.cache import build_firmware
from repro.aft.models import IsolationModel
from repro.aft.phases import AppSource
from repro.apps.catalog import load_app, load_suite
from repro.errors import ReproError
from repro.fleet.cohort import CohortFollower, CohortRecorder, \
    CohortStats, run_segment, state_digest
from repro.fleet.population import ANALYTICS_APP, DeviceSpec, \
    ROGUE_APP, ROGUE_HANDLER, ROGUE_SOURCE
from repro.fleet.snapshot import restore_device, snapshot_device
from repro.kernel.machine import AmuletMachine
from repro.kernel.scheduler import AppSchedule, RestartPolicy, Scheduler
from repro.kernel.services import SensorEnvironment

DEFAULT_CHECKPOINT_MS = 10 * 60 * 1000      # 10 simulated minutes

#: execution-cache strategies a fleet device can run under.  All three
#: produce byte-identical device state (the property tests pin this) —
#: the choice only affects wall-clock speed:
#:
#: ``shared``   translated blocks are published to the process-wide
#:              content-addressed store, so sibling devices running the
#:              same firmware skip translation entirely (default)
#: ``private``  per-device block cache, no cross-device sharing
#: ``step``     no block translation at all — every instruction runs
#:              its ``Cpu._op_*`` handler (differential-testing oracle)
CACHE_MODES = ("shared", "private", "step")


def _machine_cache_kwargs(cache_mode: str) -> dict:
    """Map a fleet-level cache mode onto AmuletMachine's knobs."""
    try:
        return {
            "shared": {"step_only": False, "shared_cache": True},
            "private": {"step_only": False, "shared_cache": False},
            "step": {"step_only": True, "shared_cache": False},
        }[cache_mode]
    except KeyError:
        raise ReproError(
            f"unknown cache mode {cache_mode!r} "
            f"(choose from {', '.join(CACHE_MODES)})") from None


@dataclass
class DeviceRun:
    """A finished (or resumed-and-finished) device simulation."""

    spec: DeviceSpec
    machine: AmuletMachine
    scheduler: Scheduler
    sim_ms: int
    #: False when the spec asked for a rogue but the model rejected it
    #: at build time (Feature-Limited refuses pointer-using apps)
    rogue_built: bool


def build_device_apps(spec: DeviceSpec, model: IsolationModel
                      ) -> tuple:
    """``(apps, rogue_built)`` for this spec under this model.

    Every device carries its catalog subset plus the history-compaction
    workload (iterative quicksort, so it builds under every model).
    The rogue app dereferences raw pointers, which the Feature-Limited
    language subset forbids — AmuletC would reject it at build time, so
    the device ships without it (and the telemetry records the
    rejection instead of a runtime fault)."""
    apps: List[AppSource] = load_suite(spec.apps)
    apps.append(load_app(ANALYTICS_APP))
    rogue_built = (spec.rogue
                   and model is not IsolationModel.FEATURE_LIMITED)
    if rogue_built:
        apps.append(AppSource(ROGUE_APP, ROGUE_SOURCE,
                              handlers=[ROGUE_HANDLER]))
    return apps, rogue_built


def make_device(spec: DeviceSpec, model: IsolationModel,
                cache_mode: str = "shared") -> tuple:
    """Build ``(machine, scheduler, rogue_built)`` from a spec —
    deterministic, so any worker can reconstruct any device."""
    apps, rogue_built = build_device_apps(spec, model)
    firmware = build_firmware(model, apps)
    machine = AmuletMachine(firmware,
                            env=SensorEnvironment(spec.env_seed),
                            **_machine_cache_kwargs(cache_mode))
    scheduler = Scheduler(machine, policy=RestartPolicy.RESTART_AFTER,
                          restart_cooldown_ms=spec.restart_cooldown_ms)
    schedules: Dict[str, AppSchedule] = {}
    for source_spec in spec.sources:
        if source_spec.app == ROGUE_APP and not rogue_built:
            continue
        schedule = schedules.get(source_spec.app)
        if schedule is None:
            schedule = AppSchedule(source_spec.app)
            schedules[source_spec.app] = schedule
            scheduler.add_app(schedule)
        schedule.sources.append(source_spec.to_source())
    return machine, scheduler, rogue_built


def simulate_device(spec: DeviceSpec, model: IsolationModel,
                    sim_ms: int,
                    checkpoint_every_ms: int = DEFAULT_CHECKPOINT_MS,
                    on_checkpoint: Optional[Callable[[int, dict],
                                                     None]] = None,
                    resume: Optional[dict] = None,
                    cache_mode: str = "shared") -> DeviceRun:
    """Run (or resume) one device for ``sim_ms`` of simulated time.

    ``on_checkpoint(sim_ms, snapshot)`` fires at every interior segment
    boundary; ``resume`` takes a snapshot produced by such a callback
    (or by :func:`repro.fleet.snapshot.snapshot_device`).
    ``cache_mode`` (see :data:`CACHE_MODES`) trades wall-clock speed
    only — results are identical across modes.  No cohort, no trace
    tier: this is the per-device reference :func:`simulate_cohort`
    must reproduce."""
    machine, scheduler, rogue_built = make_device(
        spec, model, cache_mode=cache_mode)
    start_ms = 0
    if resume is not None:
        start_ms = restore_device(machine, scheduler, resume)

    t = start_ms
    while t < sim_ms:
        end = min(t + checkpoint_every_ms, sim_ms)
        run_segment(scheduler, t, end)
        t = end
        if on_checkpoint is not None and t < sim_ms:
            on_checkpoint(t, snapshot_device(machine, scheduler, t))

    return DeviceRun(spec=spec, machine=machine, scheduler=scheduler,
                     sim_ms=sim_ms, rogue_built=rogue_built)


def simulate_cohort(specs: Sequence[DeviceSpec], model: IsolationModel,
                    sim_ms: int,
                    checkpoint_every_ms: int = DEFAULT_CHECKPOINT_MS,
                    on_checkpoint: Optional[Callable[[int, int, dict],
                                                     None]] = None,
                    resumes: Optional[Dict[int, dict]] = None,
                    stats: Optional[CohortStats] = None,
                    tier=None) -> Dict[int, DeviceRun]:
    """Run (or resume) several devices together, lockstep where their
    firmware and state coincide (see :mod:`repro.fleet.cohort`) — the
    one execution path of every fleet work unit.

    Devices advance segment by segment, interleaved: all devices at
    the earliest pending segment run it before anyone moves on.  One
    rule per (device, segment), checked by one :func:`state_digest`:
    a memo under that key — recorded earlier this round or found in
    the persistent ``tier`` (a
    :class:`repro.fleet.tracetier.TraceTier`) — is adopted;
    otherwise the device executes the segment and its post-segment
    snapshot becomes the memo, published to the tier when one is
    attached so a rerun, a sibling unit, or a remote worker adopts it
    next time.  A memo is usable only by devices at its segment, so
    the round's memos die with the round.

    ``on_checkpoint(device_id, sim_ms, snapshot)`` fires at every
    interior segment boundary (note the extra leading ``device_id``
    compared to :func:`simulate_device`'s callback); ``resumes`` maps
    device id to a snapshot.  Results are byte-identical to running
    :func:`simulate_device` per device — with the tier cold, warm,
    or absent — the tests pin this.
    """
    resumes = resumes or {}
    stats = stats if stats is not None else CohortStats()

    devices: Dict[int, tuple] = {}
    position: Dict[int, int] = {}
    #: each device's snapshot at its position: the next segment's
    #: pre-state
    current: Dict[int, dict] = {}
    for spec in specs:
        machine, scheduler, rogue_built = make_device(spec, model)
        start_ms = 0
        resume = resumes.get(spec.device_id)
        if resume is not None:
            start_ms = restore_device(machine, scheduler, resume)
        devices[spec.device_id] = (spec, machine, scheduler,
                                   rogue_built)
        position[spec.device_id] = start_ms
        current[spec.device_id] = snapshot_device(machine, scheduler,
                                                  start_ms)

    order = [spec.device_id for spec in specs]
    while True:
        pending = [p for p in position.values() if p < sim_ms]
        if not pending:
            break
        t = min(pending)
        end = min(t + checkpoint_every_ms, sim_ms)
        #: memo key -> post-segment snapshot, for segment [t, end)
        memos: Dict[str, dict] = {}
        for device_id in order:
            if position[device_id] != t:
                continue
            spec, machine, scheduler, _rogue = devices[device_id]
            pre = current[device_id]
            key = state_digest(model, spec, t, end, pre)
            memo = memos.get(key)
            if memo is None and tier is not None:
                memo = tier.load(key)
                if memo is not None:
                    stats.trace_hits += 1
                else:
                    stats.trace_misses += 1
            adopted = memo is not None and CohortFollower(
                machine, scheduler, stats)(memo, pre)
            if adopted:
                post = memo    # equals a fresh snapshot of the device
            else:
                CohortRecorder(scheduler, stats)(t, end)
                post = snapshot_device(machine, scheduler, end)
                # persist, so the next unit/process/worker adopts it
                if tier is not None and tier.publish(key, post):
                    stats.trace_published += 1
            memos[key] = post
            current[device_id] = post
            position[device_id] = end
            if on_checkpoint is not None and end < sim_ms:
                on_checkpoint(device_id, end, post)

    return {
        device_id: DeviceRun(
            spec=entry[0], machine=entry[1], scheduler=entry[2],
            sim_ms=sim_ms, rogue_built=entry[3])
        for device_id, entry in devices.items()}
