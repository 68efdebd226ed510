"""Versioned device snapshots with delta-compressed memory.

A snapshot captures everything dynamic about one simulated device at a
dispatch boundary — CPU registers and counters, memory, MPU registers
(lock state included), the fault log, OS service state, and the
scheduler's clock/queue/statistics.  Everything *static* (firmware
image, schedules, restart policy) is rebuilt from the deterministic
:class:`~repro.fleet.population.DeviceSpec` instead of being
serialized, which keeps snapshots immune to toolchain refactors.

Memory is stored as a **delta against the per-firmware base image**
(the pristine post-load prototype every clone starts from, see
:class:`~repro.kernel.machine.AmuletMachine`): only the 256-byte pages
``Memory.delta_since`` finds changed are serialized, together with
the base image's sha-256, and a restore writes them back with
``Memory.apply_pages``.  A duty-cycled sensor device dirties a few
dozen pages of stack, globals, and OS state out of 256 — checkpoints
drop from ~70 KB to a few KB, which matters when a fleet shard writes
one after every device segment.  Restore verifies the digest, so a
checkpoint can never be silently applied on top of the wrong (or a
rebuilt-and-changed) firmware image.

Snapshots are also what cohort lockstep shares: a cohort trace is a
leader's post-segment snapshot, which a follower adopts with
:func:`restore_device` (see :mod:`repro.fleet.cohort`).  Snapshots
that arrive from outside the process — resume files, wire
checkpoints, trace-tier entries — pass :func:`validate_snapshot`
first, which checks the type and range of every field
:func:`restore_device` reads.

The format is versioned so stale checkpoints fail loudly instead of
silently resuming wrong.
"""

from __future__ import annotations

import io
import pickle

from repro.errors import KernelError, ReproError
from repro.kernel.events import EventType
from repro.kernel.fault import FaultOrigin
from repro.kernel.machine import AmuletMachine
from repro.kernel.scheduler import Scheduler
from repro.safeload import safe_loads

#: bump whenever any layer's ``state_dict`` layout changes
STATE_VERSION = 2


def snapshot_device(machine: AmuletMachine, scheduler: Scheduler,
                    sim_ms: int) -> dict:
    """Snapshot a device paused at ``sim_ms`` (a dispatch boundary)."""
    state = machine.state_dict()
    state["memory"] = {
        "base_sha": machine.base_sha,
        "delta": machine.cpu.memory.delta_since(machine.base_image),
    }
    return {
        "version": STATE_VERSION,
        "sim_ms": sim_ms,
        "machine": state,
        "scheduler": scheduler.state_dict(),
    }


def restore_device(machine: AmuletMachine, scheduler: Scheduler,
                   snapshot: dict) -> int:
    """Load ``snapshot`` into a machine + scheduler pair built from the
    same spec; returns the simulated time the device was paused at.

    The snapshot is not mutated, and nothing in it is aliased by the
    device, so one snapshot may be restored into many devices.
    Delta-form memory is the base image plus ``Memory.apply_pages``
    of the delta, after verifying the recorded base digest; a full
    ``{"bytes": ...}`` memory state (tools, tests) is accepted as-is.
    """
    version = snapshot.get("version")
    if version != STATE_VERSION:
        raise KernelError(
            f"snapshot version {version!r} != supported {STATE_VERSION}"
            " — discard the checkpoint and rerun")
    state = snapshot["machine"]
    delta = state["memory"].get("delta")
    if delta is not None:
        base_sha = state["memory"]["base_sha"]
        if base_sha != machine.base_sha:
            raise KernelError(
                "snapshot was taken against a different firmware image "
                f"(snapshot base {base_sha[:12]}…, machine "
                f"base {machine.base_sha[:12]}…) — discard the "
                "checkpoint and rerun")
        state = {**state, "memory": {"bytes": machine.base_image}}
    machine.load_state(state)
    if delta:
        machine.cpu.memory.apply_pages(delta)
    scheduler.load_state(snapshot["scheduler"])
    return snapshot["sim_ms"]


# -- validation of snapshots from outside the process ----------------------

def _count(value) -> bool:
    return type(value) is int and value >= 0


def _int(value) -> bool:
    return type(value) is int


def _of(kind):
    return lambda value: type(value) is kind


def _optional(check):
    return lambda value: value is None or check(value)


def _list(check, size=None):
    return lambda value: type(value) is list and \
        (size is None or len(value) == size) and \
        all(check(item) for item in value)


def _dict(key_check, value_check):
    return lambda value: type(value) is dict and all(
        key_check(key) and value_check(item)
        for key, item in value.items())


def _fields(**checks):
    """A dict holding at least these keys, each passing its check."""
    return lambda value: type(value) is dict and all(
        name in value and check(value[name])
        for name, check in checks.items())


def _tuple(*checks):
    """A list of exactly these items, each passing its check."""
    return lambda value: type(value) is list and \
        len(value) == len(checks) and \
        all(check(item) for check, item in zip(checks, value))


def _within_image(delta) -> bool:
    return type(delta) is dict and all(
        _count(offset) and type(page) is bytes
        and offset + len(page) <= 0x10000
        for offset, page in delta.items())


_STR, _BYTES, _BOOL = _of(str), _of(bytes), _of(bool)
_ORIGINS = frozenset(origin.value for origin in FaultOrigin)
_EVENT_TYPES = frozenset(kind.value for kind in EventType)
_MPU_COMMON = dict(ctl0=_int, segb1=_int, segb2=_int, sam=_int,
                   violation_address=_optional(_int),
                   violation_kind=_optional(_STR))

_SNAPSHOT = _fields(
    version=lambda value: value == STATE_VERSION,
    sim_ms=_count,
    machine=_fields(
        cpu=_fields(regs=_list(lambda reg: _count(reg) and reg <= 0xFFFF,
                               size=16),
                    cycles=_count, instructions=_count, halted=_BOOL),
        memory=lambda value: _fields(base_sha=_STR,
                                     delta=_within_image)(value)
        or _fields(bytes=lambda image: type(image) is bytes
                   and len(image) == 0x10000)(value),
        fault_log=_fields(records=_list(_fields(
            app=_optional(_STR),
            origin=lambda value: value in _ORIGINS,
            pc=_int, address=_int, cycle=_count, detail=_STR))),
        services=_fields(
            display_digits=_list(_int), display_texts=_list(_STR),
            log_words=_list(_int), log_buffers=_list(_BYTES),
            storage=_dict(_int, _BYTES), vibrations=_count,
            app_timers=_list(_tuple(_STR, _int, _int)),
            calls=_dict(_int, _count),
            env=_fields(state=_int, time_ms=_count,
                        battery_percent=_int, base_heart_rate=_int,
                        base_temperature=_int, base_light=_int,
                        steps=_int)),
        app_state=_dict(_STR, _tuple(_count, _count, _count, _BOOL))),
    scheduler=_fields(
        now_ms=_count,
        queue=_fields(seq=_count, events=_list(_tuple(
            _int, _int, _tuple(_int, _STR, _STR,
                               lambda value: value in _EVENT_TYPES,
                               _list(_int))))),
        suspended_until=_dict(_STR, _int),
        stats=_fields(
            events_delivered=_count, events_dropped=_count,
            faults=_count, restarts=_count,
            per_app_cycles=_dict(_STR, _count),
            per_app_events=_dict(_STR, _count),
            per_app_faults=_dict(_STR, _count),
            per_app_restarts=_dict(_STR, _count))))

_MPU = (_fields(ctl1=_int, **_MPU_COMMON),
        _fields(config_unlocked=_BOOL, **_MPU_COMMON))


def validate_snapshot(snapshot) -> None:
    """Raise ``ValueError`` unless ``snapshot`` has the shape
    :func:`snapshot_device` produces: every field :func:`restore_device`
    reads present, of its type and in its range (a 16-wide register
    file of 16-bit values, memory pages inside the 64 KB image, fault
    origins and event types that exist, non-negative counters).
    Whether it fits a particular device — firmware digest, app set,
    MPU kind — is :func:`restore_device`'s check."""
    if not _SNAPSHOT(snapshot):
        raise ValueError(
            f"not a version-{STATE_VERSION} device snapshot")
    machine = snapshot["machine"]
    if "mpu" in machine and \
            not any(check(machine["mpu"]) for check in _MPU):
        raise ValueError("snapshot MPU state has the wrong shape")


# -- on-disk checkpoint payloads (one file per in-progress device) ---------

def canonical_bytes(value) -> bytes:
    """``value`` (a tree of primitives, never self-referential) as
    pickle bytes that depend only on its contents: equal trees give
    equal bytes.  Pickle's memo is keyed on object identity, so a
    device restored from a warm trace tier (whose app-name strings
    are equal to, but not the same objects as, a cold run's) would
    otherwise pickle differently; a memo-free pickler writes every
    value out in full."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(value)
    return buffer.getvalue()


def checkpoint_bytes(config_key: str, device_id: int,
                     snapshot: dict) -> bytes:
    """Serialize one device's checkpoint for the executor's async
    writer — stamped with the campaign key and device id so a resume
    can never apply it to the wrong campaign or device — in the
    :func:`canonical_bytes` encoding."""
    return canonical_bytes({"config_key": config_key,
                            "device": device_id, "snapshot": snapshot})


def parse_checkpoint(data: bytes, config_key: str,
                     device_id: int) -> dict:
    """Validate and unwrap a checkpoint written by
    :func:`checkpoint_bytes`; returns the snapshot dict.  A local file
    is always complete (the writer renames it into place atomically),
    so any mismatch here is a wrong-campaign error, not corruption.

    Checkpoints also cross the fleet's socket blob channel, where the
    sender may be anyone who can reach the port — so the payload is
    deserialized with :func:`~repro.safeload.safe_loads`: a pickle
    that references any global (the arbitrary-code-execution vector)
    raises instead of resolving it — and the snapshot must pass
    :func:`validate_snapshot`.  Checkpoint state is primitives all
    the way down, so legitimate payloads are unaffected."""
    saved = safe_loads(data)
    if not isinstance(saved, dict):
        raise ReproError("checkpoint payload is not a mapping")
    if saved.get("config_key") != config_key:
        raise ReproError(
            "checkpoint belongs to a different campaign — use a "
            "fresh --out")
    if saved.get("device") != device_id:
        raise ReproError(
            f"checkpoint is for device {saved.get('device')}, "
            f"expected {device_id}")
    try:
        validate_snapshot(saved.get("snapshot"))
    except ValueError as exc:
        raise ReproError(f"checkpoint for device {device_id}: {exc}") \
            from None
    return saved["snapshot"]
