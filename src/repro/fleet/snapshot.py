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
:class:`~repro.kernel.machine.AmuletMachine`): only 256-byte pages
that differ from the base are serialized, together with the base
image's sha-256.  A duty-cycled sensor device dirties a few dozen
pages of stack, globals, and OS state out of 256 — checkpoints drop
from ~70 KB to a few KB, which matters when a fleet shard writes one
after every device segment.  Restore verifies the digest, so a
checkpoint can never be silently applied on top of the wrong (or a
rebuilt-and-changed) firmware image.

The format is versioned so stale checkpoints fail loudly instead of
silently resuming wrong.
"""

from __future__ import annotations

import io
import pickle
from typing import Dict

from repro.errors import KernelError, ReproError
from repro.kernel.machine import AmuletMachine
from repro.kernel.scheduler import Scheduler
from repro.msp430.memory import page_delta
from repro.safeload import safe_loads

#: bump whenever any layer's ``state_dict`` layout changes
STATE_VERSION = 2

#: delta granularity; 64 KB of address space = 256 pages
DELTA_PAGE = 256


def memory_delta(image: bytes, base: bytes) -> Dict[int, bytes]:
    """``{page offset: page bytes}`` for every :data:`DELTA_PAGE`-sized
    page of ``image`` that differs from ``base``.  Delegates to the
    hierarchical :func:`repro.msp430.memory.page_delta` scan (chunk
    compare first, pages only inside changed chunks) — same output,
    ~8x cheaper on nearly-identical images."""
    return page_delta(image, base, DELTA_PAGE)


def apply_delta(base: bytes, delta: Dict[int, bytes]) -> bytes:
    """Reconstruct a full image from ``base`` plus changed pages."""
    image = bytearray(base)
    for offset, chunk in delta.items():
        image[offset:offset + len(chunk)] = chunk
    return bytes(image)


def snapshot_device(machine: AmuletMachine, scheduler: Scheduler,
                    sim_ms: int) -> dict:
    """Snapshot a device paused at ``sim_ms`` (a dispatch boundary)."""
    state = machine.state_dict()
    memory = state["memory"]
    state["memory"] = {
        "base_sha": machine.base_sha,
        "delta": memory_delta(memory["bytes"], machine.base_image),
    }
    return {
        "version": STATE_VERSION,
        "sim_ms": sim_ms,
        "machine": state,
        "scheduler": scheduler.state_dict(),
    }


def restore_device(machine: AmuletMachine, scheduler: Scheduler,
                   snapshot: dict) -> int:
    """Load ``snapshot`` into a freshly built machine + scheduler pair;
    returns the simulated time the device was paused at.

    The snapshot is not mutated.  Delta-form memory is expanded against
    this machine's base image after verifying the recorded base digest;
    a full ``{"bytes": ...}`` memory state (tools, tests) is accepted
    as-is.
    """
    version = snapshot.get("version")
    if version != STATE_VERSION:
        raise KernelError(
            f"snapshot version {version!r} != supported {STATE_VERSION}"
            " — discard the checkpoint and rerun")
    state = snapshot["machine"]
    memory = state["memory"]
    if "delta" in memory:
        if memory["base_sha"] != machine.base_sha:
            raise KernelError(
                "snapshot was taken against a different firmware image "
                f"(snapshot base {memory['base_sha'][:12]}…, machine "
                f"base {machine.base_sha[:12]}…) — discard the "
                "checkpoint and rerun")
        state = dict(state)
        state["memory"] = {
            "bytes": apply_delta(machine.base_image, memory["delta"]),
        }
    machine.load_state(state)
    scheduler.load_state(snapshot["scheduler"])
    return snapshot["sim_ms"]


# -- on-disk checkpoint payloads (one file per in-progress device) ---------

def checkpoint_bytes(config_key: str, device_id: int,
                     snapshot: dict) -> bytes:
    """Serialize one device's checkpoint for the executor's async
    writer — stamped with the campaign key and device id so a resume
    can never apply it to the wrong campaign or device.

    The encoding is canonical: equal snapshots give equal bytes.
    Pickle's memo is keyed on object identity, so a device replayed
    from a warm trace tier (whose app-name strings are equal to, but
    not the same objects as, a cold run's) would otherwise pickle
    differently; a memo-free pickler writes every value out in full.
    Snapshots are trees of primitives, never self-referential."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump({"config_key": config_key, "device": device_id,
                  "snapshot": snapshot})
    return buffer.getvalue()


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
    raises instead of resolving it.  Checkpoint state is primitives
    all the way down, so legitimate payloads are unaffected."""
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
    return saved["snapshot"]
