"""Cohort lockstep execution: run shared firmware work once per cohort.

A fleet is mostly clones: thousands of devices run a handful of
firmware images, and two clones that start a checkpoint segment in
the same state end it in the same state.  This module exploits that.
Within a group of same-firmware devices (a **cohort**) the first
device to reach a segment in a given state becomes its **leader**: it
executes the segment, and its post-segment snapshot becomes the
segment's **memo**.  Every **follower** that reaches the same segment
in the same state adopts the memo with
:func:`~repro.fleet.snapshot.restore_device` — the step every resume
from a checkpoint takes — instead of executing.

Why this is sound — a segment is a function of its memo key
-----------------------------------------------------------
A device's segment ``[start_ms, end_ms)`` is
:func:`run_segment` over a machine and scheduler built from the
device's :class:`~repro.fleet.population.DeviceSpec` and isolation
model, in the state its pre-segment
:func:`~repro.fleet.snapshot.snapshot_device` snapshot records.
Resuming from a checkpoint is byte-identical to running on (the fault
tests pin this at every commit point), so the snapshot, the spec and
the model determine everything the segment does; of the spec, only
``device_id`` is never read by execution (it names the device's files
and record).  :func:`state_digest` folds exactly those inputs — the
model, the spec with ``device_id`` zeroed, the segment window and the
full pre-segment snapshot in the canonical checkpoint encoding — into
the memo key, so equal keys mean equal post-segment snapshots.  The
key covers the absolute cycle counter, every service log and the
scheduler's statistics too: a device whose history differs in any way
executes, however small the difference.

A memo that fails to restore — a damaged or forged trace-tier entry
that passed validation but does not fit the device — makes the
follower reload its own pre-segment snapshot and execute the segment,
so the worst a bad memo costs is the execution it was meant to save.

Byte-identity of all downstream telemetry is the contract;
``tests/test_fleet_cohort.py`` pins it device by device and campaign
by campaign.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple, dataclass, replace

from repro.fleet.snapshot import canonical_bytes, restore_device


@dataclass
class CohortStats:
    """Lockstep accounting, aggregated per work unit."""

    #: dispatches run on the simulated CPU (leaders)
    executed: int = 0
    #: dispatches covered by an adopted memo (followers)
    replayed: int = 0
    #: segments executed (one per distinct memo key)
    leads: int = 0
    #: segments adopted from a memo, this round's or the tier's
    joins: int = 0
    #: segments satisfied from the persistent trace tier
    trace_hits: int = 0
    #: tier probes that found no memo for the key
    trace_misses: int = 0
    #: memos published to the persistent tier
    trace_published: int = 0


def state_digest(model, spec, start_ms: int, end_ms: int,
                 snapshot: dict) -> str:
    """The memo key of one device segment: sha-256 over the isolation
    ``model``, the :class:`~repro.fleet.population.DeviceSpec` with
    ``device_id`` zeroed, the window ``[start_ms, end_ms)`` and the
    device's pre-segment ``snapshot``, in the canonical encoding
    checkpoints use.  Computed once per device and segment."""
    identity = (model.value, astuple(replace(spec, device_id=0)),
                start_ms, end_ms, snapshot)
    return hashlib.sha256(canonical_bytes(identity)).hexdigest()


def run_segment(scheduler, start_ms: int, end_ms: int) -> int:
    """Seed the periodic sources over ``[start_ms, end_ms)`` and drain
    every event before ``end_ms`` — the one segment loop for solo
    devices and cohort leaders; returns the dispatches it ran."""
    before = scheduler.stats.events_delivered
    scheduler.seed_events(end_ms, start_ms)
    while scheduler.step(before_ms=end_ms) is not None:
        pass
    return scheduler.stats.events_delivered - before


def _dispatches(snapshot: dict) -> int:
    return snapshot["scheduler"]["stats"]["events_delivered"]


class CohortRecorder:
    """Leader side: execute one segment.  The caller snapshots the
    result, which becomes the segment's memo."""

    def __init__(self, scheduler, stats: CohortStats):
        self.scheduler = scheduler
        self.stats = stats

    def __call__(self, start_ms: int, end_ms: int) -> None:
        self.stats.leads += 1
        self.stats.executed += run_segment(self.scheduler, start_ms,
                                           end_ms)


class CohortFollower:
    """Follower side: adopt one segment's memo (the leader's
    post-segment snapshot) in place of executing it."""

    def __init__(self, machine, scheduler, stats: CohortStats):
        self.machine = machine
        self.scheduler = scheduler
        self.stats = stats

    def __call__(self, memo: dict, pre: dict) -> bool:
        """Restore ``memo``; returns whether it was adopted.  When the
        restore raises, the device is reloaded from ``pre`` (its own
        pre-segment snapshot) and the caller executes the segment."""
        try:
            restore_device(self.machine, self.scheduler, memo)
        except Exception:
            restore_device(self.machine, self.scheduler, pre)
            return False
        self.stats.joins += 1
        self.stats.replayed += _dispatches(memo) - _dispatches(pre)
        return True
