"""Cohort lockstep execution: run shared firmware work once per cohort.

A fleet is mostly clones: thousands of devices run a handful of
firmware images, and inside one checkpoint segment two clones whose
state coincides execute *exactly* the same instruction stream.  This
module exploits that.  Within a group of same-firmware devices (a
**cohort**, keyed by the machine prototype's ``base_sha``) the first
device to reach a segment becomes its **leader**: it executes normally
while a recorder captures, per dispatch, the inputs that determined
the outcome and the delta the outcome applied.  Every **follower**
that reaches the same segment verifies its state against the leader's
and then *replays* the recorded deltas instead of re-executing —
falling out of lockstep (copy-on-write fork, executing normally for
the rest of the segment) at its first divergent dispatch.

Why this is sound — the dispatch read/write contract
----------------------------------------------------
``AmuletMachine.dispatch`` is a pure function of:

* the 64 KB memory image, CPU registers, and MPU configuration;
* the sensor environment (LCG position, clock, battery, baselines,
  steps) and the OS storage dict (the only service state execution
  *reads* — display/log/vibration/call state is append/write-only);
* the dispatched ``(app, handler, args)`` triple;
* the absolute cycle counter — but **only** when the code reads the
  cycle-timer port (``CycleTimer`` returns absolute quantized cycles).

The trace therefore carries a **state digest** per dispatch boundary
(:func:`state_digest`: sha-256 over the memory delta against the
firmware base image plus registers, env tuple, MPU state and storage
— everything a dispatch can read, nothing it can't) and a per-entry
**key** ``(app, handler, args, env)`` checked before each replay.  A
follower joins lockstep when its segment-start digest equals the
leader's; equality of the remaining inputs then follows by induction:
matching states plus matching deltas stay matching.  Timer-reading
dispatches additionally pin the leader's pre-dispatch cycle count
modulo ``divider * 2^16`` — the exact equivalence class under which
every timer read in the dispatch returns the same value.

The per-entry digests also buy **dispatch-boundary rejoin**: a forked
follower (executing for real after a divergence) re-offers its state
at each subsequent dispatch boundary — key and cycles-mod first (both
cheap), digest only when those match — and resumes delta replay the
moment it coincides with a recorded pre-state again.  This needs no
induction from the segment start: digest equality *is* direct
verification of every replay-relevant input, the entry key pins the
dispatched event (and with it ``env.time_ms``, hence the scheduler's
``now``), and cycle counts stay per-device because entries store
deltas.  A device that diverges for three dispatches and reconverges
replays the rest of the segment instead of interpreting it.

Entries store the complete write-set: dirtied memory pages
(hierarchical diff against a pre-dispatch copy), post registers,
cycle/instruction deltas, MPU state when a dispatch left it changed,
the post env tuple, service appends (display/log/storage/vibration/
calls/armed timers — timers are re-armed through the scheduler so the
follower's event queue evolves identically, tie-breaks included), and
fault records with cycles stored relative to dispatch start.  Replay
applies them and returns a reconstructed
:class:`~repro.kernel.machine.DispatchResult`, so the follower's
scheduler does its own statistics and fault-policy bookkeeping exactly
as if it had executed.

Byte-identity of all downstream telemetry is the contract;
``tests/test_fleet_cohort.py`` pins it segment-by-segment and
campaign-by-campaign.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.kernel.fault import FaultOrigin, FaultRecord
from repro.kernel.machine import AmuletMachine, DispatchResult

#: recorder backstop: a pathological segment (runaway timer storm)
#: stops recording past this many dispatches instead of holding
#: unbounded trace memory; followers replay the prefix and execute
#: the rest — slower, never wrong
MAX_TRACE_ENTRIES = 200_000

#: how many upcoming trace entries a forked follower offers its state
#: against at each dispatch boundary.  Divergences the fleet actually
#: produces (a rogue's extra fault recovery, one skipped handler)
#: displace the streams by a dispatch or two; a small window catches
#: those without scanning the whole tail on every diverged dispatch
REJOIN_WINDOW = 8


def _env_tuple(env) -> tuple:
    """The sensor environment as a flat comparable tuple — every field
    execution can read (see ``SensorEnvironment.state_dict``)."""
    return (env._state, env.time_ms, env.battery_percent,
            env.base_heart_rate, env.base_temperature,
            env.base_light, env.steps)


def _env_restore(env, values: tuple) -> None:
    (env._state, env.time_ms, env.battery_percent,
     env.base_heart_rate, env.base_temperature,
     env.base_light, env.steps) = values


class TraceEntry:
    """One recorded dispatch: the match key plus the full write-set."""

    __slots__ = ("key", "pre_sha", "cycles_mod", "pages", "regs_post",
                 "cycles_delta", "instructions_delta", "env_post",
                 "mpu_post", "faults", "digits", "texts", "log_words",
                 "log_buffers", "storage_updates", "vibrations_delta",
                 "calls_delta", "timers")

    def __init__(self) -> None:
        #: (app, handler, args tuple, pre-dispatch env tuple)
        self.key: tuple = ()
        #: leader's :func:`state_digest` at this dispatch boundary —
        #: the rejoin handshake (and entry 0's is the segment one)
        self.pre_sha: str = ""
        #: leader's pre-dispatch ``cycles % (divider * 2^16)`` when the
        #: dispatch read the timer port; None for the common
        #: timer-blind dispatch
        self.cycles_mod: Optional[int] = None
        self.pages: Dict[int, bytes] = {}
        self.regs_post: Tuple[int, ...] = ()
        self.cycles_delta = 0
        self.instructions_delta = 0
        self.env_post: tuple = ()
        #: post MPU state only when the dispatch left it changed
        #: (a fault recovery reconfigures back to the OS view, so
        #: this is almost always None)
        self.mpu_post: Optional[dict] = None
        self.faults: Tuple[dict, ...] = ()
        self.digits: Tuple[int, ...] = ()
        self.texts: Tuple[str, ...] = ()
        self.log_words: Tuple[int, ...] = ()
        self.log_buffers: Tuple[bytes, ...] = ()
        self.storage_updates: Dict[int, bytes] = {}
        self.vibrations_delta = 0
        self.calls_delta: Dict[int, int] = {}
        self.timers: Tuple[tuple, ...] = ()


@dataclass
class SegmentTrace:
    """The leader's recording of one checkpoint segment."""

    base_sha: str
    start_ms: int
    end_ms: int
    #: leader's :func:`state_digest` at segment start — a follower
    #: joins lockstep only on digest equality
    pre_sha: str
    #: equivalence modulus for timer-sensitive entries
    timer_modulus: int
    entries: List[TraceEntry] = field(default_factory=list)
    #: True once MAX_TRACE_ENTRIES was hit; followers reaching the end
    #: of a truncated trace fork instead of assuming the segment ended
    truncated: bool = False


@dataclass
class CohortStats:
    """Lockstep accounting, aggregated per work unit."""

    #: dispatches run on the simulated CPU (leaders + forked followers)
    executed: int = 0
    #: dispatches satisfied by delta replay
    replayed: int = 0
    #: segments recorded (one per distinct (firmware, start, state))
    leads: int = 0
    #: follower segments that passed the handshake and entered lockstep
    joins: int = 0
    #: follower segments that failed the handshake outright
    rejects: int = 0
    #: in-segment copy-on-write exits (first divergent dispatch)
    forks: int = 0
    #: forked followers that reconverged and resumed delta replay at a
    #: later dispatch boundary
    rejoins: int = 0
    #: segments satisfied from the persistent trace tier
    trace_hits: int = 0
    #: tier probes that found no matching recorded segment
    trace_misses: int = 0
    #: segment traces published to the persistent tier
    trace_published: int = 0


def state_digest(machine: AmuletMachine) -> str:
    """Everything a dispatch can read, folded to one hex digest.

    Covers the firmware identity, the memory image (as its page delta
    against the pristine base image — a hierarchical memcmp plus a few
    dirtied pages to hash, instead of 64 KB), registers, halted flag,
    env tuple, MPU configuration and the storage dict.  Append-only
    service state (display, log, vibration, call counters, the
    armed-timer log) is deliberately absent — execution never reads
    it, and leaving it out lets a device whose *history* differs but
    whose live state has reconverged (re)join lockstep.  The absolute
    cycle counter is also absent: entries store cycle *deltas*, and
    the rare timer-reading dispatch is pinned by ``cycles_mod``."""
    cpu = machine.cpu
    digest = hashlib.sha256()
    digest.update(machine.base_sha.encode())
    for offset, page in cpu.memory.delta_since(
            machine.base_image).items():
        digest.update(offset.to_bytes(4, "big"))
        digest.update(page)
    mpu = machine.mpu
    digest.update(repr((
        tuple(cpu.regs.snapshot()), cpu.halted,
        _env_tuple(machine.services.env),
        None if mpu is None else sorted(mpu.state_dict().items()),
        sorted(machine.services.storage.items()))).encode())
    return digest.hexdigest()


class CohortRecorder:
    """Leader-side ``dispatch_fn``: execute normally, record the entry."""

    def __init__(self, machine: AmuletMachine, trace: SegmentTrace,
                 stats: CohortStats):
        self.machine = machine
        self.trace = trace
        self.stats = stats

    def __call__(self, app: str, handler: str, args) -> DispatchResult:
        machine = self.machine
        trace = self.trace
        self.stats.executed += 1
        if trace.truncated:
            return machine.dispatch(app, handler, args)
        if len(trace.entries) >= MAX_TRACE_ENTRIES:
            trace.truncated = True
            return machine.dispatch(app, handler, args)

        cpu = machine.cpu
        svc = machine.services
        env = svc.env
        timer = machine.timer
        env_pre = _env_tuple(env)
        pre_sha = state_digest(machine)
        pre_mem = cpu.memory.image_bytes()
        pre_cycles = cpu.cycles
        pre_instructions = cpu.instructions
        pre_timer_reads = timer.reads
        pre_mpu = (machine.mpu.state_dict()
                   if machine.mpu is not None else None)
        pre_digits = len(svc.display.digits)
        pre_texts = len(svc.display.texts)
        pre_words = len(svc.log.words)
        pre_buffers = len(svc.log.buffers)
        pre_storage = dict(svc.storage)
        pre_vibrations = svc.vibrations
        pre_timers = len(svc.app_timers)
        pre_calls = dict(svc.calls)
        pre_faults = len(machine.fault_log.records)

        result = machine.dispatch(app, handler, args)

        entry = TraceEntry()
        entry.key = (app, handler, tuple(args), env_pre)
        entry.pre_sha = pre_sha
        if timer.reads != pre_timer_reads:
            entry.cycles_mod = pre_cycles % trace.timer_modulus
        entry.pages = cpu.memory.delta_since(pre_mem)
        entry.regs_post = tuple(cpu.regs.snapshot())
        entry.cycles_delta = cpu.cycles - pre_cycles
        entry.instructions_delta = cpu.instructions - pre_instructions
        entry.env_post = _env_tuple(env)
        post_mpu = (machine.mpu.state_dict()
                    if machine.mpu is not None else None)
        if post_mpu != pre_mpu:
            entry.mpu_post = post_mpu
        entry.faults = tuple(
            {"app": record.app, "origin": record.origin.value,
             "pc": record.pc, "address": record.address,
             "cycle_delta": record.cycle - pre_cycles,
             "detail": record.detail}
            for record in machine.fault_log.records[pre_faults:])
        entry.digits = tuple(svc.display.digits[pre_digits:])
        entry.texts = tuple(svc.display.texts[pre_texts:])
        entry.log_words = tuple(svc.log.words[pre_words:])
        entry.log_buffers = tuple(svc.log.buffers[pre_buffers:])
        entry.storage_updates = {
            key: blob for key, blob in svc.storage.items()
            if pre_storage.get(key) != blob}
        entry.vibrations_delta = svc.vibrations - pre_vibrations
        entry.calls_delta = {
            key: count - pre_calls.get(key, 0)
            for key, count in svc.calls.items()
            if count != pre_calls.get(key, 0)}
        entry.timers = tuple(svc.app_timers[pre_timers:])
        trace.entries.append(entry)
        return result


def _apply_entry(machine: AmuletMachine, scheduler,
                 entry: TraceEntry) -> DispatchResult:
    """Apply one recorded delta; returns the reconstructed result the
    scheduler's stats/fault-policy path consumes."""
    cpu = machine.cpu
    svc = machine.services
    pre_cycles = cpu.cycles
    cpu.memory.apply_pages(entry.pages)
    cpu.regs.restore(list(entry.regs_post))
    cpu.cycles = pre_cycles + entry.cycles_delta
    cpu.instructions += entry.instructions_delta
    cpu.halted = True
    if entry.mpu_post is not None:
        machine.mpu.load_state(entry.mpu_post)
    _env_restore(svc.env, entry.env_post)
    if entry.digits:
        svc.display.digits.extend(entry.digits)
    if entry.texts:
        svc.display.texts.extend(entry.texts)
    if entry.log_words:
        svc.log.words.extend(entry.log_words)
    if entry.log_buffers:
        svc.log.buffers.extend(entry.log_buffers)
    for key, blob in entry.storage_updates.items():
        svc.storage[key] = blob
    svc.vibrations += entry.vibrations_delta
    for key, delta in entry.calls_delta.items():
        svc.calls[key] = svc.calls.get(key, 0) + delta
    for armed in entry.timers:
        # the service log and the queue push both happen on replay,
        # through the same API, so tie-break sequencing is identical
        svc.app_timers.append(tuple(armed))
        scheduler.arm_app_timer(*armed)

    fault: Optional[FaultRecord] = None
    for packed in entry.faults:
        fault = FaultRecord(
            app=packed["app"], origin=FaultOrigin(packed["origin"]),
            pc=packed["pc"], address=packed["address"],
            cycle=pre_cycles + packed["cycle_delta"],
            detail=packed["detail"])
        machine.fault_log.log(fault)

    app = entry.key[0]
    state = machine.app_state[app]
    state.dispatches += 1
    state.cycles += entry.cycles_delta
    if fault is not None:
        state.faults += 1
    return DispatchResult(
        app=app, handler=entry.key[1], cycles=entry.cycles_delta,
        instructions=entry.instructions_delta,
        faulted=fault is not None, fault=fault,
        return_value=entry.regs_post[12])


class CohortFollower:
    """Follower-side ``dispatch_fn``: replay while in lockstep, fork
    copy-on-write (execute normally) at a divergence — and offer the
    forked device's state back to the trace at every later dispatch
    boundary, resuming replay on a match."""

    def __init__(self, machine: AmuletMachine, scheduler,
                 trace: SegmentTrace, stats: CohortStats,
                 pre_sha: Optional[str] = None):
        self.machine = machine
        self.scheduler = scheduler
        self.trace = trace
        self.stats = stats
        self.cursor = 0
        if pre_sha is None:
            pre_sha = state_digest(machine)
        self.lockstep = pre_sha == trace.pre_sha
        if self.lockstep:
            stats.joins += 1
        else:
            stats.rejects += 1

    def __call__(self, app: str, handler: str, args) -> DispatchResult:
        machine = self.machine
        if self.lockstep:
            trace = self.trace
            if self.cursor < len(trace.entries):
                entry = trace.entries[self.cursor]
                key = (app, handler, tuple(args),
                       _env_tuple(machine.services.env))
                if entry.key == key and (
                        entry.cycles_mod is None
                        or machine.cpu.cycles % trace.timer_modulus
                        == entry.cycles_mod):
                    self.cursor += 1
                    self.stats.replayed += 1
                    return _apply_entry(machine, self.scheduler, entry)
            # first divergence (or end of a truncated/shorter trace):
            # this device's state no longer tracks the leader's — run
            # the rest of the segment for real
            self.lockstep = False
            self.stats.forks += 1
        else:
            entry = self._try_rejoin(app, handler, args)
            if entry is not None:
                self.stats.replayed += 1
                return _apply_entry(machine, self.scheduler, entry)
        self.stats.executed += 1
        return machine.dispatch(app, handler, args)

    def _try_rejoin(self, app: str, handler: str, args
                    ) -> Optional[TraceEntry]:
        """Re-handshake a forked follower against the next few
        recorded entries: key and cycles-mod are cheap pre-filters,
        the state digest (computed at most once per boundary) is the
        actual verification.  On a match the cursor jumps there and
        lockstep resumes."""
        trace = self.trace
        machine = self.machine
        entries = trace.entries
        key = (app, handler, tuple(args),
               _env_tuple(machine.services.env))
        digest = None
        limit = min(len(entries), self.cursor + REJOIN_WINDOW)
        for index in range(self.cursor, limit):
            entry = entries[index]
            if entry.key != key:
                continue
            if entry.cycles_mod is not None and \
                    machine.cpu.cycles % trace.timer_modulus \
                    != entry.cycles_mod:
                continue
            if digest is None:
                digest = state_digest(machine)
            if entry.pre_sha == digest:
                self.cursor = index + 1
                self.lockstep = True
                self.stats.rejoins += 1
                return entry
        if self.cursor < len(entries):
            # keep the window sliding with the follower's own stream,
            # so a persistent divergence stays a cheap key compare
            self.cursor += 1
        return None


def record_segment(machine: AmuletMachine, scheduler,
                   start_ms: int, end_ms: int,
                   stats: CohortStats,
                   pre_sha: Optional[str] = None) -> SegmentTrace:
    """Run ``[start_ms, end_ms)`` as the cohort leader, returning the
    trace followers replay.  Event seeding and draining are exactly
    :func:`repro.fleet.device.simulate_device`'s segment loop."""
    trace = SegmentTrace(
        base_sha=machine.base_sha, start_ms=start_ms, end_ms=end_ms,
        pre_sha=state_digest(machine) if pre_sha is None else pre_sha,
        timer_modulus=machine.timer.divider << 16)
    stats.leads += 1
    scheduler.dispatch_fn = CohortRecorder(machine, trace, stats)
    try:
        scheduler.seed_events(end_ms, start_ms)
        while scheduler.step(before_ms=end_ms) is not None:
            pass
    finally:
        scheduler.dispatch_fn = None
    return trace


def replay_segment(machine: AmuletMachine, scheduler,
                   trace: SegmentTrace, start_ms: int, end_ms: int,
                   stats: CohortStats,
                   pre_sha: Optional[str] = None) -> None:
    """Run ``[start_ms, end_ms)`` as a follower of ``trace``.

    ``pre_sha`` (the follower's already-computed segment-start digest)
    skips recomputing the handshake."""
    scheduler.dispatch_fn = CohortFollower(machine, scheduler, trace,
                                           stats, pre_sha=pre_sha)
    try:
        scheduler.seed_events(end_ms, start_ms)
        while scheduler.step(before_ms=end_ms) is not None:
            pass
    finally:
        scheduler.dispatch_fn = None
