"""Persistent cohort trace tier: one ``.tbx`` entry per recorded segment.

Cohort lockstep (:mod:`repro.fleet.cohort`) records one leader's
dispatch trace per ``(firmware, segment)`` and replays it into
state-identical siblings — but those traces used to die with the work
unit, so every unit, process, and remote worker re-recorded them.
This tier persists them the way the firmware build cache persists
builds: each recorded segment is its own one-frame entry file,
``.cache/trace/<identity>.tbx``, named by its key ``(base_sha,
start_ms, end_ms, pre_sha)``, written by temp file and rename and
read back by whoever looks that key up — including remote fleet
workers, via the sha-verified blob channel (which never carries
``.sbx`` stores: those hold bytecode; trace records hold only
primitive values).  The file system is the index: a lookup is one
read of one file, and nothing is held in memory between lookups.

Trust model — identical to the exec tier's, one layer up:

* **The local cache dir is trusted** exactly as much as for ``.sbx``
  stores (whoever can write it can already poison compiled code).
  Ingestion is still fail-closed against *corruption*: an entry must
  be exactly one intact frame (magic, length, digest), the payload is
  deserialized with the restricted :func:`repro.safeload.safe_loads`
  (a crafted pickle raises instead of executing), and the record must
  pass a full shape validation — page offsets in range, register
  files the right width, fault origins that exist — and carry the
  very key it was looked up by (entry names are 64-bit hashes) before
  a follower ever applies it.
* **Adoption is verified by content.**  A trace replays into a device
  only when the device's own :func:`repro.fleet.cohort.state_digest`
  at segment start equals the record's ``pre_sha``; past that, each
  entry's key and ``cycles_mod`` guards fork a diverging follower
  into real execution.  A rogue device's published write-sets are
  inert for clean siblings — their digests never match — and
  byte-identity holds with the tier cold, warm, poisoned, or
  disabled.
* **The wire adds nothing to trust.**  Entries cross the fleet only
  through the existing content-addressed blob channel (sha pinned at
  offer time, verified on receipt), and an imported entry is
  installed only if it passes every check a load applies, under the
  name its own key hashes to.

Knobs mirror the exec tier: ``REPRO_TRACE_CACHE=0`` disables,
``REPRO_TRACE_CACHE_DIR`` relocates, ``REPRO_TRACE_CACHE_MAX_MB``
bounds the LRU budget (``REPRO_NO_CACHE`` still kills everything);
:data:`LAYOUT` names, lists, serves and prunes the entry files.
"""

from __future__ import annotations

import pickle
from typing import Optional

from repro.fleet.cohort import SegmentTrace, TraceEntry
from repro.framestore import FrameFormat, StoreLayout
from repro.safeload import safe_loads

#: bump when the record payload layout changes (3: one entry file per
#: segment instead of one append store per firmware image)
TRACE_FORMAT = 3

#: traces are orders of magnitude bigger than compiled blocks (every
#: dirtied page of every dispatch in a segment); anything claiming to
#: be bigger than this is a corrupt length field — and a legitimate
#: trace past it simply isn't published (fail-soft: re-recorded)
_MAX_RECORD = 1 << 26

_FORMAT = FrameFormat(b"TBX1", _MAX_RECORD, ".tbx")
LAYOUT = StoreLayout(_FORMAT, "TRACE_CACHE", "trace", default_mb=256,
                     version=TRACE_FORMAT)

_ENTRY_SLOTS = TraceEntry.__slots__

_RECORD_KEYS = ("base_sha", "start_ms", "end_ms", "pre_sha",
                "timer_modulus", "entries")


# -- record (de)serialization ------------------------------------------------

def trace_record(trace: SegmentTrace) -> dict:
    """A :class:`SegmentTrace` as a primitive-only record dict."""
    return {
        "base_sha": trace.base_sha,
        "start_ms": trace.start_ms,
        "end_ms": trace.end_ms,
        "pre_sha": trace.pre_sha,
        "timer_modulus": trace.timer_modulus,
        "entries": [
            {name: getattr(entry, name) for name in _ENTRY_SLOTS}
            for entry in trace.entries],
    }


def _revive_entry(data: dict) -> TraceEntry:
    """One entry dict back to a :class:`TraceEntry`, validating every
    field a replay would *apply* — page offsets that stay inside the
    64 KB image, a 16-wide register file, fault origins that exist —
    so a corrupt record is refused here instead of crashing (or
    corrupting) a follower mid-replay."""
    if not isinstance(data, dict):
        raise ValueError("entry is not a dict")
    entry = TraceEntry()
    key = data["key"]
    if not (isinstance(key, tuple) and len(key) == 4
            and isinstance(key[0], str) and isinstance(key[1], str)
            and isinstance(key[2], tuple)
            and isinstance(key[3], tuple) and len(key[3]) == 7):
        raise ValueError("entry key has the wrong shape")
    entry.key = key
    cycles_mod = data["cycles_mod"]
    if cycles_mod is not None and not isinstance(cycles_mod, int):
        raise ValueError("cycles_mod is neither None nor an int")
    entry.cycles_mod = cycles_mod
    pages = data["pages"]
    if not isinstance(pages, dict):
        raise ValueError("pages is not a dict")
    for offset, page in pages.items():
        if not (isinstance(offset, int) and isinstance(page, bytes)
                and 0 <= offset and offset + len(page) <= 0x10000):
            raise ValueError("page delta outside the 64 KB image")
    entry.pages = pages
    regs = data["regs_post"]
    if not (isinstance(regs, tuple) and len(regs) == 16
            and all(isinstance(reg, int) for reg in regs)):
        raise ValueError("regs_post is not a 16-int tuple")
    entry.regs_post = regs
    for name in ("cycles_delta", "instructions_delta",
                 "vibrations_delta"):
        value = data[name]
        if not isinstance(value, int):
            raise ValueError(f"{name} is not an int")
        setattr(entry, name, value)
    env_post = data["env_post"]
    if not (isinstance(env_post, tuple) and len(env_post) == 7):
        raise ValueError("env_post is not a 7-tuple")
    entry.env_post = env_post
    mpu_post = data["mpu_post"]
    if mpu_post is not None and not isinstance(mpu_post, dict):
        raise ValueError("mpu_post is neither None nor a dict")
    entry.mpu_post = mpu_post
    faults = data["faults"]
    if not isinstance(faults, tuple):
        raise ValueError("faults is not a tuple")
    from repro.kernel.fault import FaultOrigin
    for fault in faults:
        if not isinstance(fault, dict):
            raise ValueError("fault record is not a dict")
        FaultOrigin(fault["origin"])   # unknown origin raises
        if not isinstance(fault["app"], str) or \
                not isinstance(fault["cycle_delta"], int):
            raise ValueError("fault record has the wrong shape")
    entry.faults = faults
    for name in ("digits", "texts", "log_words", "log_buffers"):
        value = data[name]
        if not isinstance(value, tuple):
            raise ValueError(f"{name} is not a tuple")
        setattr(entry, name, value)
    storage = data["storage_updates"]
    if not isinstance(storage, dict):
        raise ValueError("storage_updates is not a dict")
    entry.storage_updates = storage
    calls = data["calls_delta"]
    if not isinstance(calls, dict):
        raise ValueError("calls_delta is not a dict")
    entry.calls_delta = calls
    timers = data["timers"]
    if not isinstance(timers, tuple) or not all(
            isinstance(armed, tuple) and len(armed) == 3
            and isinstance(armed[0], str)
            and isinstance(armed[1], int) and isinstance(armed[2], int)
            for armed in timers):
        raise ValueError("timers is not a tuple of (app, id, ticks)")
    entry.timers = timers
    return entry


def revive_trace(record) -> Optional[SegmentTrace]:
    """A stored record back to a :class:`SegmentTrace`, or ``None``
    when it or any entry fails validation (fail-closed: the whole
    trace is refused, the follower just executes)."""
    try:
        if not isinstance(record, dict):
            raise ValueError("trace record is not a dict")
        for key in _RECORD_KEYS:
            if key not in record:
                raise ValueError(f"trace record lacks {key!r}")
        if not isinstance(record["base_sha"], str) or \
                not isinstance(record["pre_sha"], str):
            raise ValueError("trace identity fields are not strings")
        if not isinstance(record["start_ms"], int) or \
                not isinstance(record["end_ms"], int):
            raise ValueError("trace window fields are not ints")
        modulus = record["timer_modulus"]
        if not isinstance(modulus, int) or modulus <= 0:
            raise ValueError("timer modulus is not a positive int")
        if not isinstance(record["entries"], list):
            raise ValueError("trace entries is not a list")
        return SegmentTrace(
            base_sha=record["base_sha"],
            start_ms=record["start_ms"], end_ms=record["end_ms"],
            pre_sha=record["pre_sha"], timer_modulus=modulus,
            entries=[_revive_entry(data)
                     for data in record["entries"]])
    except Exception:
        return None


# -- the persistent tier -----------------------------------------------------

def _key(trace: SegmentTrace) -> tuple:
    return (trace.base_sha, trace.start_ms, trace.end_ms, trace.pre_sha)


def _revive(payload: bytes) -> Optional[SegmentTrace]:
    """An entry's payload back to a trace, or ``None``."""
    try:
        record = safe_loads(payload)
    except Exception:
        return None
    return revive_trace(record)


class TraceTier:
    """Process-wide facade over the entry files: one entry per
    ``(base_sha, start_ms, end_ms, pre_sha)``; an unwritable cache dir
    just means every lookup misses."""

    def load(self, base_sha: str, start_ms: int, end_ms: int,
             pre_sha: str) -> Optional[SegmentTrace]:
        """The trace recorded for this key, or ``None`` (absent,
        damaged, invalid, or filed under a colliding name)."""
        key = (base_sha, start_ms, end_ms, pre_sha)
        payload = LAYOUT.read_entry(LAYOUT.store_path(*key))
        trace = None if payload is None else _revive(payload)
        if trace is None or _key(trace) != key:
            return None
        return trace

    def publish(self, trace: SegmentTrace) -> bool:
        """Write one recorded segment's entry, replacing whatever
        (damaged) entry held its name; returns whether it landed."""
        if trace.truncated:
            return False               # never persist a partial trace
        return LAYOUT.write_entry(
            LAYOUT.store_path(*_key(trace)),
            pickle.dumps(trace_record(trace),
                         protocol=pickle.HIGHEST_PROTOCOL))


#: the process-wide tier, or None when disabled (tests clear it to
#: re-read the environment)
_TIER: Optional[TraceTier] = None
_TIER_READY = False


def trace_tier() -> Optional[TraceTier]:
    """The process-wide tier — ``None`` when ``REPRO_TRACE_CACHE`` (or
    ``REPRO_NO_CACHE``) disables it."""
    global _TIER, _TIER_READY
    if not _TIER_READY:
        _TIER = TraceTier() if LAYOUT.enabled() else None
        _TIER_READY = True
    return _TIER


def clear_tier() -> None:
    """Drop the tier singleton (tests that change the environment)."""
    global _TIER, _TIER_READY
    _TIER = None
    _TIER_READY = False


# -- entry export/import (the fleet blob channel) ---------------------------

def import_store_file(name: str, data: bytes) -> bool:
    """Install a ``.tbx`` entry fetched from a peer; returns whether
    it was installed.  Fail-closed: ``data`` must be exactly one
    intact frame whose payload revives, and ``name`` must be the name
    its own key hashes to."""
    def _accept(payload: bytes) -> bool:
        trace = _revive(payload)
        return trace is not None and \
            LAYOUT.store_path(*_key(trace)).name == name
    return LAYOUT.import_store_file(name, data, _accept)
