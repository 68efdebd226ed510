"""Persistent cohort trace tier: ``.tbx`` stores of segment traces.

Cohort lockstep (:mod:`repro.fleet.cohort`) records one leader's
dispatch trace per ``(firmware, segment)`` and replays it into
state-identical siblings — but those traces used to die with the work
unit, so every unit, process, and remote worker re-recorded them.
This tier persists them the way the ``.sbx`` exec-cache tier persists
compiled blocks: one append-only, self-checking store file per
firmware image (``.cache/trace/<identity>.tbx``), records
content-addressed by ``(base_sha, segment window, pre-state digest)``,
published once and adopted by every later reader — including remote
fleet workers, via the sha-verified blob channel (which never carries
``.sbx`` stores: those hold bytecode; trace records hold only
primitive values).

Trust model — identical to the exec tier's, one layer up:

* **The local cache dir is trusted** exactly as much as for ``.sbx``
  stores (whoever can write it can already poison compiled code).
  Ingestion is still fail-closed against *corruption*: framing is
  magic/length/digest-checked, payloads are deserialized with the
  restricted :func:`repro.safeload.safe_loads` (a crafted pickle
  raises instead of executing), and a record must pass a full shape
  validation — page offsets in range, register files the right width,
  fault origins that exist — before a follower ever applies it.
* **Adoption is verified by content.**  A trace replays into a device
  only when the device's own :func:`repro.fleet.cohort.state_digest`
  at segment start equals the record's ``pre_sha``; past that, each
  entry's key and ``cycles_mod`` guards fork a diverging follower
  into real execution.  A rogue device's published write-sets are
  inert for clean siblings — their digests never match — and
  byte-identity holds with the tier cold, warm, poisoned, or
  disabled.
* **The wire adds nothing to trust.**  Store files cross the fleet
  only through the existing content-addressed blob channel (sha
  pinned at offer time, verified on receipt, re-scanned frame by
  frame before import).

Knobs mirror the exec tier: ``REPRO_TRACE_CACHE=0`` disables,
``REPRO_TRACE_CACHE_DIR`` relocates, ``REPRO_TRACE_CACHE_MAX_MB``
bounds the LRU budget (``REPRO_NO_CACHE`` still kills everything);
:data:`LAYOUT` names, lists, serves and prunes the store files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.fleet.cohort import SegmentTrace, TraceEntry
from repro.framestore import AppendStore, FrameFormat, StoreLayout

#: bump when the record payload layout changes
TRACE_FORMAT = 2

#: traces are orders of magnitude bigger than compiled blocks (every
#: dirtied page of every dispatch in a segment); anything claiming to
#: be bigger than this is a corrupt length field — and a legitimate
#: trace past it simply isn't published (fail-soft: re-recorded)
_MAX_RECORD = 1 << 26

#: distinct pre-state variants kept per segment window.  Every
#: distinct device state that leads a segment publishes one variant
#: (a jittered fleet publishes one per phase), so the cap is roomier
#: than the exec tier's per-pc one; past it, new variants just stay
#: process-local.  Bounds what a self-modifying rogue can grow.
MAX_SEGMENT_VARIANTS = 64

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


def _validate_record_shape(record) -> None:
    """Cheap top-level shape check (raise on failure) — applied at
    ingest/scan time to every frame; the expensive per-entry
    validation runs once, at :func:`revive_trace` time."""
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
    entries = record["entries"]
    if not isinstance(entries, list):
        raise ValueError("trace entries is not a list")


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


def revive_trace(record: dict) -> Optional[SegmentTrace]:
    """A stored record back to a :class:`SegmentTrace`, or ``None``
    when any entry fails validation (fail-closed: the whole trace is
    refused, the follower just executes)."""
    try:
        _validate_record_shape(record)
        return SegmentTrace(
            base_sha=record["base_sha"],
            start_ms=record["start_ms"], end_ms=record["end_ms"],
            pre_sha=record["pre_sha"],
            timer_modulus=record["timer_modulus"],
            entries=[_revive_entry(data)
                     for data in record["entries"]])
    except Exception:
        return None


# -- the persistent store ----------------------------------------------------

class TraceStore(AppendStore):
    """Append-only ``.tbx`` store for one firmware image's traces,
    indexed by ``(start_ms, end_ms)`` window then pre-state digest.
    Same concurrency model as the exec tier: single ``O_APPEND``
    writes, incremental self-checking reads, content-level dedup."""

    __slots__ = ("_index",)

    def __init__(self, path: Path):
        #: (start_ms, end_ms) -> {pre_sha: raw record dict}
        self._index: Dict[Tuple[int, int], Dict[str, dict]] = {}
        super().__init__(path, LAYOUT)

    def stats(self) -> dict:
        return {"path": str(self.path), "loaded": self.loaded,
                "published": self.published, "corrupt": self.corrupt,
                "segments": len(self._index)}

    def _accept(self, record) -> bool:
        _validate_record_shape(record)  # wrong shape raises -> corrupt
        window = (record["start_ms"], record["end_ms"])
        variants = self._index.setdefault(window, {})
        pre_sha = record["pre_sha"]
        if pre_sha in variants:
            return False
        if len(variants) >= MAX_SEGMENT_VARIANTS:
            return False               # variant cap, on disk too
        variants[pre_sha] = record
        return True

    def get(self, start_ms: int, end_ms: int, pre_sha: str
            ) -> Optional[SegmentTrace]:
        """The revived trace for one ``(window, pre-state)``, or
        ``None``.  Misses refresh once (cheap ``stat``) to pick up
        traces another process published since."""
        record = self._index.get((start_ms, end_ms), {}).get(pre_sha)
        if record is None and self.refresh():
            record = self._index.get((start_ms, end_ms),
                                     {}).get(pre_sha)
        if record is None:
            return None
        trace = revive_trace(record)
        if trace is None:
            self.corrupt += 1          # passed framing, failed revive
        return trace

    def put(self, trace: SegmentTrace) -> bool:
        """Publish one recorded segment; returns whether it was
        appended (False: duplicate, over-cap, unwritable dir)."""
        window = (trace.start_ms, trace.end_ms)
        variants = self._index.setdefault(window, {})
        if trace.pre_sha in variants or \
                len(variants) >= MAX_SEGMENT_VARIANTS:
            return False
        record = trace_record(trace)
        if not self.publish_record(record):
            return False
        variants[trace.pre_sha] = record
        return True


class TraceTier:
    """Process-wide facade: one :class:`TraceStore` per firmware
    image, opened lazily, memory-only degradation on an unwritable
    cache dir."""

    def __init__(self):
        self._stores: Dict[str, Optional[TraceStore]] = {}

    def _store(self, base_sha: str) -> Optional[TraceStore]:
        if base_sha not in self._stores:
            try:
                self._stores[base_sha] = TraceStore(
                    LAYOUT.store_path(base_sha))
            except OSError:
                self._stores[base_sha] = None    # unwritable: no tier
        return self._stores[base_sha]

    def load(self, base_sha: str, start_ms: int, end_ms: int,
             pre_sha: str) -> Optional[SegmentTrace]:
        store = self._store(base_sha)
        if store is None:
            return None
        return store.get(start_ms, end_ms, pre_sha)

    def publish(self, trace: SegmentTrace) -> bool:
        if trace.truncated:
            return False               # never persist a partial trace
        store = self._store(trace.base_sha)
        if store is None:
            return False
        return store.put(trace)

    def stats(self) -> List[dict]:
        return [store.stats() for store in self._stores.values()
                if store is not None]


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


# -- store export/import (the fleet blob channel) ---------------------------

def import_store_file(name: str, data: bytes) -> int:
    """Install a ``.tbx`` store fetched from a peer; returns records
    kept.  Fail-closed: every frame is re-walked (magic, length,
    digest), payloads pass through the restricted unpickler, and only
    shape-valid trace records are written."""
    return LAYOUT.import_store_file(name, data, _validate_record_shape)
