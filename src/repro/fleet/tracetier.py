"""Persistent cohort trace tier: one ``.tbx`` memo entry per executed segment.

Cohort lockstep (:mod:`repro.fleet.cohort`) memoizes each executed
segment as the leader's post-segment snapshot, keyed by
:func:`repro.fleet.cohort.state_digest`, and lets state-identical
siblings adopt it — but those memos used to die with the work unit,
so every unit, process, and remote worker executed them again.  This
tier persists them the way the firmware build cache persists builds:
each memo is its own one-frame entry file,
``.cache/trace/<identity>.tbx``, named by its key, written by temp
file and rename and read back by whoever looks that key up —
including remote fleet workers, via the sha-verified blob channel
(which never carries ``.sbx`` stores: those hold bytecode; a memo is a
snapshot, primitive values only).  An entry is about the size of one
device checkpoint.  The file system is the index: a lookup is one read
of one file, and nothing is held in memory between lookups.

Trust model — identical to the exec tier's, one layer up:

* **The local cache dir is trusted** exactly as much as for ``.sbx``
  stores (whoever can write it can already poison compiled code).
  Ingestion is still fail-closed against *corruption*: an entry must
  be exactly one intact frame (magic, length, digest), the payload is
  deserialized with the restricted :func:`repro.safeload.safe_loads`
  (a crafted pickle raises instead of executing), the snapshot must
  pass :func:`repro.fleet.snapshot.validate_snapshot` — the check
  resume files and wire checkpoints pass too — and the record must
  carry the very key it was looked up by (entry names are 64-bit
  hashes) before a follower ever restores it.  A restore that still
  fails makes the follower execute the segment.
* **Adoption is verified by content.**  A memo is found only under
  the follower's own key, which covers its whole pre-segment state, so
  a rogue device's published snapshots are inert for clean siblings —
  their keys never match — and byte-identity holds with the tier
  cold, warm, poisoned, or disabled.
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
from typing import Optional, Tuple

from repro.fleet.snapshot import validate_snapshot
from repro.framestore import FrameFormat, StoreLayout
from repro.safeload import safe_loads

#: bump when the record payload layout changes (4: the leader's
#: post-segment snapshot instead of a per-dispatch trace)
TRACE_FORMAT = 4

#: an entry holds one device snapshot, a few KB; anything claiming to
#: be bigger than this is a corrupt length field — and a legitimate
#: memo past it simply isn't published (fail-soft: executed again)
_MAX_RECORD = 1 << 26

_FORMAT = FrameFormat(b"TBX1", _MAX_RECORD, ".tbx")
#: the budget bounds the file count every write's prune scans and
#: every welcome offers: 2 MB of few-KB memos is about 650 entries
LAYOUT = StoreLayout(_FORMAT, "TRACE_CACHE", "trace", default_mb=2,
                     version=TRACE_FORMAT)


def _revive(payload: bytes) -> Optional[Tuple[str, dict]]:
    """An entry's payload back to ``(key, snapshot)``, or ``None`` when
    it does not unpickle safely or fails validation."""
    try:
        record = safe_loads(payload)
        if type(record) is not dict or type(record.get("key")) is not str:
            return None
        validate_snapshot(record.get("snapshot"))
    except Exception:
        return None
    return record["key"], record["snapshot"]


class TraceTier:
    """Process-wide facade over the entry files: one entry per memo
    key; an unwritable cache dir just means every lookup misses."""

    def load(self, key: str) -> Optional[dict]:
        """The post-segment snapshot memoized under ``key``, or
        ``None`` (absent, damaged, invalid, or filed under a colliding
        name)."""
        payload = LAYOUT.read_entry(LAYOUT.store_path(key))
        record = None if payload is None else _revive(payload)
        if record is None or record[0] != key:
            return None
        return record[1]

    def publish(self, key: str, snapshot: dict) -> bool:
        """Write one memo's entry, replacing whatever (damaged) entry
        held its name; returns whether it landed."""
        return LAYOUT.write_entry(
            LAYOUT.store_path(key),
            pickle.dumps({"key": key, "snapshot": snapshot},
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
        record = _revive(payload)
        return record is not None and \
            LAYOUT.store_path(record[0]).name == name
    return LAYOUT.import_store_file(name, data, _accept)
