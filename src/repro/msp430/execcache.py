"""Process-wide shared execution cache for fleets of MCUs.

A fleet campaign simulates many devices whose firmware images heavily
overlap — devices built from the same app subset share the whole
image, and *every* device shares the OS region bytes the linker lays
down first.  Before this module each :class:`~repro.msp430.cpu.Cpu`
decoded and superblock-compiled that code privately; a population of
N devices paid the translation cost N times.

:class:`SharedExecutionCache` is a content-addressed store, one per
distinct I/O port wiring, holding

* compiled superblocks keyed by entry PC, and
* decoded-instruction entries keyed by 64-byte page then PC,

published by the first CPU to translate them and pulled by every
later CPU attached to the same store.  Each published translation
carries the exact code bytes it was compiled from, so devices running
*different* firmware images still share every translation whose bytes
coincide at the same address — in practice the whole OS region and
every app region two images have in common.

Safety model — *content addressing, verify on every pull*:

* **Publish** is append-only: a translation is stored together with
  the publisher's live code bytes at translation time.  No pristine
  image is consulted — a self-modified device publishes (capped)
  variants of its modified code, which only a device with the *same*
  bytes can ever adopt.
* **Pull** compares the candidate's recorded bytes against the
  puller's own memory; on mismatch the next variant is tried, and a
  device whose code matches nothing published translates privately.
* **Invalidation stays device-local.**  A store into cached code pops
  the translation from that CPU's private view (and bumps its
  ``_code_version`` so in-flight blocks stop at the next store
  boundary); the shared store itself is immutable, so sibling devices
  are unaffected — the copy-on-write direction is "diverged device
  recompiles privately", never "shared entry mutated".

Execute *permission* is not part of the store: a CPU adopting a block
re-validates execute permission over the block's byte range against
its own MPU bitmap first (and adopts a per-device shallow copy, so
the block's ``perm_ok`` cache never ping-pongs between devices with
different MPU configurations).

Correctness rests on the superblock layer's architectural-equivalence
invariant (blocks vs. ``step()`` are bit-identical): sharing only
changes *which* PCs have blocks *when*, so shared-cache runs are
byte-identical to private-cache and step-only runs.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, List, Optional

from repro.framestore import AppendStore, FrameFormat, StoreLayout

#: variants kept per PC before publishing stops.  A device rewriting
#: its own code (rogue wild-pointer stores) would otherwise grow an
#: unbounded variant list at the rewritten PCs; past the cap it just
#: translates privately.  The same cap bounds the *disk* tier: a
#: self-modifying rogue can append at most MAX_VARIANTS variants of
#: its rewritten PCs per store file, and byte-verification keeps any
#: of them from ever being adopted by a clean device.
MAX_VARIANTS = 4


class SharedExecutionCache:
    """One port-wiring's shared translations: superblocks + icache
    entries, content-addressed by the code bytes they translate.

    ``blocks`` maps entry PC to a list of compiled
    :class:`~repro.msp430.cpu._Block` variants (each carrying its
    ``code`` bytes); ``pages`` maps 64-byte page index to
    ``{pc: [(code bytes, icache entry), ...]}``.  Lists are only ever
    appended to (never mutated or reordered), so concurrent readers
    in one process need no locking.
    """

    __slots__ = ("blocks", "pages", "disk",
                 "block_pulls", "page_pulls", "publishes", "rejects")

    def __init__(self):
        self.blocks: Dict[int, list] = {}
        self.pages: Dict[int, Dict[int, list]] = {}
        #: optional :class:`DiskTier` persisting hot compiled blocks
        #: across processes and runs (attached by
        #: :func:`shared_execution_cache`; plain stores built directly
        #: by tests stay memory-only)
        self.disk: Optional["DiskTier"] = None
        # introspection counters (tests, --profile diagnostics)
        self.block_pulls = 0
        self.page_pulls = 0
        self.publishes = 0
        self.rejects = 0

    def stats(self) -> dict:
        stats = {"blocks": len(self.blocks), "pages": len(self.pages),
                 "block_pulls": self.block_pulls,
                 "page_pulls": self.page_pulls,
                 "publishes": self.publishes, "rejects": self.rejects}
        if self.disk is not None:
            stats["disk"] = self.disk.stats()
        return stats


#: sorted I/O port tuple -> store.  The port set is the store
#: identity because the superblock compiler terminates blocks at
#: instructions addressing registered ports — two machines with the
#: same bytes but different port wiring would disagree on block
#: boundaries.  Everything else is verified per entry, by content.
_REGISTRY: Dict[tuple, SharedExecutionCache] = {}


def image_digest(image: bytes) -> str:
    """sha-256 of a memory image (also the delta-checkpoint base id)."""
    return hashlib.sha256(image).hexdigest()


def shared_execution_cache(io_ports) -> SharedExecutionCache:
    """The process-wide store for this I/O port wiring — with the
    persistent disk tier attached when caching is enabled, so a fresh
    process (a newly spawned fleet worker, a rerun of yesterday's
    campaign) starts from the translations every earlier process
    published instead of re-translating the firmware from scratch."""
    key = tuple(sorted(io_ports))
    store = _REGISTRY.get(key)
    if store is None:
        store = SharedExecutionCache()
        if LAYOUT.enabled():
            try:
                store.disk = DiskTier(LAYOUT.store_path(key))
            except OSError:
                store.disk = None    # unwritable cache dir: memory-only
        _REGISTRY[key] = store
    return store


def clear_registry() -> None:
    """Drop every store (tests that need cold-cache behaviour)."""
    _REGISTRY.clear()


# -- persistent disk tier ---------------------------------------------------
#
# One append-only store file per port wiring — the same identity rule
# as the in-memory registry; the layout folds everything
# version-shaped (record format, interpreter, toolchain sources) into
# the *file name*, so a toolchain edit or a Python upgrade simply
# starts a new file (the old one ages out under the LRU budget).
# Records inside the file are content-addressed exactly like the
# in-memory store: each carries the code bytes it translates, and
# adoption byte-verifies against the puller's live memory, so the
# disk tier adds no trust beyond what a sibling process already gets.
# The framing, pruning, naming and env-knob plumbing are the shared
# :mod:`repro.framestore` machinery (``REPRO_EXEC_CACHE=0`` disables,
# ``REPRO_EXEC_CACHE_DIR`` relocates, ``REPRO_EXEC_CACHE_MAX_MB``
# bounds, default 64 MB): a torn tail from a killed writer or a
# corrupted record is detected, skipped, and simply re-translated.

#: bump when the record payload layout changes
DISK_FORMAT = 3

#: a single compiled block serializes to a few KB; anything claiming
#: to be bigger is a corrupt length field
_MAX_RECORD = 1 << 24

_FORMAT = FrameFormat(b"SBX1", _MAX_RECORD, ".sbx")
LAYOUT = StoreLayout(_FORMAT, "EXEC_CACHE", "exec", default_mb=64,
                     version=DISK_FORMAT)


# -- what the store holds ----------------------------------------------------
#
# A record's ``fn`` is marshaled Python bytecode that revival runs, so
# a ``.sbx`` store is executable, trusted local state, like
# ``__pycache__``: it is written and read only by processes on this
# host and is never shipped to or accepted from a peer (fleet workers
# translate locally; only ``.tbx`` trace entries, which hold primitive
# values, cross the wire).  Record payloads are still deserialized
# with the restricted :func:`~repro.safeload.safe_loads`, so a corrupt
# frame is skipped, not executed, and adoption-time byte-verification
# against the puller's live memory still keeps a stale or self-modified
# variant from being adopted by a device whose code differs.


class DiskTier(AppendStore):
    """Append-only persistent block store for one port wiring.

    Concurrency model: every record is appended with a single
    ``O_APPEND`` write, and every frame is self-checking — readers in
    other processes pick up appended frames incrementally (cheap
    ``stat`` + read from the last consumed offset) and skip anything
    torn or corrupt.  No locks, no coordination: the worst race is a
    duplicate record, which the per-``(pc, code)`` dedup set absorbs.

    The tier stores *record dicts* (plain serialized data); turning a
    record back into a live compiled block — re-decoding each step
    from the recorded bytes, reviving the marshaled generated code —
    is the CPU layer's job (:func:`repro.msp430.cpu._block_from_record`),
    keyed off :meth:`take` at superblock-compile time.
    """

    __slots__ = ("_records", "_seen", "_counts")

    def __init__(self, path: Path):
        #: pc -> not-yet-revived record dicts read from the file
        self._records: Dict[int, List[dict]] = {}
        #: (pc, code bytes) already read or published — the dedup set
        self._seen = set()
        #: pc -> total variants seen (enforces MAX_VARIANTS on disk)
        self._counts: Dict[int, int] = {}
        super().__init__(path, LAYOUT)

    def stats(self) -> dict:
        return {"path": str(self.path), "loaded": self.loaded,
                "published": self.published, "corrupt": self.corrupt,
                "pending": sum(len(v) for v in self._records.values())}

    def _accept(self, record) -> bool:
        pc = record["pc"]              # wrong shape raises -> corrupt
        code = record["code"]
        key = (pc, code)
        if key in self._seen:
            return False
        if self._counts.get(pc, 0) >= MAX_VARIANTS:
            return False               # rogue-variant cap, on disk too
        self._seen.add(key)
        self._counts[pc] = self._counts.get(pc, 0) + 1
        self._records.setdefault(pc, []).append(record)
        return True

    def take(self, pc: int) -> Optional[List[dict]]:
        """Pop (and return) the pending records for ``pc`` — each is
        revived at most once per process; the revived block then lives
        in the in-memory store like any other published variant."""
        return self._records.pop(pc, None)

    def publish(self, record: dict) -> None:
        """Append one block record, if its ``(pc, code)`` content is
        new to this store and the per-pc variant cap allows it."""
        pc = record["pc"]
        key = (pc, record["code"])
        if key in self._seen or self._counts.get(pc, 0) >= MAX_VARIANTS:
            return
        if not self.publish_record(record):
            return                     # read-only FS: stay memory-only
        self._seen.add(key)
        self._counts[pc] = self._counts.get(pc, 0) + 1
