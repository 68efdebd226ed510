"""Self-checking append-only frame stores (shared plumbing).

Two persistent cache tiers share one on-disk grammar: the ``.sbx``
execution-cache tier (:mod:`repro.msp430.execcache`) and the ``.tbx``
cohort trace tier (:mod:`repro.fleet.tracetier`).  Both persist
pickled record dicts as **frames** — a 4-byte magic, a little-endian
length, a 16-byte sha-256 payload prefix, then the payload — appended
to store files named by a 16-hex-digit identity hash.  This module
holds the format-agnostic machinery: frame packing and walking, the
import-time scan, the LRU file prune, the env-knob plumbing
(``REPRO_<FAMILY>[_DIR|_MAX_MB]``), and the incremental append-only
reader both tiers subclass.

The safety model is identical for every family:

* **Framing is self-checking.**  A torn tail from a killed writer, a
  corrupted length field, bit-rot in a payload — all are detected by
  the magic/length/digest walk and skipped, never acted on.
* **Ingestion never executes.**  Payloads are deserialized with the
  restricted :func:`repro.safeload.safe_loads`; a payload referencing
  any global raises before anything is called, so a hostile store
  file degrades to "fewer warm frames", never to code execution.
* **Frame digests prove framing, not provenance.**  An attacker
  controls magic, length, and digest of frames it writes; every
  family therefore re-validates record *content* on ingest (shape
  checks here, byte- or state-verification at adoption time in the
  tier above).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import struct
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import faults
from repro.safeload import safe_loads

#: every frame family uses the same header: payload length (u32le) +
#: the first 16 bytes of the payload's sha-256
HEADER = struct.Struct("<I16s")


class FrameFormat:
    """One store family's framing identity: magic + record bound."""

    __slots__ = ("magic", "max_record", "suffix")

    def __init__(self, magic: bytes, max_record: int, suffix: str):
        self.magic = magic
        self.max_record = max_record
        self.suffix = suffix

    def frame(self, payload: bytes) -> bytes:
        """One complete frame for ``payload``."""
        digest = hashlib.sha256(payload).digest()[:16]
        return self.magic + HEADER.pack(len(payload), digest) + payload


def walk_frames(data: bytes, fmt: FrameFormat
                ) -> Tuple[List[Tuple[bytes, bytes, bool]], int, str]:
    """Parse ``data`` as consecutive frames of ``fmt``.

    Returns ``(events, consumed, tail)``: ``events`` is one
    ``(payload, raw frame bytes, digest_ok)`` per structurally
    complete frame, in order; ``consumed`` is the offset just past the
    last complete frame; ``tail`` classifies why the walk stopped —

    ========   ======================================================
    tail       meaning
    ========   ======================================================
    clean      every byte consumed
    fragment   trailing bytes shorter than a frame header
    torn       a frame header whose payload runs past the data
    sync       bad magic — lost sync, the rest is unparseable
    oversize   a length field past ``max_record`` — corrupt header
    ========   ======================================================

    ``fragment``/``torn`` mean "an appender may still be writing";
    ``sync``/``oversize`` mean the remaining bytes are garbage.  The
    caller decides what each means for its counters and its offset.
    """
    events: List[Tuple[bytes, bytes, bool]] = []
    view = memoryview(data)
    pos = 0
    frame = len(fmt.magic) + HEADER.size
    tail = "clean"
    while pos + frame <= len(view):
        if bytes(view[pos:pos + len(fmt.magic)]) != fmt.magic:
            tail = "sync"
            break
        length, digest = HEADER.unpack_from(view, pos + len(fmt.magic))
        if length > fmt.max_record:
            tail = "oversize"
            break
        start = pos + frame
        if start + length > len(view):
            tail = "torn"
            break
        payload = bytes(view[start:start + length])
        ok = hashlib.sha256(payload).digest()[:16] == digest
        events.append((payload, bytes(view[pos:start + length]), ok))
        pos = start + length
    else:
        if pos < len(view):
            tail = "fragment"
    return events, pos, tail


def scan_store(data: bytes, fmt: FrameFormat,
               validate: Callable[[object], None]
               ) -> Tuple[bytes, int, int]:
    """Walk ``data`` and keep only fully valid frames (import path).

    Returns ``(valid frame bytes, records kept, frames rejected)``.
    Applies every check ingestion applies — magic, length bound,
    payload digest, globals-free restricted unpickling, then the
    family's ``validate`` (which raises on a bad record shape) — and,
    being an import-time scan of a complete transfer, also treats a
    torn or trailing-fragment tail as a rejection rather than "wait
    for more"."""
    kept = bytearray()
    records = 0
    rejected = 0
    events, _consumed, tail = walk_frames(data, fmt)
    for payload, raw, ok in events:
        if not ok:
            rejected += 1
            continue
        try:
            validate(safe_loads(payload))
        except Exception:
            rejected += 1
            continue
        kept += raw
        records += 1
    if tail in ("sync", "oversize", "torn"):
        rejected += 1
    elif tail == "fragment" and not rejected:
        rejected += 1
    return bytes(kept), records, rejected


class StoreLayout:
    """One family's on-disk layout: directory, budget, and naming —
    all tunable through ``REPRO_<FAMILY>``, ``REPRO_<FAMILY>_DIR`` and
    ``REPRO_<FAMILY>_MAX_MB`` (plus the global ``REPRO_NO_CACHE`` and
    ``REPRO_CACHE_DIR``)."""

    __slots__ = ("fmt", "family", "subdir", "default_mb", "_name_re")

    def __init__(self, fmt: FrameFormat, family: str, subdir: str,
                 default_mb: int):
        self.fmt = fmt
        self.family = family          # env-var infix, e.g. EXEC_CACHE
        self.subdir = subdir          # default subdir under .cache/
        self.default_mb = default_mb
        self._name_re = re.compile(
            r"^[0-9a-f]{16}" + re.escape(fmt.suffix) + r"$")

    def enabled(self) -> bool:
        if os.environ.get("REPRO_NO_CACHE", "") in ("1", "true"):
            return False
        return os.environ.get(f"REPRO_{self.family}", "") \
            not in ("0", "off")

    def directory(self) -> Path:
        """``REPRO_<FAMILY>_DIR``, else ``<REPRO_CACHE_DIR>/<subdir>``,
        else ``<repo>/.cache/<subdir>``."""
        override = os.environ.get(f"REPRO_{self.family}_DIR")
        if override:
            return Path(override)
        shared_root = os.environ.get("REPRO_CACHE_DIR")
        if shared_root:
            return Path(shared_root) / self.subdir
        return Path(__file__).resolve().parents[2] / ".cache" \
            / self.subdir

    def max_bytes(self) -> int:
        """Disk budget from ``REPRO_<FAMILY>_MAX_MB`` (<= 0:
        unbounded)."""
        raw = os.environ.get(f"REPRO_{self.family}_MAX_MB",
                             str(self.default_mb))
        try:
            return int(float(raw) * 1024 * 1024)
        except ValueError:
            return self.default_mb * 1024 * 1024

    def store_name(self, identity: tuple) -> str:
        """The file name for an identity tuple — everything
        version-shaped goes *into the name*, so an incompatible
        change simply starts a new file and the old one ages out
        under the LRU budget."""
        digest = hashlib.sha256(repr(identity).encode()).hexdigest()
        return digest[:16] + self.fmt.suffix

    def valid_name(self, name: str) -> bool:
        return bool(self._name_re.match(name))

    def prune(self, directory: Optional[Path] = None,
              max_bytes: Optional[int] = None,
              keep: Optional[Path] = None) -> int:
        """Evict least-recently-used store files until the directory
        fits the budget; returns the number of files removed.
        ``keep`` (the store a live process is appending to) is never
        evicted — its mtime is refreshed by every append anyway."""
        directory = self.directory() if directory is None else directory
        limit = self.max_bytes() if max_bytes is None else max_bytes
        if limit <= 0 or not directory.is_dir():
            return 0
        entries = []
        total = 0
        for path in directory.glob("*" + self.fmt.suffix):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        removed = 0
        entries.sort()                 # oldest first
        for _mtime, size, path in entries:
            if total <= limit:
                break
            if keep is not None and path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue               # raced with another process
            total -= size
            removed += 1
        return removed

    # -- store export/import (the fleet blob channel) -------------------

    def list_store_files(self) -> List[dict]:
        """Offerable stores in this family's cache dir:
        ``[{"name", "sha", "size"}, ...]`` — the coordinator's side of
        the blob-channel handshake."""
        directory = self.directory()
        offers = []
        if not directory.is_dir():
            return offers
        for path in sorted(directory.glob("*" + self.fmt.suffix)):
            if not self.valid_name(path.name):
                continue
            try:
                data = path.read_bytes()
            except OSError:
                continue
            offers.append({"name": path.name,
                           "sha": hashlib.sha256(data).hexdigest(),
                           "size": len(data)})
        return offers

    def read_store_file(self, name: str) -> Optional[bytes]:
        """The raw bytes of one offerable store, or ``None`` (bad
        name, vanished file)."""
        if not self.valid_name(name):
            return None
        try:
            return (self.directory() / name).read_bytes()
        except OSError:
            return None

    def have_store_file(self, name: str) -> bool:
        """Whether this host already has (any version of) the named
        store — an importer skips those; append-only publishing means
        the local copy converges on its own."""
        return self.valid_name(name) and \
            (self.directory() / name).exists()

    def import_store_file(self, name: str, data: bytes,
                          validate: Callable[[object], None]) -> int:
        """Install a store fetched from a peer; returns records kept.

        No-ops (returns 0) when this family is disabled, the name is
        not a valid store name, the store already exists locally, or
        no frame survives :func:`scan_store`.  The validated frames
        are written atomically under the peer's name — the name
        encodes the store identity, so a store from a peer with a
        different environment simply never gets opened here."""
        if not self.enabled() or not self.valid_name(name):
            return 0
        path = self.directory() / name
        if path.exists():
            return 0
        kept, records, _rejected = scan_store(data, self.fmt, validate)
        if not records:
            return 0
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(
                f"{self.fmt.suffix}.tmp{os.getpid()}")
            tmp.write_bytes(kept)
            os.replace(tmp, path)
        except OSError:
            return 0                   # unwritable cache dir
        self.prune(path.parent, keep=path)
        return records


class AppendStore:
    """Incremental reader/appender over one self-checking store file.

    Concurrency model: every record is appended with a single
    ``O_APPEND`` write, and every frame is self-checking — readers in
    other processes pick up appended frames incrementally (cheap
    ``stat`` + read from the last consumed offset) and skip anything
    torn or corrupt.  No locks, no coordination: the worst race is a
    duplicate record, which each family's content-level dedup absorbs.

    Subclasses implement :meth:`_accept`, which indexes one
    deserialized record and returns whether it was new (``False`` for
    duplicates and over-cap variants); a record of the wrong shape
    raises and is counted ``corrupt``.
    """

    __slots__ = ("path", "layout", "_offset",
                 "loaded", "published", "corrupt")

    def __init__(self, path: Path, layout: StoreLayout):
        self.path = path
        self.layout = layout
        self._offset = 0
        self.loaded = 0
        self.published = 0
        self.corrupt = 0
        path.parent.mkdir(parents=True, exist_ok=True)
        self.refresh()

    def refresh(self) -> bool:
        """Read frames appended since the last call (other workers'
        publishes); returns True when anything new arrived."""
        try:
            size = self.path.stat().st_size
        except OSError:
            return False
        if size <= self._offset:
            return False
        try:
            with self.path.open("rb") as fh:
                fh.seek(self._offset)
                data = fh.read(size - self._offset)
        except OSError:
            return False
        return self._ingest(data)

    def _ingest(self, data: bytes) -> bool:
        new = False
        events, consumed, tail = walk_frames(data, self.layout.fmt)
        for payload, _raw, ok in events:
            if not ok:
                self.corrupt += 1      # bit-rot: skip this frame only
                continue
            try:
                record = safe_loads(payload)
                accepted = self._accept(record)
            except Exception:
                self.corrupt += 1
                continue
            if accepted:
                self.loaded += 1
                new = True
        if tail in ("sync", "oversize"):
            # lost sync (corrupt length field, or garbage from an
            # interleaved write): stop consuming — the remaining tail
            # is re-examined on the next refresh only if the file
            # grows past it, so count it corrupt and give up on this
            # file's tail
            self.corrupt += 1
            consumed = len(data)
        # torn/fragment tails stay unconsumed: wait for the appender
        self._offset += consumed
        return new

    def _accept(self, record) -> bool:
        raise NotImplementedError

    def publish_record(self, record: dict) -> bool:
        """Append one record frame; returns whether it was written
        (``False`` on a read-only FS — stay memory-only)."""
        payload = pickle.dumps(record,
                               protocol=pickle.HIGHEST_PROTOCOL)
        if len(payload) > self.layout.fmt.max_record:
            return False
        try:
            with self.path.open("ab") as fh:
                fh.write(self.layout.fmt.frame(payload))
        except OSError:
            return False
        faults.hit("store.after_append")
        # (the next refresh re-reads our own frame and dedups it via
        # the family's content index — offset tracking stays simple
        # and conservative)
        self.published += 1
        self.layout.prune(self.path.parent, keep=self.path)
        return True
