"""Self-checking frame stores: the one layout every disk tier uses.

Three persistent cache tiers share one on-disk grammar: the firmware
build cache (:mod:`repro.aft.cache`, one ``.pkl`` entry per build),
the ``.sbx`` execution-cache tier (:mod:`repro.msp430.execcache`) and
the ``.tbx`` cohort trace tier (:mod:`repro.fleet.tracetier`, one
``.tbx`` entry per executed cohort segment).  All persist pickled payloads
as **frames** — a 4-byte magic, a little-endian length, a 16-byte
sha-256 payload prefix, then the payload — in files named by a
16-hex-digit identity hash.  This module holds the format-agnostic
machinery: frame packing and walking, one-frame entry files and
their import, the LRU file prune, store naming, the env-knob
plumbing (``REPRO_<FAMILY>[_DIR|_MAX_MB]``), and the incremental
append-only reader the ``.sbx`` tier subclasses for its many small
records.

The safety model is identical for every family:

* **Framing is self-checking.**  A torn tail from a killed writer, a
  corrupted length field, bit-rot in a payload — all are detected by
  the magic/length/digest walk and skipped, never acted on; in an
  append store the walk resumes at the next magic, so damage costs
  only the frames it hit, and an entry file is used only when it
  holds exactly one intact frame.
* **Deserialization never executes.**  Payloads are deserialized
  with the restricted :func:`repro.safeload.safe_loads`; a payload
  referencing any global outside the family's allowlist (empty for
  ``.sbx`` and ``.tbx``, the firmware data classes for ``.pkl``)
  raises before anything is called, so a corrupt frame degrades to
  "fewer warm frames" or a rebuild.  (A ``.sbx`` record's ``fn`` is
  generated bytecode that *revival* runs, so ``.sbx`` stores are
  trusted local state, like ``__pycache__``, and never cross the
  fleet wire; only ``.tbx`` entries are exported.)
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
import sys
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import faults
from repro.safeload import safe_loads

#: every frame family uses the same header: payload length (u32le) +
#: the first 16 bytes of the payload's sha-256
HEADER = struct.Struct("<I16s")

#: packages whose sources constitute "the toolchain" for store naming
_TOOLCHAIN_PACKAGES = ("aft", "asm", "cc", "kernel", "msp430")


@lru_cache(maxsize=1)
def toolchain_version() -> str:
    """Content hash of the toolchain's own sources, once per process —
    editing the compiler, assembler, linker, kernel templates or CPU
    starts a new store file in every tier."""
    digest = hashlib.sha256()
    root = Path(__file__).resolve().parent
    for package in _TOOLCHAIN_PACKAGES:
        for path in sorted((root / package).glob("*.py")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


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


def _intact_end(data: bytes, fmt: FrameFormat, pos: int) -> int:
    """Where the intact frame starting at ``pos`` ends, or -1 when no
    complete frame with a matching digest starts there."""
    start = pos + len(fmt.magic) + HEADER.size
    if start > len(data) or not data.startswith(fmt.magic, pos):
        return -1
    length, digest = HEADER.unpack_from(data, pos + len(fmt.magic))
    end = start + length
    if length > fmt.max_record or end > len(data) or \
            hashlib.sha256(memoryview(data)[start:end]).digest()[:16] \
            != digest:
        return -1
    return end


def _intact_frame_after(data: bytes, fmt: FrameFormat, pos: int) -> bool:
    """Whether an intact frame starts anywhere after ``pos``."""
    found = data.find(fmt.magic, pos + 1)
    while found >= 0:
        if _intact_end(data, fmt, found) >= 0:
            return True
        found = data.find(fmt.magic, found + 1)
    return False


def walk_frames(data: bytes, fmt: FrameFormat
                ) -> Tuple[List[Tuple[bytes, bytes]], int, int]:
    """Parse ``data`` as consecutive frames of ``fmt``, resynchronising
    past damage.

    Returns ``(frames, damaged, consumed)``: ``frames`` is one
    ``(payload, raw frame bytes)`` per intact frame, in order.  A frame
    that fails its magic, length or digest check starts a damaged
    span: the walk scans forward to the next magic and keeps reading,
    and ``damaged`` counts those spans.  Frames are self-checking, so
    a false magic inside a damaged payload fails in turn and the scan
    goes on.  ``consumed`` is where the walk stopped; it falls short
    of ``len(data)`` only at a tail an appender may still be writing
    — too few bytes for a header, or a header whose payload runs past
    the data with no intact frame anywhere after it.  A torn header
    that an intact frame follows belongs to a writer that died (each
    append is one ``O_APPEND`` write, so a live writer's frame is
    never overtaken): it counts as damage and the walk resyncs.
    """
    frames: List[Tuple[bytes, bytes]] = []
    damaged = 0
    in_damage = False
    magic = fmt.magic
    header = len(magic) + HEADER.size
    pos = 0
    while pos + header <= len(data):
        end = _intact_end(data, fmt, pos)
        if end >= 0:
            frames.append((data[pos + header:end], data[pos:end]))
            pos = end
            in_damage = False
            continue
        length = HEADER.unpack_from(data, pos + len(magic))[0]
        if data.startswith(magic, pos) and length <= fmt.max_record \
                and pos + header + length > len(data) \
                and not _intact_frame_after(data, fmt, pos):
            break                      # torn: wait for the appender
        if not in_damage:
            damaged += 1
            in_damage = True
        found = data.find(magic, pos + 1)
        pos = len(data) if found < 0 else found
    return frames, damaged, pos


class StoreLayout:
    """One family's on-disk layout: directory, budget, naming and
    files — all tunable through ``REPRO_<FAMILY>_DIR`` and
    ``REPRO_<FAMILY>_MAX_MB``, plus the global ``REPRO_NO_CACHE`` and
    ``REPRO_CACHE_DIR`` and, when ``switch`` is set, the family's own
    ``REPRO_<FAMILY>=0`` off switch."""

    __slots__ = ("fmt", "family", "subdir", "default_mb", "version",
                 "switch", "_name_re", "_sizes")

    def __init__(self, fmt: FrameFormat, family: str, subdir: str,
                 default_mb: int, version: int, switch: bool = True):
        self.fmt = fmt
        self.family = family          # env-var infix, e.g. EXEC_CACHE
        self.subdir = subdir          # default subdir under .cache/
        self.default_mb = default_mb
        self.version = version        # bump when the payload changes
        self.switch = switch
        self._name_re = re.compile(
            r"^[0-9a-f]{16}" + re.escape(fmt.suffix) + r"$")
        #: (pid, directory) -> an upper bound on the directory's store
        #: bytes: its last scan's total plus what this process wrote
        #: there since (see :meth:`_wrote`)
        self._sizes: Dict[Tuple[int, Path], int] = {}

    def enabled(self) -> bool:
        if os.environ.get("REPRO_NO_CACHE", "") in ("1", "true"):
            return False
        return not self.switch or \
            os.environ.get(f"REPRO_{self.family}", "") not in ("0", "off")

    def directory(self) -> Path:
        """``REPRO_<FAMILY>_DIR``, else ``<REPRO_CACHE_DIR>/<subdir>``,
        else ``<repo>/.cache/<subdir>`` (for the firmware family,
        ``CACHE``, the override *is* ``REPRO_CACHE_DIR``)."""
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

    def store_path(self, *identity) -> Path:
        """The file for one store identity.  Everything version-shaped
        — the family's format version, the interpreter, the
        toolchain's own sources — goes *into the name*, so an
        incompatible change simply starts a new file and the old one
        ages out under the LRU budget."""
        key = (self.version, sys.implementation.cache_tag,
               toolchain_version()) + identity
        digest = hashlib.sha256(repr(key).encode()).hexdigest()
        return self.directory() / (digest[:16] + self.fmt.suffix)

    def valid_name(self, name: str) -> bool:
        return bool(self._name_re.match(name))

    def _by_age(self, directory: Path) -> List[tuple]:
        """``(mtime, size, path)`` of every store file in
        ``directory`` (none if it does not exist), oldest first."""
        entries = []
        for path in directory.glob("*" + self.fmt.suffix):
            try:
                stat = path.stat()
            except OSError:
                continue               # raced with a prune
            entries.append((stat.st_mtime, stat.st_size, path))
        return sorted(entries)

    def prune(self, directory: Optional[Path] = None,
              max_bytes: Optional[int] = None,
              keep: Optional[Path] = None) -> int:
        """Evict least-recently-used store files until the directory
        fits the budget; returns the number of files removed.
        ``keep`` (the store a live process is appending to) is never
        evicted — its mtime is refreshed by every append anyway."""
        directory = self.directory() if directory is None else directory
        limit = self.max_bytes() if max_bytes is None else max_bytes
        if limit <= 0:
            return 0
        entries = self._by_age(directory)
        total = sum(size for _mtime, size, _path in entries)
        removed = 0
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
        self._sizes[os.getpid(), directory] = total
        return removed

    def _wrote(self, path: Path, size: int) -> None:
        """Account ``size`` bytes just written to ``path`` (an entry
        installed, a record appended) and prune its directory, keeping
        ``path``, only when the budget could be exceeded: on this
        process's first write there, or when the last scan's total
        plus the bytes this process has written since passes the
        budget.  Files other processes add are seen at the next
        scan, so a directory shared by several writers can overshoot
        its budget by what the others wrote in between."""
        limit = self.max_bytes()
        if limit <= 0:
            return
        key = (os.getpid(), path.parent)
        total = self._sizes.get(key)
        if total is not None and total + size <= limit:
            self._sizes[key] = total + size
            return
        self.prune(path.parent, limit, keep=path)

    # -- entry export/import (the fleet blob channel) -------------------

    def list_store_files(self, limit: int) -> List[dict]:
        """The ``limit`` most recently used offerable entries in this
        family's cache dir, by name: ``[{"name", "sha", "size"},
        ...]`` — the coordinator's side of the blob-channel
        handshake."""
        newest = [path for _mtime, _size, path
                  in reversed(self._by_age(self.directory()))
                  if self.valid_name(path.name)]
        offers = []
        for path in sorted(newest[:limit]):
            try:
                data = path.read_bytes()
            except OSError:
                continue
            offers.append({"name": path.name,
                           "sha": hashlib.sha256(data).hexdigest(),
                           "size": len(data)})
        return offers

    def read_store_file(self, name: str) -> Optional[bytes]:
        """The raw bytes of one offerable entry, or ``None`` (bad
        name, vanished file)."""
        if not self.valid_name(name):
            return None
        try:
            return (self.directory() / name).read_bytes()
        except OSError:
            return None

    def have_store_file(self, name: str) -> bool:
        """Whether this host already has the named entry — an
        importer skips those: an entry's name fixes its content."""
        return self.valid_name(name) and \
            (self.directory() / name).exists()

    def import_store_file(self, name: str, data: bytes,
                          accept: Callable[[bytes], bool]) -> bool:
        """Install an entry fetched from a peer; returns whether it
        was installed.

        No-op when this family is disabled, the name is not a valid
        entry name, the entry already exists locally, ``data`` is not
        exactly one intact frame (what :meth:`read_entry` would
        accept), or ``accept(payload)`` refuses the payload."""
        if not self.enabled() or not self.valid_name(name):
            return False
        path = self.directory() / name
        if path.exists():
            return False
        payload = self._payload(data)
        if payload is None or not accept(payload):
            return False
        return self._install(path, data)

    # -- one-frame entry files (the firmware and trace tiers) -----------

    def write_entry(self, path: Path, payload: bytes) -> bool:
        """Write ``payload`` as a file holding exactly one frame;
        returns whether it landed (``False``: oversized payload or an
        unwritable cache dir)."""
        if len(payload) > self.fmt.max_record:
            return False
        return self._install(path, self.fmt.frame(payload))

    def read_entry(self, path: Path) -> Optional[bytes]:
        """The payload of an entry file, or ``None`` unless the file
        holds exactly one intact frame (missing, torn, bit-rotted,
        garbage, trailing bytes).  A hit refreshes the file's mtime,
        so hot entries survive LRU sweeps."""
        try:
            payload = self._payload(path.read_bytes())
        except OSError:
            return None
        if payload is not None:
            try:
                os.utime(path)
            except OSError:
                pass                   # raced with a prune: still valid
        return payload

    def _payload(self, data: bytes) -> Optional[bytes]:
        """The payload of ``data`` if it is exactly one intact frame,
        else ``None``."""
        frames, damaged, consumed = walk_frames(data, self.fmt)
        if consumed < len(data) or damaged or len(frames) != 1:
            return None
        return frames[0][0]

    def _install(self, path: Path, data: bytes) -> bool:
        """Atomically (temp file, then rename) write ``data`` at
        ``path`` and keep the directory in budget (:meth:`_wrote`)."""
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(
                f"{self.fmt.suffix}.tmp{os.getpid()}")
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError:
            return False               # unwritable cache dir
        self._wrote(path, len(data))
        return True


class AppendStore:
    """Incremental reader/appender over one self-checking store file.

    Concurrency model: every record is appended with a single
    ``O_APPEND`` write, and every frame is self-checking — readers in
    other processes pick up appended frames incrementally (cheap
    ``stat`` + read from the last consumed offset) and skip anything
    torn or corrupt.  No locks, no coordination: the worst race is a
    duplicate record, which the subclass's content-level dedup
    absorbs.

    Subclasses (the ``.sbx`` tier's
    :class:`~repro.msp430.execcache.DiskTier`) implement
    :meth:`_accept`, which indexes one deserialized record and returns
    whether it was new (``False`` for duplicates and over-cap
    variants); a record of the wrong shape raises and is counted
    ``corrupt``.
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
        # damaged spans are skipped, never truncated: another process
        # may be mid-append, and a torn tail stays unconsumed to wait
        # for its appender
        frames, damaged, consumed = walk_frames(data, self.layout.fmt)
        self.corrupt += damaged
        for payload, _raw in frames:
            try:
                record = safe_loads(payload)
                accepted = self._accept(record)
            except Exception:
                self.corrupt += 1
                continue
            if accepted:
                self.loaded += 1
                new = True
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
        frame = self.layout.fmt.frame(payload)
        try:
            with self.path.open("ab") as fh:
                fh.write(frame)
        except OSError:
            return False
        faults.hit("store.after_append")
        # (the next refresh re-reads our own frame and dedups it via
        # the family's content index — offset tracking stays simple
        # and conservative)
        self.published += 1
        self.layout._wrote(self.path, len(frame))
        return True
