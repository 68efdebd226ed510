"""64 KB memory bus with the MSP430FR5969 region map.

Figure 1 of the paper draws the map this simulator implements:

====================  =================  ==========================
Address range         Region             Notes
====================  =================  ==========================
0x0000 - 0x0FFF       peripheral regs    not protectable by the MPU
0x1000 - 0x17FF       bootstrap loader   ROM
0x1800 - 0x19FF       InfoMem            512 B FRAM, MPU segment 0
0x1A00 - 0x1AFF       device descriptor  ROM
0x1B00 - 0x1BFF       *no memory*
0x1C00 - 0x23FF       SRAM (2 KB)        OS stack lives here
0x2400 - 0x43FF       *no memory*
0x4400 - 0xFF7F       main FRAM          OS + apps (MPU segments 1-3)
0xFF80 - 0xFFFF       interrupt vectors  top of FRAM
====================  =================  ==========================

Accesses to unmapped holes raise :class:`~repro.errors.MemoryAccessError`
— on real hardware they trigger a vacant-memory-access reset.  Word
accesses ignore bit 0 of the address, as the hardware does.

The bus supports memory-mapped I/O handlers (the MPU registers and the
kernel's service/done ports use them) and access-observer hooks used by
the profiler.

Permission fast path
--------------------

Instead of walking the region list and the MPU segment map on every
access, the bus keeps a flat per-address permission bitmap: one byte
per address whose low three bits say whether a read (bit 0), write
(bit 1) or execute (bit 2) is allowed there.  The bitmap is the AND of

* the static region permissions (computed once at construction), and
* the attached MPU's *permission overlay* (recomputed only when the
  MPU configuration changes — the MPU invalidates the bitmap from its
  register-write handlers, and overlays are memoized per configuration
  signature so swapping between the OS and per-app configurations is a
  dict hit).

When the bitmap denies an access, the original region walk + MPU
segment check runs as a slow path so the error type, message, and MPU
violation-flag side effects are bit-for-bit what they always were.
Architecture-visible behaviour is unchanged; only speed differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import MemoryAccessError

READ = "read"
WRITE = "write"
EXECUTE = "execute"

#: permission bitmap bits (match the MPU's SAM R/W/X bit values)
PERM_R = 0b001
PERM_W = 0b010
PERM_X = 0b100

_KIND_BIT = {READ: PERM_R, WRITE: PERM_W, EXECUTE: PERM_X}

#: translation tables for OR-ing a grant into an overlay slice at C
#: speed: ``buf[s:e] = buf[s:e].translate(OR_TABLES[bits])``
OR_TABLES = tuple(bytes(v | b for v in range(256)) for b in range(8))


@dataclass(frozen=True)
class Region:
    """One contiguous region of the address space."""

    name: str
    start: int
    end: int              # inclusive
    readable: bool = True
    writable: bool = True
    executable: bool = True
    present: bool = True

    def contains(self, address: int) -> bool:
        return self.start <= address <= self.end

    def allows(self, kind: str) -> bool:
        if not self.present:
            return False
        if kind == READ:
            return self.readable
        if kind == WRITE:
            return self.writable
        return self.executable

    def permission_bits(self) -> int:
        if not self.present:
            return 0
        return ((PERM_R if self.readable else 0)
                | (PERM_W if self.writable else 0)
                | (PERM_X if self.executable else 0))


class MemoryMap:
    """The FR5969 region layout, plus named landmarks."""

    PERIPH_START = 0x0000
    PERIPH_END = 0x0FFF
    BSL_START = 0x1000
    BSL_END = 0x17FF
    INFOMEM_START = 0x1800
    INFOMEM_END = 0x19FF
    DEVDESC_START = 0x1A00
    DEVDESC_END = 0x1AFF
    HOLE1_START = 0x1B00
    HOLE1_END = 0x1BFF
    SRAM_START = 0x1C00
    SRAM_END = 0x23FF
    HOLE2_START = 0x2400
    HOLE2_END = 0x43FF
    FRAM_START = 0x4400
    FRAM_END = 0xFF7F
    VECTORS_START = 0xFF80
    VECTORS_END = 0xFFFF

    RESET_VECTOR = 0xFFFE

    def __init__(self) -> None:
        self.regions: List[Region] = [
            Region("peripherals", self.PERIPH_START, self.PERIPH_END,
                   executable=False),
            Region("bsl", self.BSL_START, self.BSL_END, writable=False),
            Region("infomem", self.INFOMEM_START, self.INFOMEM_END,
                   executable=False),
            Region("devdesc", self.DEVDESC_START, self.DEVDESC_END,
                   writable=False, executable=False),
            Region("hole1", self.HOLE1_START, self.HOLE1_END, present=False),
            Region("sram", self.SRAM_START, self.SRAM_END),
            Region("hole2", self.HOLE2_START, self.HOLE2_END, present=False),
            Region("fram", self.FRAM_START, self.FRAM_END),
            Region("vectors", self.VECTORS_START, self.VECTORS_END),
        ]
        # O(1) lookup: every region boundary is 128-byte aligned, so a
        # 512-entry page table covers the space exactly.
        self.page_table: List[Region] = []
        for page in range(512):
            address = page << 7
            self.page_table.append(next(
                r for r in self.regions if r.contains(address)))

    def region_at(self, address: int) -> Region:
        if not 0 <= address <= 0xFFFF:
            raise MemoryAccessError(address, READ, "outside 64 KB space")
        return self.page_table[address >> 7]

    def region_permission_bytes(self) -> bytes:
        """Flat per-address allowed-bits map of the static regions."""
        perm = bytearray(0x10000)
        for region in self.regions:
            bits = region.permission_bits()
            perm[region.start:region.end + 1] = \
                bytes([bits]) * (region.end - region.start + 1)
        return bytes(perm)

    @classmethod
    def in_main_fram(cls, address: int) -> bool:
        """Is ``address`` in the MPU-coverable main FRAM (incl. vectors)?"""
        return cls.FRAM_START <= address <= cls.VECTORS_END

    @classmethod
    def in_infomem(cls, address: int) -> bool:
        return cls.INFOMEM_START <= address <= cls.INFOMEM_END


ReadHandler = Callable[[int], int]
WriteHandler = Callable[[int, int], None]
Observer = Callable[[int, str, int], None]

#: interned static region bitmaps, keyed by value.  Every Memory built
#: from the same map shares one ``bytes`` object, which in turn makes
#: the combined (region & MPU) bitmaps below shareable by identity —
#: the CPU's superblocks cache the bitmap *object* they were last
#: execute-validated against, so identical MPU configurations on
#: different devices must yield the same object, not just equal bytes.
_REGION_PERM_INTERN: Dict[bytes, bytes] = {}

#: process-global combined-bitmap memo: (region bitmap id, MPU
#: configuration signature) -> combined bitmap.  Signatures fully
#: determine the overlay (see Mpu.permission_signature), so the memo
#: is safe to share across devices; region ids are stable because the
#: intern table above keeps every region bitmap alive.
_PERM_MEMO: Dict[tuple, bytes] = {}


def _intern_region_perm(perm: bytes) -> bytes:
    return _REGION_PERM_INTERN.setdefault(perm, perm)


class Memory:
    """The simulated bus.

    Checks, in order: region presence/attributes, MPU (if attached and
    enabled), then performs the access.  I/O handlers intercept word
    accesses to registered addresses before touching backing storage.
    """

    def __init__(self, memory_map: Optional[MemoryMap] = None):
        self.map = memory_map if memory_map is not None else MemoryMap()
        self._bytes = bytearray(0x10000)
        #: the same storage as native 16-bit words, for generated
        #: code's word accesses (the CPU uses it on little-endian
        #: hosts, where word ``a >> 1`` is bytes ``a`` and ``a + 1``).
        #: ``_bytes`` is never rebound or resized, so the view stays
        #: valid: every bulk write below keeps the slice's length
        self._words = memoryview(self._bytes).cast("H")
        self.mpu = None  # set by Cpu / kernel; avoids circular import
        self._io_read: Dict[int, ReadHandler] = {}
        self._io_write: Dict[int, WriteHandler] = {}
        #: one past the highest registered port's word: no access at
        #: or above it reaches a handler, so the access paths (and the
        #: CPU's inline probe) skip the handler-dict hash there
        self._io_top = 0
        self._observers: List[Observer] = []
        # When True, region/MPU checks are bypassed (loader, debugger).
        self._supervisor_depth = 0
        # -- invalidation fast path ----------------------------------
        # The CPU's icache/superblock invalidator must see every write
        # that can touch cached code (self-modifying code, loaders),
        # but it only has work to do when the written page actually
        # holds decoded code.  It registers here with a 1024-entry
        # per-64-byte-page mask (shared by reference with the CPU,
        # which sets bits as it caches, for every page a cached
        # instruction or block touches); the write paths probe the
        # written page's byte and skip the Python call for the
        # overwhelmingly common data-page write.
        self._inv_hook: Optional[WriteHandler] = None
        self._inv_mask: Optional[bytearray] = None
        # -- permission fast path ------------------------------------
        #: static region allowed-bits, computed once and interned so
        #: identical maps share one object across Memory instances
        self._region_perm: bytes = _intern_region_perm(
            self.map.region_permission_bytes())
        #: active bitmap (region & MPU overlay)
        self._perm: bytes = self._region_perm
        #: set by :meth:`invalidate_permissions`; forces a rebuild on
        #: the next checked access
        self._perm_stale = False
        #: overlay memo: MPU configuration signature -> combined bitmap
        self._perm_cache: Dict[tuple, bytes] = {}

    # -- configuration -----------------------------------------------------
    def add_io(self, address: int,
               read: Optional[ReadHandler] = None,
               write: Optional[WriteHandler] = None) -> None:
        """Register a memory-mapped I/O word at ``address``."""
        if address & 1:
            raise ValueError("I/O ports must be word aligned")
        if read is not None:
            self._io_read[address] = read
        if write is not None:
            self._io_write[address] = write
        if address + 2 > self._io_top:
            self._io_top = address + 2

    def io_addresses(self) -> frozenset:
        """Every word address with a registered I/O handler (read or
        write).  The CPU's superblock compiler terminates blocks at
        instructions that statically address one of these — kernel
        gate ports, MPU registers, the cycle timer — so port side
        effects always run under the exact ``step()`` path."""
        return frozenset(self._io_read) | frozenset(self._io_write)

    def add_observer(self, observer: Observer) -> None:
        self._observers.append(observer)

    def remove_observer(self, observer: Observer) -> None:
        self._observers.remove(observer)

    def set_invalidator(self, hook: WriteHandler,
                        mask: bytearray) -> None:
        """Install the CPU's code-cache invalidator with its page mask.

        ``mask`` has one byte per 64-byte page; a nonzero byte means
        some cached decoded code (an instruction, a block, or an
        instruction spilling in from the previous page) has bytes on
        that page.  Per-address writes only call
        ``hook`` when the mask says the write can touch cached code;
        bulk writes (:meth:`load`, :meth:`fill`, :meth:`load_state`)
        always call it with address ``-1``."""
        if len(mask) != 1024:
            raise ValueError("invalidator mask must cover 1024 pages")
        self._inv_hook = hook
        self._inv_mask = mask

    # -- permission bitmap -------------------------------------------------
    def invalidate_permissions(self) -> None:
        """Mark the flat permission bitmap stale (MPU config changed)."""
        self._perm_stale = True

    def _refresh_permissions(self) -> bytes:
        """Rebuild the active bitmap from the region map and the MPU
        (either MPU model: both expose ``permission_signature`` and
        ``permission_overlay``)."""
        self._perm_stale = False
        mpu = self.mpu
        if mpu is None:
            self._perm = self._region_perm
            return self._perm
        sig = mpu.permission_signature()
        perm = self._perm_cache.get(sig)
        if perm is None:
            # L2: the process-global memo.  Signatures fully determine
            # overlays, and region bitmaps are interned, so two devices
            # with the same map and MPU configuration share the *same*
            # combined bitmap object — which keeps superblock
            # ``perm_ok is perm`` revalidation an identity hit even for
            # blocks pulled from the shared execution cache.
            key = (id(self._region_perm), sig)
            perm = _PERM_MEMO.get(key)
            if perm is None:
                overlay = mpu.permission_overlay()
                if overlay is None:
                    perm = self._region_perm
                else:
                    combined = (int.from_bytes(self._region_perm,
                                               "little")
                                & int.from_bytes(overlay, "little"))
                    perm = combined.to_bytes(0x10000, "little")
                _PERM_MEMO[key] = perm
            self._perm_cache[sig] = perm
        self._perm = perm
        return perm

    def access_allowed(self, address: int, kind: str) -> bool:
        """Would a ``kind`` access at ``address`` be permitted?

        Side-effect free (no MPU violation flags are raised or set);
        used by tests and tooling to probe the permission bitmap."""
        if not 0 <= address <= 0xFFFF:
            return False
        if self._perm_stale:
            self._refresh_permissions()
        return bool(self._perm[address] & _KIND_BIT[kind])

    # -- supervisor (unchecked) access --------------------------------------
    class _Supervisor:
        def __init__(self, memory: "Memory"):
            self._memory = memory

        def __enter__(self) -> "Memory":
            self._memory._supervisor_depth += 1
            return self._memory

        def __exit__(self, *exc) -> None:
            self._memory._supervisor_depth -= 1

    def supervisor(self) -> "Memory._Supervisor":
        """Context manager for loader/debugger access that skips checks."""
        return Memory._Supervisor(self)

    # -- checks --------------------------------------------------------------
    def _check(self, address: int, kind: str) -> None:
        if self._supervisor_depth:
            return
        if self._perm_stale:
            self._refresh_permissions()
        if 0 <= address <= 0xFFFF \
                and self._perm[address] & _KIND_BIT[kind]:
            return
        self._check_slow(address, kind)

    def _check_slow(self, address: int, kind: str) -> None:
        """The original region walk + MPU segment check.  Runs when the
        bitmap denies; raises the same errors with the same MPU
        violation-flag side effects as always."""
        if not 0 <= address <= 0xFFFF:
            raise MemoryAccessError(address, kind, "outside 64 KB space")
        region = self.map.page_table[address >> 7]
        if not region.allows(kind):
            reason = ("no memory" if not region.present
                      else f"{region.name} is not {kind[:-1]}able"
                      if kind != EXECUTE else
                      f"{region.name} is not executable")
            raise MemoryAccessError(address, kind, reason)
        if self.mpu is not None:
            self.mpu.check(address, kind)

    def _notify(self, address: int, kind: str, size: int) -> None:
        for observer in self._observers:
            observer(address, kind, size)

    # -- byte access -----------------------------------------------------------
    def read_byte(self, address: int, kind: str = READ) -> int:
        address &= 0xFFFF
        if not self._supervisor_depth:
            if self._perm_stale:
                self._refresh_permissions()
            if not self._perm[address] & \
                    (PERM_R if kind is READ else _KIND_BIT[kind]):
                self._check_slow(address, kind)
        if self._observers:
            self._notify(address, kind, 1)
        base = address & ~1
        if base < self._io_top and base in self._io_read:
            word = self._io_read[base]() & 0xFFFF
            return (word >> 8) & 0xFF if address & 1 else word & 0xFF
        return self._bytes[address]

    def write_byte(self, address: int, value: int) -> None:
        address &= 0xFFFF
        if not self._supervisor_depth:
            if self._perm_stale:
                self._refresh_permissions()
            if not self._perm[address] & PERM_W:
                self._check_slow(address, WRITE)
        if self._observers:
            self._notify(address, WRITE, 1)
        base = address & ~1
        if base < self._io_top and base in self._io_write:
            # Byte writes to I/O ports write the low byte, high byte zero,
            # matching MSP430 peripheral semantics.
            self._io_write[base](base, value & 0xFF)
            return
        self._bytes[address] = value & 0xFF
        inv = self._inv_hook
        if inv is not None and self._inv_mask[address >> 6]:
            inv(address, value)

    # -- word access ------------------------------------------------------------
    def read_word(self, address: int, kind: str = READ) -> int:
        # Every region and MPU boundary is at least 16-byte aligned,
        # so an even-aligned word never spans a boundary: one check
        # covers both bytes.
        address &= 0xFFFE
        if not self._supervisor_depth:
            if self._perm_stale:
                self._refresh_permissions()
            if not self._perm[address] & \
                    (PERM_R if kind is READ else _KIND_BIT[kind]):
                self._check_slow(address, kind)
        if self._observers:
            self._notify(address, kind, 2)
        if address < self._io_top and address in self._io_read:
            return self._io_read[address]() & 0xFFFF
        data = self._bytes
        return data[address] | (data[address + 1] << 8)

    def write_word(self, address: int, value: int) -> None:
        address &= 0xFFFE
        if not self._supervisor_depth:
            if self._perm_stale:
                self._refresh_permissions()
            if not self._perm[address] & PERM_W:
                self._check_slow(address, WRITE)
        if self._observers:
            self._notify(address, WRITE, 2)
        if address < self._io_top and address in self._io_write:
            self._io_write[address](address, value & 0xFFFF)
            return
        data = self._bytes
        data[address] = value & 0xFF
        data[address + 1] = (value >> 8) & 0xFF
        inv = self._inv_hook
        if inv is not None and self._inv_mask[address >> 6]:
            inv(address, value)

    def fetch_word(self, address: int) -> int:
        """Instruction fetch: a word read with execute permission."""
        return self.read_word(address, kind=EXECUTE)

    # -- bulk helpers (loader) ----------------------------------------------------
    def load(self, address: int, blob: bytes) -> None:
        """Loader write, bypassing permission checks."""
        end = address + len(blob)
        if end > 0x10000:
            raise MemoryAccessError(end, WRITE, "load past end of memory")
        self._bytes[address:end] = blob
        self._bulk_invalidate()

    def dump(self, address: int, length: int) -> bytes:
        """Debugger read, bypassing permission checks."""
        return bytes(self._bytes[address:address + length])

    # -- snapshot/restore ---------------------------------------------------
    def state_dict(self) -> dict:
        """The full 64 KB backing image.  I/O handlers, observers and
        the invalidator are *wiring*, re-created when the owning
        machine is reconstructed, so only the bytes are captured."""
        return {"bytes": bytes(self._bytes)}

    def load_state(self, state: dict) -> None:
        blob = state["bytes"]
        if len(blob) != 0x10000:
            raise ValueError(f"memory snapshot must be 64 KB, "
                             f"got {len(blob)} bytes")
        self._bytes[:] = blob
        self._bulk_invalidate()

    def fill(self, address: int, length: int, value: int = 0) -> None:
        if address + length > 0x10000:
            raise MemoryAccessError(address + length, WRITE,
                                    "fill past end of memory")
        self._bytes[address:address + length] = \
            bytes([value & 0xFF]) * length
        self._bulk_invalidate()

    def _bulk_invalidate(self) -> None:
        """Bulk write: full invalidation of every cached-code consumer."""
        if self._inv_hook is not None:
            self._inv_hook(-1, 0)

    # -- page deltas (checkpoints) -----------------------------------------
    def delta_since(self, image) -> Dict[int, bytes]:
        """Pages of the current contents that differ from ``image``."""
        return page_delta(self._bytes, image)

    def apply_pages(self, pages: Dict[int, bytes]) -> None:
        """Bulk-write ``{offset: bytes}`` pages (a delta produced by
        :func:`page_delta`), bypassing permission checks, with one
        invalidation pass at the end — the restore half of a delta
        checkpoint."""
        data = self._bytes
        for offset, chunk in pages.items():
            data[offset:offset + len(chunk)] = chunk
        if pages:
            self._bulk_invalidate()


#: coarse pass granularity for :func:`page_delta`; one slice compare
#: per chunk prunes the fine scan to chunks that actually changed
_DELTA_CHUNK = 4096


def page_delta(image, base, page: int = 256) -> Dict[int, bytes]:
    """``{offset: page bytes}`` for every ``page``-sized page of
    ``image`` that differs from ``base``.

    Hierarchical: a 4 KB slice compare (memcmp under the hood) first,
    descending to page granularity only inside changed chunks.  On the
    all-but-identical images the fleet sees — a device dirties a few
    dozen stack/global pages out of 256 — this is ~8x cheaper than
    scanning every page.  Output (keys, values, insertion order) is
    identical to the flat per-page scan.
    """
    delta: Dict[int, bytes] = {}
    size = len(base)
    for lo in range(0, size, _DELTA_CHUNK):
        hi = min(lo + _DELTA_CHUNK, size)
        if image[lo:hi] != base[lo:hi]:
            for offset in range(lo, hi, page):
                chunk = image[offset:offset + page]
                if chunk != base[offset:offset + page]:
                    delta[offset] = bytes(chunk)
    return delta
