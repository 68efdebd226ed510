"""The MSP430FR58xx-family Memory Protection Unit.

This is the "low-sophistication MPU" at the heart of the paper.  Its
documented shortcomings — which the paper's design works around — are
modeled faithfully:

1. It covers **main FRAM only**.  SRAM, peripheral registers, the
   bootstrap loader and the device descriptor are never protected.
   (InfoMem has its own segment, but the paper leaves it unused.)
2. Only three main segments exist, delimited by **two adjustable
   boundaries** B1 and B2 (16-byte granularity):
   segment 1 = [FRAM start, B1), segment 2 = [B1, B2),
   segment 3 = [B2, end of FRAM including vectors].
   Three segments cannot express the four regions the paper wants (app
   code / app data / off-limits below / off-limits above), which is why
   the compiler must still insert *lower*-bound checks.
3. Register writes require the password 0xA5 in the high byte of
   MPUCTL0; a wrong password resets the device (modeled as
   :class:`~repro.errors.MemoryAccessError`).  Setting MPULOCK freezes
   the configuration until reset.

Registers (word offsets in peripheral space):

=========  ======  =====================================================
MPUCTL0    0x05A0  password | MPUSEGIE(4) | MPULOCK(1) | MPUENA(0)
MPUCTL1    0x05A2  violation flags: SEG1IFG/SEG2IFG/SEG3IFG/SEGIIFG
MPUSEGB2   0x05A4  boundary B2 = value << 4
MPUSEGB1   0x05A6  boundary B1 = value << 4
MPUSAM     0x05A8  R/W/X bits per segment (4 bits each, seg1..seg3,info)
=========  ======  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import MemoryAccessError, MpuViolationError
from repro.msp430.memory import (
    EXECUTE,
    READ,
    WRITE,
    MemoryMap,
)

MPUCTL0 = 0x05A0
MPUCTL1 = 0x05A2
MPUSEGB2 = 0x05A4
MPUSEGB1 = 0x05A6
MPUSAM = 0x05A8

MPU_PASSWORD = 0xA5
MPUENA = 0x0001
MPULOCK = 0x0002
MPUSEGIE = 0x0010

# MPUSAM bit layout: 4 bits per segment.
SAM_R = 0b0001
SAM_W = 0b0010
SAM_X = 0b0100

# Violation flag bits in MPUCTL1.
SEG1IFG = 0x0001
SEG2IFG = 0x0002
SEG3IFG = 0x0004
SEGIIFG = 0x0008

_KIND_TO_BIT = {READ: SAM_R, WRITE: SAM_W, EXECUTE: SAM_X}


@dataclass(frozen=True)
class SegmentPermissions:
    """High-level R/W/X triple for one MPU segment."""

    read: bool = False
    write: bool = False
    execute: bool = False

    def to_bits(self) -> int:
        return ((SAM_R if self.read else 0)
                | (SAM_W if self.write else 0)
                | (SAM_X if self.execute else 0))

    @staticmethod
    def from_bits(bits: int) -> "SegmentPermissions":
        return SegmentPermissions(bool(bits & SAM_R), bool(bits & SAM_W),
                                  bool(bits & SAM_X))

    @staticmethod
    def parse(text: str) -> "SegmentPermissions":
        """Parse the paper's ``RW-`` / ``--X`` / ``---`` notation.

        Strictly positional: position 1 must be ``R`` or ``-``,
        position 2 ``W`` or ``-``, position 3 ``X`` or ``-`` (case
        insensitive).  Strings like ``"-WR"``, ``"XWR"`` or ``"RRR"``
        are rejected instead of silently mis-parsing.
        """
        upper = text.upper()
        if (len(upper) != 3
                or upper[0] not in "R-" or upper[1] not in "W-"
                or upper[2] not in "X-"):
            raise ValueError(f"bad permission string {text!r}; "
                             f"want {{R|-}}{{W|-}}{{X|-}}")
        return SegmentPermissions(upper[0] == "R", upper[1] == "W",
                                  upper[2] == "X")

    def render(self) -> str:
        return (("R" if self.read else "-")
                + ("W" if self.write else "-")
                + ("X" if self.execute else "-"))


@dataclass(frozen=True)
class MpuConfig:
    """A complete MPU setting, the unit the OS swaps on context switch.

    ``b1`` and ``b2`` are byte addresses (16-byte aligned) of the two
    adjustable boundaries.  ``seg1``..``seg3`` and ``info`` carry the
    permission triples.
    """

    b1: int
    b2: int
    seg1: SegmentPermissions
    seg2: SegmentPermissions
    seg3: SegmentPermissions
    info: SegmentPermissions = SegmentPermissions()
    enabled: bool = True

    def __post_init__(self) -> None:
        for name, bound in (("b1", self.b1), ("b2", self.b2)):
            if bound & 0xF:
                raise ValueError(f"{name}=0x{bound:04X} not 16-byte aligned")
        if not (MemoryMap.FRAM_START <= self.b1 <= self.b2
                <= MemoryMap.VECTORS_END + 1):
            raise ValueError(
                f"boundaries must satisfy FRAM start <= b1 <= b2 <= end "
                f"(got b1=0x{self.b1:04X}, b2=0x{self.b2:04X})"
            )

    def sam_value(self) -> int:
        return (self.seg1.to_bits()
                | (self.seg2.to_bits() << 4)
                | (self.seg3.to_bits() << 8)
                | (self.info.to_bits() << 12))

    def register_writes(self) -> List[Tuple[int, int]]:
        """The (address, value) sequence a driver writes to install this
        configuration.  The kernel's context-switch gates emit exactly one
        MOV instruction per entry, so the length of this list is what the
        extra context-switch cost in Table 1 comes from."""
        ctl0 = (MPU_PASSWORD << 8) | (MPUENA if self.enabled else 0)
        return [
            (MPUCTL0, ctl0),
            (MPUSEGB1, self.b1 >> 4),
            (MPUSEGB2, self.b2 >> 4),
            (MPUSAM, self.sam_value()),
        ]

    def render(self) -> str:
        return (f"MPU[b1=0x{self.b1:04X} b2=0x{self.b2:04X} "
                f"seg1={self.seg1.render()} seg2={self.seg2.render()} "
                f"seg3={self.seg3.render()} info={self.info.render()}]")


class Mpu:
    """Register-accurate MPU model.

    Attach to a :class:`~repro.msp430.memory.Memory` with
    :meth:`attach`; the MPU registers then appear in peripheral space
    and the bus consults :meth:`check` on every access.
    """

    def __init__(self) -> None:
        self.ctl0 = 0
        self.ctl1 = 0
        self.segb1 = 0
        self.segb2 = 0
        self.sam = 0xFFFF  # hardware reset value: everything allowed
        self.violation_address: Optional[int] = None
        self.violation_kind: Optional[str] = None
        # cached byte-address boundaries (hot path)
        self._b1 = 0
        self._b2 = 0
        #: bumped on every configuration change; drives the bus's flat
        #: permission-bitmap invalidation
        self.config_epoch = 0
        self._memory = None

    # -- wiring ---------------------------------------------------------------
    def attach(self, memory) -> None:
        memory.mpu = self
        self._memory = memory
        memory.add_io(MPUCTL0, read=lambda: self.ctl0,
                      write=self._write_ctl0)
        memory.add_io(MPUCTL1, read=lambda: self.ctl1,
                      write=self._write_ctl1)
        memory.add_io(MPUSEGB2, read=lambda: self.segb2,
                      write=self._write_segb2)
        memory.add_io(MPUSEGB1, read=lambda: self.segb1,
                      write=self._write_segb1)
        memory.add_io(MPUSAM, read=lambda: self.sam, write=self._write_sam)
        memory.invalidate_permissions()

    def _config_changed(self) -> None:
        self.config_epoch += 1
        if self._memory is not None:
            self._memory.invalidate_permissions()

    # -- register semantics -------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return bool(self.ctl0 & MPUENA)

    @property
    def locked(self) -> bool:
        return bool(self.ctl0 & MPULOCK)

    def _check_password(self, value: int, register: str) -> None:
        if (value >> 8) != MPU_PASSWORD:
            # Hardware: wrong password causes a PUC (reset).
            raise MemoryAccessError(
                MPUCTL0, WRITE,
                f"MPU password violation writing {register} "
                f"(got 0x{value >> 8:02X}, want 0xA5)"
            )

    def _write_ctl0(self, _addr: int, value: int) -> None:
        self._check_password(value, "MPUCTL0")
        if self.locked:
            # Lock is one-way until reset; only violation flags change.
            return
        self.ctl0 = (MPU_PASSWORD << 8) | (value & (MPUENA | MPULOCK
                                                    | MPUSEGIE))
        self._config_changed()

    def _write_ctl1(self, _addr: int, value: int) -> None:
        # Writing 0 bits clears violation flags.
        self.ctl1 &= value

    def _write_segb1(self, _addr: int, value: int) -> None:
        if not self.locked:
            self.segb1 = value & 0xFFFF
            # Boundaries saturate at the top of the address space: a
            # register value of 0x1000 means B1 = 0x10000 ("end of
            # FRAM"), not a 16-bit wrap to 0 that would erase the
            # segment.  check() compares 16-bit addresses with ``<``,
            # so any clamped value >= 0x10000 behaves identically.
            self._b1 = min(self.segb1 << 4, 0x10000)
            self._config_changed()

    def _write_segb2(self, _addr: int, value: int) -> None:
        if not self.locked:
            self.segb2 = value & 0xFFFF
            self._b2 = min(self.segb2 << 4, 0x10000)
            self._config_changed()

    def _write_sam(self, _addr: int, value: int) -> None:
        if not self.locked:
            self.sam = value & 0xFFFF
            self._config_changed()

    # -- convenience ---------------------------------------------------------------
    def configure(self, config: MpuConfig) -> None:
        """Directly install a configuration (driver-level shortcut)."""
        for address, value in config.register_writes():
            if address == MPUCTL0:
                self._write_ctl0(address, value)
            elif address == MPUSEGB1:
                self._write_segb1(address, value)
            elif address == MPUSEGB2:
                self._write_segb2(address, value)
            elif address == MPUSAM:
                self._write_sam(address, value)

    def disable(self) -> None:
        """Clear MPUENA — unless MPULOCK is set: hardware freezes the
        whole configuration (enable bit included) until reset, so a
        locked MPU cannot be switched off."""
        if self.locked:
            return
        self.ctl0 &= ~MPUENA & 0xFFFF
        self._config_changed()

    # -- snapshot/restore ---------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "ctl0": self.ctl0,
            "ctl1": self.ctl1,
            "segb1": self.segb1,
            "segb2": self.segb2,
            "sam": self.sam,
            "violation_address": self.violation_address,
            "violation_kind": self.violation_kind,
        }

    def load_state(self, state: dict) -> None:
        """Direct register restore, deliberately bypassing the
        password/lock write semantics: a snapshot of a locked MPU must
        come back locked (and a register-write path would refuse to
        restore anything under MPULOCK)."""
        self.ctl0 = state["ctl0"] & 0xFFFF
        self.ctl1 = state["ctl1"] & 0xFFFF
        self.segb1 = state["segb1"] & 0xFFFF
        self.segb2 = state["segb2"] & 0xFFFF
        self.sam = state["sam"] & 0xFFFF
        self._b1 = min(self.segb1 << 4, 0x10000)
        self._b2 = min(self.segb2 << 4, 0x10000)
        self.violation_address = state["violation_address"]
        self.violation_kind = state["violation_kind"]
        self._config_changed()

    @property
    def boundary1(self) -> int:
        return min(self.segb1 << 4, 0x10000)

    @property
    def boundary2(self) -> int:
        return min(self.segb2 << 4, 0x10000)

    def segment_of(self, address: int) -> Optional[int]:
        """Which MPU segment covers ``address``?  ``None`` if uncovered —
        the MPU's fundamental limitation."""
        if MemoryMap.in_infomem(address):
            return 0
        if not MemoryMap.in_main_fram(address):
            return None
        if address < self.boundary1:
            return 1
        if address < self.boundary2:
            return 2
        return 3

    # -- permission-bitmap fast path -------------------------------------------------
    def permission_signature(self) -> tuple:
        """Hashable summary of everything :meth:`check` depends on;
        keys the bus's memoized per-configuration bitmaps."""
        return ("mpu", self.ctl0 & MPUENA, self._b1, self._b2, self.sam)

    def permission_overlay(self) -> Optional[bytes]:
        """Flat per-address allowed-bits map mirroring :meth:`check`
        exactly (the bus ANDs it with the region map).  ``None`` means
        no restriction (MPU disabled)."""
        if not self.ctl0 & MPUENA:
            return None
        overlay = bytearray(b"\x07" * 0x10000)
        # InfoMem: segment 0.  SAM R/W/X bit values equal the bus's
        # PERM_R/W/X bits, so the 3-bit nibbles transfer directly.
        info_bits = (self.sam >> 12) & 0b111
        overlay[MemoryMap.INFOMEM_START:MemoryMap.INFOMEM_END + 1] = \
            bytes([info_bits]) * (MemoryMap.INFOMEM_END + 1
                                  - MemoryMap.INFOMEM_START)
        # Main FRAM: segments 1-3 split at the (clamped) boundaries,
        # replicating check()'s `addr < b1` / `addr < b2` comparisons.
        fram = MemoryMap.FRAM_START
        p1 = min(max(self._b1, fram), 0x10000)
        p2 = min(max(self._b2, p1), 0x10000)
        seg1 = self.sam & 0b111
        seg2 = (self.sam >> 4) & 0b111
        seg3 = (self.sam >> 8) & 0b111
        overlay[fram:p1] = bytes([seg1]) * (p1 - fram)
        overlay[p1:p2] = bytes([seg2]) * (p2 - p1)
        overlay[p2:0x10000] = bytes([seg3]) * (0x10000 - p2)
        return bytes(overlay)

    # -- the enforcement hook called by the bus -------------------------------------
    def check(self, address: int, kind: str) -> None:
        if not self.ctl0 & MPUENA:
            return
        # hot path: resolve the segment with plain comparisons
        if address >= MemoryMap.FRAM_START:         # main FRAM + vectors
            if address < self._b1:
                segment = 1
            elif address < self._b2:
                segment = 2
            else:
                segment = 3
            bits = (self.sam >> (4 * (segment - 1))) & 0xF
        elif MemoryMap.INFOMEM_START <= address <= MemoryMap.INFOMEM_END:
            segment = 0
            bits = (self.sam >> 12) & 0xF
        else:
            return  # uncovered: SRAM, peripherals, BSL — cannot protect
        if bits & _KIND_TO_BIT[kind]:
            return
        self.ctl1 |= (SEGIIFG if segment == 0
                      else (SEG1IFG << (segment - 1)))
        self.violation_address = address
        self.violation_kind = kind
        raise MpuViolationError(address, kind, segment)
