"""Linker: places sections into memory regions and resolves relocations.

The AFT builds a :class:`LinkScript` that mirrors the paper's Figure 1:
OS code/data in low FRAM, the OS stack in SRAM, and each app's sections
in high FRAM with code *below* data/stack so a single MPU boundary (B1)
separates the current app's executable region from its writable region.

Linking is two-stage on purpose:

1. :meth:`Linker.place` assigns every section an address.
2. The caller may then compute *boundary symbols* from the placement
   (``__app_<n>_code_lo``, ``__app_<n>_data_lo``, ...) — this is exactly
   AFT phase 4 — and passes them to :meth:`Linker.resolve`.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import LinkError
from repro.asm.objfile import ObjectFile, RelocType, Section


class MemoryRegion:
    """A placement region with a bump-pointer cursor."""

    def __init__(self, name: str, start: int, end: int):
        self.name = name
        self.start = start
        self.end = end          # inclusive
        self.cursor = start

    def allocate(self, size: int, align: int = 2) -> int:
        cursor = self.cursor
        if align > 1 and cursor % align:
            cursor += align - cursor % align
        if cursor + size - 1 > self.end:
            raise LinkError(
                f"region {self.name!r} overflow: need {size} bytes at "
                f"0x{cursor:04X}, region ends at 0x{self.end:04X}"
            )
        self.cursor = cursor + size
        return cursor

    @property
    def used(self) -> int:
        return self.cursor - self.start

    @property
    def free(self) -> int:
        return self.end + 1 - self.cursor


class LinkScript:
    """Ordered (glob pattern -> region) placement rules."""

    def __init__(self) -> None:
        self.regions: Dict[str, MemoryRegion] = {}
        self.rules: List[Tuple[str, str]] = []

    def region(self, name: str, start: int, end: int) -> MemoryRegion:
        region = MemoryRegion(name, start, end)
        self.regions[name] = region
        return region

    def place_rule(self, pattern: str, region_name: str) -> None:
        if region_name not in self.regions:
            raise LinkError(f"unknown region {region_name!r}")
        self.rules.append((pattern, region_name))

    def region_for(self, section_name: str) -> MemoryRegion:
        for pattern, region_name in self.rules:
            if fnmatchcase(section_name, pattern):
                return self.regions[region_name]
        raise LinkError(f"no placement rule matches section "
                        f"{section_name!r}")


class Image:
    """A linked firmware image."""

    def __init__(self) -> None:
        self.segments: List[Tuple[int, bytes]] = []
        self.symbols: Dict[str, int] = {}
        # (object name, section) in placement order
        self.placed: List[Tuple[str, Section]] = []

    def symbol(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise LinkError(f"undefined symbol {name!r}") from None

    def has_symbol(self, name: str) -> bool:
        return name in self.symbols

    def section_bounds(self, predicate: Callable[[str], bool]
                       ) -> Tuple[int, int]:
        """(lowest address, highest address+1) over matching sections."""
        lo, hi = None, None
        for _owner, section in self.placed:
            if not predicate(section.name):
                continue
            start = section.address
            end = section.address + max(section.size, 1)
            lo = start if lo is None else min(lo, start)
            hi = end if hi is None else max(hi, end)
        if lo is None:
            raise LinkError("no sections matched bounds query")
        return lo, hi

    def load_into(self, memory) -> None:
        for address, blob in self.segments:
            memory.load(address, blob)

    def total_size(self) -> int:
        return sum(len(blob) for _a, blob in self.segments)


class Linker:
    def __init__(self, script: LinkScript):
        self.script = script
        self._objects: List[ObjectFile] = []
        self._placed = False

    # -- stage 1 ------------------------------------------------------------
    def place(self, objects: Iterable[ObjectFile]) -> "Linker":
        self._objects = list(objects)
        for obj in self._objects:
            for section in obj.sections.values():
                if section.size == 0:
                    # still give empty sections an address for bounds math
                    region = self.script.region_for(section.name)
                    section.address = region.allocate(0, section.align)
                    continue
                region = self.script.region_for(section.name)
                section.address = region.allocate(section.size,
                                                  section.align)
        self._placed = True
        return self

    # -- stage 2 ---------------------------------------------------------------
    def resolve(self, extra_symbols: Optional[Dict[str, int]] = None
                ) -> Image:
        if not self._placed:
            raise LinkError("place() must run before resolve()")
        image = Image()
        if extra_symbols:
            image.symbols.update(
                {k: v & 0xFFFF for k, v in extra_symbols.items()}
            )

        # Global symbol table.
        local_tables: Dict[str, Dict[str, int]] = {}
        for obj in self._objects:
            locals_ = {}
            for symbol in obj.symbols.values():
                if symbol.is_absolute:
                    value = symbol.offset & 0xFFFF
                else:
                    section = obj.sections[symbol.section]
                    value = (section.address + symbol.offset) & 0xFFFF
                locals_[symbol.name] = value
                if symbol.is_global:
                    if symbol.name in image.symbols and \
                            image.symbols[symbol.name] != value:
                        raise LinkError(
                            f"duplicate global symbol {symbol.name!r} "
                            f"({obj.name})"
                        )
                    image.symbols[symbol.name] = value
            local_tables[obj.name] = locals_

        def lookup(obj: ObjectFile, name: str) -> int:
            locals_ = local_tables[obj.name]
            if name in locals_:
                return locals_[name]
            if name in image.symbols:
                return image.symbols[name]
            raise LinkError(
                f"undefined symbol {name!r} referenced from {obj.name}"
            )

        # Apply relocations and collect segments.
        for obj in self._objects:
            for section in obj.sections.values():
                if section.size == 0:
                    image.placed.append((obj.name, section))
                    continue
                data = bytearray(section.data)
                for reloc in section.relocations:
                    value = lookup(obj, reloc.symbol)
                    site = section.address + reloc.offset
                    if reloc.type is RelocType.ABS16:
                        patched = (value + reloc.addend) & 0xFFFF
                    elif reloc.type is RelocType.PCREL16:
                        patched = (value + reloc.addend - site) & 0xFFFF
                    else:  # JUMP10
                        target = (value + reloc.addend) & 0xFFFF
                        delta = target - (site + 2)
                        if delta % 2:
                            raise LinkError(
                                f"odd jump target 0x{target:04X} "
                                f"for {reloc.symbol!r}"
                            )
                        words = delta // 2
                        if not -512 <= words <= 511:
                            raise LinkError(
                                f"jump to {reloc.symbol!r} out of range "
                                f"({words} words) from 0x{site:04X}"
                            )
                        old = data[reloc.offset] | \
                            (data[reloc.offset + 1] << 8)
                        patched = (old & 0xFC00) | (words & 0x3FF)
                    data[reloc.offset] = patched & 0xFF
                    data[reloc.offset + 1] = (patched >> 8) & 0xFF
                image.segments.append((section.address, bytes(data)))
                image.placed.append((obj.name, section))

        return image


def link(objects: Iterable[ObjectFile], script: LinkScript,
         extra_symbols: Optional[Dict[str, int]] = None) -> Image:
    """One-shot link when no boundary-symbol stage is needed."""
    return Linker(script).place(objects).resolve(extra_symbols)
