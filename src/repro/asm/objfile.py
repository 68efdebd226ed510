"""Relocatable object files.

A deliberately small format with just what the AFT needs:

* **Sections** hold bytes plus relocations.  Section names are free-form;
  the AFT uses ``.text``/``.data``/``.bss`` for the OS and
  ``.app.<name>.text`` / ``.app.<name>.data`` / ``.app.<name>.stack``
  for applications so the linker script can place each app's code below
  its data, as Figure 1 requires.
* **Symbols** are (section, offset) pairs or absolute constants.
* **Relocations** come in three flavours:

  - ``ABS16``  -- store ``S + A`` into the word at the patch site
  - ``PCREL16``-- store ``S + A - P`` (symbolic addressing extension words)
  - ``JUMP10`` -- patch the signed 10-bit word offset of a jump whose
    instruction word sits at the patch site
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import LinkError


class RelocType(enum.Enum):
    ABS16 = "abs16"
    PCREL16 = "pcrel16"
    JUMP10 = "jump10"


@dataclass
class Relocation:
    offset: int          # byte offset of the patch site within the section
    type: RelocType
    symbol: str
    addend: int = 0

    def __repr__(self) -> str:
        return (f"Relocation({self.type.value} @+0x{self.offset:04X} -> "
                f"{self.symbol}{self.addend:+d})")


@dataclass
class Symbol:
    """A defined symbol.  ``section`` is ``None`` for absolute symbols
    (``.equ`` constants, linker-defined bounds)."""

    name: str
    section: Optional[str]
    offset: int
    is_global: bool = False

    @property
    def is_absolute(self) -> bool:
        return self.section is None


@dataclass
class Section:
    name: str
    data: bytearray = field(default_factory=bytearray)
    relocations: List[Relocation] = field(default_factory=list)
    align: int = 2
    # Assigned by the linker during placement:
    address: Optional[int] = None

    @property
    def size(self) -> int:
        return len(self.data)

    def append_word(self, value: int) -> int:
        """Append a little-endian word; returns its byte offset."""
        offset = len(self.data)
        self.data.append(value & 0xFF)
        self.data.append((value >> 8) & 0xFF)
        return offset

    def append_byte(self, value: int) -> int:
        offset = len(self.data)
        self.data.append(value & 0xFF)
        return offset

    def append_bytes(self, blob: bytes) -> int:
        offset = len(self.data)
        self.data.extend(blob)
        return offset

    def align_to(self, alignment: int) -> None:
        while len(self.data) % alignment:
            self.data.append(0)

    def read_word(self, offset: int) -> int:
        return self.data[offset] | (self.data[offset + 1] << 8)

    def write_word(self, offset: int, value: int) -> None:
        self.data[offset] = value & 0xFF
        self.data[offset + 1] = (value >> 8) & 0xFF


class ObjectFile:
    """A collection of sections and symbols from one assembly unit."""

    def __init__(self, name: str = "<obj>"):
        self.name = name
        self.sections: Dict[str, Section] = {}
        self.symbols: Dict[str, Symbol] = {}

    def section(self, name: str) -> Section:
        if name not in self.sections:
            self.sections[name] = Section(name)
        return self.sections[name]

    def define(self, name: str, section: Optional[str], offset: int,
               is_global: bool = False) -> Symbol:
        if name in self.symbols:
            raise LinkError(f"{self.name}: duplicate symbol {name!r}")
        symbol = Symbol(name, section, offset, is_global)
        self.symbols[name] = symbol
        return symbol

    def copy_for_link(self, name: str) -> "ObjectFile":
        """A copy named ``name`` that one more link may place: its
        sections are new (the linker writes their addresses) and share
        the bytes, relocations and symbols the linker only reads."""
        copy = ObjectFile(name)
        copy.sections = {
            key: Section(s.name, s.data, s.relocations, s.align)
            for key, s in self.sections.items()}
        copy.symbols = self.symbols
        return copy

    def globals(self) -> List[Symbol]:
        return [s for s in self.symbols.values() if s.is_global]

    def undefined_symbols(self) -> List[str]:
        """Symbols referenced by relocations but not defined here."""
        seen = set()
        missing = []
        for section in self.sections.values():
            for reloc in section.relocations:
                if reloc.symbol not in self.symbols \
                        and reloc.symbol not in seen:
                    seen.add(reloc.symbol)
                    missing.append(reloc.symbol)
        return missing

    def total_size(self) -> int:
        return sum(s.size for s in self.sections.values())

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}:{s.size}B" for n, s in self.sections.items())
        return f"ObjectFile({self.name}: {parts})"
