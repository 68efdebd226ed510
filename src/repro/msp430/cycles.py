"""CPU cycle counts per instruction format and addressing mode.

The tables follow the MSP430 family user's guide (format I/II cycle
tables).  The FR-series CPU executes MOV/BIT/CMP with a memory
destination in one fewer cycle; we model that refinement because the
paper's overhead numbers come from exactly such short sequences.

FRAM wait states are *not* modeled (see DESIGN.md, fidelity notes): the
counts here are the architectural CPU cycles, which preserve the relative
costs the paper reports.
"""

from __future__ import annotations

from repro.msp430.isa import (
    AddressingMode,
    Instruction,
    Opcode,
    Operand,
)
from repro.msp430.registers import Reg

_M = AddressingMode

# Format I: (src mode) -> (dst is register, dst is PC, dst is memory).
_FORMAT1_CYCLES = {
    _M.REGISTER:      (1, 2, 4),
    _M.INDIRECT:      (2, 2, 5),
    _M.AUTOINCREMENT: (2, 3, 5),
    _M.IMMEDIATE:     (2, 3, 5),
    _M.INDEXED:       (3, 3, 6),
    _M.SYMBOLIC:      (3, 3, 6),
    _M.ABSOLUTE:      (3, 3, 6),
}

# Format II single-operand tables: mode -> cycles.
_SHIFT_CYCLES = {  # RRA, RRC, SWPB, SXT
    _M.REGISTER: 1,
    _M.INDIRECT: 3,
    _M.AUTOINCREMENT: 3,
    _M.INDEXED: 4,
    _M.SYMBOLIC: 4,
    _M.ABSOLUTE: 4,
}

_PUSH_CYCLES = {
    _M.REGISTER: 3,
    _M.INDIRECT: 4,
    _M.AUTOINCREMENT: 5,
    _M.IMMEDIATE: 4,
    _M.INDEXED: 5,
    _M.SYMBOLIC: 5,
    _M.ABSOLUTE: 5,
}

_CALL_CYCLES = {
    _M.REGISTER: 4,
    _M.INDIRECT: 4,
    _M.AUTOINCREMENT: 5,
    _M.IMMEDIATE: 5,
    _M.INDEXED: 5,
    _M.SYMBOLIC: 5,
    _M.ABSOLUTE: 5,
}

JUMP_CYCLES = 2          # taken or not
RETI_CYCLES = 5
INTERRUPT_ENTRY_CYCLES = 6

# MOV/BIT/CMP to a memory destination save one cycle on this CPU family.
_ONE_LESS_TO_MEMORY = frozenset({Opcode.MOV, Opcode.BIT, Opcode.CMP})

# Immediates the constant generators provide without an extension word.
# They execute with register-source timing (no extra fetch).
_CG_VALUES = frozenset({0, 1, 2, 4, 8, 0xFFFF})


def _source_mode(op: Operand) -> AddressingMode:
    """Addressing mode for timing purposes: constant-generator
    immediates behave like register sources."""
    if op.mode is _M.IMMEDIATE and op.symbol is None \
            and (op.value & 0xFFFF) in _CG_VALUES:
        return _M.REGISTER
    return op.mode


def _dst_column(dst: Operand) -> int:
    """Column index into the format-I table for this destination."""
    if dst.mode is _M.REGISTER:
        return 1 if dst.register == Reg.PC else 0
    return 2


def instruction_cycles(insn: Instruction) -> int:
    """Architectural cycle count for one executed instruction."""
    op = insn.opcode
    if op.is_jump:
        return JUMP_CYCLES
    if op is Opcode.RETI:
        return RETI_CYCLES
    if op is Opcode.PUSH:
        return _PUSH_CYCLES[insn.src.mode]
    if op is Opcode.CALL:
        return _CALL_CYCLES[insn.src.mode]
    if op.is_format2:
        return _SHIFT_CYCLES[insn.src.mode]

    column = _dst_column(insn.dst)
    cycles = _FORMAT1_CYCLES[_source_mode(insn.src)][column]
    if column == 2 and op in _ONE_LESS_TO_MEMORY:
        cycles -= 1
    return cycles
