"""Binary decoding of MSP430 instructions.

The decoder is the inverse of :mod:`repro.msp430.encoding`; the pair is
round-trip property-tested.  Decoding needs the instruction address to
reconstruct symbolic (PC-relative) operand targets.

The constant-generator encodings (R3 any mode, R2 with As>=2) decode back
into immediate operands, so the CPU execution engine never needs to know
about constant generators at all.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.errors import DecodeError
from repro.msp430.isa import (
    AddressingMode,
    Instruction,
    Opcode,
    Operand,
)
from repro.msp430.registers import Reg

_M = AddressingMode

_FORMAT1_BY_OPCODE = {
    op.value: op for op in Opcode if op.is_format1
}
_FORMAT2_BY_BITS = {
    op.value: op for op in Opcode if op.is_format2
}
_JUMP_BY_BITS = {
    op.value: op for op in Opcode if op.is_jump
}
# Format-II opcodes whose B/W bit must be clear; a set bit is an
# undecodable word, not an instruction
_NO_BYTE_FORM = frozenset((Opcode.SWPB, Opcode.SXT, Opcode.CALL))

# (register, As) -> constant, for constant-generator source decoding.
_CG_DECODE = {
    (Reg.CG2, 0b00): 0,
    (Reg.CG2, 0b01): 1,
    (Reg.CG2, 0b10): 2,
    (Reg.CG2, 0b11): 0xFFFF,
    (Reg.SR, 0b10): 4,
    (Reg.SR, 0b11): 8,
}


class WordReader:
    """Pulls successive 16-bit words from a fetch callback, tracking the
    current address so PC-relative operands decode correctly."""

    def __init__(self, fetch: Callable[[int], int], address: int):
        self._fetch = fetch
        self.address = address
        self.start = address

    def next(self) -> int:
        word = self._fetch(self.address) & 0xFFFF
        self.address += 2
        return word

    @property
    def consumed_words(self) -> int:
        return (self.address - self.start) // 2


def _decode_source(as_bits: int, register: int,
                   reader: WordReader) -> Operand:
    constant = _CG_DECODE.get((register, as_bits))
    if constant is not None:
        return Operand(_M.IMMEDIATE, value=constant)

    if as_bits == 0b00:
        return Operand(_M.REGISTER, register=register)
    if as_bits == 0b01:
        ext_addr = reader.address
        ext = reader.next()
        if register == Reg.PC:
            return Operand(_M.SYMBOLIC, register=Reg.PC,
                           value=(ext + ext_addr) & 0xFFFF)
        if register == Reg.SR:
            return Operand(_M.ABSOLUTE, register=Reg.SR, value=ext)
        return Operand(_M.INDEXED, register=register, value=ext)
    if as_bits == 0b10:
        return Operand(_M.INDIRECT, register=register)
    # as_bits == 0b11
    if register == Reg.PC:
        return Operand(_M.IMMEDIATE, value=reader.next())
    return Operand(_M.AUTOINCREMENT, register=register)


def _decode_dest(ad_bit: int, register: int, reader: WordReader) -> Operand:
    if ad_bit == 0:
        return Operand(_M.REGISTER, register=register)
    ext_addr = reader.address
    ext = reader.next()
    if register == Reg.PC:
        return Operand(_M.SYMBOLIC, register=Reg.PC,
                       value=(ext + ext_addr) & 0xFFFF)
    if register == Reg.SR:
        return Operand(_M.ABSOLUTE, register=Reg.SR, value=ext)
    return Operand(_M.INDEXED, register=register, value=ext)


def decode(fetch: Callable[[int], int],
           address: int) -> Tuple[Instruction, int]:
    """Decode one instruction starting at ``address``.

    ``fetch`` maps a word-aligned address to the 16-bit word stored there.
    Returns ``(instruction, size_in_bytes)``.
    """
    reader = WordReader(fetch, address)
    word = reader.next()

    major = (word >> 12) & 0xF
    if major == 0x1:
        bits = word & 0x1F80
        opcode = _FORMAT2_BY_BITS.get(bits)
        if opcode is None:
            raise DecodeError(f"bad format-II word 0x{word:04X} "
                              f"at 0x{address:04X}")
        if opcode is Opcode.RETI:
            return Instruction(Opcode.RETI), 2
        byte = bool(word & 0x40)
        if byte and opcode in _NO_BYTE_FORM:
            raise DecodeError(f"{opcode.name} has no byte form: word "
                              f"0x{word:04X} at 0x{address:04X}")
        as_bits = (word >> 4) & 0b11
        register = word & 0xF
        src = _decode_source(as_bits, register, reader)
        insn = Instruction(opcode, byte=byte, src=src)
        return insn, 2 * reader.consumed_words

    if major in (0x2, 0x3):
        opcode = _JUMP_BY_BITS.get(word & 0x3C00)
        if opcode is None:
            raise DecodeError(f"bad jump word 0x{word:04X}")
        offset = word & 0x3FF
        if offset & 0x200:
            offset -= 0x400
        return Instruction(opcode, offset=offset), 2

    opcode = _FORMAT1_BY_OPCODE.get(major)
    if opcode is None:
        raise DecodeError(f"bad opcode nibble 0x{major:X} in word "
                          f"0x{word:04X} at 0x{address:04X}")
    byte = bool(word & 0x40)
    as_bits = (word >> 4) & 0b11
    ad_bit = (word >> 7) & 1
    src_reg = (word >> 8) & 0xF
    dst_reg = word & 0xF
    src = _decode_source(as_bits, src_reg, reader)
    dst = _decode_dest(ad_bit, dst_reg, reader)
    insn = Instruction(opcode, byte=byte, src=src, dst=dst)
    return insn, 2 * reader.consumed_words


def decode_bytes(blob: bytes, address: int = 0) -> Tuple[Instruction, int]:
    """Decode from a byte buffer whose first byte lives at ``address``."""

    def fetch(addr: int) -> int:
        index = addr - address
        if index + 1 >= len(blob) + 1:
            raise DecodeError(f"decode ran past end of buffer at 0x{addr:04X}")
        try:
            return blob[index] | (blob[index + 1] << 8)
        except IndexError as exc:
            raise DecodeError("decode ran past end of buffer") from exc

    return decode(fetch, address)
