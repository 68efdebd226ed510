"""Two-pass MSP430 assembler.

Accepts the classic TI/GNU-flavoured syntax the MiniC compiler emits::

    ; comment
            .text
            .global main
    main:   PUSH R4
            MOV  SP, R4
            MOV  #42, R12
            CMP  #__app_data_lo, R12   ; symbol immediate -> ABS16 reloc
            JLO  .Lfault
            MOV  @SP+, PC              ; emulated RET

Emulated instructions (RET, POP, BR, NOP, CLR, INC, DEC, TST, ...) expand
to their real encodings using the constant generators, exactly as the TI
assembler does — so their cycle counts come out right automatically.

All symbol references become relocations; the linker resolves them.  The
paper's AFT phase 2 inserts checks against *placeholder* app-boundary
symbols and phase 4 patches the real values — in this implementation that
naturally falls out of symbols + relocations.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.errors import AssemblerError
from repro.msp430.encoding import encode
from repro.msp430.isa import (
    AddressingMode,
    Instruction,
    Opcode,
    Operand,
    absolute,
    autoincrement,
    imm,
    indexed,
    indirect,
    reg,
    symbolic,
)
from repro.msp430.registers import Reg
from repro.asm.objfile import ObjectFile, Relocation, RelocType, Section

_M = AddressingMode

_REGISTER_NAMES = {
    "PC": 0, "SP": 1, "SR": 2, "CG2": 3,
    **{f"R{i}": i for i in range(16)},
}

# mnemonic -> (real opcode, canned source operand or None, byte_allowed)
_EMULATED_ONE_OPERAND = {
    # name: (opcode, fixed source, operand goes to dst?)
    "POP": (Opcode.MOV, "sp+", True),
    "BR": (Opcode.MOV, None, "pc"),
    "CLR": (Opcode.MOV, 0, True),
    "INC": (Opcode.ADD, 1, True),
    "INCD": (Opcode.ADD, 2, True),
    "DEC": (Opcode.SUB, 1, True),
    "DECD": (Opcode.SUB, 2, True),
    "TST": (Opcode.CMP, 0, True),
    "INV": (Opcode.XOR, 0xFFFF, True),
    "RLA": (Opcode.ADD, "dup", True),
    "RLC": (Opcode.ADDC, "dup", True),
    "ADC": (Opcode.ADDC, 0, True),
    "SBC": (Opcode.SUBC, 0, True),
    "DADC": (Opcode.DADD, 0, True),
}

_EMULATED_NO_OPERAND = {
    "NOP": (Opcode.MOV, reg(Reg.CG2), reg(Reg.CG2)),
    "RET": (Opcode.MOV, autoincrement(Reg.SP), reg(Reg.PC)),
    "CLRC": (Opcode.BIC, imm(1), reg(Reg.SR)),
    "SETC": (Opcode.BIS, imm(1), reg(Reg.SR)),
    "CLRZ": (Opcode.BIC, imm(2), reg(Reg.SR)),
    "SETZ": (Opcode.BIS, imm(2), reg(Reg.SR)),
    "CLRN": (Opcode.BIC, imm(4), reg(Reg.SR)),
    "SETN": (Opcode.BIS, imm(4), reg(Reg.SR)),
    "DINT": (Opcode.BIC, imm(8), reg(Reg.SR)),
    "EINT": (Opcode.BIS, imm(8), reg(Reg.SR)),
}

_JUMP_ALIASES = {
    "JZ": Opcode.JEQ, "JNZ": Opcode.JNE,
    "JLO": Opcode.JNC, "JHS": Opcode.JC,
    "JNE": Opcode.JNE, "JEQ": Opcode.JEQ,
    "JNC": Opcode.JNC, "JC": Opcode.JC,
    "JN": Opcode.JN, "JGE": Opcode.JGE,
    "JL": Opcode.JL, "JMP": Opcode.JMP,
}

_FORMAT1_NAMES = {op.name: op for op in Opcode if op.is_format1}
_FORMAT2_NAMES = {op.name: op for op in Opcode if op.is_format2}

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_NUMBER_RE = re.compile(r"^-?(0[xX][0-9a-fA-F]+|0[bB][01]+|\d+)$")
#: a char or string literal; a backslash escapes the next character
_QUOTED = r"""'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*\""""
#: a line up to its ``;`` or ``//`` comment; an unclosed quote keeps
#: the rest of the line, which then fails to parse
_CODE_RE = re.compile(rf"""(?:{_QUOTED}|[^;/'"]|/(?!/)|['"].*)*""")
#: one operand (quoted literals, one level of parentheses) or a comma;
#: an unclosed quote or parenthesis makes the rest of the text one
#: operand, which then fails to parse
_OPERAND_RE = re.compile(
    rf"""(?:{_QUOTED}|\((?:{_QUOTED}|[^()'"])*\)|[^,()'"])+|,|.+""")


class _Expr:
    """A resolved operand expression: constant and/or symbol+addend."""

    __slots__ = ("value", "symbol")

    def __init__(self, value: int = 0, symbol: Optional[str] = None):
        self.value = value
        self.symbol = symbol


class Assembler:
    """Assembles one translation unit into an :class:`ObjectFile`."""

    def __init__(self, name: str = "<asm>"):
        self.name = name
        self.obj = ObjectFile(name)
        self.current: Section = self.obj.section(".text")
        self.equs: Dict[str, int] = {}
        self.globals_pending: List[str] = []
        self.line_number = 0

    # -- errors --------------------------------------------------------------
    def _error(self, message: str) -> AssemblerError:
        return AssemblerError(message, self.line_number, self.name)

    # -- expression/operand parsing --------------------------------------------
    def _parse_number(self, text: str) -> Optional[int]:
        text = text.strip()
        if len(text) >= 3 and text[0] == "'" and text[-1] == "'":
            body = text[1:-1]
            # a backslash starts an escape: a lone or unknown one is
            # an error, not the backslash character
            unescaped = ({"\\n": "\n", "\\t": "\t", "\\0": "\0",
                          "\\'": "'", "\\\\": "\\"}.get(body, "")
                         if body[0] == "\\" else body)
            if len(unescaped) != 1:
                raise self._error(f"bad character literal {text}")
            return ord(unescaped)
        if _NUMBER_RE.match(text):
            return int(text, 0)
        return None

    def _parse_expr(self, text: str) -> _Expr:
        text = text.strip()
        number = self._parse_number(text)
        if number is not None:
            return _Expr(number & 0xFFFF)
        # symbol, symbol+N, symbol-N
        m = re.match(r"^([A-Za-z_.$][\w.$]*)\s*([+-]\s*\d+|[+-]\s*0[xX][0-9a-fA-F]+)?$",
                     text)
        if not m:
            raise self._error(f"bad expression {text!r}")
        symbol, addend_text = m.group(1), m.group(2)
        addend = int(addend_text.replace(" ", ""), 0) if addend_text else 0
        if symbol in self.equs:
            return _Expr((self.equs[symbol] + addend) & 0xFFFF)
        return _Expr(addend & 0xFFFF, symbol)

    def _parse_register(self, text: str) -> Optional[int]:
        return _REGISTER_NAMES.get(text.strip().upper())

    def _parse_operand(self, text: str) -> Operand:
        text = text.strip()
        if not text:
            raise self._error("empty operand")
        if text.startswith("#"):
            e = self._parse_expr(text[1:])
            return imm(e.value, e.symbol)
        if text.startswith("&"):
            e = self._parse_expr(text[1:])
            return absolute(e.value, e.symbol)
        if text.startswith("@"):
            body = text[1:].strip()
            auto = body.endswith("+")
            if auto:
                body = body[:-1].strip()
            register = self._parse_register(body)
            if register is None:
                raise self._error(f"bad indirect register {text!r}")
            return autoincrement(register) if auto else indirect(register)
        m = re.match(r"^(.*)\(\s*([A-Za-z0-9]+)\s*\)$", text)
        if m:
            register = self._parse_register(m.group(2))
            if register is None:
                raise self._error(f"bad index register in {text!r}")
            e = self._parse_expr(m.group(1)) if m.group(1).strip() \
                else _Expr(0)
            return indexed(e.value, register, e.symbol)
        register = self._parse_register(text)
        if register is not None:
            return reg(register)
        e = self._parse_expr(text)
        return symbolic(e.value, e.symbol)

    @staticmethod
    def _split_operands(text: str) -> List[str]:
        """Split on commas that are not inside quotes or parentheses."""
        return [part.strip() for part in _OPERAND_RE.findall(text)
                if part != "," and part.strip()]

    # -- emission --------------------------------------------------------------
    def _emit_instruction(self, insn: Instruction) -> None:
        section = self.current
        base = len(section.data)
        words = encode(insn, address=0)

        # Jump with a symbolic target: reloc patches the whole word offset.
        if insn.opcode.is_jump and insn.symbol is not None:
            section.relocations.append(
                Relocation(base, RelocType.JUMP10, insn.symbol, 0)
            )

        # Figure out extension-word slots: src ext precedes dst ext.
        slot = base + 2
        if insn.src is not None and insn.src.needs_extension_word(True):
            if insn.src.symbol is not None:
                rtype = (RelocType.PCREL16
                         if insn.src.mode is _M.SYMBOLIC
                         else RelocType.ABS16)
                section.relocations.append(
                    Relocation(slot, rtype, insn.src.symbol, insn.src.value)
                )
            slot += 2
        if insn.dst is not None and insn.dst.needs_extension_word(False):
            if insn.dst.symbol is not None:
                rtype = (RelocType.PCREL16
                         if insn.dst.mode is _M.SYMBOLIC
                         else RelocType.ABS16)
                section.relocations.append(
                    Relocation(slot, rtype, insn.dst.symbol, insn.dst.value)
                )
            slot += 2

        for word in words:
            section.append_word(word)

    def _assemble_mnemonic(self, mnemonic: str, operand_text: str) -> None:
        upper = mnemonic.upper()
        byte = False
        if upper.endswith(".B"):
            byte, upper = True, upper[:-2]
        elif upper.endswith(".W"):
            upper = upper[:-2]

        operands = self._split_operands(operand_text)

        if upper in _JUMP_ALIASES:
            if len(operands) != 1:
                raise self._error(f"{mnemonic} takes one target")
            target = operands[0]
            number = self._parse_number(target)
            if number is not None:
                insn = Instruction(_JUMP_ALIASES[upper], offset=number)
            else:
                e = self._parse_expr(target)
                if e.symbol is None:
                    raise self._error(f"bad jump target {target!r}")
                insn = Instruction(_JUMP_ALIASES[upper], offset=0,
                                   symbol=e.symbol)
            self._emit_instruction(insn)
            return

        if upper in _EMULATED_NO_OPERAND:
            opcode, src, dst = _EMULATED_NO_OPERAND[upper]
            if operands:
                raise self._error(f"{mnemonic} takes no operands")
            self._emit_instruction(Instruction(opcode, src=src, dst=dst))
            return

        if upper in _EMULATED_ONE_OPERAND:
            opcode, fixed, _ = _EMULATED_ONE_OPERAND[upper]
            if len(operands) != 1:
                raise self._error(f"{mnemonic} takes one operand")
            operand = self._parse_operand(operands[0])
            if upper == "BR":
                insn = Instruction(opcode, src=operand, dst=reg(Reg.PC))
            elif fixed == "sp+":
                insn = Instruction(opcode, byte=byte,
                                   src=autoincrement(Reg.SP), dst=operand)
            elif fixed == "dup":
                insn = Instruction(opcode, byte=byte, src=operand,
                                   dst=operand)
            else:
                insn = Instruction(opcode, byte=byte, src=imm(fixed),
                                   dst=operand)
            self._emit_instruction(insn)
            return

        if upper in _FORMAT2_NAMES:
            opcode = _FORMAT2_NAMES[upper]
            if opcode is Opcode.RETI:
                if operands:
                    raise self._error("RETI takes no operands")
                self._emit_instruction(Instruction(opcode))
                return
            if len(operands) != 1:
                raise self._error(f"{mnemonic} takes one operand")
            operand = self._parse_operand(operands[0])
            self._emit_instruction(Instruction(opcode, byte=byte,
                                               src=operand))
            return

        if upper in _FORMAT1_NAMES:
            if len(operands) != 2:
                raise self._error(f"{mnemonic} takes two operands")
            src = self._parse_operand(operands[0])
            dst = self._parse_operand(operands[1])
            self._emit_instruction(
                Instruction(_FORMAT1_NAMES[upper], byte=byte,
                            src=src, dst=dst)
            )
            return

        raise self._error(f"unknown mnemonic {mnemonic!r}")

    # -- directives -------------------------------------------------------------
    def _directive(self, name: str, rest: str) -> None:
        lower = name.lower()
        if lower in (".text", ".data", ".bss"):
            self.current = self.obj.section(lower)
        elif lower == ".section":
            section_name = rest.strip().split()[0].rstrip(",")
            self.current = self.obj.section(section_name)
        elif lower in (".global", ".globl"):
            for symbol in self._split_operands(rest):
                self.globals_pending.append(symbol)
        elif lower == ".equ" or lower == ".set":
            parts = self._split_operands(rest)
            if len(parts) != 2:
                raise self._error(f"{name} needs NAME, VALUE")
            value = self._parse_number(parts[1])
            if value is None:
                if parts[1] in self.equs:
                    value = self.equs[parts[1]]
                else:
                    raise self._error(
                        f"{name} value must be a known constant"
                    )
            self.equs[parts[0]] = value & 0xFFFF
        elif lower == ".word":
            for part in self._split_operands(rest):
                e = self._parse_expr(part)
                offset = self.current.append_word(e.value)
                if e.symbol is not None:
                    self.current.relocations.append(
                        Relocation(offset, RelocType.ABS16, e.symbol,
                                   e.value)
                    )
        elif lower == ".byte":
            for part in self._split_operands(rest):
                value = self._parse_number(part)
                if value is None:
                    raise self._error(".byte needs numeric values")
                self.current.append_byte(value)
        elif lower == ".space" or lower == ".skip":
            parts = self._split_operands(rest)
            count = self._parse_number(parts[0])
            fill = self._parse_number(parts[1]) if len(parts) > 1 else 0
            if count is None:
                raise self._error(".space needs a size")
            self.current.append_bytes(bytes([fill or 0]) * count)
        elif lower == ".align":
            value = self._parse_number(rest.strip() or "2")
            self.current.align_to(value or 2)
        elif lower in (".ascii", ".asciz", ".string"):
            text = rest.strip()
            if not (text.startswith('"') and text.endswith('"')):
                raise self._error(f"{name} needs a quoted string")
            body = (text[1:-1].encode("ascii")
                    .decode("unicode_escape").encode("latin1"))
            self.current.append_bytes(body)
            if lower in (".asciz", ".string"):
                self.current.append_byte(0)
        else:
            raise self._error(f"unknown directive {name!r}")

    # -- driver ----------------------------------------------------------------
    def assemble(self, text: str) -> ObjectFile:
        for raw_line in text.splitlines():
            self.line_number += 1
            line = _CODE_RE.match(raw_line).group().strip()
            while True:
                m = _LABEL_RE.match(line)
                if not m:
                    break
                label = m.group(1)
                self.obj.define(label, self.current.name,
                                len(self.current.data))
                line = line[m.end():].strip()
            if not line:
                continue
            parts = line.split(None, 1)
            head = parts[0]
            rest = parts[1] if len(parts) > 1 else ""
            if head.startswith("."):
                self._directive(head, rest)
            else:
                self._assemble_mnemonic(head, rest)

        for name in self.globals_pending:
            if name in self.obj.symbols:
                self.obj.symbols[name].is_global = True
            else:
                # Declaring an external as global is a no-op for us.
                pass
        for name, value in self.equs.items():
            if name not in self.obj.symbols:
                self.obj.define(name, None, value)
        return self.obj


def assemble(text: str, name: str = "<asm>") -> ObjectFile:
    """Convenience one-shot assembly."""
    return Assembler(name).assemble(text)
