"""Assembler: syntax, directives, emulated instructions, relocations."""

import pytest

from repro.errors import AssemblerError
from repro.asm.assembler import assemble
from repro.asm.objfile import RelocType
from repro.msp430.decoder import decode_bytes
from repro.msp430.isa import AddressingMode, Opcode


def first_insn(obj, section=".text", offset=0):
    data = bytes(obj.sections[section].data)
    return decode_bytes(data[offset:], offset)[0]


class TestBasicSyntax:
    def test_simple_instruction(self):
        obj = assemble("MOV #5, R10")
        insn = first_insn(obj)
        assert insn.opcode is Opcode.MOV
        assert insn.dst.register == 10

    def test_label_definition(self):
        obj = assemble("start: NOP")
        assert obj.symbols["start"].offset == 0
        assert obj.symbols["start"].section == ".text"

    def test_multiple_labels_one_line(self):
        obj = assemble("a: b: NOP")
        assert obj.symbols["a"].offset == obj.symbols["b"].offset == 0

    def test_comments_stripped(self):
        obj = assemble("NOP ; comment\nNOP // another\n; full line")
        assert obj.sections[".text"].size == 4

    def test_case_insensitive_mnemonics(self):
        obj = assemble("mov #1, r5\nMoV #2, R6")
        assert obj.sections[".text"].size == 4   # both use CG

    def test_byte_suffix(self):
        insn = first_insn(assemble("MOV.B #1, R5"))
        assert insn.byte

    def test_char_literal_immediate(self):
        insn = first_insn(assemble("MOV #'A', R5"))
        assert insn.src.value == 65

    def test_unknown_mnemonic_reports_line(self):
        with pytest.raises(AssemblerError) as info:
            assemble("NOP\nFROB R5\n", name="x.s")
        assert "x.s:2" in str(info.value)

    def test_hex_and_binary_numbers(self):
        insn = first_insn(assemble("MOV #0x1F, R5"))
        assert insn.src.value == 0x1F
        insn = first_insn(assemble("MOV #0b101, R5"))
        assert insn.src.value == 5


class TestAddressingModes:
    def test_indexed(self):
        insn = first_insn(assemble("MOV 4(R7), R5"))
        assert insn.src.mode is AddressingMode.INDEXED
        assert insn.src.register == 7
        assert insn.src.value == 4

    def test_negative_index(self):
        insn = first_insn(assemble("MOV -2(R4), R5"))
        assert insn.src.value == 0xFFFE

    def test_absolute(self):
        insn = first_insn(assemble("MOV &0x8000, R5"))
        assert insn.src.mode is AddressingMode.ABSOLUTE
        assert insn.src.value == 0x8000

    def test_indirect_and_autoincrement(self):
        insn = first_insn(assemble("MOV @R9, R5"))
        assert insn.src.mode is AddressingMode.INDIRECT
        insn = first_insn(assemble("MOV @R9+, R5"))
        assert insn.src.mode is AddressingMode.AUTOINCREMENT

    def test_register_aliases(self):
        insn = first_insn(assemble("MOV SP, R5"))
        assert insn.src.register == 1


class TestEmulatedInstructions:
    @pytest.mark.parametrize("text,opcode", [
        ("NOP", Opcode.MOV),
        ("RET", Opcode.MOV),
        ("INC R5", Opcode.ADD),
        ("DEC R5", Opcode.SUB),
        ("TST R5", Opcode.CMP),
        ("INV R5", Opcode.XOR),
        ("RLA R5", Opcode.ADD),
        ("RLC R5", Opcode.ADDC),
        ("CLR R5", Opcode.MOV),
        ("POP R5", Opcode.MOV),
        ("CLRC", Opcode.BIC),
        ("SETC", Opcode.BIS),
        ("DINT", Opcode.BIC),
        ("EINT", Opcode.BIS),
    ])
    def test_expansion_opcode(self, text, opcode):
        assert first_insn(assemble(text)).opcode is opcode

    def test_ret_is_canonical_encoding(self):
        obj = assemble("RET")
        assert bytes(obj.sections[".text"].data) == b"\x30\x41"

    def test_nop_is_canonical_encoding(self):
        obj = assemble("NOP")
        assert bytes(obj.sections[".text"].data) == b"\x03\x43"

    def test_br_targets_pc(self):
        insn = first_insn(assemble("BR #0x5000"))
        assert insn.opcode is Opcode.MOV
        assert insn.dst.register == 0

    def test_rla_duplicates_operand(self):
        insn = first_insn(assemble("RLA R7"))
        assert insn.src.register == insn.dst.register == 7

    def test_jump_aliases(self):
        assert first_insn(assemble("JZ x\nx: NOP")).opcode is Opcode.JEQ
        assert first_insn(assemble("JLO x\nx: NOP")).opcode is Opcode.JNC
        assert first_insn(assemble("JHS x\nx: NOP")).opcode is Opcode.JC


class TestDirectives:
    def test_word_and_byte(self):
        obj = assemble(".data\n.word 0x1234, 7\n.byte 1, 2")
        assert bytes(obj.sections[".data"].data) == \
            b"\x34\x12\x07\x00\x01\x02"

    def test_space(self):
        obj = assemble(".data\n.space 4")
        assert bytes(obj.sections[".data"].data) == b"\x00" * 4

    def test_space_with_fill(self):
        obj = assemble(".data\n.space 3, 0xFF")
        assert bytes(obj.sections[".data"].data) == b"\xff" * 3

    def test_align(self):
        obj = assemble(".data\n.byte 1\n.align 4\n.byte 2")
        assert obj.sections[".data"].data[:5] == \
            bytearray(b"\x01\x00\x00\x00\x02")

    def test_ascii_and_asciz(self):
        obj = assemble('.data\n.asciz "hi"')
        assert bytes(obj.sections[".data"].data) == b"hi\x00"

    def test_equ_constant(self):
        obj = assemble(".equ LIMIT, 42\nMOV #LIMIT, R5")
        insn = first_insn(obj)
        assert insn.src.value == 42

    def test_section_switching(self):
        obj = assemble(".section .custom\n.word 1\n.text\nNOP")
        assert ".custom" in obj.sections
        assert obj.sections[".custom"].size == 2

    def test_global_marks_symbol(self):
        obj = assemble(".global foo\nfoo: NOP")
        assert obj.symbols["foo"].is_global

    def test_word_with_symbol_emits_reloc(self):
        obj = assemble(".data\n.word remote")
        relocs = obj.sections[".data"].relocations
        assert len(relocs) == 1
        assert relocs[0].type is RelocType.ABS16
        assert relocs[0].symbol == "remote"


class TestRelocations:
    def test_immediate_symbol(self):
        obj = assemble("MOV #target, R5")
        relocs = obj.sections[".text"].relocations
        assert relocs[0].type is RelocType.ABS16
        assert relocs[0].offset == 2      # extension word

    def test_jump_to_undefined_symbol(self):
        obj = assemble("JMP elsewhere")
        relocs = obj.sections[".text"].relocations
        assert relocs[0].type is RelocType.JUMP10
        assert relocs[0].offset == 0

    def test_symbolic_mode_pcrel_reloc(self):
        obj = assemble("MOV counter, R5")
        relocs = obj.sections[".text"].relocations
        assert relocs[0].type is RelocType.PCREL16

    def test_src_and_dst_relocs_ordered(self):
        obj = assemble("MOV #a, &b")
        relocs = sorted(obj.sections[".text"].relocations,
                        key=lambda r: r.offset)
        assert [r.symbol for r in relocs] == ["a", "b"]
        assert [r.offset for r in relocs] == [2, 4]

    def test_undefined_symbols_listed(self):
        obj = assemble("MOV #ghost, R5")
        assert obj.undefined_symbols() == ["ghost"]

    def test_symbol_with_addend(self):
        obj = assemble("MOV #table+4, R5")
        reloc = obj.sections[".text"].relocations[0]
        assert reloc.symbol == "table"
        assert reloc.addend == 4

    def test_symbol_with_negative_addend(self):
        obj = assemble("MOV #table-2, R5")
        reloc = obj.sections[".text"].relocations[0]
        assert reloc.addend == 0xFFFE    # -2 mod 2^16

    def test_indexed_with_symbol_offset(self):
        obj = assemble("MOV struct_off(R7), R5")
        reloc = obj.sections[".text"].relocations[0]
        assert reloc.type is RelocType.ABS16
        assert reloc.symbol == "struct_off"

    def test_equ_folds_into_indexed(self):
        obj = assemble(".equ OFF, 6\nMOV OFF(R7), R5")
        assert obj.sections[".text"].relocations == []
        insn = first_insn(obj)
        assert insn.src.value == 6

    def test_addend_resolves_through_linker(self):
        from repro.asm.linker import LinkScript, link
        obj = assemble("""
                MOV #table+2, R5
        .data
        .global table
table:  .word 0xAAAA, 0xBBBB
        """)
        script = LinkScript()
        script.region("fram", 0x4400, 0xFF7F)
        script.place_rule("*", "fram")
        image = link([obj], script)
        code = image.segments[0][1]
        patched = code[2] | (code[3] << 8)
        assert patched == image.symbol("table") + 2


class TestQuotedLiterals:
    """Comment markers and commas inside char and string literals are
    text; a quote after an escaped backslash closes the literal."""

    def test_escaped_backslash_char(self):
        insn = first_insn(assemble("MOV #'\\\\', R12"))
        assert insn.src.value == ord("\\")
        assert insn.dst.register == 12

    @pytest.mark.parametrize("body", ["\\", "\\q"])
    def test_lone_or_unknown_escape_is_rejected(self, body):
        with pytest.raises(AssemblerError, match="bad character literal"):
            assemble(f".data\n.byte '{body}'")

    def test_escaped_backslash_string_then_comment(self):
        obj = assemble('.data\n.ascii "a\\\\" ; c')
        assert bytes(obj.sections[".data"].data) == b"a\\"

    @pytest.mark.parametrize("char", [";", "/", ","])
    def test_marker_in_char_literal(self, char):
        insn = first_insn(assemble(f"MOV #'{char}', R5 ; note"))
        assert insn.src.value == ord(char)
        assert insn.dst.register == 5

    def test_markers_in_string_literal(self):
        obj = assemble('.data\n.ascii "a;b//c,d" // note')
        assert bytes(obj.sections[".data"].data) == b"a;b//c,d"

    def test_markers_in_byte_list(self):
        obj = assemble(".data\n.byte ';', ',', '/' ; three")
        assert bytes(obj.sections[".data"].data) == b";,/"
