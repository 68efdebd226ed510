"""CPU execution semantics: ALU flags, stack ops, jumps, faults."""

import pytest

from repro.errors import DecodeError, MemoryAccessError
from repro.msp430.cpu import Cpu, CpuFault, ExecutionLimitExceeded, \
    FaultKind
from repro.msp430.decoder import decode_bytes
from repro.msp430.encoding import encode_bytes
from repro.msp430.isa import (
    Instruction,
    Opcode,
    absolute,
    autoincrement,
    imm,
    indexed,
    indirect,
    reg,
)
from repro.msp430.registers import Reg, SR

CODE = 0x4400


def run_program(cpu, *insns, start=CODE):
    address = start
    for insn in insns:
        blob = encode_bytes(insn, address)
        cpu.memory.load(address, blob)
        address += len(blob)
    cpu.regs.pc = start
    for _ in insns:
        cpu.step()
    return cpu


@pytest.fixture
def cpu():
    c = Cpu()
    c.regs.sp = 0x2400
    return c


class TestMovAndArithmetic:
    def test_mov_immediate(self, cpu):
        run_program(cpu, Instruction(Opcode.MOV, src=imm(0x1234),
                                     dst=reg(5)))
        assert cpu.regs.read(5) == 0x1234

    def test_add_sets_carry_on_wrap(self, cpu):
        cpu.regs.write(5, 0xFFFF)
        run_program(cpu, Instruction(Opcode.ADD, src=imm(1),
                                     dst=reg(5)))
        assert cpu.regs.read(5) == 0
        assert cpu.regs.carry and cpu.regs.zero

    def test_add_signed_overflow(self, cpu):
        cpu.regs.write(5, 0x7FFF)
        run_program(cpu, Instruction(Opcode.ADD, src=imm(1),
                                     dst=reg(5)))
        assert cpu.regs.overflow and cpu.regs.negative

    def test_sub_carry_means_no_borrow(self, cpu):
        cpu.regs.write(5, 10)
        cpu.regs.write(6, 3)
        run_program(cpu, Instruction(Opcode.SUB, src=reg(6),
                                     dst=reg(5)))
        assert cpu.regs.read(5) == 7
        assert cpu.regs.carry          # no borrow

    def test_sub_borrow_clears_carry(self, cpu):
        cpu.regs.write(5, 3)
        cpu.regs.write(6, 10)
        run_program(cpu, Instruction(Opcode.SUB, src=reg(6),
                                     dst=reg(5)))
        assert cpu.regs.read(5) == (3 - 10) & 0xFFFF
        assert not cpu.regs.carry

    def test_addc_uses_carry(self, cpu):
        cpu.regs.set_flag(SR.C, True)
        cpu.regs.write(5, 10)
        run_program(cpu, Instruction(Opcode.ADDC, src=imm(0),
                                     dst=reg(5)))
        assert cpu.regs.read(5) == 11

    def test_cmp_does_not_write(self, cpu):
        cpu.regs.write(5, 42)
        run_program(cpu, Instruction(Opcode.CMP, src=imm(42),
                                     dst=reg(5)))
        assert cpu.regs.read(5) == 42
        assert cpu.regs.zero

    def test_dadd_bcd(self, cpu):
        cpu.regs.write(5, 0x0199)
        cpu.regs.set_flag(SR.C, False)
        run_program(cpu, Instruction(Opcode.DADD, src=imm(1),
                                     dst=reg(5)))
        assert cpu.regs.read(5) == 0x0200

    def test_byte_op_clears_high_byte(self, cpu):
        cpu.regs.write(5, 0xFFFF)
        run_program(cpu, Instruction(Opcode.MOV, byte=True,
                                     src=imm(0x12), dst=reg(5)))
        assert cpu.regs.read(5) == 0x0012


class TestLogic:
    def test_and_sets_carry_when_nonzero(self, cpu):
        cpu.regs.write(5, 0b1100)
        run_program(cpu, Instruction(Opcode.AND, src=imm(0b0100),
                                     dst=reg(5)))
        assert cpu.regs.read(5) == 0b0100
        assert cpu.regs.carry and not cpu.regs.zero

    def test_bit_only_flags(self, cpu):
        cpu.regs.write(5, 0b1000)
        run_program(cpu, Instruction(Opcode.BIT, src=imm(0b0111),
                                     dst=reg(5)))
        assert cpu.regs.read(5) == 0b1000
        assert cpu.regs.zero

    def test_bis_bic(self, cpu):
        cpu.regs.write(5, 0b1010)
        run_program(cpu,
                    Instruction(Opcode.BIS, src=imm(0b0101), dst=reg(5)),
                    Instruction(Opcode.BIC, src=imm(0b0011), dst=reg(5)))
        assert cpu.regs.read(5) == 0b1100

    def test_xor_overflow_when_both_negative(self, cpu):
        cpu.regs.write(5, 0x8000)
        cpu.regs.write(6, 0x8001)
        run_program(cpu, Instruction(Opcode.XOR, src=reg(6),
                                     dst=reg(5)))
        assert cpu.regs.overflow


class TestShifts:
    def test_rra_arithmetic(self, cpu):
        cpu.regs.write(5, 0x8002)
        run_program(cpu, Instruction(Opcode.RRA, src=reg(5)))
        assert cpu.regs.read(5) == 0xC001
        assert not cpu.regs.carry

    def test_rrc_through_carry(self, cpu):
        cpu.regs.set_flag(SR.C, True)
        cpu.regs.write(5, 0x0001)
        run_program(cpu, Instruction(Opcode.RRC, src=reg(5)))
        assert cpu.regs.read(5) == 0x8000
        assert cpu.regs.carry

    def test_swpb(self, cpu):
        cpu.regs.write(5, 0x1234)
        run_program(cpu, Instruction(Opcode.SWPB, src=reg(5)))
        assert cpu.regs.read(5) == 0x3412

    def test_sxt(self, cpu):
        cpu.regs.write(5, 0x0080)
        run_program(cpu, Instruction(Opcode.SXT, src=reg(5)))
        assert cpu.regs.read(5) == 0xFF80
        assert cpu.regs.negative


class TestStackAndCalls:
    def test_push_decrements_sp(self, cpu):
        cpu.regs.write(5, 0xBEEF)
        run_program(cpu, Instruction(Opcode.PUSH, src=reg(5)))
        assert cpu.regs.sp == 0x23FE
        assert cpu.memory.read_word(0x23FE) == 0xBEEF

    def test_call_pushes_return_address(self, cpu):
        insn = Instruction(Opcode.CALL, src=imm(0x5000))
        cpu.memory.load(CODE, encode_bytes(insn, CODE))
        cpu.regs.pc = CODE
        cpu.step()
        assert cpu.regs.pc == 0x5000
        assert cpu.memory.read_word(cpu.regs.sp) == CODE + 4

    def test_call_ret_roundtrip(self, cpu):
        # CALL #0x5000 ; (at 0x5000) MOV @SP+, PC
        call = Instruction(Opcode.CALL, src=imm(0x5000))
        ret = Instruction(Opcode.MOV, src=autoincrement(Reg.SP),
                          dst=reg(Reg.PC))
        cpu.memory.load(CODE, encode_bytes(call, CODE))
        cpu.memory.load(0x5000, encode_bytes(ret, 0x5000))
        cpu.regs.pc = CODE
        cpu.step()
        cpu.step()
        assert cpu.regs.pc == CODE + 4
        assert cpu.regs.sp == 0x2400

    def test_reti_restores_sr_and_pc(self, cpu):
        cpu.regs.sp = 0x23FC
        cpu.memory.write_word(0x23FC, 0x000F)   # saved SR
        cpu.memory.write_word(0x23FE, 0x4800)   # saved PC
        run_program(cpu, Instruction(Opcode.RETI))
        assert cpu.regs.pc == 0x4800
        assert cpu.regs.sr == 0x000F


class TestJumps:
    def _jump_taken(self, cpu, opcode, flags):
        for bit, value in flags.items():
            cpu.regs.set_flag(bit, value)
        insn = Instruction(opcode, offset=4)
        cpu.memory.load(CODE, encode_bytes(insn, CODE))
        cpu.regs.pc = CODE
        cpu.step()
        return cpu.regs.pc == CODE + 2 + 8

    def test_jeq(self, cpu):
        assert self._jump_taken(cpu, Opcode.JEQ, {SR.Z: True})

    def test_jne_not_taken_when_zero(self, cpu):
        assert not self._jump_taken(cpu, Opcode.JNE, {SR.Z: True})

    def test_jc(self, cpu):
        assert self._jump_taken(cpu, Opcode.JC, {SR.C: True})

    def test_jn(self, cpu):
        assert self._jump_taken(cpu, Opcode.JN, {SR.N: True})

    def test_jge_on_n_equals_v(self, cpu):
        assert self._jump_taken(cpu, Opcode.JGE,
                                {SR.N: True, SR.V: True})

    def test_jl_on_n_differs_v(self, cpu):
        assert self._jump_taken(cpu, Opcode.JL,
                                {SR.N: True, SR.V: False})

    def test_jmp_always(self, cpu):
        assert self._jump_taken(cpu, Opcode.JMP, {})


class TestMemoryOperands:
    def test_absolute_store_load(self, cpu):
        run_program(cpu,
                    Instruction(Opcode.MOV, src=imm(0x55AA),
                                dst=absolute(0x8000)),
                    Instruction(Opcode.MOV, src=absolute(0x8000),
                                dst=reg(7)))
        assert cpu.regs.read(7) == 0x55AA

    def test_indexed_addressing(self, cpu):
        cpu.regs.write(4, 0x8000)
        cpu.memory.write_word(0x8004, 0x77)
        run_program(cpu, Instruction(Opcode.MOV, src=indexed(4, 4),
                                     dst=reg(5)))
        assert cpu.regs.read(5) == 0x77

    def test_autoincrement_advances(self, cpu):
        cpu.regs.write(6, 0x8000)
        cpu.memory.write_word(0x8000, 0x11)
        run_program(cpu, Instruction(Opcode.MOV, src=autoincrement(6),
                                     dst=reg(5)))
        assert cpu.regs.read(5) == 0x11
        assert cpu.regs.read(6) == 0x8002

    def test_autoincrement_byte_advances_by_one(self, cpu):
        cpu.regs.write(6, 0x8000)
        cpu.memory.write_byte(0x8000, 0x22)
        run_program(cpu, Instruction(Opcode.MOV, byte=True,
                                     src=autoincrement(6), dst=reg(5)))
        assert cpu.regs.read(6) == 0x8001


class TestFaults:
    def test_bus_error_becomes_cpu_fault(self, cpu):
        insn = Instruction(Opcode.MOV, src=absolute(0x3000),
                           dst=reg(5))
        cpu.memory.load(CODE, encode_bytes(insn, CODE))
        cpu.regs.pc = CODE
        with pytest.raises(CpuFault) as info:
            cpu.step()
        assert info.value.kind is FaultKind.BUS_ERROR
        assert info.value.address == 0x3000
        assert info.value.pc == CODE

    def test_fetch_from_hole_faults(self, cpu):
        cpu.regs.pc = 0x3000
        with pytest.raises(CpuFault) as info:
            cpu.step()
        assert info.value.kind is FaultKind.BUS_ERROR

    def test_decode_error_faults(self, cpu):
        cpu.memory.load(CODE, b"\x00\x00")
        cpu.regs.pc = CODE
        with pytest.raises(CpuFault) as info:
            cpu.step()
        assert info.value.kind is FaultKind.DECODE_ERROR

    def test_run_limit(self, cpu):
        # JMP $ (offset -2... offset -1 jumps to itself: pc+2-2)
        insn = Instruction(Opcode.JMP, offset=-1)
        cpu.memory.load(CODE, encode_bytes(insn, CODE))
        cpu.regs.pc = CODE
        with pytest.raises(ExecutionLimitExceeded):
            cpu.run(max_cycles=1000)

    def test_halt_stops_run(self, cpu):
        cpu.memory.load(CODE, encode_bytes(
            Instruction(Opcode.JMP, offset=-1), CODE))
        cpu.regs.pc = CODE

        def stop(addr, insn):
            cpu.halt()

        cpu.trace_hook = stop
        cpu.run(max_cycles=1000)
        assert cpu.halted


class TestCycleCounting:
    def test_register_mov_is_one_cycle(self, cpu):
        run_program(cpu, Instruction(Opcode.MOV, src=reg(4),
                                     dst=reg(5)))
        assert cpu.cycles == 1

    def test_cg_immediate_is_register_timing(self, cpu):
        run_program(cpu, Instruction(Opcode.MOV, src=imm(0),
                                     dst=reg(5)))
        assert cpu.cycles == 1

    def test_big_immediate_is_two_cycles(self, cpu):
        run_program(cpu, Instruction(Opcode.MOV, src=imm(0x1234),
                                     dst=reg(5)))
        assert cpu.cycles == 2

    def test_mov_to_memory_discount(self, cpu):
        # #N -> &EDE is 5 cycles; MOV/BIT/CMP save one on this family
        run_program(cpu, Instruction(Opcode.MOV, src=imm(0x1234),
                                     dst=absolute(0x8000)))
        assert cpu.cycles == 4

    def test_add_to_memory_full_cost(self, cpu):
        run_program(cpu, Instruction(Opcode.ADD, src=imm(0x1234),
                                     dst=absolute(0x8000)))
        assert cpu.cycles == 5

    def test_jump_two_cycles(self, cpu):
        run_program(cpu, Instruction(Opcode.JMP, offset=0))
        assert cpu.cycles == 2

    def test_reset_uses_reset_vector(self, cpu):
        cpu.memory.load(0xFFFE, b"\x00\x50")
        cpu.reset()
        assert cpu.regs.pc == 0x5000
        assert cpu.cycles == 0


class TestICacheInvalidation:
    """The decoded-instruction cache must drop entries when code
    memory changes — via single stores (write hook pops the 64-byte
    block *and its predecessor*) or bulk loads (full clear)."""

    def _patch(self, cpu, address, insn):
        """Overwrite code with word stores, the targeted-invalidation
        path (memory.load would clear the whole cache)."""
        blob = encode_bytes(insn, address)
        for off in range(0, len(blob), 2):
            word = int.from_bytes(blob[off:off + 2], "little")
            cpu.memory.write_word(address + off, word)

    def test_self_modifying_code(self, cpu):
        run_program(cpu, Instruction(Opcode.MOV, src=imm(0x1111),
                                     dst=reg(5)))
        assert cpu.regs.read(5) == 0x1111
        self._patch(cpu, CODE, Instruction(Opcode.MOV, src=imm(0x2222),
                                           dst=reg(5)))
        cpu.regs.pc = CODE
        cpu.step()
        assert cpu.regs.read(5) == 0x2222

    def test_bulk_load_clears_cache(self, cpu):
        run_program(cpu, Instruction(Opcode.MOV, src=imm(0x1111),
                                     dst=reg(5)))
        blob = encode_bytes(Instruction(Opcode.MOV, src=imm(0x2222),
                                        dst=reg(5)), CODE)
        cpu.memory.load(CODE, blob)
        cpu.regs.pc = CODE
        cpu.step()
        assert cpu.regs.read(5) == 0x2222

    def test_straddling_block_boundary(self, cpu):
        # A 4-byte instruction whose opcode word sits in one 64-byte
        # icache block and whose extension word sits in the next: the
        # entry is cached under the *first* block, so a write that only
        # touches the second block must still evict it (the hook pops
        # block and block-1).
        start = 0x447E
        assert start >> 6 != (start + 2) >> 6
        insn = Instruction(Opcode.MOV, src=imm(0x1111), dst=reg(5))
        cpu.memory.load(start, encode_bytes(insn, start))
        cpu.regs.pc = start
        cpu.step()
        assert cpu.regs.read(5) == 0x1111
        # patch only the extension word, at start+2 in the next block
        cpu.memory.write_word(start + 2, 0x2222)
        cpu.regs.pc = start
        cpu.step()
        assert cpu.regs.read(5) == 0x2222

    def test_patch_opcode_word_of_straddler(self, cpu):
        # Same layout, but the write lands in the first block.
        start = 0x447E
        cpu.memory.load(start, encode_bytes(
            Instruction(Opcode.MOV, src=imm(0x1111), dst=reg(5)),
            start))
        cpu.regs.pc = start
        cpu.step()
        assert cpu.regs.read(5) == 0x1111
        self._patch(cpu, start, Instruction(Opcode.MOV,
                                            src=imm(0x3333),
                                            dst=reg(6)))
        cpu.regs.pc = start
        cpu.step()
        assert cpu.regs.read(6) == 0x3333
        assert cpu.regs.read(5) == 0x1111


# -- superblocks -----------------------------------------------------------

from repro.fuzz.harness import mark_blocks_hot  # noqa: E402
from repro.ports import DONE_PORT  # noqa: E402


def _block_cpu(block_mode=True):
    c = Cpu()
    c.block_mode = block_mode
    c.regs.sp = 0x2400
    c.memory.add_io(DONE_PORT, write=lambda a, v: c.halt())
    return c


def _load_insns(cpu, insns, start=CODE):
    address = start
    for insn in insns:
        blob = encode_bytes(insn, address)
        cpu.memory.load(address, blob)
        address += len(blob)
    cpu.regs.pc = start


def _arch_state(cpu):
    return (tuple(cpu.regs._regs), cpu.cycles, cpu.instructions,
            cpu.halted)


class TestSuperblockInvalidation:
    """Compiled superblocks must die with the code they fuse — for
    stores from inside the very block being executed, stores landing
    in a later 64-byte page of a block's range, and bulk loads."""

    HALT = Instruction(Opcode.MOV, src=imm(1), dst=absolute(DONE_PORT))

    def _run_both(self, build):
        """Run the same scenario in block mode and step-only mode and
        require bit-identical architectural state."""
        results = []
        for block_mode in (True, False):
            cpu = _block_cpu(block_mode)
            build(cpu)
            cpu.run(max_cycles=100_000)
            results.append((cpu, _arch_state(cpu)))
        (cpu_blocks, state_blocks), (_, state_step) = results
        assert state_blocks == state_step
        return cpu_blocks

    def test_store_into_own_block(self):
        # The first instruction rewrites the immediate of the second —
        # four bytes ahead, inside the same compiled block.  The store
        # must invalidate the block mid-flight so the patched
        # instruction executes, exactly as step() would.
        def build(cpu):
            _load_insns(cpu, [
                Instruction(Opcode.MOV, src=imm(0x2222),
                            dst=absolute(CODE + 8)),     # patch below
                Instruction(Opcode.MOV, src=imm(0x1111),  # ext at +8
                            dst=reg(5)),
                self.HALT,
            ])
        cpu = self._run_both(build)
        assert cpu.halted
        assert cpu.regs.read(5) == 0x2222

    def test_store_straddling_block_boundary(self):
        # Block compiled at 0x447E spans two 64-byte pages; a store
        # touching only the second page (the extension word) must
        # still kill the block.
        start = 0x447E
        assert start >> 6 != (start + 2) >> 6
        cpu = _block_cpu()
        _load_insns(cpu, [
            Instruction(Opcode.MOV, src=imm(0x1111), dst=reg(5)),
            self.HALT,
        ], start=start)
        cpu.run(max_cycles=100_000)
        assert cpu.regs.read(5) == 0x1111
        cpu.memory.write_word(start + 2, 0x2222)   # second page only
        cpu.halted = False
        cpu.regs.pc = start
        cpu.run(max_cycles=100_000)
        assert cpu.regs.read(5) == 0x2222

    def test_bulk_load_kills_blocks(self):
        cpu = _block_cpu()
        _load_insns(cpu, [
            Instruction(Opcode.MOV, src=imm(0x1111), dst=reg(5)),
            self.HALT,
        ])
        cpu.run(max_cycles=100_000)
        assert cpu.regs.read(5) == 0x1111
        blob = encode_bytes(Instruction(Opcode.MOV, src=imm(0x4444),
                                        dst=reg(5)), CODE)
        cpu.memory.load(CODE, blob)
        cpu.halted = False
        cpu.regs.pc = CODE
        cpu.run(max_cycles=100_000)
        assert cpu.regs.read(5) == 0x4444

    def test_mid_block_fault_pc_exact(self):
        # A store into the unmapped hole (0x1A00) faults in the middle
        # of a block; the reported pc, fault kind, counters, and
        # registers must be identical in block and step-only mode.
        insns = [
            Instruction(Opcode.MOV, src=imm(0x0005), dst=reg(5)),
            Instruction(Opcode.MOV, src=imm(0x1A00), dst=reg(4)),
            Instruction(Opcode.MOV, src=reg(5), dst=indexed(0, 4)),
            self.HALT,
        ]
        outcomes = []
        for block_mode in (True, False):
            cpu = _block_cpu(block_mode)
            _load_insns(cpu, insns)
            with pytest.raises(CpuFault) as info:
                cpu.run(max_cycles=100_000)
            outcomes.append((info.value.kind, info.value.pc,
                             info.value.address, _arch_state(cpu)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is FaultKind.BUS_ERROR
        assert outcomes[0][1] == CODE + 8      # the faulting store


class TestStackPointerSemantics:
    """SLAU367's stack-pointer section settles two shapes the oracle
    once disagreed on: PUSH SP stores the decremented SP (its "PUSH
    SP, POP SP sequence"), and SP bit 0 is not implemented, so a byte
    pop leaves SP even.  Each runs as the oracle handler, in block
    mode's tier 0, and as generated code."""

    HALT = Instruction(Opcode.MOV, src=imm(1), dst=absolute(DONE_PORT))

    def _ways(self, insn):
        states = []
        for way in ("oracle", "tier0", "codegen"):
            cpu = _block_cpu()
            cpu.regs.sp = 0x2000
            cpu.memory.load(0x1FFE, b"\x00\x00\x5a\xa5")
            if way == "oracle":
                cpu._execute(insn)
            else:
                if way == "codegen":
                    mark_blocks_hot(cpu)
                _load_insns(cpu, [insn, self.HALT])
                cpu.run()
                assert (cpu._blocks[CODE].fn is None) == (way == "tier0")
            states.append((cpu.regs.sp, cpu.regs.read(5),
                           cpu.memory.read_word(0x1FFE)))
        return states

    def test_push_sp_stores_the_decremented_sp(self):
        insn = Instruction(Opcode.PUSH, src=reg(Reg.SP))
        assert self._ways(insn) == [(0x1FFE, 0, 0x1FFE)] * 3

    def test_byte_pop_leaves_sp_even(self):
        insn = Instruction(Opcode.MOV, byte=True,
                           src=autoincrement(Reg.SP), dst=reg(5))
        assert self._ways(insn) == [(0x2000, 0x5A, 0)] * 3


class TestUndecodableFormatTwo:
    """SWPB, SXT and CALL have no byte form: a word with the B/W bit
    set is a decode error, which both execution modes turn into the
    same DECODE_ERROR fault."""

    @pytest.mark.parametrize("word", [0x10C4, 0x11C4, 0x12C4])
    def test_byte_form_does_not_decode(self, word):
        with pytest.raises(DecodeError, match="no byte form"):
            decode_bytes(word.to_bytes(2, "little"), CODE)

    def test_both_modes_fault_at_the_word(self):
        outcomes = []
        for block_mode in (True, False):
            cpu = _block_cpu(block_mode)
            _load_insns(cpu, [Instruction(Opcode.MOV, src=imm(5),
                                          dst=reg(5))])
            cpu.memory.load(CODE + 4, (0x12C4).to_bytes(2, "little"))
            with pytest.raises(CpuFault) as info:
                cpu.run(max_cycles=1000)
            fault = info.value
            outcomes.append((fault.kind, fault.pc, fault.address,
                             _arch_state(cpu)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][:3] == (FaultKind.DECODE_ERROR, CODE + 4,
                                   CODE + 4)


class TestRunBudgetMessages:
    def _spin(self, cpu):
        cpu.memory.load(CODE, encode_bytes(
            Instruction(Opcode.JMP, offset=-1), CODE))
        cpu.regs.pc = CODE

    def test_cycle_budget_names_cycles(self, cpu):
        self._spin(cpu)
        with pytest.raises(ExecutionLimitExceeded) as info:
            cpu.run(max_cycles=1000)
        assert str(info.value).startswith("cycle budget")

    def test_instruction_budget_names_instructions(self, cpu):
        self._spin(cpu)
        with pytest.raises(ExecutionLimitExceeded) as info:
            cpu.run(max_cycles=10_000_000, max_instructions=100)
        assert str(info.value).startswith("instruction budget")

    def test_budget_raise_identical_across_modes(self):
        # The budget error must fire at the same instruction whether
        # the loop executed through superblocks or pure step().
        outcomes = []
        for block_mode in (True, False):
            cpu = _block_cpu(block_mode)
            _load_insns(cpu, [
                Instruction(Opcode.MOV, src=imm(0x7FFF), dst=reg(5)),
                Instruction(Opcode.SUB, src=imm(1), dst=reg(5)),
                Instruction(Opcode.JNE, offset=-2),
                Instruction(Opcode.JMP, offset=-5),
            ])
            with pytest.raises(ExecutionLimitExceeded):
                cpu.run(max_cycles=5_000)
            outcomes.append(_arch_state(cpu))
        assert outcomes[0] == outcomes[1]


class TestBlockStepDifferential:
    """Seeded random programs executed in block mode and step-only
    mode must agree on every register, flag, counter, and fault."""

    def _random_program(self, rng):
        insns = []
        alu = [Opcode.MOV, Opcode.ADD, Opcode.SUB, Opcode.CMP,
               Opcode.AND, Opcode.BIS, Opcode.BIC, Opcode.XOR]
        fmt2 = [Opcode.RRA, Opcode.RRC, Opcode.SWPB, Opcode.SXT]
        n = rng.randrange(8, 24)
        for i in range(n):
            choice = rng.random()
            if choice < 0.45:
                insns.append(Instruction(
                    rng.choice(alu),
                    src=(reg(rng.randrange(4, 14))
                         if rng.random() < 0.5
                         else imm(rng.randrange(0, 0x10000))),
                    dst=reg(rng.randrange(4, 14))))
            elif choice < 0.6:
                insns.append(Instruction(rng.choice(fmt2),
                                         src=reg(rng.randrange(4, 14))))
            elif choice < 0.7:
                insns.append(Instruction(Opcode.PUSH,
                                         src=reg(rng.randrange(4, 14))))
            elif choice < 0.8:
                # in-bounds SRAM traffic through the fixed base in R4
                insns.append(Instruction(
                    Opcode.MOV, src=reg(rng.randrange(5, 14)),
                    dst=indexed(2 * rng.randrange(0, 16), 4)))
            elif choice < 0.9:
                insns.append(Instruction(
                    Opcode.MOV, src=indexed(2 * rng.randrange(0, 16), 4),
                    dst=reg(rng.randrange(5, 14))))
            else:
                # short forward jump, always in range
                insns.append(Instruction(
                    rng.choice([Opcode.JNE, Opcode.JEQ, Opcode.JC,
                                Opcode.JMP]),
                    offset=rng.randrange(0, 3)))
        insns.append(Instruction(Opcode.MOV, src=imm(1),
                                 dst=absolute(DONE_PORT)))
        return insns

    def _execute(self, insns, block_mode, seed):
        import random as _random
        rng = _random.Random(seed + 1)
        cpu = _block_cpu(block_mode)
        cpu.regs.write(4, 0x2000)               # SRAM scratch base
        for r in range(5, 14):
            cpu.regs.write(r, rng.randrange(0, 0x10000))
        _load_insns(cpu, insns)
        fault = None
        try:
            cpu.run(max_cycles=50_000)
        except CpuFault as exc:
            fault = (exc.kind, exc.pc, exc.address)
        except ExecutionLimitExceeded:
            fault = "limit"
        return _arch_state(cpu), fault

    def test_differential(self):
        import random as _random
        for seed in range(40):
            rng = _random.Random(seed)
            insns = self._random_program(rng)
            got_blocks = self._execute(insns, True, seed)
            got_step = self._execute(insns, False, seed)
            assert got_blocks == got_step, f"seed {seed} diverged"


# -- generated code: the inline probe and its slow path ---------------------

import sys  # noqa: E402

from repro.msp430.cpu import _block_source  # noqa: E402
from repro.msp430.memory import Memory  # noqa: E402
from repro.msp430.mpu import Mpu, MpuConfig, SegmentPermissions  # noqa: E402
from repro.msp430.timer import CycleTimer  # noqa: E402


def _at(insns, index, start=CODE):
    """The address of ``insns[index]`` once they are loaded at ``start``."""
    return start + sum(len(encode_bytes(insn, 0)) for insn in insns[:index])


HALT = Instruction(Opcode.MOV, src=imm(1), dst=absolute(DONE_PORT))


class TestGeneratedCode:
    """Block mode with every block generated on its first dispatch
    against step-only mode: registers, counters, halt, fault and MPU
    violation record must agree."""

    def _outcomes(self, insns, setup=None):
        outcomes = []
        for mode in ("codegen", "block", "step"):
            cpu = _block_cpu(mode != "step")
            if mode == "codegen":
                mark_blocks_hot(cpu)
            mpu = setup(cpu) if setup else None
            _load_insns(cpu, insns)
            try:
                cpu.run(max_cycles=100_000)
                fault = None
            except CpuFault as exc:
                fault = (exc.kind, exc.pc, exc.address)
            violation = None if mpu is None else (
                mpu.ctl1, mpu.violation_address, mpu.violation_kind)
            outcomes.append((fault, _arch_state(cpu), violation,
                             bytes(cpu.memory._bytes)))
            if mode == "codegen":
                generated = cpu
        assert outcomes[0] == outcomes[2]
        assert outcomes[1] == outcomes[2]
        return generated, outcomes[2]

    @pytest.mark.parametrize("arm", [
        Instruction(Opcode.MOV, src=reg(7), dst=reg(8)),
        Instruction(Opcode.ADDC, src=reg(9), dst=reg(8)),
        Instruction(Opcode.SUBC, src=reg(9), dst=reg(8)),
    ], ids=["mov", "addc", "subc"])
    def test_forward_branch_arm_ending_the_block_runs_once(self, arm):
        # JNE skips ``arm``; DADD has no template, so the block ends
        # where the branch rejoins.  The arm runs (R7 is zero): the
        # block must hand run() the rejoin PC, not the jump's
        # fall-through, or the arm runs twice.
        loop = [
            Instruction(Opcode.MOV, src=indirect(5), dst=reg(6)),
            Instruction(Opcode.CMP, src=imm(0), dst=reg(7)),
            Instruction(Opcode.JNE, offset=1),
            arm,
            Instruction(Opcode.DADD, src=reg(9), dst=reg(10)),
            Instruction(Opcode.SUB, src=imm(1), dst=reg(11)),
        ]
        insns = [Instruction(Opcode.MOV, src=imm(5), dst=reg(11)),
                 Instruction(Opcode.MOV, src=imm(0x2000), dst=reg(5)),
                 Instruction(Opcode.MOV, src=imm(0x1234), dst=reg(9))]
        back = -(sum(len(encode_bytes(i, 0)) for i in loop) + 2) // 2
        insns += loop + [Instruction(Opcode.JNE, offset=back), HALT]
        cpu, (fault, state, _, _) = self._outcomes(insns)
        assert fault is None and state[3]
        assert state[2] == 3 + 5 * 7 + 1

    @pytest.mark.parametrize("arm", [
        Instruction(Opcode.MOV, src=reg(0), dst=reg(8)),
        Instruction(Opcode.PUSH, src=reg(0)),
        Instruction(Opcode.MOV, src=reg(0), dst=indexed(2, 4)),
    ], ids=["mov", "push", "store"])
    def test_pc_read_closing_an_arm_sees_its_own_pc(self, arm):
        # the arm's only step is the block's last (DADD has no
        # template) and reads R0: it must see its deferred PC (the
        # next instruction's address), not the block's entry PC
        size = len(encode_bytes(arm, 0))
        insns = [Instruction(Opcode.MOV, src=imm(0x2000), dst=reg(4)),
                 Instruction(Opcode.CMP, src=imm(0), dst=reg(7)),
                 Instruction(Opcode.JNE, offset=size // 2),
                 arm,
                 Instruction(Opcode.DADD, src=reg(9), dst=reg(10)),
                 HALT]
        cpu, (fault, state, _, memory) = self._outcomes(insns)
        assert fault is None and state[3]
        pc = _at(insns, 4)
        assert pc in (state[0][8], memory[0x23FE] | memory[0x23FF] << 8,
                      memory[0x2002] | memory[0x2003] << 8)

    def test_loop_exit_before_a_diamond_nets_out_skipped_arms(self):
        # L: SUB #1,R12; JN BACK; RRA R7; JNC S; ADD R8,R9;
        # S: SUB #1,R11; JNE L runs in place; iteration 2 skips the
        # ADD and iteration 3 leaves through JN, whose bookkeeping
        # must subtract the arm the earlier iteration skipped
        loop = [Instruction(Opcode.SUB, src=imm(1), dst=reg(12)),
                Instruction(Opcode.JN, offset=0),
                Instruction(Opcode.RRA, src=reg(7)),
                Instruction(Opcode.JNC, offset=1),
                Instruction(Opcode.ADD, src=reg(8), dst=reg(9)),
                Instruction(Opcode.SUB, src=imm(1), dst=reg(11)),
                Instruction(Opcode.JNE, offset=0)]
        insns = [Instruction(Opcode.MOV, src=imm(2), dst=reg(12)),
                 Instruction(Opcode.MOV, src=imm(0x55), dst=reg(7)),
                 Instruction(Opcode.MOV, src=imm(10), dst=reg(11)),
                 Instruction(Opcode.JMP, offset=2),
                 HALT] + loop + [HALT]
        back, start = _at(insns, 4), _at(insns, 5)
        insns[6] = Instruction(Opcode.JN,
                               offset=(back - _at(insns, 7)) // 2)
        insns[11] = Instruction(Opcode.JNE,
                                offset=(start - _at(insns, 12)) // 2)
        cpu, (fault, state, _, _) = self._outcomes(insns)
        assert fault is None and state[3]
        assert state[0][11] == 8                 # three iterations
        assert cpu._blocks[start].loop

    def test_timer_read_sees_the_exact_cycle_count(self):
        # a computed load of the cycle-timer port mid-block: the slow
        # path must make the counters exact before the handler runs
        def setup(cpu):
            CycleTimer(cpu, divider=1).attach()

        insns = [Instruction(Opcode.MOV, src=imm(0x0340), dst=reg(4)),
                 Instruction(Opcode.ADD, src=imm(3), dst=reg(5)),
                 Instruction(Opcode.MOV, src=reg(5), dst=reg(6)),
                 Instruction(Opcode.MOV, src=indirect(4), dst=reg(7)),
                 Instruction(Opcode.ADD, src=reg(7), dst=reg(8)),
                 HALT]
        cpu, (_, state, _, _) = self._outcomes(insns, setup)
        assert state[0][7] == 2 + 2 + 1       # cycles before the load
        assert cpu.slow_bus_calls == 2        # the timer and the halt

    def test_store_halting_mid_block_ends_it(self):
        insns = [Instruction(Opcode.MOV, src=imm(DONE_PORT), dst=reg(4)),
                 Instruction(Opcode.ADD, src=imm(3), dst=reg(5)),
                 Instruction(Opcode.MOV, src=reg(5), dst=reg(6)),
                 Instruction(Opcode.MOV, src=imm(1), dst=indexed(0, 4)),
                 Instruction(Opcode.ADD, src=imm(1), dst=reg(9)),
                 HALT]
        cpu, (_, state, _, _) = self._outcomes(insns)
        assert state[3] and state[2] == 4
        assert state[0][0] == _at(insns, 4)
        assert cpu.slow_bus_calls == 1

    def test_store_into_own_code_page_ends_the_block(self):
        # the store patches the immediate of the very next
        # instruction, inside the running block
        insns = [Instruction(Opcode.MOV, src=imm(0x4000), dst=reg(4)),
                 Instruction(Opcode.ADD, src=imm(3), dst=reg(5)),
                 Instruction(Opcode.MOV, src=reg(5), dst=reg(6)),
                 Instruction(Opcode.MOV, src=imm(0x2222),
                             dst=indexed(0, 4)),
                 Instruction(Opcode.MOV, src=imm(0x1111), dst=reg(9)),
                 HALT]
        insns[0] = Instruction(Opcode.MOV, src=imm(_at(insns, 4) + 2),
                               dst=reg(4))
        cpu, (_, state, _, _) = self._outcomes(insns)
        assert state[0][9] == 0x2222
        assert cpu.slow_bus_calls == 2        # the patch and the halt

    def test_mpu_denied_load_faults_exactly(self):
        # the fault PC, the counters and the MPU violation record
        def setup(cpu):
            mpu = Mpu()
            mpu.attach(cpu.memory)
            rwx = SegmentPermissions(True, True, True)
            mpu.configure(MpuConfig(0x8000, 0x9000, rwx,
                                    SegmentPermissions(), rwx))
            return mpu

        insns = [Instruction(Opcode.MOV, src=imm(0x8000), dst=reg(4)),
                 Instruction(Opcode.ADD, src=imm(3), dst=reg(5)),
                 Instruction(Opcode.MOV, src=reg(5), dst=reg(6)),
                 Instruction(Opcode.MOV, src=indirect(4), dst=reg(7)),
                 Instruction(Opcode.ADD, src=imm(1), dst=reg(9)),
                 HALT]
        cpu, (fault, state, violation, _) = self._outcomes(insns, setup)
        assert fault == (FaultKind.MPU_VIOLATION, _at(insns, 3), 0x8000)
        assert state[2] == 3
        assert violation[1] == 0x8000
        assert cpu.slow_bus_calls == 1

    def test_ram_loop_makes_no_slow_bus_calls(self):
        # loads, stores and stack traffic on SRAM all take the inline
        # probe: a fast path that silently stopped firing fails here
        loop = [Instruction(Opcode.MOV, src=indirect(4), dst=reg(5)),
                Instruction(Opcode.ADD, src=imm(1), dst=reg(5)),
                Instruction(Opcode.MOV, src=reg(5), dst=indexed(2, 4)),
                Instruction(Opcode.MOV, src=imm(7), dst=absolute(0x2010)),
                Instruction(Opcode.PUSH, src=reg(5)),
                Instruction(Opcode.MOV, src=autoincrement(1), dst=reg(6))]
        back = -(sum(len(encode_bytes(i, 0)) for i in loop) + 2) // 2
        insns = ([Instruction(Opcode.MOV, src=imm(0x2000), dst=reg(4))]
                 + loop + [Instruction(Opcode.JMP, offset=back)])
        cpu = mark_blocks_hot(_block_cpu())
        _load_insns(cpu, insns)
        with pytest.raises(ExecutionLimitExceeded):
            cpu.run(max_instructions=1000)
        assert any(blk.fn is not None for blk in cpu._blocks.values())
        assert cpu.slow_bus_calls == 0
        assert cpu.memory.read_word(0x2002) == cpu.regs.read(6)

    # -- flag liveness -------------------------------------------------

    #: R9 + R10 = 0x8000 + 0x8000 sets C, Z and V: SR 0x103
    OVERFLOW = [Instruction(Opcode.MOV, src=imm(0x8000), dst=reg(9)),
                Instruction(Opcode.MOV, src=imm(0x8000), dst=reg(10))]
    FIRST = Instruction(Opcode.ADD, src=reg(9), dst=reg(10))
    #: 0 + 0 after it: SR 0x002
    SECOND = Instruction(Opcode.ADD, src=reg(11), dst=reg(12))

    @staticmethod
    def _sr_updates(cpu, start=CODE):
        """SR updates in the generated source of the block at
        ``start``."""
        return _block_source(cpu._blocks[start]).count("r[2] = _isr")

    def test_back_to_back_flag_writers_emit_one_sr_update(self):
        insns = self.OVERFLOW + [self.FIRST, self.SECOND, HALT]
        cpu, (fault, state, _, _) = self._outcomes(insns)
        assert fault is None and state[3]
        assert state[0][2] == 0x002
        assert self._sr_updates(cpu) == 1

    def test_compare_before_a_jump_keeps_its_update(self):
        # the ADD's update is dead (CMP overwrites it), CMP's is read
        # by JNE, which skips one MOV
        insns = self.OVERFLOW + [
            self.FIRST, Instruction(Opcode.CMP, src=imm(1), dst=reg(9)),
            Instruction(Opcode.JNE, offset=1),
            Instruction(Opcode.MOV, src=imm(1), dst=reg(13)), HALT]
        cpu, (fault, state, _, _) = self._outcomes(insns)
        assert fault is None and state[3] and state[0][13] == 0
        assert self._sr_updates(cpu) == 1

    @pytest.mark.parametrize("barrier, observed", [
        # ADDC and RRC read the carry, and their own update is dead
        (Instruction(Opcode.ADDC, src=reg(13), dst=reg(14)),
         lambda state, memory: state[0][14] == 1),
        (Instruction(Opcode.RRC, src=reg(13)),
         lambda state, memory: state[0][13] == 0x8000),
        (Instruction(Opcode.MOV, src=reg(2), dst=reg(13)),
         lambda state, memory: state[0][13] == 0x103),
        (Instruction(Opcode.PUSH, src=reg(2)),
         lambda state, memory: memory[0x23FE] == 0x03),
        (Instruction(Opcode.BIS, src=imm(1), dst=reg(2)),
         lambda state, memory: state[0][2] == 0x002),
    ], ids=["addc", "rrc", "mov-sr", "push-sr", "bis-sr"])
    def test_a_step_that_reads_sr_keeps_the_update_before_it(
            self, barrier, observed):
        insns = self.OVERFLOW + [self.FIRST, barrier, self.SECOND, HALT]
        cpu, (fault, state, _, memory) = self._outcomes(insns)
        assert fault is None and state[3]
        assert observed(state, memory)
        assert self._sr_updates(cpu) == 2

    def test_diamond_arm_keeps_its_update(self):
        # the arm runs (R7 is zero); its ADD is the arm's last step
        insns = self.OVERFLOW + [
            Instruction(Opcode.CMP, src=imm(0), dst=reg(7)),
            Instruction(Opcode.JNE, offset=1), self.FIRST, self.SECOND,
            HALT]
        cpu, (fault, state, _, _) = self._outcomes(insns)
        assert fault is None and state[3]
        assert cpu._blocks[CODE].steps[3][5][0] == "skip"
        assert self._sr_updates(cpu) == 3

    def test_inline_loop_exit_sees_the_update_before_it(self):
        # L: ADD; CMP #3,R11; JEQ BACK; ADD; SUB #1,R11; JNE L runs in
        # place and leaves through JEQ: each ADD's update is dead
        loop = [self.FIRST,
                Instruction(Opcode.CMP, src=imm(3), dst=reg(11)),
                Instruction(Opcode.JEQ, offset=0),
                self.SECOND,
                Instruction(Opcode.SUB, src=imm(1), dst=reg(11)),
                Instruction(Opcode.JNE, offset=0)]
        insns = self.OVERFLOW + [
            Instruction(Opcode.MOV, src=imm(5), dst=reg(11)),
            Instruction(Opcode.JMP, offset=2), HALT] + loop + [HALT]
        back, start = _at(insns, 4), _at(insns, 5)
        insns[7] = Instruction(Opcode.JEQ,
                               offset=(back - _at(insns, 8)) // 2)
        insns[10] = Instruction(Opcode.JNE,
                                offset=(start - _at(insns, 11)) // 2)
        cpu, (fault, state, _, _) = self._outcomes(insns)
        assert fault is None and state[3]
        assert state[0][11] == 3 and state[0][2] == 0x003
        assert cpu._blocks[start].loop
        assert self._sr_updates(cpu, start) == 2

    def test_mpu_denied_load_faults_with_the_update_before_it(self):
        def setup(cpu):
            mpu = Mpu()
            mpu.attach(cpu.memory)
            rwx = SegmentPermissions(True, True, True)
            mpu.configure(MpuConfig(0x8000, 0x9000, rwx,
                                    SegmentPermissions(), rwx))
            return mpu

        insns = self.OVERFLOW + [
            Instruction(Opcode.MOV, src=imm(0x8000), dst=reg(4)),
            self.FIRST, Instruction(Opcode.MOV, src=indirect(4),
                                    dst=reg(7)),
            self.SECOND, HALT]
        cpu, (fault, state, _, _) = self._outcomes(insns, setup)
        assert fault == (FaultKind.MPU_VIOLATION, _at(insns, 4), 0x8000)
        assert state[0][2] == 0x103
        assert self._sr_updates(cpu) == 2

    def test_io_read_sees_the_update_before_it(self):
        seen = []

        def setup(cpu):
            regs = cpu.regs
            cpu.memory.add_io(0x0100,
                              read=lambda: seen.append(regs.sr) or 0)

        insns = self.OVERFLOW + [
            Instruction(Opcode.MOV, src=imm(0x0100), dst=reg(4)),
            self.FIRST, Instruction(Opcode.MOV, src=indirect(4),
                                    dst=reg(7)),
            self.SECOND, HALT]
        cpu, (fault, state, _, _) = self._outcomes(insns, setup)
        assert fault is None and state[3]
        assert seen == [0x103] * 3
        assert self._sr_updates(cpu) == 2

    # -- the word view ---------------------------------------------------

    def test_word_view_aliases_memory(self):
        memory = Memory()

        def aliased():
            assert memory._words.obj is memory._bytes
            assert memory._words.tobytes() == memory._bytes
            return memory._words[0x1001] == int.from_bytes(
                memory._bytes[0x2002:0x2004], sys.byteorder)

        memory.load(0x2000, b"\x34\x12\x78\x56")
        assert aliased()
        memory.fill(0x2002, 2, 0xAB)
        assert aliased()
        memory.load_state({"bytes": bytes(range(256)) * 256})
        assert aliased()
        memory.write_word(0x2002, 0xBEEF)
        assert aliased()
        assert memory.read_word(0x2002) == 0xBEEF
