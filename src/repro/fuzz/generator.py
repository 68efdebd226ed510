"""Seeded random MSP430 program generator.

Programs are emitted as assembler text (the same dialect the MiniC
compiler emits), so a failing case shrinks to a human-readable,
replayable ``.s`` file.  The generator favours the shapes that stress
the simulator's fast paths:

* straight ALU runs and tight counted loops (loop blocks), half of
  them branching inside: a conditional exit (past the loop, or to the
  next instruction, where generated code leaves the loop block), then
  a forward branch over one step,
* R0 as a source (``MOV R0, Rn``, ``PUSH R0``, R0 stored through any
  store operand), whose value is the address of the next instruction
  word wherever the read lands: a diamond arm, a block's last step,
* reads of SR between two register-only flag writers (``MOV SR, Rn``,
  ``PUSH SR``, SR stored through any store operand or used as an ALU
  source, BIS/BIC of the C, Z, N and V bits on SR), each of which must
  keep the first writer's flag update that generated code may
  otherwise leave out,
* loads/stores through absolute, indexed, indirect and autoincrement
  operands, **biased toward region and MPU-segment boundaries**
  (FRAM start, B1, B2, SRAM/InfoMem edges, the unmapped holes, the
  vector table) where one-byte-off permission bugs live,
* mid-run MPU register writes — with valid and invalid passwords,
  through both statically visible absolute operands (which terminate
  superblocks) and dynamically computed indirect pointers (which do
  not, exercising in-block permission revalidation),
* stores into the program's own code bytes (icache/superblock
  invalidation), call/ret/push/pop traffic, and forward branches.

Every program is self-terminating by construction (loops count down a
reserved register, every other branch only jumps forward — to an
anchor label or to a later label of its loop — and the body ends by
writing the DONE port); the execution budget is only a backstop for
programs that fuzz their own code into an endless shape — which both
execution modes must then report identically.

Structure: a program is a list of *items*.  Each item is an atomic
group of assembly lines (a loop, a pointer setup plus its dereference,
one plain instruction...).  Anchor labels between items are their own
never-removed items, so the shrinker can drop any removable item
without dangling a branch target.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.msp430.memory import MemoryMap
from repro.msp430.mpu import MPUCTL0, MPUCTL1, MPUSAM, MPUSEGB1, MPUSEGB2
from repro.ports import DONE_PORT

#: where the generated .text is linked
CODE_BASE = 0x6000
#: upper bound of the code region (programs are far smaller)
CODE_LIMIT = 0x7800
#: FRAM scratch the program freely reads/writes (prefilled per seed)
SCRATCH_LO = 0x9000
SCRATCH_HI = 0x9800

#: reserved loop-counter register — never a destination elsewhere,
#: so counted loops always terminate
LOOP_REG = 15

_ALU_OPS = ("MOV", "ADD", "ADDC", "SUB", "SUBC", "CMP", "BIT",
            "AND", "XOR", "BIS", "BIC", "DADD")
#: the ALU operations that write C, Z, N and V
_FLAG_OPS = ("ADD", "ADDC", "SUB", "SUBC", "CMP", "BIT", "AND", "XOR")
#: SR's C, Z, N and V bits: the only ones a program sets or clears
#: (GIE, CPUOFF, OSCOFF and SCG stay untouched)
_SR_FLAGS = (0x001, 0x002, 0x004, 0x100)
_FMT2_OPS = ("RRA", "RRC", "SWPB", "SXT")
_JCC = ("JNE", "JEQ", "JNC", "JC", "JN", "JGE", "JL", "JMP")
_JCOND = _JCC[:-1]

_MPU_REGS = (MPUCTL0, MPUCTL1, MPUSEGB1, MPUSEGB2, MPUSAM)


@dataclass
class Item:
    """One atomic group of assembly lines."""

    kind: str                 # "insn" | "anchor" | "halt" | "sub"
    lines: List[str]

    @property
    def removable(self) -> bool:
        return self.kind in ("insn", "sub")


@dataclass
class FuzzProgram:
    """A generated program plus the initial machine state it assumes."""

    seed: int
    regs: Dict[int, int] = field(default_factory=dict)   # R4..R14
    sp: int = 0x2380
    #: raw initial MPU register values, installed before the first
    #: instruction (segb1/segb2/sam first, ctl0 — which may lock — last)
    mpu_segb1: int = 0
    mpu_segb2: int = 0
    mpu_sam: int = 0xFFFF
    mpu_ctl0: int = 0          # low bits only: MPUENA | MPULOCK | MPUSEGIE
    mem_seed: int = 0          # scratch/SRAM prefill seed
    items: List[Item] = field(default_factory=list)

    def body_text(self) -> str:
        lines = ["    .text"]
        for item in self.items:
            lines.extend(item.lines)
        return "\n".join(lines) + "\n"

    def metadata(self) -> List[Tuple[str, int]]:
        pairs = [("seed", self.seed), ("sp", self.sp),
                 ("mem-seed", self.mem_seed),
                 ("mpu-segb1", self.mpu_segb1),
                 ("mpu-segb2", self.mpu_segb2),
                 ("mpu-sam", self.mpu_sam),
                 ("mpu-ctl0", self.mpu_ctl0)]
        for n in sorted(self.regs):
            pairs.append((f"r{n}", self.regs[n]))
        return pairs


def _interesting_addresses(b1: int, b2: int) -> List[int]:
    """Addresses where permission bugs live: every region and MPU
    boundary, plus or minus a little."""
    m = MemoryMap
    anchors = [
        m.FRAM_START, m.FRAM_END, m.VECTORS_START, m.VECTORS_END,
        m.SRAM_START, m.SRAM_END, m.INFOMEM_START, m.INFOMEM_END,
        m.HOLE1_START, m.HOLE2_START, m.HOLE2_END,
        m.BSL_START, m.DEVDESC_START,
        b1, b2, CODE_BASE, SCRATCH_LO, SCRATCH_HI,
    ]
    out = []
    for a in anchors:
        for off in (-16, -2, -1, 0, 1, 2, 16):
            out.append((a + off) & 0xFFFF)
    return out


class _Generator:
    def __init__(self, seed: int):
        self.rnd = random.Random(seed)
        self.seed = seed
        self.label_counter = 0
        self.sub_count = 0

    # -- helpers ----------------------------------------------------------
    def _reg(self) -> str:
        return f"R{self.rnd.randint(4, 14)}"

    def _imm(self) -> int:
        rnd = self.rnd
        if rnd.random() < 0.4:
            # constant-generator values and small numbers dominate
            return rnd.choice((0, 1, 2, 4, 8, 0xFF, 0xFFFF, 0x8000))
        return rnd.randrange(0x10000)

    def _suffix(self) -> str:
        return ".B" if self.rnd.random() < 0.2 else ""

    def _address(self) -> int:
        rnd = self.rnd
        roll = rnd.random()
        if roll < 0.55:                      # safe scratch
            return SCRATCH_LO + rnd.randrange(SCRATCH_HI - SCRATCH_LO)
        if roll < 0.85:                      # boundary-biased
            return rnd.choice(self.interesting)
        return rnd.randrange(0x10000)        # anywhere

    # -- item emitters ----------------------------------------------------
    def _alu_reg(self) -> List[str]:
        rnd = self.rnd
        op = rnd.choice(_ALU_OPS)
        suffix = self._suffix()
        if rnd.random() < 0.5:
            src = f"#{self._imm()}"
        else:
            src = self._reg()
        return [f"    {op}{suffix} {src}, {self._reg()}"]

    def _fmt2_reg(self) -> List[str]:
        op = self.rnd.choice(_FMT2_OPS)
        suffix = self._suffix() if op in ("RRA", "RRC") else ""
        return [f"    {op}{suffix} {self._reg()}"]

    def _load(self) -> List[str]:
        rnd = self.rnd
        address = self._address()
        dst = self._reg()
        suffix = self._suffix()
        mode = rnd.randrange(4)
        if mode == 0:
            return [f"    MOV{suffix} &0x{address:04X}, {dst}"]
        pointer = self._reg()
        setup = f"    MOV #0x{address:04X}, {pointer}"
        if mode == 1:
            return [setup, f"    MOV{suffix} @{pointer}, {dst}"]
        if mode == 2:
            return [setup, f"    MOV{suffix} @{pointer}+, {dst}"]
        offset = rnd.choice((0, 2, 4, 16))
        base = (address - offset) & 0xFFFF
        return [f"    MOV #0x{base:04X}, {pointer}",
                f"    MOV{suffix} {offset}({pointer}), {dst}"]

    def _store(self, value: str = "") -> List[str]:
        rnd = self.rnd
        address = self._address()
        suffix = self._suffix()
        value = value or (f"#{self._imm()}" if rnd.random() < 0.5
                          else self._reg())
        mode = rnd.randrange(4)
        if mode == 0:
            return [f"    MOV{suffix} {value}, &0x{address:04X}"]
        pointer = self._reg()
        if mode == 1:
            return [f"    MOV #0x{address:04X}, {pointer}",
                    f"    MOV{suffix} {value}, 0({pointer})"]
        if mode == 2:
            offset = rnd.choice((0, 2, 4, 16))
            base = (address - offset) & 0xFFFF
            return [f"    MOV #0x{base:04X}, {pointer}",
                    f"    MOV{suffix} {value}, {offset}({pointer})"]
        # read-modify-write: ADD into memory (the table's word
        # ADD-to-memory templates)
        return [f"    MOV #0x{address:04X}, {pointer}",
                f"    ADD {value}, 0({pointer})"]

    def _push_pop(self) -> List[str]:
        rnd = self.rnd
        roll = rnd.random()
        if roll < 0.6:                        # balanced pair
            src = f"#{self._imm()}" if rnd.random() < 0.5 else self._reg()
            return [f"    PUSH {src}", f"    POP {self._reg()}"]
        if roll < 0.8:
            return [f"    PUSH {self._reg()}"]
        return [f"    POP {self._reg()}"]

    def _pc_read(self) -> List[str]:
        """An instruction with R0 as its source: a copy, a push, or a
        store of the PC."""
        roll = self.rnd.random()
        if roll < 0.4:
            return [f"    MOV R0, {self._reg()}"]
        return ["    PUSH R0"] if roll < 0.6 else self._store("R0")

    def _sr_read(self) -> List[str]:
        """An instruction that reads SR between two register-only flag
        writers: a copy, a push, a store, an ALU source, or a BIS/BIC
        of flag bits."""
        rnd = self.rnd
        roll = rnd.random()
        if roll < 0.2:
            read = [f"    MOV{self._suffix()} SR, {self._reg()}"]
        elif roll < 0.35:
            read = ["    PUSH SR"]
        elif roll < 0.5:
            read = self._store("SR")
        elif roll < 0.75:
            read = [f"    {rnd.choice(_ALU_OPS)}{self._suffix()} SR, "
                    f"{self._reg()}"]
        else:
            bits = sum(bit for bit in _SR_FLAGS if rnd.random() < 0.5)
            read = [f"    {rnd.choice(('BIS', 'BIC'))} "
                    f"#0x{bits or rnd.choice(_SR_FLAGS):03X}, SR"]
        writers = [f"    {rnd.choice(_FLAG_OPS)}{self._suffix()} "
                   f"{self._reg()}, {self._reg()}" for _ in range(2)]
        return [writers[0], *read, writers[1]]

    def _loop(self) -> List[str]:
        """Counted loop on the reserved register: the superblock
        engine compiles the body into a loop block.  Half the loops
        also branch inside: a conditional exit, then a forward branch
        over one step (an ALU step or an R0 read).  The exit jumps
        past the loop or to the next instruction, where generated code
        leaves the loop block mid-iteration; testing the counter makes
        an exit fire in a later iteration than arms were skipped in."""
        rnd = self.rnd
        n = self.label_counter
        self.label_counter += 1
        count = rnd.randint(1, 20)
        lines = [f"    MOV #{count}, R{LOOP_REG}", f"L{n}:"]
        for _ in range(rnd.randint(1, 3)):
            lines.extend(self._alu_reg())
        back = [f"    DEC R{LOOP_REG}", f"    JNE L{n}"]
        if rnd.random() < 0.5:
            return lines + back
        if rnd.random() < 0.5:
            tests = ([f"    CMP #{rnd.randint(1, count)}, R{LOOP_REG}"],
                     [f"    BIT #1, R{LOOP_REG}"])
        else:
            tests = (self._alu_reg(), self._alu_reg())
        arm = self._alu_reg() if rnd.random() < 0.75 \
            else [f"    MOV R0, {self._reg()}"]
        leave = rnd.random() < 0.5
        return lines + [*tests[0], f"    {rnd.choice(_JCOND)} X{n}",
                        *([] if leave else [f"X{n}:"]),
                        *tests[1], f"    {rnd.choice(_JCOND)} S{n}",
                        *arm, f"S{n}:", *back,
                        *([f"X{n}:"] if leave else [])]

    def _mpu_write(self) -> List[str]:
        rnd = self.rnd
        register = rnd.choice(_MPU_REGS)
        if register == MPUCTL0:
            password = 0xA5 if rnd.random() < 0.8 else rnd.randrange(0x100)
            bits = rnd.choice((0x0000, 0x0001, 0x0003, 0x0011, 0x0001))
            value = (password << 8) | bits
        elif register in (MPUSEGB1, MPUSEGB2):
            value = rnd.choice((
                0x0440, 0x0600, 0x0680, 0x0780, 0x0900, 0x0950,
                0x0FF8, 0x1000,          # 0x1000 << 4 == 0x10000: clamp
                rnd.randrange(0x10000),
            ))
        elif register == MPUSAM:
            value = rnd.randrange(0x10000)
        else:                                 # MPUCTL1: clear flags
            value = rnd.choice((0x0000, 0xFFFF))
        if rnd.random() < 0.5:
            # statically visible: terminates a superblock
            return [f"    MOV #0x{value:04X}, &0x{register:04X}"]
        # dynamically computed: executes *inside* a memory block
        pointer = self._reg()
        return [f"    MOV #0x{register:04X}, {pointer}",
                f"    MOV #0x{value:04X}, 0({pointer})"]

    def _selfmod(self) -> List[str]:
        """Store into the program's own code bytes (icache and
        superblock invalidation; may fuzz instructions into garbage —
        both modes must then fault identically)."""
        rnd = self.rnd
        offset = rnd.randrange(0, 0x400) & ~1
        value = rnd.randrange(0x10000) if rnd.random() < 0.5 \
            else 0x4303                        # NOP encoding
        return [f"    MOV #0x{value:04X}, &0x{CODE_BASE + offset:04X}"]

    def _call(self) -> List[str]:
        if self.sub_count == 0:
            return self._alu_reg()
        sub = self.rnd.randrange(self.sub_count)
        return [f"    CALL #sub_{sub}"]

    def _jump_forward(self, anchor: str) -> List[str]:
        return [f"    {self.rnd.choice(_JCC)} {anchor}"]

    def _subroutine(self, index: int) -> List[str]:
        rnd = self.rnd
        lines = [f"sub_{index}:"]
        if rnd.random() < 0.5:
            reg = self._reg()
            lines.append(f"    PUSH {reg}")
            for _ in range(rnd.randint(1, 3)):
                lines.extend(self._alu_reg())
            lines.append(f"    POP {reg}")
        else:
            for _ in range(rnd.randint(1, 4)):
                lines.extend(self._alu_reg())
        lines.append("    RET")
        return lines

    # -- driver -----------------------------------------------------------
    def generate(self) -> FuzzProgram:
        rnd = self.rnd
        program = FuzzProgram(seed=self.seed)
        program.mem_seed = rnd.randrange(1 << 30)
        program.sp = rnd.randrange(0x2100, 0x23F0) & ~1
        program.regs = {n: rnd.randrange(0x10000) for n in range(4, 15)}
        program.regs[LOOP_REG] = 0

        # Initial MPU configuration.  Biased permissive so programs
        # usually get to run (a config that denies execute over the
        # code region faults on the first fetch — a legal but short
        # case); restrictive configs still appear.
        roll = rnd.random()
        if roll < 0.35:                       # disabled
            program.mpu_ctl0 = 0
            program.mpu_sam = 0xFFFF
        elif roll < 0.75:                     # enabled, code executable
            program.mpu_segb1 = rnd.choice((0x0440, 0x0600, 0x0780))
            program.mpu_segb2 = rnd.choice((0x0900, 0x0980, 0x0FF8,
                                            0x1000))
            program.mpu_sam = 0x0777 | (rnd.randrange(0x10000) & 0xF000)
            program.mpu_ctl0 = 0x0001
        else:                                 # fully random
            program.mpu_segb1 = rnd.randrange(0x10000)
            program.mpu_segb2 = rnd.randrange(0x10000)
            program.mpu_sam = rnd.randrange(0x10000)
            program.mpu_ctl0 = rnd.choice((0x0000, 0x0001, 0x0003))
        self.interesting = _interesting_addresses(
            (program.mpu_segb1 << 4) & 0xFFFF,
            (program.mpu_segb2 << 4) & 0xFFFF)

        self.sub_count = rnd.randint(0, 2)
        n_items = rnd.randint(8, 48)
        emitters = (
            (self._alu_reg, 30), (self._fmt2_reg, 6), (self._load, 14),
            (self._store, 14), (self._push_pop, 8), (self._loop, 8),
            (self._mpu_write, 8), (self._selfmod, 3), (self._call, 5),
            (self._pc_read, 4), (self._sr_read, 4),
        )
        population = [fn for fn, weight in emitters for _ in range(weight)]

        items: List[Item] = []
        for index in range(n_items):
            anchor = f"A{index}"
            if rnd.random() < 0.12:
                # forward branch to a later anchor (they always exist:
                # one per item plus the final one before HALT)
                target = min(index + rnd.randint(1, 4), n_items)
                items.append(Item("insn",
                                  self._jump_forward(f"A{target}")))
            else:
                items.append(Item("insn", rnd.choice(population)()))
            items.append(Item("anchor", [f"{anchor}:"]))
        items.append(Item("anchor", [f"A{n_items}:"]))
        items.append(Item("halt",
                          [f"    MOV #1, &0x{DONE_PORT:04X}"]))
        for index in range(self.sub_count):
            items.append(Item("sub", self._subroutine(index)))
        program.items = items
        return program


def generate_program(seed: int) -> FuzzProgram:
    """Deterministically generate the program for ``seed``."""
    return _Generator(seed).generate()
