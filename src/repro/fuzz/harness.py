"""Lockstep differential execution: the template table vs. ``_op_*``.

A :class:`FuzzProgram` is assembled, linked at its code base and loaded
into three identical machines:

* **block** — the production configuration: a superblock's first
  dispatches run its instructions through the ``_op_*`` handlers
  (tier 0), later ones its generated code;
* **codegen** — the same engine with every block marked hot as it is
  compiled, so code that runs once (most of a fuzz program outside its
  loops) still runs as generated code;
* **step** — step-only mode (``block_mode = False``), which runs the
  per-opcode ``Cpu._op_*`` handlers for every instruction, the
  independent reference.

All three run in lockstep chunks; at every chunk boundary (a
*divergence checkpoint*) each engine machine is compared with the
reference bit for bit:

* all sixteen registers,
* the cycle and retired-instruction counters,
* the halted flag,
* the complete 64 KB memory image,
* every MPU register plus the latched violation record,
* and, when a run ends, the fault record (kind, PC, address, detail)
  or budget-exhaustion report.

Any difference is a simulator bug by definition: the fast paths
promise bit-identical architectural behaviour to the handlers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.asm.assembler import assemble
from repro.asm.linker import Linker, LinkScript
from repro.errors import ReproError
from repro.fuzz.generator import (
    CODE_BASE,
    CODE_LIMIT,
    FuzzProgram,
    SCRATCH_HI,
    SCRATCH_LO,
)
from repro.msp430.cpu import Cpu, CpuFault, ExecutionLimitExceeded, \
    TIER_UP
from repro.msp430.memory import Memory, MemoryMap
from repro.msp430.mpu import MPU_PASSWORD, Mpu
from repro.ports import DONE_PORT

import random


class FuzzHarnessError(ReproError):
    """The generated program could not be assembled or linked."""


def build_image(program: FuzzProgram):
    """Assemble + link the program text at :data:`CODE_BASE`."""
    try:
        obj = assemble(program.body_text(), name=f"fuzz_{program.seed}")
        script = LinkScript()
        script.region("fuzzcode", CODE_BASE, CODE_LIMIT)
        script.place_rule(".text", "fuzzcode")
        script.place_rule("*", "fuzzcode")
        return Linker(script).place([obj]).resolve()
    except ReproError as error:
        raise FuzzHarnessError(
            f"seed {program.seed}: {error}") from error


def mark_blocks_hot(cpu: Cpu) -> Cpu:
    """Make every superblock ``cpu`` compiles hot, so its first
    dispatch already runs generated code (code that runs once is
    otherwise only ever interpreted)."""
    compile_block = cpu._compile_block

    def compile_hot(pc):
        blk = compile_block(pc)
        if blk is not None:
            blk.execs = TIER_UP
        return blk

    cpu._compile_block = compile_hot
    return cpu


class FuzzMachine:
    """One bare CPU + bus + MPU instance running a fuzz program;
    ``hot`` applies :func:`mark_blocks_hot` to its CPU."""

    def __init__(self, program: FuzzProgram, image, step_only: bool,
                 hot: bool = False):
        self.memory = Memory()
        self.mpu = Mpu()
        self.mpu.attach(self.memory)
        self.cpu = Cpu(self.memory)
        self.cpu.block_mode = not step_only
        if hot:
            mark_blocks_hot(self.cpu)
        self.memory.add_io(DONE_PORT,
                           write=lambda _a, _v: self.cpu.halt())
        # deterministic prefill: scratch FRAM and the SRAM stack area
        rnd = random.Random(program.mem_seed)
        self.memory.load(SCRATCH_LO,
                         rnd.randbytes(SCRATCH_HI - SCRATCH_LO))
        self.memory.load(MemoryMap.SRAM_START,
                         rnd.randbytes(MemoryMap.SRAM_END + 1
                                       - MemoryMap.SRAM_START))
        image.load_into(self.memory)
        # initial MPU configuration: boundaries and permissions first,
        # control (which may enable and lock) last — the order a driver
        # would use
        self.mpu._write_segb1(0, program.mpu_segb1)
        self.mpu._write_segb2(0, program.mpu_segb2)
        self.mpu._write_sam(0, program.mpu_sam)
        self.mpu._write_ctl0(0, (MPU_PASSWORD << 8)
                             | (program.mpu_ctl0 & 0x13))
        regs = self.cpu.regs
        regs.sp = program.sp
        for n, value in program.regs.items():
            regs.write(n, value)
        regs.pc = CODE_BASE

    def snapshot(self) -> tuple:
        """Everything architectural, as one comparable value."""
        cpu, mpu = self.cpu, self.mpu
        return (
            tuple(cpu.regs._regs),
            cpu.cycles,
            cpu.instructions,
            cpu.halted,
            (mpu.ctl0, mpu.ctl1, mpu.segb1, mpu.segb2, mpu.sam,
             mpu.violation_address, mpu.violation_kind),
        )

    def advance(self, max_instructions: int) -> tuple:
        """Run up to ``max_instructions`` more instructions.

        Returns an outcome tuple: ``("halted",)``, ``("running",)``
        (chunk budget reached, more to do), or
        ``("fault", kind, pc, address, detail)``.
        """
        try:
            self.cpu.run(max_cycles=1 << 60,
                         max_instructions=max_instructions)
            return ("halted",)
        except ExecutionLimitExceeded:
            return ("running",)
        except CpuFault as fault:
            return ("fault", fault.kind.name, fault.pc, fault.address,
                    fault.detail)


_SNAPSHOT_FIELDS = ("registers", "cycles", "instructions", "halted",
                    "mpu")


@dataclass
class Divergence:
    checkpoint: int
    field: str
    block_value: object
    step_value: object
    #: which engine machine differs from the reference
    machine: str

    def describe(self) -> str:
        return (f"checkpoint {self.checkpoint}: {self.machine} "
                f"{self.field} differs — {self.machine}="
                f"{self.block_value!r} step={self.step_value!r}")


@dataclass
class DiffResult:
    """Outcome of one differential execution."""

    seed: int
    ok: bool
    outcome: tuple                      # final outcome of the block run
    checkpoints: int
    instructions: int
    divergence: Optional[Divergence] = None

    def describe(self) -> str:
        if self.ok:
            return (f"seed {self.seed}: OK ({self.instructions} insns, "
                    f"{self.checkpoints} checkpoints, "
                    f"end={self.outcome[0]})")
        detail = (self.divergence.describe() if self.divergence
                  else "(no detail)")
        return f"seed {self.seed}: DIVERGENCE — {detail}"


def _compare(block: FuzzMachine, step: FuzzMachine,
             checkpoint: int, machine: str) -> Optional[Divergence]:
    snap_a, snap_b = block.snapshot(), step.snapshot()
    for name, a, b in zip(_SNAPSHOT_FIELDS, snap_a, snap_b):
        if a != b:
            return Divergence(checkpoint, name, a, b, machine)
    if block.memory._bytes != step.memory._bytes:
        address = next(i for i in range(0x10000)
                       if block.memory._bytes[i] != step.memory._bytes[i])
        return Divergence(
            checkpoint, "memory",
            f"[0x{address:04X}]=0x{block.memory._bytes[address]:02X}",
            f"[0x{address:04X}]=0x{step.memory._bytes[address]:02X}",
            machine)
    return None


def run_differential(program: FuzzProgram, chunk: int = 256,
                     max_instructions: int = 20_000) -> DiffResult:
    """Execute ``program`` on the three machines, comparing each
    engine machine with the step-only reference at every checkpoint.
    ``chunk`` is the checkpoint spacing in instructions;
    ``max_instructions`` the total budget per run (the backstop for
    programs that fuzz themselves into an endless shape)."""
    image = build_image(program)
    block = FuzzMachine(program, image, step_only=False)
    engines = (("block", block),
               ("codegen", FuzzMachine(program, image, step_only=False,
                                       hot=True)))
    step = FuzzMachine(program, image, step_only=True)

    checkpoint = 0
    outcome_a: tuple = ("running",)
    while True:
        checkpoint += 1
        outcome_b = step.advance(chunk)
        for name, machine in engines:
            outcome_a = machine.advance(chunk)
            divergence = (
                Divergence(checkpoint, "outcome", outcome_a, outcome_b,
                           name) if outcome_a != outcome_b
                else _compare(machine, step, checkpoint, name))
            if divergence is not None:
                return DiffResult(
                    program.seed, ok=False, outcome=outcome_a,
                    checkpoints=checkpoint,
                    instructions=machine.cpu.instructions,
                    divergence=divergence)
        if outcome_a[0] != "running":
            break
        if block.cpu.instructions >= max_instructions:
            outcome_a = ("budget",)
            break
    return DiffResult(program.seed, ok=True, outcome=outcome_a,
                      checkpoints=checkpoint,
                      instructions=block.cpu.instructions)
