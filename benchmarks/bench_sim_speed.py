"""Simulated-instructions-per-second microbenchmark.

Tracks the simulator's raw speed across PRs.  Five workloads:

* ``raw_loop`` — a register-only countdown loop on a bare
  :class:`~repro.msp430.cpu.Cpu`, driven through :meth:`Cpu.run` (the
  production entry every experiment uses, so the superblock engine is
  what's measured; decode cache hot, no MPU): the ceiling of the
  execution engine itself.
* ``alu_chain`` — the same kind of loop with five register-only flag
  writers back to back before its ``SUB; JNE``: generated code emits
  only the flag updates something reads.
* ``word_memory`` — a loop of word loads and stores on SRAM (indirect,
  indexed, absolute and stack operands): generated code's inline
  memory accesses.
* ``mpu_quicksort`` — repeated dispatches of the Quicksort benchmark
  app built under the MPU model on a full :class:`AmuletMachine`:
  the paper-experiment hot path (MPU enabled, checks inserted,
  memory-heavy).
* ``cold_code`` — code that runs once: a chain of distinct
  straight-line blocks, each a few ALU steps and a ``JMP`` to the
  next, re-``load``ed before every pass, which clears every cache, so
  each instruction is decoded, formed into a block and run by tier 0
  (the ``_op_*`` handlers) without ever being compiled.

``--step-only`` forces :attr:`Cpu.block_mode` off, measuring the
per-opcode ``Cpu._op_*`` handlers for every instruction, without
superblocks.

Run standalone (``PYTHONPATH=src python benchmarks/bench_sim_speed.py``)
to append a record to ``BENCH_sim.json`` at the repo root, or via
pytest for a quick smoke (``--seconds 0.2`` equivalent).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.msp430.cpu import Cpu, ExecutionLimitExceeded
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
from repro.ports import DONE_PORT

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_sim.json"

CODE = 0x4400

def _words(insns: list) -> int:
    return sum(len(encode_bytes(insn, 0)) for insn in insns) // 2


def _program(setup: list, body: list) -> list:
    """``setup; MOV #N, R5; loop: body; DEC R5; JNE loop; JMP start``
    (``MOV #N`` takes two words, ``DEC`` and each jump one)."""
    return (setup + [Instruction(Opcode.MOV, src=imm(0x7FFF), dst=reg(5))]
            + body + [
                Instruction(Opcode.SUB, src=imm(1), dst=reg(5)),
                Instruction(Opcode.JNE, offset=-_words(body) - 2),
                Instruction(Opcode.JMP,
                            offset=-_words(setup) - _words(body) - 5)])


#: DEC R5; JNE: the register-only loop every block engine runs in place
RAW_LOOP = _program([], [])
#: five flag writers back to back before the loop's DEC, whose update
#: is the only one its JNE reads
ALU_CHAIN = _program([], [
    Instruction(Opcode.ADD, src=reg(6), dst=reg(7)),
    Instruction(Opcode.XOR, src=reg(7), dst=reg(8)),
    Instruction(Opcode.SUB, src=reg(8), dst=reg(9)),
    Instruction(Opcode.AND, src=reg(9), dst=reg(10)),
    Instruction(Opcode.ADD, src=imm(3), dst=reg(11)),
])
#: word loads and stores on SRAM through every operand kind
WORD_MEMORY = _program(
    [Instruction(Opcode.MOV, src=imm(0x2000), dst=reg(4))], [
        Instruction(Opcode.MOV, src=indirect(4), dst=reg(6)),
        Instruction(Opcode.MOV, src=reg(6), dst=indexed(2, 4)),
        Instruction(Opcode.MOV, src=indexed(4, 4), dst=reg(7)),
        Instruction(Opcode.MOV, src=reg(7), dst=absolute(0x2010)),
        Instruction(Opcode.PUSH, src=reg(7)),
        Instruction(Opcode.MOV, src=autoincrement(1), dst=reg(8)),
    ])

#: blocks of the cold-code chain: three register-only ALU steps and a
#: ``JMP`` to the next block (offset 0: the next instruction), 8 bytes
#: each, then a store to the DONE port that halts the pass
COLD_BLOCKS = 512
COLD_CODE = [
    Instruction(Opcode.ADD, src=reg(6), dst=reg(7)),
    Instruction(Opcode.XOR, src=reg(7), dst=reg(8)),
    Instruction(Opcode.SUB, src=imm(1), dst=reg(9)),
    Instruction(Opcode.JMP, offset=0),
] * COLD_BLOCKS + [
    Instruction(Opcode.MOV, src=imm(1), dst=absolute(DONE_PORT))]


def _load(cpu: Cpu, program: list) -> None:
    address = CODE
    for insn in program:
        blob = encode_bytes(insn, address)
        cpu.memory.load(address, blob)
        address += len(blob)
    cpu.regs.pc = CODE
    cpu.regs.sp = 0x2400


def _bench_loop(program: list, seconds: float, step_only: bool) -> float:
    """Instructions/second of a never-halting loop via ``run()``."""
    cpu = Cpu()
    cpu.block_mode = not step_only
    _load(cpu, program)
    # warm the decode cache
    for _ in range(64):
        cpu.step()
    start_insns = cpu.instructions
    deadline = time.perf_counter() + seconds
    start = time.perf_counter()
    while time.perf_counter() < deadline:
        # the loop never halts, so every run() call spends its full
        # cycle budget — a realistic slice of experiment execution
        try:
            cpu.run(max_cycles=400_000)
        except ExecutionLimitExceeded:
            pass
    elapsed = time.perf_counter() - start
    return (cpu.instructions - start_insns) / elapsed


def bench_raw_loop(seconds: float = 1.0,
                   step_only: bool = False) -> float:
    """Instructions/second of a hot register-only loop via ``run()``."""
    return _bench_loop(RAW_LOOP, seconds, step_only)


def bench_alu_chain(seconds: float = 1.0,
                    step_only: bool = False) -> float:
    """Instructions/second of a loop of back-to-back flag writers."""
    return _bench_loop(ALU_CHAIN, seconds, step_only)


def bench_word_memory(seconds: float = 1.0,
                      step_only: bool = False) -> float:
    """Instructions/second of a loop of SRAM word loads and stores."""
    return _bench_loop(WORD_MEMORY, seconds, step_only)


def bench_cold_code(seconds: float = 1.0,
                    step_only: bool = False) -> float:
    """Instructions/second of code that runs once per load."""
    cpu = Cpu()
    cpu.block_mode = not step_only
    cpu.memory.add_io(DONE_PORT, write=lambda _a, _v: cpu.halt())
    blob = b"".join(encode_bytes(insn, 0) for insn in COLD_CODE)
    insns = 0
    deadline = time.perf_counter() + seconds
    start = time.perf_counter()
    while time.perf_counter() < deadline:
        cpu.memory.load(CODE, blob)      # clears every cache
        cpu.halted = False
        cpu.regs.pc = CODE
        before = cpu.instructions
        cpu.run()
        insns += cpu.instructions - before
    elapsed = time.perf_counter() - start
    return insns / elapsed


def bench_mpu_quicksort(seconds: float = 1.0,
                        step_only: bool = False) -> float:
    """Instructions/second of the paper's MPU-model Quicksort path."""
    from repro.aft.models import IsolationModel
    from repro.aft.phases import AftPipeline
    from repro.apps.catalog import load_benchmarks
    from repro.kernel.machine import AmuletMachine

    firmware = AftPipeline(IsolationModel.MPU).build(
        load_benchmarks(["quicksort"]))
    machine = AmuletMachine(firmware, step_only=step_only)
    machine.dispatch("quicksort", "quicksort_run", [1])  # warm up
    start_insns = machine.cpu.instructions
    deadline = time.perf_counter() + seconds
    start = time.perf_counter()
    run = 0
    while time.perf_counter() < deadline:
        result = machine.dispatch("quicksort", "quicksort_run",
                                  [run * 37 + 11])
        if result.faulted:
            raise RuntimeError(f"quicksort faulted: "
                               f"{result.fault.describe()}")
        run += 1
    elapsed = time.perf_counter() - start
    return (machine.cpu.instructions - start_insns) / elapsed


def run_benchmarks(seconds: float = 1.0, repeats: int = 3,
                   step_only: bool = False) -> dict:
    # Best-of-N, timeit-style: interference (other processes, CPU
    # steal on shared hosts) only ever *lowers* a rate, so the max
    # over repeats is the least-noisy estimate of the true speed.
    return {
        f"{name}_insns_per_sec": round(max(
            bench(seconds, step_only) for _ in range(repeats)))
        for name, bench in (("raw_loop", bench_raw_loop),
                            ("alu_chain", bench_alu_chain),
                            ("word_memory", bench_word_memory),
                            ("mpu_quicksort", bench_mpu_quicksort),
                            ("cold_code", bench_cold_code))
    }


def record(label: str, seconds: float = 1.0, repeats: int = 3,
           step_only: bool = False) -> dict:
    """Append one measurement record to BENCH_sim.json."""
    entry = {
        "label": label,
        "date": time.strftime("%Y-%m-%d %H:%M:%S"),
        "seconds_per_workload": seconds,
        "repeats": repeats,
        "results": run_benchmarks(seconds, repeats, step_only),
    }
    if step_only:
        entry["step_only"] = True
    history = []
    if BENCH_JSON.exists():
        history = json.loads(BENCH_JSON.read_text()).get("runs", [])
    history.append(entry)
    BENCH_JSON.write_text(json.dumps({"runs": history}, indent=2)
                          + "\n")
    return entry


# -- pytest smoke (fast; asserts the simulator actually executes) ------
def test_sim_speed_smoke():
    for bench in (bench_raw_loop, bench_alu_chain, bench_word_memory,
                  bench_cold_code):
        assert bench(seconds=0.2) > 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="simulator instructions/second microbenchmark")
    parser.add_argument("--label", default="run",
                        help="label stored with the record")
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="measurement window per workload")
    parser.add_argument("--repeats", type=int, default=3,
                        help="windows per workload; best is kept")
    parser.add_argument("--step-only", action="store_true",
                        help="disable superblocks (Cpu.block_mode "
                             "= False): measure the per-opcode "
                             "_op_* handlers")
    args = parser.parse_args()
    entry = record(args.label, args.seconds, args.repeats,
                   args.step_only)
    for name, value in entry["results"].items():
        print(f"{name}: {value:,}")
    print(f"[appended to {BENCH_JSON}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
