"""Simulated-instructions-per-second microbenchmark.

Tracks the simulator's raw speed across PRs.  Two workloads:

* ``raw_loop`` — a register-only countdown loop on a bare
  :class:`~repro.msp430.cpu.Cpu`, driven through :meth:`Cpu.run` (the
  production entry every experiment uses, so the superblock engine is
  what's measured; decode cache hot, no MPU): the ceiling of the
  execution engine itself.
* ``mpu_quicksort`` — repeated dispatches of the Quicksort benchmark
  app built under the MPU model on a full :class:`AmuletMachine`:
  the paper-experiment hot path (MPU enabled, checks inserted,
  memory-heavy).

``--step-only`` forces :attr:`Cpu.block_mode` off, measuring the
per-opcode ``Cpu._op_*`` handlers (the oracle step-only mode runs for
every instruction), not the table's thunks.

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
from repro.msp430.isa import Instruction, Opcode, imm, reg

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_sim.json"

CODE = 0x4400


def _load_raw_loop(cpu: Cpu) -> None:
    """MOV #N, R5 ; loop: DEC R5 ; JNE loop ; JMP start."""
    program = [
        Instruction(Opcode.MOV, src=imm(0x7FFF), dst=reg(5)),
        Instruction(Opcode.SUB, src=imm(1), dst=reg(5)),
        Instruction(Opcode.JNE, offset=-2),
        Instruction(Opcode.JMP, offset=-5),
    ]
    address = CODE
    for insn in program:
        blob = encode_bytes(insn, address)
        cpu.memory.load(address, blob)
        address += len(blob)
    cpu.regs.pc = CODE
    cpu.regs.sp = 0x2400


def bench_raw_loop(seconds: float = 1.0,
                   step_only: bool = False) -> float:
    """Instructions/second of a hot register-only loop via ``run()``."""
    cpu = Cpu()
    cpu.block_mode = not step_only
    _load_raw_loop(cpu)
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
        "raw_loop_insns_per_sec": round(max(
            bench_raw_loop(seconds, step_only)
            for _ in range(repeats))),
        "mpu_quicksort_insns_per_sec": round(max(
            bench_mpu_quicksort(seconds, step_only)
            for _ in range(repeats))),
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
    rate = bench_raw_loop(seconds=0.2)
    assert rate > 0


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
