"""Differential fuzzing and fault injection.

Two engines pin the simulator's exactness-critical fast paths (the
permission bitmap, and the instruction-semantics table behind the
superblock compiler's generated code) and the paper's containment
claim:

* the **differential engine** (:mod:`repro.fuzz.generator`,
  :mod:`repro.fuzz.harness`) generates seeded random MSP430 programs
  and executes each one in block mode (tiering as production does,
  and with every block compiled on its first dispatch) and in
  step-only mode, which runs the ``Cpu._op_*`` handlers, asserting
  bit-identical architectural state at every checkpoint;
  divergences are shrunk (:mod:`repro.fuzz.shrink`) to a minimal
  replayable ``.s`` case under ``tests/fuzz_corpus/``;
* the **attack engine** (:mod:`repro.fuzz.attacks`) compiles a library
  of adversarial app templates under every memory model and asserts
  each isolation-enabled model contains the attack with the expected
  :class:`~repro.kernel.fault.FaultOrigin`, while No-Isolation
  demonstrably corrupts.

``repro fuzz`` on the command line drives both
(:mod:`repro.fuzz.engine`).
"""

from repro.fuzz.attacks import ATTACK_TEMPLATES, run_attack_matrix
from repro.fuzz.engine import (
    CampaignStats,
    run_differential_campaign,
    run_smoke,
)
from repro.fuzz.generator import FuzzProgram, generate_program
from repro.fuzz.harness import DiffResult, run_differential
from repro.fuzz.shrink import load_case, shrink_program, write_case

__all__ = [
    "ATTACK_TEMPLATES",
    "CampaignStats",
    "DiffResult",
    "FuzzProgram",
    "generate_program",
    "load_case",
    "run_attack_matrix",
    "run_differential",
    "run_differential_campaign",
    "run_smoke",
    "shrink_program",
    "write_case",
]
