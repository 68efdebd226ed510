"""Fetch/decode/execute engine for the 16-bit MSP430 core.

The engine is cycle-counted using the architectural tables in
:mod:`repro.msp430.cycles`.  Memory-protection failures (bus errors on
unmapped holes, MPU violations) surface as :class:`CpuFault`, which the
kernel converts into the paper's ``FAULT()`` path.

Asynchronous interrupts are not modeled: none of the paper's
measurements involve interrupt latency, and the kernel delivers events
by starting the CPU at a dispatch gate instead (see
``repro.kernel.machine``).

Execution is driven by a precomputed dispatch table keyed by
:class:`~repro.msp430.isa.Opcode` — one handler method per opcode,
bound once per CPU instance — instead of if/elif chains, and operand
writeback uses plain ``(register, address)`` integers (``-1`` meaning
"not this kind") so the register fast path allocates nothing per step.
Decoded instructions are cached per 64-byte block; any memory write
invalidates the blocks it touches, so self-modifying code and
firmware reloads stay correct.

Superblocks
-----------

An instruction has two implementations: its per-opcode ``_op_*``
handler, which ``step()`` runs, and a source template in the table at
the end of this module, which :meth:`Cpu.run` pastes, for the
instructions of a straight-line run, into the generated code of a
*superblock*: one Python-level dispatch per block instead of one
``step()`` round trip per instruction.  A block starts at a PC
``run`` reaches and extends until

* a jump, ``CALL``, ``RET`` or ``BR``, kept as the block's final step,
* an instruction whose absolute operand hits a memory-mapped I/O port
  — kernel gates (service/done/fault ports), MPU registers, the cycle
  timer — kept as the final step and checked like a store, so ``run``
  re-checks its guards right after every gate crossing and MPU
  reprogramming,
* an instruction without a template, one that does not decode, or an
  execute-permission edge, left out of the block (``step()`` runs
  it), or
* the 64-instruction block-size cap.

A block's first dispatches walk its instructions through the same
``_op_*`` handlers (*tier 0*); it is compiled once it proves hot.

Every block batches its bookkeeping: the PC, cycle and instruction
counters are written once per block.  A block accesses memory inline
through the permission bitmap and calls the bus for real only on a
slow path that first makes the PC and counters exact, so I/O read
and write handlers (the cycle timer, the kernel gates) and fault PCs
observe bit-identical state to ``step()``.  A register-only block
whose final jump targets its own start iterates in place.

``run()`` only dispatches blocks when nothing needs per-instruction
observability: a ``trace_hook`` (debugger), a memory observer
(watchpoints, profilers), or a cycle/instruction budget within one
block of expiring all fall back to ``step()``, as
does setting :attr:`Cpu.block_mode` to ``False``: that step-only
mode runs the per-opcode ``_op_*`` handlers for every instruction,
the independent oracle the differential tests compare generated code
against.  Invalidation rides the icache write hook — a store into a block's PC range (including
block-straddling writes) kills the block — and MPU reconfiguration is
handled by revalidating each block's execute permission against the
bus's memoized permission bitmap: same bitmap object, no work; new
bitmap, one pass over the block's byte range.
"""

from __future__ import annotations

import enum
import marshal
import re
import sys
import types
from typing import Callable, Dict, Optional, Tuple

from repro.errors import (
    DecodeError,
    MemoryAccessError,
    MpuViolationError,
    ReproError,
)
from repro.msp430 import cycles as cyc
from repro.msp430.decoder import decode
from repro.msp430.isa import (
    AddressingMode,
    Instruction,
    Opcode,
    Operand,
)
from repro.msp430.execcache import MAX_VARIANTS
from repro.msp430.memory import EXECUTE, Memory, PERM_X, READ, WRITE
from repro.msp430.registers import Reg, RegisterFile, SR

_M = AddressingMode


class FaultKind(enum.Enum):
    MPU_VIOLATION = "mpu-violation"
    BUS_ERROR = "bus-error"
    DECODE_ERROR = "decode-error"


class CpuFault(ReproError):
    """A synchronous fault raised while executing an instruction."""

    def __init__(self, kind: FaultKind, pc: int, address: int,
                 detail: str = ""):
        self.kind = kind
        self.pc = pc
        self.address = address
        self.detail = detail
        super().__init__(
            f"{kind.value} at pc=0x{pc:04X} addr=0x{address:04X}"
            + (f": {detail}" if detail else "")
        )


class ExecutionLimitExceeded(ReproError):
    """``run`` hit its cycle or instruction budget without halting.

    The message states which budget tripped (cycles vs. instructions);
    the two limits are tracked separately."""


#: superblocks stop growing after this many instructions; ``run``'s
#: budget guard refuses to dispatch a block that could overshoot the
#: remaining budget, so blocks never blur ExecutionLimitExceeded.
_MAX_BLOCK_INSNS = 64

#: dispatches a block runs in tier 0 (:func:`_interp_block`) before
#: ``run`` generates its code, so code that runs once or twice never
#: pays ``compile()``; a revived block starts here, already hot
TIER_UP = 2

#: zero page-mask template (bulk invalidation resets the code mask)
_ZERO_MASK = bytes(1024)

#: a block step's kind: register-only (its PC and counter updates can
#: be batched), exact (reads memory, reads or writes the PC), or a
#: store (exact, plus the post-store check suite)
_REG, _EXACT, _STORE = 0, 1, 2


class _Block:
    """One compiled superblock: a trace of decoded instructions fused
    into a single ``compile()``-generated function ``fn``.

    ``steps`` holds ``(pc, next_pc, insn, cycles, kind, jump, form)``
    per instruction: ``insn`` is the decoded :class:`Instruction`,
    ``kind`` is ``_REG``/``_EXACT``/``_STORE`` and ``form`` the
    instruction's ``(template, constants)``.
    ``jump`` is ``None`` for straight-line steps and for a final jump
    (its template sets the PC); mid-trace conditional jumps carry either
    ``("exit", cond, target)`` — compiled to an inline early return —
    or ``("skip", cond, n, cycles, count, target)`` — a forward jump
    re-joining the trace, compiled to a structured ``if`` around the
    ``n`` skipped steps.  Two shapes of ``fn``:

    * **straight-line** — ``fn(cpu, r, m)`` runs the steps back to
      back, writes the PC once and adds the cycle/instruction totals
      in one batch (skip/exit paths adjust the batch with compile-time
      prefix constants).  It probes the permission bitmap inline for
      each memory access; the slow path makes PC and both counters
      exact before it calls the bus (so I/O handlers such as the
      cycle timer observe exactly the state ``step()`` would show)
      and re-checks halt/invalidation/observability after a store,
      returning 1 when one fired.
    * **loop** — register-only steps whose final jump targets the
      block's own start: ``fn(cpu, r, m, limit)`` iterates the whole
      block up to ``limit`` times (the caller derives ``limit`` from
      the remaining budget), exiting as soon as the back-edge falls
      through or an inline exit is taken.

    ``cycles`` and ``count`` are the *full-path* totals (every step
    executed, nothing skipped) — upper bounds used for budget guards.

    ``perm_ok`` caches the bus permission bitmap (a memoized immutable
    ``bytes`` per MPU configuration, shared process-wide per
    configuration) this block was last execute-validated against —
    same object means the validation still holds, so an MPU
    reconfiguration only costs a re-scan for blocks whose permission
    signature actually changed.  ``pc_map`` maps each instruction's
    advanced PC back to its own PC so a fault raised inside ``fn`` is
    reported at the exact faulting instruction.

    A block is immutable once built (``perm_ok`` is a cache, not
    state), which is what lets the shared execution cache hand one
    block object to every device running the same firmware:
    invalidation is per-device (drop it from that CPU's view and bump
    that CPU's ``_code_version``), never a mutation of the block.
    """

    __slots__ = ("start", "end", "end_pc", "steps", "cycles", "count",
                 "loop", "perm_ok", "perm_ok2", "fn", "pc_map",
                 "code", "execs", "proto")

    def __init__(self, start: int, end: int, end_pc: int,
                 steps: tuple, loop: bool):
        self.start = start
        self.end = end                  # one past the last code byte
        self.end_pc = end_pc            # pc after the last instruction
        self.steps = steps
        self.cycles = sum(s[3] for s in steps)
        self.count = len(steps)
        self.loop = loop
        self.perm_ok = None
        self.perm_ok2 = None            # previous validation (see run)
        self.pc_map = {s[1]: s[0] for s in steps}
        self.code = None                # bytes compiled from (sharing)
        # Tiered execution: ``fn`` stays None for the first dispatches
        # (run() walks the steps through _interp_block) and is only
        # codegen'd once the block proves hot — code executed once or
        # twice never pays ``compile()``.  ``proto`` points at the
        # published original for adopted copies, so one codegen serves
        # every device sharing the block.
        self.fn = None
        self.execs = 0
        self.proto = None

    def adopt(self) -> "_Block":
        """A per-device shallow copy for shared-cache adoption: every
        heavy member (steps, fn, pc_map, code) is shared by reference;
        only the ``perm_ok`` validation cache is private, so devices
        with different MPU configurations never thrash each other's
        re-validation of one shared block object."""
        nb = _Block.__new__(_Block)
        nb.start = self.start
        nb.end = self.end
        nb.end_pc = self.end_pc
        nb.steps = self.steps
        nb.cycles = self.cycles
        nb.count = self.count
        nb.loop = self.loop
        nb.perm_ok = None
        nb.perm_ok2 = None
        nb.fn = self.fn
        nb.execs = self.execs
        nb.proto = self
        nb.pc_map = self.pc_map
        nb.code = self.code
        return nb


#: a bus call in a template line; superblock codegen expands each one
#: into the inline permission probe
_BUS_CALL = re.compile(r"m\.(read|write)_(word|byte)\(")

#: an indexed address's 16-bit wrap, which word alignment subsumes
_WRAPPED = re.compile(r"(\(r\[\d+\] \+ \d+\)) & 0xFFFF")

#: the host stores a 16-bit word as the MSP430 does (little-endian),
#: so generated code accesses a word through ``Memory._words``;
#: elsewhere it pairs two bytes
_WORD_VIEW = sys.byteorder == "little"


def _call_args(line: str, start: int) -> Tuple[list, int]:
    """The top-level arguments of the call whose ``(`` ends at
    ``start``, and the index just past its ``)``."""
    args = []
    depth = 0
    mark = start
    for i in range(start, len(line)):
        ch = line[i]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            if not depth:
                args.append(line[mark:i].strip())
                return args, i + 1
            depth -= 1
        elif ch == "," and not depth:
            args.append(line[mark:i].strip())
            mark = i + 1
    raise ValueError(f"unbalanced bus call: {line!r}")


def _probe(line: str, at: str, cost: int) -> list:
    """A template line with its bus call expanded into the inline probe.

    An access at or above the bus's highest I/O port that the
    permission bitmap ``_p`` allows touches memory directly: a byte
    through the bytearray ``_b``, a word through its 16-bit view
    ``_w`` (or as two bytes of ``_b`` on a big-endian host); a store
    must also land on a page the code mask ``_k`` says holds no
    cached code.  A stored value is already in range (the templates
    mask it, and a register holds 16 bits).  Anything else calls the
    bus through the CPU's slow-path helper with ``at`` (the
    instruction's deferred PC, and the cycles and instructions the
    block retired before it).  A load stays an expression; a store
    (always a whole line) becomes ``if <probe>: <write>`` plus the
    ``elif <slow call>:`` header whose body the caller fills with the
    block's early end."""
    call = _BUS_CALL.search(line)
    if call is None:
        return [line]
    op, width = call.groups()
    args, end = _call_args(line, call.end())
    byte = width == "byte"
    address = args[0]
    if not byte:
        wrapped = _WRAPPED.fullmatch(address)
        address = (wrapped[1] if wrapped else f"({address})") + " & 0xFFFE"
    if op == "read":
        fast = ("_b[_a]" if byte else "_w[_a >> 1]" if _WORD_VIEW
                else "_b[_a] | _b[_a + 1] << 8")
        out = (f"{line[:call.start()]}({fast} if (_a := {address}) >= _t"
               f" and _p[_a] & 1 else c._rd(_a, {byte:d}, {at})){line[end:]}")
        if _BUS_CALL.search(out) is not None:
            raise ValueError(f"two bus calls in one line: {line!r}")
        return [out]
    if call.start() or line[end:].strip():
        raise ValueError(f"a store must be a whole line: {line!r}")
    value = args[1]
    if byte:
        fast = f"_b[_a] = {value}"
    elif _WORD_VIEW:
        fast = f"_w[_a >> 1] = {value}"
    else:
        fast = (f"_b[_a] = ({value}) & 0xFF; "
                f"_b[_a + 1] = ({value}) >> 8 & 0xFF")
    return [f"if (_a := {address}) >= _t and _p[_a] & 2"
            f" and not _k[_a >> 6]: {fast}",
            f"elif c._wr(_a, {value}, {byte:d}, {at}, {cost}):"]


def _live_flags(steps: tuple) -> list:
    """Per step, whether generated code keeps its SR update.

    A register-only step's update is left out when a later
    register-only step overwrites C, Z, N and V before anything can
    observe SR.  Scanning backwards, each of these keeps the updates
    before it:

    * a step that reads SR: a carry-in (ADDC, SUBC, RRC), a jump's
      condition, SR as a source register (``MOV SR, Rn``, ``PUSH SR``,
      ``ADD SR, Rn``), BIS or BIC on SR;
    * a step that touches memory or the PC (every jump does): its
      slow path can reach an I/O handler or fault, both with SR
      visible;
    * a diamond arm's edges (the arm may be skipped), an inline exit
      (a jump) and the block's end.
    """
    live = [True] * len(steps)
    arm_ends = {i + s[5][2] for i, s in enumerate(steps)
                if s[5] is not None and s[5][0] == "skip"}
    dead = False          # a later step overwrites the flags unread
    for i in range(len(steps) - 1, -1, -1):
        _, _, _, _, kind, _, (template, consts) = steps[i]
        if i in arm_ends:
            dead = False
        if kind != _REG:
            dead = False
            continue
        if template.flags:
            live[i] = not dead
        if (template.carry or consts.get("s") == 2
                or consts.get("d") == 2):
            dead = False
        elif template.flags:
            dead = True
    return live


def _codegen(blk: _Block):
    """The block's generated function (see :func:`_block_source`)."""
    ns: dict = {}
    exec(compile(_block_source(blk), f"<superblock@0x{blk.start:04X}>",
                 "exec"), ns)
    return ns["_fn"]


def _block_source(blk: _Block) -> str:
    """Fuse a block's steps into the source of one Python function.

    The generated code pastes every step's table template with the
    instruction's constants as literals, so executing a block costs
    one Python call — the per-instruction interpreter loop (handler
    calls, tuple unpacking, index bookkeeping, budget and halt
    polling) is gone.  Bookkeeping is batched: nothing inside the
    block writes the PC or the counters, and the block adds its
    cycle and instruction totals once, at its end.  Only what can
    observe them gets them exact:

    * a step that reads the PC (an R0 source) gets its deferred PC
      first, and the last step gets the block's end PC;
    * every bus call is expanded by :func:`_probe`: a permitted RAM
      access reads or writes memory inline, and everything
      else goes through :meth:`Cpu._rd`/:meth:`Cpu._wr`, which write
      the exact PC and counters before the bus call, so I/O handlers
      and faults observe the state ``step()`` shows.  A slow store
      that halts, invalidates code, stales the permission bitmap or
      installs an observer ends the block after that instruction
      (the block returns 1);
    * SR: a register-only step leaves out its SR update when a later
      step overwrites C, Z, N and V before anything can observe SR
      (:func:`_live_flags`), so SR is exact at every slow-path call,
      fault, exit and block end.

    Steps paste their template's superblock lines
    (``_Template.code``, without the word register reads' no-op
    masks).  The bitmap, memory views and code mask are loaded once
    at entry and stay valid for the whole block: ``run`` refreshes the
    bitmap before every dispatch, only a slow store can stale it (and
    that ends the block), and the inline path cannot fault, halt, reach
    an I/O handler, invalidate code or touch the MPU.

    Conditional jumps inside the trace are emitted as their bare flag
    test:

    * an **exit** jump returns with exact cycle/instruction prefix
      bookkeeping and the taken-target PC when taken, and falls
      through into the rest of the trace otherwise;
    * a **diamond** jump (forward skip whose target re-joins the
      trace) guards its skipped arm with a structured ``if``; the
      arm's cycle/instruction share is tracked in ``_sk``/``_skn``
      accumulators so batched bookkeeping stays exact on both paths.

    Jumps that *close* a block (an unconditional JMP, or the loop
    back-edge) paste their template, which sets the target PC.  A
    **loop** block (register-only, its final jump targets its own
    start) iterates in place: ``fn(c, r, m, limit)`` runs the body
    up to ``limit`` times (the caller derives ``limit`` from the
    remaining budget), exiting as soon as the back-edge falls through
    or an inline exit is taken.
    """
    steps = blk.steps
    loop = blk.loop
    skips = any(s[5] is not None and s[5][0] == "skip" for s in steps)
    # what skipped arms took off the full path: zero until an arm is
    # skipped, and in a loop it spans the finished iterations too
    sk, skn = (" - _sk", " - _skn") if skips else ("", "")
    # a loop iterates in place: its body is indented one level more,
    # and an exit's bookkeeping counts the finished iterations
    base = "        " if loop else "    "
    cyc_n = f"{blk.cycles} * n + " if loop else ""
    cnt_n = f"{blk.count} * n + " if loop else ""
    lines = []
    emit = lines.append
    ind = base
    arm = 0                      # steps left in an open diamond arm
    done = 0                     # full-path cycles of the steps so far
    pc_set = False               # the end PC is written
    last = len(steps) - 1
    live = _live_flags(steps)
    for i, (_, next_pc, _, cyc_i, _, info, (template, consts)) \
            in enumerate(steps):
        inline = template.source(consts, live[i])
        if i == last and not arm:
            # the end PC, unless the step sets the PC before reading
            # it (JMP, BR, RET)
            first = next((ln for ln in inline if "r[0]" in ln), "")
            if not (first.startswith("r[0] = ")
                    and first.count("r[0]") == 1):
                emit(f"{ind}r[0] = {blk.end_pc}")
            pc_set = True
        if info is None:
            # an R0 read sees the step's deferred PC; a block-ending
            # step inside an arm gets it here, not the end PC above
            if not pc_set and any("r[0]" in ln for ln in inline):
                emit(f"{ind}r[0] = {next_pc}")
            at = f"{next_pc}, {done}{sk}, {i}{skn}"
            for j, ln in enumerate(inline):
                probe = _probe(ln, at, cyc_i)
                for out in probe:
                    emit(f"{ind}{out}")
                if len(probe) == 2:
                    # the slow store fired a guard: finish this
                    # instruction and end the block (the helper made
                    # the PC and counters exact)
                    for rest in inline[j + 1:]:
                        emit(f"{ind}    {rest}")
                    emit(f"{ind}    return 1")
        elif info[0] == "skip":
            _, cond, nskip, skc, sks, _target = info
            emit(f"{ind}if {cond}:")
            emit(f"{ind}    _sk += {skc}")
            emit(f"{ind}    _skn += {sks}")
            emit(f"{ind}else:")
            ind += "    "
            arm = nskip
            done += cyc_i
            continue
        else:                    # ("exit", cond, target)
            emit(f"{ind}if {info[1]}:")
            emit(f"{ind}    c.cycles += {cyc_n}{done + cyc_i}{sk}")
            emit(f"{ind}    c.instructions += {cnt_n}{i + 1}{skn}")
            emit(f"{ind}    r[0] = {info[2]}")
            emit(f"{ind}    return")
        done += cyc_i
        if arm:
            arm -= 1
            if arm == 0:
                ind = ind[:-4]
    if loop:
        emit(f"{base}n += 1")
        emit(f"{base}if r[0] != {blk.start} or n >= limit:")
        emit(f"{base}    break")
        emit(f"    c.cycles += {blk.cycles} * n{sk}")
        emit(f"    c.instructions += {blk.count} * n{skn}")
    else:
        if not pc_set:
            # the last step closed a diamond arm: both paths end here
            emit(f"    r[0] = {blk.end_pc}")
        emit(f"    c.cycles += {blk.cycles}{sk}")
        emit(f"    c.instructions += {blk.count}{skn}")
    text = "\n".join(lines)
    head = ["def _fn(c, r, m, limit):" if loop else "def _fn(c, r, m):"]
    if loop:
        head.append("    n = 0")
    if skips:
        head.append("    _sk = 0")
        head.append("    _skn = 0")
    if "_a :=" in text:
        head.append("    _p = m._perm")
        head.append("    _t = m._io_top")
    if "_b[" in text:
        head.append("    _b = m._bytes")
    if "_w[" in text:
        head.append("    _w = m._words")
    if "_k[" in text:
        head.append("    _k = c._code_pages")
    if loop:
        head.append("    while True:")
    return "\n".join(head) + "\n" + text + "\n"


def _interp_block(c, blk: _Block, r, m) -> None:
    """Tier-0 executor: walk a block's steps through the ``_op_*``
    handlers ``step()`` runs.

    Architecturally identical to the codegen'd function — the
    handlers call the bus for every access, with exact
    per-instruction bookkeeping and the same store-boundary checks —
    so a block's first dispatches can run without paying
    ``compile()``; ``run`` tiers the block up to generated code once
    it proves hot.
    A taken jump moves ``r[0]`` off the recorded fallthrough, which
    steers the walk (skip the diamond arm / return early) exactly
    like the inline conditions in generated code.
    """
    steps = blk.steps
    dispatch = c._dispatch
    _v = c._code_version
    i = 0
    n = len(steps)
    while i < n:
        s = steps[i]
        np = s[1]
        r[0] = np
        insn = s[2]
        dispatch[insn.opcode](insn)
        c.cycles += s[3]
        c.instructions += 1
        info = s[5]
        if info is not None:
            if r[0] != np:                # jump taken
                if info[0] == "skip":
                    i += info[2] + 1      # hop over the skipped arm
                    continue
                return                    # early exit
        elif s[4] == _STORE:              # store boundary: exact checks
            if c.halted:
                return
            if (c._code_version != _v or m._perm_stale
                    or c.trace_hook is not None or m._observers):
                return
        i += 1


# -- persistent block records (the execcache disk tier's payload) ----------
#
# A compiled block is mostly *derived* state: decoded instructions and
# their template forms re-instantiate deterministically from the code
# bytes, and the codegen'd function is a closure-free code object that
# needs no globals.  So a disk record carries only the code bytes, the
# per-step metadata (everything in a step tuple except the instruction
# and the form), and the marshaled generated code — revival re-decodes
# each step from the recorded bytes.  Revival is fail-closed: any
# inconsistency (decode error, cycle-count mismatch, a shape the table
# lacks, marshal rot) rejects the record and the block is simply
# re-translated, exactly as a cache miss would be.

def _block_record(blk: _Block) -> Optional[dict]:
    """Serialize a codegen'd block for the execcache disk tier."""
    if blk.fn is None or blk.code is None:
        return None
    try:
        fn_code = marshal.dumps(blk.fn.__code__)
    except ValueError:
        return None
    return {
        "pc": blk.start,
        "end": blk.end,
        "end_pc": blk.end_pc,
        "loop": blk.loop,
        "code": blk.code,
        "steps": [(s[0], s[1], s[3], s[4], s[5]) for s in blk.steps],
        "fn": fn_code,
    }


def _block_from_record(record: dict) -> Optional[_Block]:
    """Revive a disk record into a live block, or None if the record
    is inconsistent in any way (corrupt, stale semantics, a shape
    without a template) — the caller then translates from scratch."""
    try:
        code = record["code"]
        start = record["pc"]
        end = record["end"]
        if len(code) != end - start or not record["steps"]:
            return None

        def fetch(addr: int, _c=code, _b=start) -> int:
            i = addr - _b
            if i < 0:
                raise IndexError(addr)
            return _c[i] | (_c[i + 1] << 8)

        steps = []
        for pc, next_pc, cyc_i, kind, info in record["steps"]:
            insn, size = decode(fetch, pc)
            if cyc.instruction_cycles(insn) != cyc_i:
                return None
            form = _form(insn, pc)
            if form is None:
                return None
            steps.append((pc, next_pc, insn, cyc_i, kind, info, form))
        if steps[-1][1] != record["end_pc"]:
            return None
        fn = types.FunctionType(marshal.loads(record["fn"]), {}, "_fn")
        blk = _Block(start, end, record["end_pc"], tuple(steps),
                     record["loop"])
        blk.code = bytes(code)
        blk.fn = fn
        blk.execs = TIER_UP
        return blk
    except Exception:
        return None


class Cpu:
    """The execution engine.

    Attributes of interest:

    * ``cycles`` -- architectural cycle counter (drives the experiments)
    * ``instructions`` -- retired instruction count
    * ``halted`` -- set by the kernel's DONE port or :meth:`halt`
    """

    def __init__(self, memory: Optional[Memory] = None):
        self.memory = memory if memory is not None else Memory()
        self.regs = RegisterFile()
        self.cycles = 0
        self.instructions = 0
        self.halted = False
        self.trace_hook: Optional[Callable[[int, Instruction], None]] = None
        # Decoded-instruction cache, keyed by 64-byte page then PC.
        # Any memory write invalidates the entries it touches (so
        # self-modifying code and re-loads stay correct); firmware
        # never self-modifies, so in practice every instruction decodes
        # once.  Entries: pc -> (insn, size, cycles).
        # Entries are device-agnostic, so they can be published to and
        # pulled from the shared execution cache.
        self._icache: dict = {}
        # -- superblock layer ----------------------------------------
        #: False keeps ``run`` off superblocks, so ``step()`` runs the
        #: ``_op_*`` handlers for every instruction — the oracle
        #: differential tests pin generated code against.
        self.block_mode = True
        #: compiled superblocks, keyed by entry PC (this CPU's *view*;
        #: blocks may be private or pulled from the shared cache)
        self._blocks: Dict[int, _Block] = {}
        #: entry PCs where compilation declined (the first instruction
        #: has no template or does not decode, or an execute-permission
        #: edge cuts it) — a negative cache so ``run`` doesn't retry
        #: every iteration.
        #: Never shared: some verdicts depend on this device's MPU
        #: permission edges, not on code bytes.
        self._no_block: set = set()
        #: 64-byte page -> entry PCs of blocks (and no-block markers)
        #: whose code bytes intersect that page; drives invalidation
        self._block_pages: Dict[int, set] = {}
        #: process-wide translation store for this firmware identity
        #: (see :meth:`attach_shared_cache`); None = fully private
        self._shared = None
        #: bumped whenever cached code is invalidated; a slow-path
        #: store that moves it ends the running superblock (the
        #: in-flight half of invalidation)
        self._code_version = 0
        #: one byte per 64-byte page, nonzero when cached decoded code
        #: has bytes on the page (an instruction spilling over a page
        #: edge marks both); shared by reference with the bus, and
        #: read by generated code, so a data store tests one byte
        self._code_pages = bytearray(1024)
        #: bus calls generated superblock code made through the slow
        #: path (:meth:`_rd`/:meth:`_wr`): I/O ports, addresses the
        #: permission bitmap denies, stores onto code pages
        self.slow_bus_calls = 0
        self.memory.set_invalidator(self._on_memory_write,
                                    self._code_pages)
        # Per-opcode handler methods, bound once.
        self._dispatch: Dict[Opcode, Callable[[Instruction], None]] = {
            opcode: getattr(self, name)
            for opcode, name in _HANDLER_NAMES.items()
        }

    def attach_shared_cache(self, store) -> None:
        """Share translations with sibling CPUs through ``store`` (a
        :class:`~repro.msp430.execcache.SharedExecutionCache` built
        from this machine's pristine firmware image).  Every publish
        and pull is byte-verified against the pristine image, so a
        device whose code has diverged (self-modifying stores,
        debugger pokes) silently falls back to private translation
        without poisoning its siblings."""
        self._shared = store

    def _on_memory_write(self, address: int, _value: int) -> None:
        # Only called (via the bus's mask gate) when the write may
        # touch cached code — or with address < 0 for bulk loads.
        if address < 0:
            self._icache.clear()      # bulk load
            self._blocks.clear()
            self._block_pages.clear()
            self._no_block.clear()
            self._code_version += 1   # stop any in-flight block
            self._code_pages[:] = _ZERO_MASK
            return
        # A write touches [address, address + 1] for word writes
        # (even-aligned, so both bytes share one page) and only
        # [address, address] for byte writes; the odd-address case
        # must stay exact or the range could appear to cross a page.
        lo = address
        hi = address if address & 1 else address + 1
        # Decoded entries are keyed by the page their first word is
        # in, but an instruction can extend into the next page — so
        # the preceding page's entries are candidates too.  Only
        # entries whose byte range actually overlaps the write die;
        # the page-sharing neighbours (the common case: app data
        # packed against the next app's code) survive.
        page = address >> 6
        icache = self._icache
        # an entry indexed under the previous page can reach at most 4
        # bytes into this one, so skip that scan for deeper offsets
        pages = (page - 1, page) if lo & 63 < 4 else (page,)
        for neighbour in pages:
            entries = icache.get(neighbour)
            if entries:
                stale = [pc for pc, entry in entries.items()
                         if pc <= hi and pc + entry[1] > lo]
                for pc in stale:
                    del entries[pc]
        # Superblocks (and no-block markers) are indexed under every
        # page their byte range intersects, so the write's own page
        # finds every candidate; precise range overlap decides.
        pcs = self._block_pages.get(page)
        if pcs:
            blocks = self._blocks
            no_block = self._no_block
            dead = []
            killed = False
            for pc in pcs:
                blk = blocks.get(pc)
                if blk is None:
                    # a no-block marker (or an index entry left behind
                    # by a kill via another page): cheap to re-learn
                    no_block.discard(pc)
                    dead.append(pc)
                elif blk.start <= hi and blk.end > lo:
                    del blocks[pc]
                    dead.append(pc)
                    killed = True
            if killed:
                self._code_version += 1
            for pc in dead:
                pcs.discard(pc)
            if not pcs:
                del self._block_pages[page]

    # -- small helpers ------------------------------------------------------
    def reset(self, pc: Optional[int] = None) -> None:
        self.regs = RegisterFile()
        self.cycles = 0
        self.instructions = 0
        self.halted = False
        if pc is None:
            pc = self.memory.read_word(self.memory.map.RESET_VECTOR)
        self.regs.pc = pc

    def halt(self) -> None:
        self.halted = True

    # -- snapshot/restore ---------------------------------------------------
    def state_dict(self) -> dict:
        """Architectural CPU state: register file plus the cycle and
        instruction counters.  The decoded-instruction cache and the
        compiled superblocks are *derived* state — they rebuild on
        demand after :meth:`load_state` — so they are not captured."""
        return {
            "regs": self.regs.snapshot(),
            "cycles": self.cycles,
            "instructions": self.instructions,
            "halted": self.halted,
        }

    def load_state(self, state: dict) -> None:
        self.regs.restore(state["regs"])
        self.cycles = state["cycles"]
        self.instructions = state["instructions"]
        self.halted = state["halted"]

    # -- operand evaluation ------------------------------------------------
    def _read_reg(self, n: int, byte: bool) -> int:
        value = self.regs.read(n)
        return value & 0xFF if byte else value

    def _load(self, address: int, byte: bool) -> int:
        if byte:
            return self.memory.read_byte(address)
        return self.memory.read_word(address)

    def _store(self, register: int, address: int, value: int,
               byte: bool) -> None:
        """Write back to register ``register`` (if >= 0) else memory."""
        if register >= 0:
            # Byte operations clear the destination's high byte.
            self.regs.write(register,
                            value & 0xFF if byte else value & 0xFFFF)
        elif byte:
            self.memory.write_byte(address, value)
        else:
            self.memory.write_word(address, value)

    def _effective_address(self, op: Operand) -> int:
        m = op.mode
        if m is _M.INDEXED:
            return (self.regs.read(op.register) + op.value) & 0xFFFF
        if m in (_M.SYMBOLIC, _M.ABSOLUTE):
            return op.value & 0xFFFF
        if m in (_M.INDIRECT, _M.AUTOINCREMENT):
            return self.regs.read(op.register)
        raise ReproError(f"operand mode {m} has no address")

    def _eval_source(self, op: Operand, byte: bool) -> int:
        m = op.mode
        if m is _M.REGISTER:
            return self._read_reg(op.register, byte)
        if m is _M.IMMEDIATE:
            return op.value & (0xFF if byte else 0xFFFF)
        address = self._effective_address(op)
        value = self._load(address, byte)
        if m is _M.AUTOINCREMENT:
            step = 1 if byte else 2
            self.regs.write(op.register,
                            self.regs.read(op.register) + step)
        return value

    def _eval_dest(self, op: Operand, byte: bool,
                   need_value: bool) -> Tuple[int, int, int]:
        """Returns ``(value, register, address)`` — ``register`` is -1
        for a memory destination, ``address`` is -1 for a register."""
        if op.mode is _M.REGISTER:
            register = op.register
            value = self._read_reg(register, byte) if need_value else 0
            return value, register, -1
        address = self._effective_address(op)
        value = self._load(address, byte) if need_value else 0
        return value, -1, address

    # -- ALU ----------------------------------------------------------------
    def _flags_add(self, src: int, dst: int, result: int,
                   byte: bool) -> int:
        mask = 0xFF if byte else 0xFFFF
        sign = 0x80 if byte else 0x8000
        out = result & mask
        self.regs.set_flag(SR.C, result > mask)
        self.regs.set_flag(SR.V,
                           bool(~(src ^ dst) & (src ^ out) & sign))
        self.regs.set_nz(out, byte)
        return out

    def _flags_sub(self, src: int, dst: int, carry_in: int,
                   byte: bool) -> int:
        """dst - src (+ carry-1 for SUBC); C means *no borrow*."""
        mask = 0xFF if byte else 0xFFFF
        sign = 0x80 if byte else 0x8000
        result = dst + ((~src) & mask) + carry_in
        out = result & mask
        self.regs.set_flag(SR.C, result > mask)
        self.regs.set_flag(SR.V,
                           bool((dst ^ src) & (dst ^ out) & sign))
        self.regs.set_nz(out, byte)
        return out

    def _logic_flags(self, out: int, byte: bool,
                     overflow: bool = False) -> None:
        self.regs.set_nz(out, byte)
        self.regs.set_flag(SR.C, out != 0)
        self.regs.set_flag(SR.V, overflow)

    @staticmethod
    def _dadd(src: int, dst: int, carry: int, byte: bool) -> Tuple[int, int]:
        digits = 2 if byte else 4
        out = 0
        for i in range(digits):
            d = ((src >> (4 * i)) & 0xF) + ((dst >> (4 * i)) & 0xF) + carry
            if d > 9:
                d -= 10
                carry = 1
            else:
                carry = 0
            out |= d << (4 * i)
        return out, carry

    # -- stack helpers ---------------------------------------------------------
    def _push(self, value: int) -> None:
        self.regs.sp = (self.regs.sp - 2) & 0xFFFF
        self.memory.write_word(self.regs.sp, value)

    def _pop(self) -> int:
        value = self.memory.read_word(self.regs.sp)
        self.regs.sp = (self.regs.sp + 2) & 0xFFFF
        return value

    # -- execution ------------------------------------------------------------
    def step(self) -> Instruction:
        """Execute one instruction; returns it (for tracing)."""
        memory = self.memory
        r = self.regs._regs
        pc = r[0]
        page = self._icache.get(pc >> 6)
        entry = page.get(pc) if page is not None else None
        if entry is None and self._shared is not None:
            entry = self._pull_entry(pc)
        try:
            if entry is None:
                insn, size = decode(memory.fetch_word, pc)
                insn_cycles = cyc.instruction_cycles(insn)
                self._install_entry(pc, (insn, size, insn_cycles))
            else:
                insn, size, insn_cycles = entry
                # the decode is cached (or pulled from the shared
                # store), but execute *permission* must be
                # re-validated — the MPU config changes between
                # context switches.  Probe the flat permission bitmap
                # directly; fall back to the full walk on any miss.
                if not memory._supervisor_depth:
                    if memory._perm_stale:
                        memory._refresh_permissions()
                    perm = memory._perm
                    if not perm[pc] & PERM_X:
                        memory._check_slow(pc, EXECUTE)
                    if size > 2:
                        last = pc + size - 1
                        if last > 0xFFFF or not perm[last] & PERM_X:
                            memory._check_slow(last, EXECUTE)
        except MpuViolationError as exc:
            raise CpuFault(FaultKind.MPU_VIOLATION, pc, exc.address,
                           "instruction fetch") from exc
        except MemoryAccessError as exc:
            raise CpuFault(FaultKind.BUS_ERROR, pc, exc.address,
                           "instruction fetch") from exc
        except DecodeError as exc:
            raise CpuFault(FaultKind.DECODE_ERROR, pc, pc,
                           str(exc)) from exc

        r[0] = (pc + size) & 0xFFFF      # pc and size are both even
        if self.trace_hook is not None:
            self.trace_hook(pc, insn)
        try:
            self._dispatch[insn.opcode](insn)
        except MpuViolationError as exc:
            raise CpuFault(FaultKind.MPU_VIOLATION, pc, exc.address,
                           exc.kind) from exc
        except MemoryAccessError as exc:
            raise CpuFault(FaultKind.BUS_ERROR, pc, exc.address,
                           exc.kind) from exc

        self.cycles += insn_cycles
        self.instructions += 1
        return insn

    def run(self, max_cycles: int = 10_000_000,
            max_instructions: Optional[int] = None) -> int:
        """Run until :attr:`halted`; returns cycles consumed by this call.

        The loop dispatches compiled superblocks whenever exact
        per-instruction observability is not required, and falls back
        to :meth:`step` when a trace hook or memory observer is
        installed, a budget is within one block of expiring, or
        :attr:`block_mode` is off.  Architectural state —
        cycles, instructions, fault PCs, halt points, budget errors —
        is bit-identical either way.
        """
        start = self.cycles
        start_insns = self.instructions
        cycle_limit = start + max_cycles
        insn_limit = (None if max_instructions is None
                      else start_insns + max_instructions)
        memory = self.memory
        step = self.step
        no_block = self._no_block
        while not self.halted:
            # -- superblock fast path --------------------------------
            # Guards re-checked only here: a block changes none of
            # them unless a slow-path store fires one, and the
            # post-dispatch check below drops out of the tight loop
            # as soon as a block (or an inline step) reports that.
            if (self.block_mode and self.trace_hook is None
                    and not memory._observers):
                if memory._perm_stale:
                    memory._refresh_permissions()
                perm = memory._perm
                regs = self.regs._regs
                get = self._blocks.get
                while True:
                    blk = get(regs[0])
                    if blk is None:
                        pc = regs[0]
                        if pc in no_block:
                            break
                        blk = self._compile_block(pc)
                        if blk is None:
                            break
                    if blk.perm_ok is not perm:
                        # MPU configuration changed since the last
                        # execute-validation of this block's range.
                        # Two validation slots: a device alternating
                        # between kernel and app bitmaps (context
                        # switches) revalidates each block twice,
                        # then hits a slot from there on.
                        if blk.perm_ok2 is perm or all(
                                b & PERM_X
                                for b in perm[blk.start:blk.end]):
                            blk.perm_ok2 = blk.perm_ok
                            blk.perm_ok = perm
                        else:
                            break        # step() raises the fault
                    if blk.fn is None:
                        if blk.execs < TIER_UP:
                            # tier 0: interpret the steps
                            blk.execs += 1
                            if (self.cycles + blk.cycles
                                    > cycle_limit
                                    or (insn_limit is not None
                                        and self.instructions
                                        + blk.count > insn_limit)):
                                break    # budget: step() raises
                            try:
                                _interp_block(self, blk, regs,
                                              memory)
                            except MpuViolationError as exc:
                                raise CpuFault(
                                    FaultKind.MPU_VIOLATION,
                                    blk.pc_map[regs[0]],
                                    exc.address, exc.kind) from exc
                            except MemoryAccessError as exc:
                                raise CpuFault(
                                    FaultKind.BUS_ERROR,
                                    blk.pc_map[regs[0]],
                                    exc.address, exc.kind) from exc
                            if (self.halted
                                    or self.trace_hook is not None
                                    or memory._observers):
                                break
                            if memory._perm_stale:
                                memory._refresh_permissions()
                                perm = memory._perm
                            continue
                        proto = blk.proto
                        if proto is not None \
                                and proto.fn is not None:
                            blk.fn = proto.fn
                        else:
                            blk.fn = _codegen(blk)
                            if proto is not None:
                                proto.fn = blk.fn
                            shared = self._shared
                            if shared is not None \
                                    and shared.disk is not None:
                                # block proved hot enough to pay
                                # compile(): persist it so future
                                # processes start with it revived
                                record = _block_record(
                                    proto if proto is not None
                                    else blk)
                                if record is not None:
                                    shared.disk.publish(record)
                    if blk.loop:
                        iters = ((cycle_limit - self.cycles)
                                 // blk.cycles)
                        if insn_limit is not None:
                            j = ((insn_limit - self.instructions)
                                 // blk.count)
                            if j < iters:
                                iters = j
                        if iters < 1:
                            break        # budget: step() raises
                        blk.fn(self, regs, memory, iters)
                        continue
                    if (self.cycles + blk.cycles > cycle_limit
                            or (insn_limit is not None
                                and self.instructions + blk.count
                                > insn_limit)):
                        break            # budget: step() raises
                    try:
                        if not blk.fn(self, regs, memory):
                            # no slow store fired a guard: reads
                            # have no side effects, so every
                            # post-dispatch guard is provably
                            # unchanged
                            continue
                    except MpuViolationError as exc:
                        raise CpuFault(
                            FaultKind.MPU_VIOLATION,
                            blk.pc_map[regs[0]],
                            exc.address, exc.kind) from exc
                    except MemoryAccessError as exc:
                        raise CpuFault(
                            FaultKind.BUS_ERROR,
                            blk.pc_map[regs[0]],
                            exc.address, exc.kind) from exc
                    if (self.halted
                            or self.trace_hook is not None
                            or memory._observers):
                        break
                    if memory._perm_stale:
                        # MPU reconfigured (context switch):
                        # rebind the permission bitmap and stay
                        # on the fast path — the block above
                        # retired instructions, so progress is
                        # guaranteed.
                        memory._refresh_permissions()
                        perm = memory._perm
                if self.halted:
                    break
            # -- exact per-instruction path --------------------------
            step()
            if self.cycles > cycle_limit:
                raise ExecutionLimitExceeded(
                    f"cycle budget: no halt after "
                    f"{self.cycles - start} cycles "
                    f"({self.instructions - start_insns} instructions) "
                    f"from pc=0x{self.regs.pc:04X}"
                )
            if insn_limit is not None and self.instructions > insn_limit:
                raise ExecutionLimitExceeded(
                    f"instruction budget: no halt after "
                    f"{self.instructions - start_insns} instructions "
                    f"({self.cycles - start} cycles) "
                    f"from pc=0x{self.regs.pc:04X}"
                )
        return self.cycles - start

    # -- generated code's slow path -----------------------------------------
    def _rd(self, address: int, byte: int, pc: int, cycles: int,
            count: int) -> int:
        """A superblock load the inline probe did not take (an I/O
        port, an address the bitmap denies): the bus read, with the PC
        and counters exact while it runs.  ``pc`` is the instruction's
        deferred PC; ``cycles`` and ``count`` are what the block
        retired before it, added back out afterwards because the
        block adds its totals at its end.  A fault leaves them exact
        for ``run``'s fault report."""
        self.slow_bus_calls += 1
        self.regs._regs[0] = pc
        self.cycles += cycles
        self.instructions += count
        if byte:
            value = self.memory.read_byte(address)
        else:
            value = self.memory.read_word(address)
        self.cycles -= cycles
        self.instructions -= count
        return value

    def _wr(self, address: int, value: int, byte: int, pc: int,
            cycles: int, count: int, cost: int) -> bool:
        """A superblock store the inline probe did not take (an I/O
        port, an address the bitmap denies, a page holding cached
        code): the bus write under exact PC and counters, as
        :meth:`_rd`, then the post-store guards.  True when the store
        halted the machine, invalidated code, staled the permission
        bitmap or installed a trace hook or observer: the counters
        then include this instruction (``cost`` cycles) and the block
        ends after it.  Invalidation is read from this CPU's
        ``_code_version``, not from the block, so a device sharing the
        block through the execution cache is never stopped by it."""
        self.slow_bus_calls += 1
        self.regs._regs[0] = pc
        self.cycles += cycles
        self.instructions += count
        version = self._code_version
        memory = self.memory
        if byte:
            memory.write_byte(address, value)
        else:
            memory.write_word(address, value)
        if (self.halted or self._code_version != version
                or memory._perm_stale or self.trace_hook is not None
                or memory._observers):
            self.cycles += cost
            self.instructions += 1
            return True
        self.cycles -= cycles
        self.instructions -= count
        return False

    # -- shared execution cache ---------------------------------------------
    def _pull_entry(self, pc: int):
        """Adopt a decoded entry from the shared store, if some
        published variant's bytes match this device's memory; returns
        the entry or None."""
        shared = self._shared
        page = pc >> 6
        page_entries = shared.pages.get(page)
        if page_entries is None:
            return None
        variants = page_entries.get(pc)
        if variants is None:
            return None
        mem = self.memory._bytes
        for code, entry in variants:
            if mem[pc:pc + len(code)] == code:
                entries = self._icache.get(page)
                if entries is None:
                    entries = {}
                    self._icache[page] = entries
                    self._code_pages[page] = 1
                entries[pc] = entry
                self._code_pages[(pc + len(code) - 1 & 0xFFFF) >> 6] = 1
                shared.page_pulls += 1
                return entry
        shared.rejects += 1
        return None

    def _install_entry(self, pc: int, entry: tuple) -> None:
        """Cache a freshly decoded entry locally, and publish it
        (with the bytes it decodes) to the shared store.  Only called
        after :meth:`_pull_entry` missed, so a published variant is
        always new content."""
        page = pc >> 6
        entries = self._icache.get(page)
        if entries is None:
            entries = {}
            self._icache[page] = entries
            self._code_pages[page] = 1
        entries[pc] = entry
        # the page an instruction spills into is marked too, so a
        # store tests one mask byte
        self._code_pages[(pc + entry[1] - 1 & 0xFFFF) >> 6] = 1
        shared = self._shared
        if shared is not None:
            variants = shared.pages.setdefault(page, {}) \
                .setdefault(pc, [])
            if len(variants) < MAX_VARIANTS:
                code = bytes(self.memory._bytes[pc:pc + entry[1]])
                variants.append((code, entry))
                shared.publishes += 1
            else:
                shared.rejects += 1

    def _revive_disk_variants(self, shared, pc: int):
        """Bring any persisted block variants for ``pc`` into the
        in-memory store (reviving decoded steps and generated code
        from the records), so the normal byte-verified adoption scan
        can use them.  Returns the variant list, or None when the disk
        tier has nothing for this pc either."""
        disk = shared.disk
        records = disk.take(pc)
        if records is None:
            # maybe a sibling worker published since our last read:
            # one cheap stat, and an incremental read only if the
            # store file actually grew
            if not disk.refresh():
                return None
            records = disk.take(pc)
            if records is None:
                return None
        variants = shared.blocks.setdefault(pc, [])
        for record in records:
            if len(variants) >= MAX_VARIANTS:
                break
            blk = _block_from_record(record)
            if blk is not None:
                variants.append(blk)
        return variants

    # -- superblock compilation and execution -------------------------------
    def _compile_block(self, pc: int) -> Optional[_Block]:
        """Chain decoded instructions from ``pc`` into a superblock, or
        mark ``pc`` uncompilable.  Straight-line only: a jump, CALL,
        RET, BR, or an absolute operand on a registered I/O port
        (kernel gates, MPU registers, the cycle timer) ends the block
        inclusive; an instruction without a template or that does not
        decode, or a non-executable byte, ends it exclusive.
        All fetches run under ``supervisor`` after probing the
        permission bitmap, so speculative compilation has no
        architecturally visible side effects (no MPU violation flags).
        """
        memory = self.memory
        shared = self._shared
        perm = memory._perm           # caller refreshed it
        if shared is not None:
            # adopt a compiled block from the shared store when some
            # variant's recorded bytes match this device's memory AND
            # this device's MPU config marks the whole range
            # executable (otherwise a private, shorter compile honours
            # the permission edge).  The adopted object is a shallow
            # per-device copy: see _Block.adopt.
            variants = shared.blocks.get(pc)
            if not variants and shared.disk is not None:
                # nothing in memory yet: revive any persisted variants
                # for this pc (earlier processes' publishes) into the
                # in-memory store, then adopt through the normal
                # byte-verified path below
                variants = self._revive_disk_variants(shared, pc)
            if variants:
                mem = memory._bytes
                for sb in variants:
                    if mem[sb.start:sb.end] == sb.code and \
                            all(b & PERM_X
                                for b in perm[sb.start:sb.end]):
                        blk = sb.adopt()
                        blk.perm_ok = perm
                        shared.block_pulls += 1
                        self._blocks[pc] = blk
                        mask = self._code_pages
                        for page in range(pc >> 6,
                                          (blk.end - 1 >> 6) + 1):
                            self._block_pages.setdefault(
                                page, set()).add(pc)
                            mask[page] = 1
                        return blk
        icache = self._icache
        io_ports = memory.io_addresses()
        steps = []
        pure = True             # register-only so far: may close a loop
        loop = False
        cursor = pc
        end = pc
        diamond = None          # (step index, rejoin pc) while open
        while len(steps) < _MAX_BLOCK_INSNS:
            if diamond is not None:
                di, rejoin = diamond
                if cursor == rejoin:
                    # forward jump's target reached on an instruction
                    # boundary: the steps since the jump are its
                    # skipped arm — rewrite the jump step into a
                    # structured skip with the arm's exact size
                    arm = steps[di + 1:]
                    p = steps[di]
                    steps[di] = (p[0], p[1], p[2], p[3], p[4],
                                 ("skip", p[5][1], len(arm),
                                  sum(s[3] for s in arm), len(arm),
                                  rejoin), p[6])
                    diamond = None
                elif cursor > rejoin:
                    break        # target inside an instruction: bail
            if cursor > 0xFFFE or not perm[cursor] & PERM_X:
                break
            page = icache.get(cursor >> 6)
            entry = page.get(cursor) if page is not None else None
            if entry is None and shared is not None:
                entry = self._pull_entry(cursor)
            if entry is None:
                try:
                    with memory.supervisor():
                        insn, size = decode(memory.fetch_word, cursor)
                except (DecodeError, MemoryAccessError):
                    break
                insn_cycles = cyc.instruction_cycles(insn)
                self._install_entry(cursor, (insn, size, insn_cycles))
            else:
                insn, size, insn_cycles = entry
            form = _form(insn, cursor)
            if form is None:          # no template: step() runs it
                break
            last = cursor + size - 1
            if last > 0xFFFF or not perm[last] & PERM_X:
                break
            src, dst = insn.src, insn.dst
            next_pc = (cursor + size) & 0xFFFF
            template = form[0]
            if _hits_io(src, io_ports) or _hits_io(dst, io_ports):
                # Gate/MPU/timer port operand: absorb it as the
                # block's *final* instruction.  Marking it a store
                # boundary makes the generated code emit the full
                # halt/invalidation check suite right after the
                # access, and ending the block here hands control back
                # to ``run``'s guard re-checks — exactly the boundary
                # ``step()`` would give.  (Syscall gates and timer
                # polls dominate the step fallback otherwise.)
                steps.append((cursor, next_pc, insn, insn_cycles,
                              _STORE, None, form))
                end = cursor + size
                break
            opcode = insn.opcode
            is_jump = opcode in _JUMP_OPCODES
            # a store needs the post-store check suite; a memory read,
            # a PC write, or a read of the deferred PC (an R0 source)
            # needs exact PC and counters around it (the slow path's,
            # or a PC write in generated code); anything else is
            # register-only
            kind = (_STORE if template.mem == "w"
                    else _EXACT if (template.mem or template.pc
                                    or (src is not None
                                        and src.mode is _M.REGISTER
                                        and src.register == 0))
                    else _REG)
            if is_jump:
                target = form[1]["t"]
                if opcode is not Opcode.JMP and diamond is None:
                    if pure and target == pc:
                        # back-edge to the block's own start: close as
                        # an in-place loop (the generated function
                        # iterates until the jump falls through or the
                        # budget share is spent)
                        steps.append((cursor, next_pc, insn,
                                      insn_cycles, kind, None, form))
                        end = cursor + size
                        loop = True
                        break
                    if (target > next_pc
                            and len(steps) + 1 < _MAX_BLOCK_INSNS):
                        # forward skip: tentatively keep compiling the
                        # fallthrough as the jump's arm; resolved to a
                        # structured diamond when the target is
                        # reached, truncated otherwise
                        diamond = (len(steps), target)
                        steps.append((cursor, next_pc, insn,
                                      insn_cycles, kind,
                                      ("open", _JUMP_CONDS[opcode]),
                                      form))
                        end = cursor + size
                        cursor = next_pc
                        continue
                if opcode is not Opcode.JMP:
                    # backward / degenerate target (or a jump nested
                    # inside an open arm): inline early exit — taken
                    # returns with exact bookkeeping, fallthrough
                    # continues the trace
                    steps.append((cursor, next_pc, insn, insn_cycles,
                                  kind,
                                  ("exit", _JUMP_CONDS[opcode],
                                   target), form))
                    end = cursor + size
                    cursor = next_pc
                    continue
                # unconditional JMP closes the block inclusively
                steps.append((cursor, next_pc, insn, insn_cycles,
                              kind, None, form))
                end = cursor + size
                loop = pure and target == pc
                break
            if kind != _REG:
                pure = False
            steps.append((cursor, next_pc, insn, insn_cycles, kind,
                          None, form))
            end = cursor + size
            cursor = next_pc
            # CALL, BR and RET redirect control flow: keep them as the
            # block's final step, like jumps
            if template.pc or next_pc < pc:    # redirect / wrapped
                break
        if diamond is not None:
            # the trace ended before the forward jump's target: drop
            # the tentative arm and keep the jump as a plain final
            # step (its template performs the branch)
            di = diamond[0]
            p = steps[di]
            del steps[di + 1:]
            steps[di] = (p[0], p[1], p[2], p[3], p[4], None, p[6])
            end = p[0] + 2      # jump instructions are 2 bytes
            loop = False
        mask = self._code_pages
        if not steps:
            # nothing compilable at this pc (no template, a decode
            # error, or a permission edge); remember the verdict and
            # index it so code writes re-enable compilation.  Even a
            # single-instruction block beats the step() fallback: the
            # tight dispatch loop skips the per-step guard checks.
            self._no_block.add(pc)
            for page in range(pc >> 6, (max(end, pc + 1) - 1 >> 6) + 1):
                self._block_pages.setdefault(page, set()).add(pc)
                mask[page] = 1
            return None
        blk = _Block(pc, end, steps[-1][1], tuple(steps), loop)
        blk.perm_ok = perm     # every byte was execute-probed above
        blk.code = bytes(memory._bytes[pc:end])
        self._blocks[pc] = blk
        for page in range(pc >> 6, (end - 1 >> 6) + 1):
            self._block_pages.setdefault(page, set()).add(pc)
            mask[page] = 1
        if shared is not None:
            # append-only content-addressed publish: adoption above
            # missed, so this block's (range, bytes) — or the
            # permission edge it honours — is new content
            variants = shared.blocks.setdefault(pc, [])
            if len(variants) < MAX_VARIANTS:
                variants.append(blk)
                shared.publishes += 1
            else:
                shared.rejects += 1
        return blk

    # -- per-opcode semantics ------------------------------------------------
    def _execute(self, insn: Instruction) -> None:
        """Dispatch one decoded instruction (tests / tools entry)."""
        self._dispatch[insn.opcode](insn)

    # jumps -------------------------------------------------------------------
    def _op_jmp(self, insn: Instruction) -> None:
        r = self.regs
        r.pc = (r.pc + 2 * insn.offset) & 0xFFFF

    def _op_jne(self, insn: Instruction) -> None:
        r = self.regs
        if not r.sr & SR.Z:
            r.pc = (r.pc + 2 * insn.offset) & 0xFFFF

    def _op_jeq(self, insn: Instruction) -> None:
        r = self.regs
        if r.sr & SR.Z:
            r.pc = (r.pc + 2 * insn.offset) & 0xFFFF

    def _op_jnc(self, insn: Instruction) -> None:
        r = self.regs
        if not r.sr & SR.C:
            r.pc = (r.pc + 2 * insn.offset) & 0xFFFF

    def _op_jc(self, insn: Instruction) -> None:
        r = self.regs
        if r.sr & SR.C:
            r.pc = (r.pc + 2 * insn.offset) & 0xFFFF

    def _op_jn(self, insn: Instruction) -> None:
        r = self.regs
        if r.sr & SR.N:
            r.pc = (r.pc + 2 * insn.offset) & 0xFFFF

    def _op_jge(self, insn: Instruction) -> None:
        r = self.regs
        sr = r.sr
        if bool(sr & SR.N) == bool(sr & SR.V):
            r.pc = (r.pc + 2 * insn.offset) & 0xFFFF

    def _op_jl(self, insn: Instruction) -> None:
        r = self.regs
        sr = r.sr
        if bool(sr & SR.N) != bool(sr & SR.V):
            r.pc = (r.pc + 2 * insn.offset) & 0xFFFF

    # format II ----------------------------------------------------------------
    def _op_reti(self, insn: Instruction) -> None:
        r = self.regs
        r.sr = self._pop()
        r.pc = self._pop()

    def _op_push(self, insn: Instruction) -> None:
        byte = insn.byte
        value = self._eval_source(insn.src, byte)
        if insn.src.mode is _M.REGISTER and insn.src.register == Reg.SP:
            # SP is decremented before the store, so PUSH SP stores the
            # decremented SP (SLAU367, "PUSH SP, POP SP sequence")
            value -= 2
        # PUSH.B still decrements SP by 2 (hardware behaviour).
        self._push(value & (0xFF if byte else 0xFFFF))

    def _op_call(self, insn: Instruction) -> None:
        r = self.regs
        if insn.src.mode in (_M.REGISTER, _M.IMMEDIATE):
            target = self._eval_source(insn.src, byte=False)
        else:
            target = self._load(self._effective_address(insn.src),
                                byte=False)
            if insn.src.mode is _M.AUTOINCREMENT:
                r.write(insn.src.register,
                        r.read(insn.src.register) + 2)
        self._push(r.pc)
        r.pc = target

    def _eval_rmw(self, insn: Instruction) -> Tuple[int, int, int]:
        """RRA / RRC / SWPB / SXT operand: value + writeback target."""
        byte = insn.byte
        if insn.src.mode is _M.REGISTER:
            register = insn.src.register
            return self._read_reg(register, byte), register, -1
        address = self._effective_address(insn.src)
        value = self._load(address, byte)
        if insn.src.mode is _M.AUTOINCREMENT:
            r = self.regs
            step = 1 if byte else 2
            r.write(insn.src.register, r.read(insn.src.register) + step)
        return value, -1, address

    def _op_rra(self, insn: Instruction) -> None:
        byte = insn.byte
        value, register, address = self._eval_rmw(insn)
        mask = 0xFF if byte else 0xFFFF
        sign = 0x80 if byte else 0x8000
        out = (value >> 1) | (value & sign)
        r = self.regs
        r.set_flag(SR.C, bool(value & 1))
        r.set_flag(SR.V, False)
        r.set_nz(out, byte)
        self._store(register, address, out & mask, byte)

    def _op_rrc(self, insn: Instruction) -> None:
        byte = insn.byte
        value, register, address = self._eval_rmw(insn)
        mask = 0xFF if byte else 0xFFFF
        sign = 0x80 if byte else 0x8000
        r = self.regs
        out = (value >> 1) | (sign if r.carry else 0)
        r.set_flag(SR.C, bool(value & 1))
        r.set_flag(SR.V, False)
        r.set_nz(out, byte)
        self._store(register, address, out & mask, byte)

    def _op_swpb(self, insn: Instruction) -> None:
        value, register, address = self._eval_rmw(insn)
        out = ((value << 8) | (value >> 8)) & 0xFFFF
        self._store(register, address, out, insn.byte)

    def _op_sxt(self, insn: Instruction) -> None:
        value, register, address = self._eval_rmw(insn)
        out = value & 0xFF
        if out & 0x80:
            out |= 0xFF00
        r = self.regs
        r.set_nz(out, byte=False)
        r.set_flag(SR.C, out != 0)
        r.set_flag(SR.V, False)
        self._store(register, address, out, insn.byte)

    # format I -----------------------------------------------------------------
    def _op_mov(self, insn: Instruction) -> None:
        byte = insn.byte
        src = self._eval_source(insn.src, byte)
        op = insn.dst
        if op.mode is _M.REGISTER:
            # register fast path: no writeback bookkeeping at all
            self.regs.write(op.register,
                            src & 0xFF if byte else src & 0xFFFF)
            return
        address = self._effective_address(op)
        if byte:
            self.memory.write_byte(address, src)
        else:
            self.memory.write_word(address, src)

    def _op_add(self, insn: Instruction) -> None:
        byte = insn.byte
        src = self._eval_source(insn.src, byte)
        dst, register, address = self._eval_dest(insn.dst, byte, True)
        out = self._flags_add(src, dst, src + dst, byte)
        self._store(register, address, out, byte)

    def _op_addc(self, insn: Instruction) -> None:
        byte = insn.byte
        src = self._eval_source(insn.src, byte)
        dst, register, address = self._eval_dest(insn.dst, byte, True)
        out = self._flags_add(src, dst, src + dst + int(self.regs.carry),
                              byte)
        self._store(register, address, out, byte)

    def _op_sub(self, insn: Instruction) -> None:
        byte = insn.byte
        src = self._eval_source(insn.src, byte)
        dst, register, address = self._eval_dest(insn.dst, byte, True)
        out = self._flags_sub(src, dst, 1, byte)
        self._store(register, address, out, byte)

    def _op_subc(self, insn: Instruction) -> None:
        byte = insn.byte
        src = self._eval_source(insn.src, byte)
        dst, register, address = self._eval_dest(insn.dst, byte, True)
        out = self._flags_sub(src, dst, int(self.regs.carry), byte)
        self._store(register, address, out, byte)

    def _op_cmp(self, insn: Instruction) -> None:
        byte = insn.byte
        src = self._eval_source(insn.src, byte)
        dst, _register, _address = self._eval_dest(insn.dst, byte, True)
        self._flags_sub(src, dst, 1, byte)

    def _op_dadd(self, insn: Instruction) -> None:
        byte = insn.byte
        src = self._eval_source(insn.src, byte)
        dst, register, address = self._eval_dest(insn.dst, byte, True)
        r = self.regs
        out, carry = self._dadd(src, dst, int(r.carry), byte)
        r.set_flag(SR.C, bool(carry))
        r.set_nz(out, byte)
        self._store(register, address, out, byte)

    def _op_bit(self, insn: Instruction) -> None:
        byte = insn.byte
        src = self._eval_source(insn.src, byte)
        dst, _register, _address = self._eval_dest(insn.dst, byte, True)
        self._logic_flags(src & dst, byte)

    def _op_bic(self, insn: Instruction) -> None:
        byte = insn.byte
        mask = 0xFF if byte else 0xFFFF
        src = self._eval_source(insn.src, byte)
        dst, register, address = self._eval_dest(insn.dst, byte, True)
        self._store(register, address, dst & ~src & mask, byte)

    def _op_bis(self, insn: Instruction) -> None:
        byte = insn.byte
        mask = 0xFF if byte else 0xFFFF
        src = self._eval_source(insn.src, byte)
        dst, register, address = self._eval_dest(insn.dst, byte, True)
        self._store(register, address, (dst | src) & mask, byte)

    def _op_xor(self, insn: Instruction) -> None:
        byte = insn.byte
        mask = 0xFF if byte else 0xFFFF
        sign = 0x80 if byte else 0x8000
        src = self._eval_source(insn.src, byte)
        dst, register, address = self._eval_dest(insn.dst, byte, True)
        out = (dst ^ src) & mask
        self._logic_flags(out, byte,
                          overflow=bool(src & sign) and bool(dst & sign))
        self._store(register, address, out, byte)

    def _op_and(self, insn: Instruction) -> None:
        byte = insn.byte
        mask = 0xFF if byte else 0xFFFF
        src = self._eval_source(insn.src, byte)
        dst, register, address = self._eval_dest(insn.dst, byte, True)
        out = dst & src & mask
        self._logic_flags(out, byte)
        self._store(register, address, out, byte)


# -- instruction semantics: one template table ------------------------------
#
# Every fast-path instruction shape is defined once, as a source
# template over the raw register list ``r`` and the bus ``m`` whose
# ``{holes}`` are the instruction's constants (registers, immediates,
# addresses, width masks, a jump's target).  Superblock codegen pastes
# a template with its holes filled in as literals and expands its
# ``m.read_*``/``m.write_*`` calls into the inline probe, whose slow
# path calls the bus, so permissions, I/O dispatch and invalidation
# behave as in the ``Cpu._op_*`` handlers.  Those stay the independent
# oracle: ``step()`` and tier 0 run them, and tests/test_cpu_shapes.py
# checks every table key against them.  A shape outside the table
# (DADD, RETI, memory to memory, ...) has no template: superblocks end
# before it and ``step()`` runs its handler.  Temporaries use the
# ``_i*`` prefix so they never collide with generated code's own
# locals.  A flag update starts from ``r[2] & 0xFEF8``: SR with C, Z,
# N and V clear, collects the flags in ``_isr`` and ends with
# ``r[2] = _isr`` (how ``_Template`` tells a flag writer).

_JUMP_OPCODES = frozenset((
    Opcode.JMP, Opcode.JNE, Opcode.JEQ, Opcode.JNC,
    Opcode.JC, Opcode.JN, Opcode.JGE, Opcode.JL,
))

#: taken-condition expression per conditional jump, over the live SR
#: in ``r[2]``: the jump templates test it, and superblock codegen
#: inlines it for mid-trace exits and diamonds.
_JUMP_CONDS = {
    Opcode.JNE: "not r[2] & 2",
    Opcode.JEQ: "r[2] & 2",
    Opcode.JNC: "not r[2] & 1",
    Opcode.JC: "r[2] & 1",
    Opcode.JN: "r[2] & 4",
    Opcode.JGE: "not ((r[2] >> 2) ^ (r[2] >> 8)) & 1",
    Opcode.JL: "((r[2] >> 2) ^ (r[2] >> 8)) & 1",
}

#: a register read under the width mask: ``(r[{s}] & {mask})``, or
#: unparenthesized as a whole right-hand side or call argument
_REG_MASK = re.compile(r"\((r\[\{[sd]\}\]) & \{mask\}\)"
                       r"|(?<=[=,] )(r\[\{[sd]\}\]) & \{mask\}(?=\)|$)")

#: a template temporary's assignment (no bus call, no chained target)
_TEMP = re.compile(r"(_i[a-z]+) = (?!.*\bm\.)[^=]*$")


def _flag_free(lines: list) -> list:
    """``lines`` without the SR update and the temporaries only it
    read (a CMP or BIT keeps nothing)."""
    out = [line for line in lines if "_isr" not in line]
    while True:
        text = "\n".join(out)
        dead = [line for line in out
                if (temp := _TEMP.match(line)) is not None
                and len(re.findall(rf"\b{temp[1]}\b", text)) == 1]
        if not dead:
            return out
        out = [line for line in out if line not in dead]


class _Template:
    """One width of one table entry: source lines with ``{holes}``,
    and the facts superblock compilation reads instead of the text,
    derived once when the table is built:

    * ``mem`` ("" none, "r" reads memory, "w" writes memory) and
      ``pc`` (writes PC);
    * ``flags``: the template's SR update writes C, Z, N and V;
    * ``carry``: the template reads SR's flags (the carry-in of ADDC,
      SUBC and RRC, a jump's condition);
    * ``code``: the lines superblock code pastes, where a word
      template's register reads drop the width mask (a register holds
      16 bits);
    * ``free``: ``code`` without the SR update, for a step whose
      flags a later step overwrites unread (see :func:`_live_flags`).
    """

    __slots__ = ("lines", "mem", "pc", "flags", "carry", "code", "free")

    def __init__(self, text: str, mem: str, pc: bool, word: bool):
        self.lines = text.split("\n")
        self.mem = mem
        self.pc = pc
        self.flags = "r[2] = _isr" in self.lines
        self.carry = any(
            "r[2]" in line for line in self.lines
            if not line.startswith(("_isr = r[2] & 0xFEF8",
                                    "r[2] = _isr")))
        self.code = [_REG_MASK.sub(lambda m: m[1] or m[2], line)
                     for line in self.lines] if word else self.lines
        self.free = _flag_free(self.code) if self.flags else self.code

    def source(self, consts: dict, flags: bool) -> list:
        """The superblock lines with the instruction's constants as
        literals; without the SR update unless ``flags``."""
        return [line.format_map(consts)
                for line in (self.code if flags else self.free)]


#: (opcode, source shape, destination shape) -> (word template, byte
#: template or None).  Shapes: "R" register (as a destination R4-R15),
#: "PC"/"SP"/"SR" those registers as the destination, "K" immediate,
#: "X" indexed, "A" absolute or symbolic, "N" indirect, "P"
#: autoincrement, None no operand.  A format-II read-modify-write
#: operand (RRA, RRC, SWPB, SXT) is the destination; PUSH and CALL
#: take theirs as the source.
_TABLE: Dict[tuple, tuple] = {}


def _def(opcode, src, dst, text, byte=False, mem="", pc=False):
    """Enter one table key.  ``{w}`` in ``text`` is the access width
    ("word", "byte" in the byte form); ``byte`` is True for the same
    text in both widths, a separate byte text, or False when the shape
    has no byte form in the table."""
    if byte is True:
        byte = text.replace("{w}", "byte")
    _TABLE[(opcode, src, dst)] = (
        _Template(text.replace("{w}", "word"), mem, pc, True),
        _Template(byte, mem, pc, False) if byte else None)


_O = Opcode
_NZ = "if _io & {sign}: _isr |= 4\nelif _io == 0: _isr |= 2\n"


def _alu(opcode, src, load, store):
    """ADD/ADDC/SUB/SUBC/CMP and AND/BIT/XOR: the source into ``_ik``
    (or the constant ``{k}``), then the destination into ``_id`` via
    ``load``, the result ``_io`` written by ``store``; CMP and BIT
    only set flags."""
    k = "_ik" if src == "R" else "{k}"
    text = ("_ik = (r[{s}] & {mask})\n" if src == "R" else "") + load
    if opcode in (_O.AND, _O.BIT, _O.XOR):
        text += ("\n_io = _id %s %s\n_isr = r[2] & 0xFEF8\n"
                 "if _io: _isr |= 1\n" % ("^" if opcode is _O.XOR
                                          else "&", k) + _NZ)
        if opcode is _O.XOR:
            text += "if %s & {sign} and _id & {sign}: _isr |= 0x100\n" % k
    else:
        carry = " + (r[2] & 1)" if opcode in (_O.ADDC, _O.SUBC) else ""
        if opcode in (_O.ADD, _O.ADDC):
            add, ovf = k + carry, "~(%s ^ _id) & (%s ^ _io)" % (k, k)
        else:
            add = ("{nk1}" if src == "K" and not carry else
                   ("(~_ik & {mask})" if src == "R" else "{nk}")
                   + (carry or " + 1"))
            ovf = "(_id ^ %s) & (_id ^ _io)" % k
        text += ("\n_ix = _id + %s\n_io = _ix & {mask}\n"
                 "_isr = r[2] & 0xFEF8\nif _ix > {mask}: _isr |= 1\n"
                 % add + _NZ + "if %s & {sign}: _isr |= 0x100\n" % ovf)
    text += "r[2] = _isr"
    if opcode not in (_O.CMP, _O.BIT):
        text += "\n" + store
    return text


# jumps: the target is a constant of the instruction at its pc
_def(_O.JMP, None, None, "r[0] = {t}", pc=True)
for _op, _cond in _JUMP_CONDS.items():
    _def(_op, None, None, "if %s: r[0] = {t}" % _cond, pc=True)

# the stack: SP moves before the store, so a faulting push leaves it
# moved, and PUSH SP stores the moved SP; PUSH.B stores a word.  CALL
# takes its target before the push and pushes the deferred PC
_PUSH = "_ia = r[1] = (r[1] - 2) & 0xFFFF\nm.write_word(_ia, "
_def(_O.PUSH, "R", None, _PUSH + "r[{s}] & {mask})", True, "w")
_def(_O.PUSH, "K", None, _PUSH + "{k})", True, "w")
_def(_O.CALL, "K", None, _PUSH + "r[0])\nr[0] = {t}", mem="w", pc=True)
_def(_O.CALL, "R", None, "_it = r[{s}] & 0xFFFE\n" + _PUSH
     + "r[0])\nr[0] = _it", mem="w", pc=True)

# format-II read-modify-write on R4-R15
_def(_O.SWPB, None, "R",
     "_iv = r[{d}]\nr[{d}] = (_iv << 8 | _iv >> 8) & 0xFFFF")
_ROTATE = ("_iv = r[{d}] & {mask}\n_io = (_iv >> 1) | (%s)\n"
           "_isr = r[2] & 0xFEF8 | (_iv & 1)\n" + _NZ
           + "r[2] = _isr\nr[{d}] = _io")
_def(_O.RRA, None, "R", _ROTATE % "_iv & {sign}", True)
_def(_O.RRC, None, "R", _ROTATE % "{sign} if r[2] & 1 else 0", True)
_def(_O.SXT, None, "R",
     "_io = r[{d}] & 0xFF\nif _io & 0x80: _io |= 0xFF00\n"
     "_isr = r[2] & 0xFEF8\nif _io: _isr |= 1\n" + _NZ
     + "r[2] = _isr\nr[{d}] = _io")

# MOV into a register.  PC and SP writes clear bit 0, and an
# autoincrement reads before it bumps the pointer (a faulting read
# leaves it), keeping SP even ({am}): SP bit 0 is not implemented
_SOURCES = {"X": "(r[{s}] + {off}) & 0xFFFF", "A": "{a}", "N": "r[{s}]"}
_POP = "_ia = r[{s}]\n_iv = m.read_{w}(_ia)\nr[{s}] = (_ia + {inc}) & {am}\n"
_def(_O.MOV, "R", "R", "r[{d}] = (r[{s}] & {mask})", True)
_def(_O.MOV, "K", "R", "r[{d}] = {k}", True)
_def(_O.MOV, "P", "R", _POP + "r[{d}] = _iv", True, "r")
_def(_O.MOV, "K", "PC", "r[0] = {t}", pc=True)
_def(_O.MOV, "R", "PC", "r[0] = r[{s}] & 0xFFFE", pc=True)
_def(_O.MOV, "P", "PC", _POP + "r[0] = _iv & 0xFFFE", mem="r", pc=True)
_def(_O.MOV, "K", "SP", "r[1] = {t}")
_def(_O.MOV, "R", "SP", "r[1] = r[{s}] & 0xFFFE")
for _src, _at in _SOURCES.items():
    _def(_O.MOV, _src, "R", "r[{d}] = m.read_{w}(%s)" % _at, True, "r")
    _def(_O.MOV, _src, "PC", "r[0] = m.read_word(%s) & 0xFFFE" % _at,
         mem="r", pc=True)
    if _src != "N":
        _def(_O.MOV, _src, "SP",
             "r[1] = m.read_word(%s) & 0xFFFE" % _at, mem="r")

# arithmetic and logic into R4-R15, SP adjusts, and CLRC/SETC-style
# SR twiddling (BIC/BIS set no flags, so the write is the whole effect)
for _src in "RK":
    for _op in (_O.ADD, _O.ADDC, _O.SUB, _O.SUBC, _O.CMP,
                _O.AND, _O.BIT, _O.XOR):
        _def(_op, _src, "R", _alu(_op, _src, "_id = r[{d}] & {mask}",
                                  "r[{d}] = _io"), True)
    for _op in (_O.ADD, _O.SUB):
        _def(_op, _src, "SP", _alu(_op, _src, "_id = r[{d}] & {mask}",
                                   "r[{d}] = _io & 0xFFFE"))
    for _dst, _byte in (("R", True), ("SR", False)):
        _def(_O.BIS, _src, _dst, "r[{d}] = (r[{d}] & {mask}) | "
             + ("(r[{s}] & {mask})" if _src == "R" else "{k}"), _byte)
        _def(_O.BIC, _src, _dst, "r[{d}] = (r[{d}] & {mask}) & "
             + ("~(r[{s}] & {mask}) & {mask}" if _src == "R"
                else "{nk}"), _byte)

# register or immediate into memory: MOV, word ADD (the global-counter
# increment) and CMP (the poll-a-variable idiom)
for _dst, _at in (("X", "(r[{dr}] + {off}) & 0xFFFF"), ("A", "{a}")):
    _def(_O.MOV, "R", _dst, "m.write_word(%s, r[{s}])" % _at,
         "m.write_byte(%s, r[{s}] & 0xFF)" % _at, "w")
    _def(_O.MOV, "K", _dst, "m.write_{w}(%s, {k})" % _at, True, "w")
    _pre, _ia = ("_ia = %s\n" % _at, "_ia") if _dst == "X" else ("", _at)
    for _src in "RK":
        _def(_O.ADD, _src, _dst, _pre + _alu(
            _O.ADD, _src, "_id = m.read_word(%s)" % _ia,
            "m.write_word(%s, _io)" % _ia), mem="w")
        _def(_O.CMP, _src, _dst, _pre + _alu(
            _O.CMP, _src, "_id = m.read_{w}(%s)" % _ia, ""), True, "r")


def _shape(op: Optional[Operand], consts: dict, byte: bool,
           dst: bool) -> Optional[str]:
    """An operand's table shape; records its constants in ``consts``."""
    if op is None:
        return None
    mode = op.mode
    if mode is _M.REGISTER:
        if dst:
            consts["d"] = op.register
            return ("PC", "SP", "SR", "CG2")[op.register] \
                if op.register < 4 else "R"
        consts["s"] = op.register
        return "R"
    if mode is _M.IMMEDIATE:
        k = op.value & consts["mask"]
        nk = ~k & consts["mask"]
        consts.update(k=k, nk=nk, nk1=nk + 1, t=op.value & 0xFFFE)
        return "K"
    if mode is _M.INDEXED:
        consts["dr" if dst else "s"] = op.register
        consts["off"] = op.value
        return "X"
    if mode is _M.ABSOLUTE or mode is _M.SYMBOLIC:
        consts["a"] = op.value & 0xFFFF
        return "A"
    consts["s"] = op.register
    if mode is _M.INDIRECT:
        return "N"
    consts["inc"] = 1 if byte else 2
    consts["am"] = 0xFFFE if op.register == 1 else 0xFFFF
    return "P"


def _form(insn: Instruction, pc: int):
    """``(template, constants)`` executing ``insn`` at ``pc``, or None
    when the table has no entry for its shape."""
    opcode = insn.opcode
    byte = insn.byte
    mask = 0xFF if byte else 0xFFFF
    consts = {"mask": mask, "sign": 0x80 if byte else 0x8000}
    if opcode in _JUMP_OPCODES:
        consts["t"] = (pc + 2 + 2 * insn.offset) & 0xFFFF
        key = (opcode, None, None)
    elif insn.dst is None and opcode is not _O.PUSH \
            and opcode is not _O.CALL:
        key = (opcode, None, _shape(insn.src, consts, byte, True))
    else:
        key = (opcode, _shape(insn.src, consts, byte, False),
               _shape(insn.dst, consts, byte, True))
    entry = _TABLE.get(key)
    template = None if entry is None else entry[byte]
    return None if template is None else (template, consts)


def _hits_io(op: Optional[Operand], io_ports: frozenset) -> bool:
    """Does this operand statically address a registered I/O port?
    Used by the superblock compiler to end blocks at kernel gates,
    MPU registers, and timer reads: such an instruction is its
    block's final step, checked like a store, so ``run`` re-checks
    its guards right after it.  (I/O is word-registered, so compare
    the word-aligned address, matching the bus's dispatch.)"""
    return (op is not None
            and (op.mode is _M.ABSOLUTE or op.mode is _M.SYMBOLIC)
            and (op.value & 0xFFFE) in io_ports)


#: Opcode -> Cpu handler method name; resolved to bound methods once
#: per instance in ``Cpu.__init__`` (the precomputed dispatch table).
_HANDLER_NAMES: Dict[Opcode, str] = {
    Opcode.JMP: "_op_jmp", Opcode.JNE: "_op_jne",
    Opcode.JEQ: "_op_jeq", Opcode.JNC: "_op_jnc",
    Opcode.JC: "_op_jc", Opcode.JN: "_op_jn",
    Opcode.JGE: "_op_jge", Opcode.JL: "_op_jl",
    Opcode.RETI: "_op_reti", Opcode.PUSH: "_op_push",
    Opcode.CALL: "_op_call", Opcode.RRA: "_op_rra",
    Opcode.RRC: "_op_rrc", Opcode.SWPB: "_op_swpb",
    Opcode.SXT: "_op_sxt",
    Opcode.MOV: "_op_mov", Opcode.ADD: "_op_add",
    Opcode.ADDC: "_op_addc", Opcode.SUB: "_op_sub",
    Opcode.SUBC: "_op_subc", Opcode.CMP: "_op_cmp",
    Opcode.DADD: "_op_dadd", Opcode.BIT: "_op_bit",
    Opcode.BIC: "_op_bic", Opcode.BIS: "_op_bis",
    Opcode.XOR: "_op_xor", Opcode.AND: "_op_and",
}
