"""Every instruction-semantics template, run three ways.

The template table in :mod:`repro.msp430.cpu` is what superblock
codegen pastes for an instruction; the ``Cpu._op_*`` handlers, which
``step()`` and tier 0 run, are its only other definition.  This
module walks the table, instantiates every key in byte and word form
where the table has one, and runs each instance from a seeded random
state as

* **tier 0**: a superblock compiled at the instruction and left
  without generated code, so ``run`` walks its steps through the
  handlers (``_interp_block``),
* **generated code**: the same superblock, with
  codegen forced before its first dispatch, once as this host emits
  it and once with the byte-pair word spelling a big-endian host
  uses, and
* the **oracle**: step-only mode, which runs the ``Cpu._op_*``
  handlers.

Each instance runs after one ``ADD R9, R10``, so in generated code
the instruction shares its block with an ALU template: a generated
local that reuses a template temporary's name (``_io``, ``_isr``, ...)
corrupts the access after it.  All sixteen registers, the 64 KB
image, cycles, instructions, the MPU violation record and the fault's
(kind, pc, address) must agree, so the partial-update order of a
faulting access is pinned too.  Memory
operands land in in-bounds SRAM (even and odd) and FRAM, the unmapped
hole between them, an MPU-denied segment, an MPU register and the
instruction's own code page.  Everything after the
instruction is zero, so each run ends with a decode fault at the next
PC (or with the instruction budget, for a self-loop).
"""

import random
from unittest import mock

import pytest

from repro.errors import EncodingError
from repro.msp430 import cpu as cpu_module
from repro.msp430.cpu import Cpu, CpuFault, ExecutionLimitExceeded, \
    _TABLE, _block_source, _codegen, _form
from repro.msp430.decoder import decode_bytes
from repro.msp430.encoding import encode_bytes
from repro.msp430.isa import Instruction, Opcode, absolute, \
    autoincrement, imm, indexed, indirect, reg, symbolic
from repro.msp430.memory import Memory, MemoryMap
from repro.msp430.mpu import Mpu, MpuConfig, SegmentPermissions

CODE = 0x4400

#: in-bounds SRAM (even, odd), FRAM, the SRAM-FRAM hole, MPU-denied,
#: a registered I/O port (MPUCTL0) and the code's own 64-byte page.
#: Generated code accesses the in-bounds ones inline; the hole, the
#: denied segment, the port and a store onto the code page go through
#: its slow path to the bus
ADDRESSES = (0x2000, 0x2001, 0x6000, 0x3000, 0x8000, 0x05A0, 0x4420)
IMMEDIATES = (0, 1, 0x7F, 0x80, 0xFF, 0x7FFF, 0x8000, 0xFFFF)
#: register sources the decoder produces (R3 decodes as constant 0)
SOURCES = (0, 1, 2, 4, 9, 15)
DESTINATIONS = (4, 9, 15)
#: pointer registers for X(Rn), @Rn and @Rn+ (SP included)
POINTERS = (1, 6, 12)
OFFSETS = (0, 2, 0xFFFE)
#: self-loop, next instruction, forward, and into the unmapped hole
JUMP_OFFSETS = (-1, 0, 3, -0x200)

_RWX = SegmentPermissions(True, True, True)
_MPU = MpuConfig(0x8000, 0x9000, _RWX, SegmentPermissions(), _RWX)

#: random states per instance
STATES = 2

#: runs before every instance, binding the ALU templates' temporaries
PREFIX = Instruction(Opcode.ADD, src=reg(9), dst=reg(10))


def _pointer(i, address):
    """A pointer register for ``address`` that can hold it (SP is
    always even)."""
    pointer = POINTERS[i % len(POINTERS)]
    return 6 if pointer == 1 and address & 1 else pointer


def _variants(shape, dst):
    """``(operand, register presets)`` choices for one shape."""
    if shape is None:
        return [(None, {})]
    if shape == "R":
        return [(reg(n), {}) for n in (DESTINATIONS if dst else SOURCES)]
    if shape in ("PC", "SP", "SR"):
        return [(reg(("PC", "SP", "SR").index(shape)), {})]
    if shape == "K":
        return [(imm(value), {}) for value in IMMEDIATES]
    out = []
    for i, address in enumerate(ADDRESSES):
        pointer = _pointer(i, address)
        if shape == "X":
            offset = OFFSETS[i % len(OFFSETS)]
            out.append((indexed(offset, pointer),
                        {pointer: (address - offset) & 0xFFFF}))
        elif shape == "A":
            operand = absolute if i % 2 else symbolic
            out.append((operand(address), {}))
        elif shape == "N":
            out.append((indirect(pointer), {pointer: address}))
        else:                                  # "P"
            out.append((autoincrement(pointer), {pointer: address}))
    if shape == "N":
        out.append((indirect(0), {}))          # @PC: the next word
    return out


def _instances(key, byte):
    """Every ``(instruction, register presets)`` built for ``key``."""
    opcode, src, dst = key
    if opcode.is_jump:
        if byte:
            return                             # jumps have no width
        for offset in JUMP_OFFSETS:
            yield Instruction(opcode, offset=offset), {}
        return
    if opcode.is_format2 and src is None:      # RRA RRC SWPB SXT
        for operand, presets in _variants(dst, True):
            yield Instruction(opcode, byte=byte, src=operand), presets
        return
    sources = _variants(src, False)
    dests = _variants(dst, True)
    count = max(len(sources), len(dests))
    for i in range(count):
        (s, s_presets), (d, d_presets) = \
            sources[i % len(sources)], dests[i % len(dests)]
        presets = {**s_presets, **d_presets}
        if opcode in (Opcode.PUSH, Opcode.CALL):
            # the stack is this shape's memory operand
            presets[1] = (ADDRESSES[i % len(ADDRESSES)] & 0xFFFE) + 2
        yield Instruction(opcode, byte=byte, src=s, dst=d), presets


def _machine(code, presets, seed, block_mode):
    memory = Memory()
    mpu = Mpu()
    mpu.attach(memory)
    mpu.configure(_MPU)
    cpu = Cpu(memory)
    cpu.block_mode = block_mode
    rnd = random.Random(seed)
    memory.load(MemoryMap.SRAM_START, rnd.randbytes(
        MemoryMap.SRAM_END + 1 - MemoryMap.SRAM_START))
    memory.load(0x6000, rnd.randbytes(64))
    memory.load(CODE, code)
    regs = cpu.regs
    for n in range(16):
        regs.write(n, rnd.randrange(0x10000))
    regs.write(1, 0x2100 + 2 * rnd.randrange(0x100))
    for n, value in presets.items():
        regs.write(n, value)
    regs.pc = CODE
    return cpu, mpu


def _run(mode, code, presets, seed):
    cpu, mpu = _machine(code, presets, seed, mode != "oracle")
    if mode != "oracle":
        cpu.memory._refresh_permissions()
        block = cpu._compile_block(CODE)
        assert block is not None and block.steps[0][0] == CODE
        assert len(block.steps) > 1, "the instance left the block"
        if mode == "codegen-byte-pairs":
            with mock.patch.object(cpu_module, "_WORD_VIEW", False):
                block.fn = _codegen(block)
                assert "_w[" not in _block_source(block)
        elif mode == "codegen":
            block.fn = _codegen(block)
    try:
        cpu.run(max_instructions=8)
        outcome = ("halted",)
    except ExecutionLimitExceeded:
        outcome = ("limit",)
    except CpuFault as fault:
        outcome = (fault.kind, fault.pc, fault.address)
    if mode == "tier0":
        assert block.fn is None, "the block left tier 0"
    return (outcome, tuple(cpu.regs), cpu.cycles, cpu.instructions,
            mpu.ctl1, mpu.violation_address, mpu.violation_kind,
            cpu.memory._bytes)


def _check(insn, presets, seed):
    prefix = encode_bytes(PREFIX, CODE)
    code = prefix + encode_bytes(insn, CODE + len(prefix))
    oracle = _run("oracle", code, presets, seed)
    for mode in ("tier0", "codegen", "codegen-byte-pairs"):
        got = _run(mode, code, presets, seed)
        if got != oracle:
            fields = ("outcome", "registers", "cycles", "instructions",
                      "mpu ctl1", "violation address", "violation kind",
                      "memory")
            bad = next(name for name, a, b in zip(fields, got, oracle)
                       if a != b)
            detail = ""
            if bad == "memory":
                at = next(i for i in range(0x10000)
                          if got[-1][i] != oracle[-1][i])
                detail = f" first at 0x{at:04X}"
            else:
                detail = (f": {mode}={got[fields.index(bad)]!r} "
                          f"oracle={oracle[fields.index(bad)]!r}")
            pytest.fail(f"{insn.render()} {presets} seed {seed}: "
                        f"{mode} differs in {bad}{detail}")


@pytest.mark.parametrize(
    "key", sorted(_TABLE, key=repr),
    ids=lambda key: "-".join(str(part) if not hasattr(part, "name")
                             else part.name for part in key))
def test_template_agrees_with_oracle(key):
    seed = 0
    for byte, template in enumerate(_TABLE[key]):
        if template is None:
            continue
        for insn, presets in _instances(key, bool(byte)):
            for _ in range(STATES):
                seed += 1
                _check(insn, presets, seed)


def test_instances_cover_every_table_key():
    exercised = set()
    for key, (word, narrow) in _TABLE.items():
        for byte, template in ((False, word), (True, narrow)):
            try:
                instances = list(_instances(key, byte))
            except EncodingError:
                assert template is None, (key, byte)
                continue
            for insn, _ in instances:
                decoded, _ = decode_bytes(encode_bytes(insn, CODE), CODE)
                form = _form(decoded, CODE)
                if template is None:
                    # no byte form in the table: step() runs _op_*
                    assert form is None, (key, insn.render())
                    continue
                assert form is not None and form[0] is template, \
                    (key, insn.render())
                exercised.add(key)
    assert exercised == set(_TABLE)

