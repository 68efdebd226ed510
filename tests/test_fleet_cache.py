"""Shared execution cache and delta checkpoints.

The fleet-scale cache story makes three promises, each pinned here:

* **Mode transparency** — every device's telemetry record and
  checkpoint bytes are identical whether devices share one
  process-wide translation store, keep private caches, or run the
  one-instruction reference interpreter.
* **Divergence isolation** — a device that rewrites its own code
  recompiles privately; a clean sibling attached to the same store
  keeps executing the original translation, unaffected.
* **Delta checkpoints** — snapshots serialize only pages that differ
  from the per-firmware base image and reconstruct exactly, even when
  the restoring process already holds a warm shared cache.
"""

import hashlib
import json
import pickle

import pytest

from repro.aft.models import IsolationModel
from repro.errors import ReproError
from repro.fleet.device import CACHE_MODES, make_device, \
    simulate_device
from repro.fleet.executor import FleetConfig
from repro.fleet.population import device_spec
from repro.fleet.snapshot import DELTA_PAGE, apply_delta, \
    checkpoint_bytes, memory_delta, restore_device, snapshot_device
from repro.fleet.telemetry import MODELS_BY_KEY, device_record
from repro.msp430 import execcache
from repro.msp430.cpu import Cpu
from repro.msp430.encoding import encode_bytes
from repro.msp430.execcache import MAX_VARIANTS, \
    SharedExecutionCache, clear_registry, image_digest, \
    shared_execution_cache
from repro.msp430.isa import Instruction, Opcode, absolute, imm, reg
from repro.pool import worker_pool
from repro.ports import DONE_PORT

#: rogue-heavy and two models, so wild-pointer devices run next to
#: clean siblings under both containment and free memory corruption
_CAMPAIGN = dict(devices=3, hours=0.002, models=("mpu", "none"),
                 seed=7, checkpoint_minutes=0.05, rogue_fraction=0.6)

CODE = 0x4400


def _device_outputs(cache_mode):
    """Every device × model of the campaign through ``simulate_device``
    under one cache mode: each device's record and the bytes of every
    checkpoint it took, keyed by ``(model, device)``."""
    config = FleetConfig(**_CAMPAIGN)
    outputs = {}
    for model_key in config.models:
        for device_id in range(config.devices):
            spec = device_spec(config.seed, device_id,
                               config.rogue_fraction)
            checkpoints = []
            run = simulate_device(
                spec, MODELS_BY_KEY[model_key], sim_ms=config.sim_ms,
                checkpoint_every_ms=config.checkpoint_ms,
                on_checkpoint=lambda _ms, snapshot: checkpoints.append(
                    checkpoint_bytes(config.key(), device_id, snapshot)),
                cache_mode=cache_mode)
            outputs[model_key, device_id] = (
                device_record(run, model_key), checkpoints)
    return outputs


class TestCacheModeTransparency:
    def test_summary_identical_across_cache_modes(self):
        """Every per-device record — the summary is a fold of them —
        and every checkpoint's bytes are identical for shared / private
        / step execution: caching is purely a speed knob."""
        clear_registry()
        outputs = {mode: _device_outputs(mode) for mode in CACHE_MODES}
        assert outputs["shared"] == outputs["private"] == \
            outputs["step"]
        assert all(checkpoints for _record, checkpoints
                   in outputs["shared"].values())
        # not vacuous: the shared run really did cross-device sharing
        pulls = sum(store.block_pulls + store.page_pulls
                    for store in execcache._REGISTRY.values())
        assert pulls > 0

    def test_unknown_cache_mode_rejected(self):
        spec = device_spec(1, 0)
        with pytest.raises(ReproError, match="cache mode"):
            make_device(spec, IsolationModel.MPU, cache_mode="turbo")


def _loaded_cpu(store, delta=3):
    """A halting three-instruction program; ``delta`` parameterizes
    the ADD immediate so callers can mint distinct code bytes."""
    cpu = Cpu()
    cpu.regs.sp = 0x2400
    cpu.memory.add_io(DONE_PORT, write=lambda a, v: cpu.halt())
    cpu.attach_shared_cache(store)
    program = [
        Instruction(Opcode.MOV, src=imm(0x1111), dst=reg(5)),
        Instruction(Opcode.ADD, src=imm(delta), dst=reg(5)),
        Instruction(Opcode.MOV, src=imm(1), dst=absolute(DONE_PORT)),
    ]
    address = CODE
    for insn in program:
        blob = encode_bytes(insn, address)
        cpu.memory.load(address, blob)
        address += len(blob)
    return cpu


def _run_to_halt(cpu):
    cpu.halted = False
    cpu.regs.pc = CODE
    cpu.regs.write(5, 0)
    cpu.run(max_cycles=10_000)
    assert cpu.halted
    return cpu.regs.read(5)


class TestSharedStoreMechanics:
    def test_sibling_pulls_published_translation(self):
        store = SharedExecutionCache()
        assert _run_to_halt(_loaded_cpu(store)) == 0x1114
        assert store.publishes > 0
        pulls_before = store.block_pulls + store.page_pulls
        assert _run_to_halt(_loaded_cpu(store)) == 0x1114
        assert store.block_pulls + store.page_pulls > pulls_before

    def test_self_modifying_device_diverges_privately(self):
        """One device rewrites its own ADD immediate mid-life; its next
        run executes the new code, while a clean sibling sharing the
        store keeps the original translation and the original result."""
        store = SharedExecutionCache()
        clean = _loaded_cpu(store)
        dirty = _loaded_cpu(store)
        assert _run_to_halt(clean) == 0x1114
        assert _run_to_halt(dirty) == 0x1114

        # the ADD's extension word (its immediate) sits 2 bytes past
        # the 4-byte MOV: rewrite 3 -> 5 through the device's own bus,
        # which pops the private translation via the write hooks
        dirty.memory.write_word(CODE + 6, 5)
        assert _run_to_halt(dirty) == 0x1116
        assert _run_to_halt(clean) == 0x1114      # sibling unaffected
        # the divergent bytes were published as a *new* variant; the
        # original variant is still first in the list
        rejects_or_variants = (len(store.blocks.get(CODE, []))
                               + len(store.pages))
        assert rejects_or_variants > 0

    def test_variant_cap_stops_publishing(self):
        """A device minting endless distinct code bytes at one PC fills
        the variant list to MAX_VARIANTS and then publishes nothing
        more (rejects counted), so rogue self-modification can't grow
        the store without bound."""
        store = SharedExecutionCache()
        for n in range(MAX_VARIANTS + 3):
            cpu = _loaded_cpu(store, delta=n + 1)
            assert _run_to_halt(cpu) == (0x1111 + n + 1) & 0xFFFF
        assert len(store.blocks[CODE]) == MAX_VARIANTS
        assert store.rejects > 0

    def test_registry_keyed_by_port_wiring(self):
        clear_registry()
        a = shared_execution_cache([0x100, 0x102])
        b = shared_execution_cache([0x102, 0x100])   # order-free
        c = shared_execution_cache([0x100, 0x104])
        assert a is b and a is not c
        clear_registry()
        assert shared_execution_cache([0x100, 0x102]) is not a


class TestDeltaCheckpoints:
    def test_delta_round_trip_and_minimality(self):
        base = bytes(range(256)) * 256               # 64 KB
        image = bytearray(base)
        image[10] ^= 0xFF                            # page 0
        image[DELTA_PAGE * 7 + 3] ^= 0x01            # page 7
        image[DELTA_PAGE * 7 + 200] ^= 0x80          # page 7 again
        delta = memory_delta(bytes(image), base)
        assert sorted(delta) == [0, DELTA_PAGE * 7]
        assert apply_delta(base, delta) == bytes(image)

    def test_identical_image_has_empty_delta(self):
        base = bytes(65536)
        assert memory_delta(base, base) == {}
        assert apply_delta(base, {}) == base

    def test_snapshot_is_delta_form_and_small(self):
        spec = device_spec(11, 3)
        run = simulate_device(spec, IsolationModel.MPU, sim_ms=30_000)
        assert run.scheduler.stats.events_delivered > 0
        snapshot = snapshot_device(run.machine, run.scheduler, 30_000)
        memory = snapshot["machine"]["memory"]
        assert memory["base_sha"] == run.machine.base_sha
        assert "bytes" not in memory
        # a duty-cycled device dirties a small fraction of 256 pages
        assert 0 < len(memory["delta"]) < 128
        assert len(pickle.dumps(snapshot)) < 40_000  # vs ~70 KB full

    def test_full_form_memory_still_accepted(self):
        """Tools and old tests may hand restore_device a full image;
        the delta layer must pass it through untouched."""
        spec = device_spec(11, 3)
        run = simulate_device(spec, IsolationModel.NO_ISOLATION,
                              sim_ms=500)
        snapshot = snapshot_device(run.machine, run.scheduler, 500)
        full = dict(snapshot["machine"])
        full["memory"] = {
            "bytes": apply_delta(run.machine.base_image,
                                 snapshot["machine"]["memory"]["delta"]),
        }
        snapshot = {**snapshot, "machine": full}
        machine, scheduler, _rogue = make_device(
            spec, IsolationModel.NO_ISOLATION)
        restore_device(machine, scheduler, snapshot)
        assert machine.state_dict() == run.machine.state_dict()

    def test_image_digest_matches_machine_base_sha(self):
        spec = device_spec(11, 3)
        machine, _scheduler, _rogue = make_device(
            spec, IsolationModel.MPU)
        assert machine.base_sha == image_digest(machine.base_image)


def _digest(run) -> str:
    blob = json.dumps((run.machine.state_dict(),
                       run.scheduler.state_dict()),
                      sort_keys=True,
                      default=lambda b: b.hex())
    return hashlib.sha256(blob.encode()).hexdigest()


def _warm_then_resume(spec, model, snapshot, sim_ms,
                      checkpoint_ms) -> str:
    """Worker entry point: warm this process's shared store with a
    full sibling run of the *same firmware*, then restore the snapshot
    into a machine that adopts those warm translations."""
    simulate_device(spec, model, sim_ms=sim_ms)
    run = simulate_device(spec, model, sim_ms=sim_ms,
                          checkpoint_every_ms=checkpoint_ms,
                          resume=snapshot)
    return _digest(run)


class TestRestoreIntoWarmCache:
    def test_restore_with_warm_shared_cache_is_byte_identical(self):
        """Regression: a restored device that pulls already-published
        superblocks (instead of translating privately from its
        restored memory) must still end bit-for-bit where the
        uninterrupted run ends."""
        spec = device_spec(23, 5, rogue_fraction=1.0)
        model = IsolationModel.MPU
        sim_ms, checkpoint_ms = 3000, 1100

        captured = []
        run = simulate_device(
            spec, model, sim_ms=sim_ms,
            checkpoint_every_ms=checkpoint_ms,
            on_checkpoint=lambda t, snap:
            captured.append(snap) if not captured else None)
        assert captured

        with worker_pool(2) as pool:
            resumed = pool.submit(_warm_then_resume, spec, model,
                                  captured[0], sim_ms,
                                  checkpoint_ms).result()
        assert resumed == _digest(run)
