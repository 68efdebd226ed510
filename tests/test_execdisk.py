"""Persistent on-disk execution cache (the translation cache's third
tier, after per-CPU private caches and the process-wide shared store).

Promises pinned here:

* **Warm-start equivalence** — a fresh process that revives compiled
  superblocks from disk ends bit-for-bit where a cold process that
  translated everything itself ends.
* **Bounded and self-limiting** — stores are LRU-pruned to the
  ``REPRO_EXEC_CACHE_MAX_MB`` budget, and the per-PC variant cap holds
  on disk exactly as it does in memory.
* **Fail-closed ingestion** — corrupted, truncated, or hand-crafted
  hostile records are detected and skipped (and at worst cost a
  re-translation; :mod:`tests.tier_matrix` runs the same hostile
  inputs over every disk tier); a rogue device cannot use the shared
  store file to alter what a clean device computes.
"""

import hashlib
import json
import marshal
import os

from repro.fleet.device import simulate_device
from repro.fleet.population import device_spec
from repro.fleet.telemetry import MODELS_BY_KEY
from repro.framestore import StoreLayout
from repro.msp430 import execcache
from repro.msp430.cpu import _block_from_record
from repro.msp430.cycles import instruction_cycles
from repro.msp430.encoding import encode_bytes
from repro.msp430.execcache import (
    LAYOUT,
    MAX_VARIANTS,
    DiskTier,
    clear_registry,
    shared_execution_cache,
)
from repro.msp430.isa import Instruction, Opcode, reg
from repro.pool import worker_pool
from tests.tier_matrix import AppendTierMatrix

#: long enough that hot superblocks pass the tier-up threshold and
#: are code-generated — which is what gets published to disk
SIM_MS = 20_000


def _digest(run) -> str:
    blob = json.dumps((run.machine.state_dict(),
                       run.scheduler.state_dict()),
                      sort_keys=True,
                      default=lambda b: b.hex())
    return hashlib.sha256(blob.encode()).hexdigest()


def _sim_in_fresh_store(cache_dir, device_id=3, seed=11):
    """Worker entry point: point the exec cache at ``cache_dir``,
    drop inherited in-memory stores, run one device, and report the
    architectural digest plus the disk tier's counters."""
    os.environ["REPRO_EXEC_CACHE_DIR"] = str(cache_dir)
    clear_registry()
    spec = device_spec(seed, device_id)
    run = simulate_device(spec, MODELS_BY_KEY["mpu"], sim_ms=SIM_MS)
    disk = [store.disk.stats()
            for store in execcache._REGISTRY.values()
            if store.disk is not None]
    return _digest(run), disk


def _fresh_process(fn, *args):
    """Run ``fn`` in a newly forked worker — a process whose in-memory
    caches are exactly the (empty-registry) parent's, so any warmth
    must have come from disk."""
    with worker_pool(2) as pool:
        return pool.submit(fn, *args).result()


class TestWarmStart:
    def test_cold_then_warm_fresh_process_byte_identical(self,
                                                         tmp_path):
        clear_registry()          # parent registry stays cold
        cold_digest, cold_disk = _fresh_process(
            _sim_in_fresh_store, tmp_path)
        assert sum(d["published"] for d in cold_disk) > 0
        assert list(tmp_path.glob("*.sbx"))

        warm_digest, warm_disk = _fresh_process(
            _sim_in_fresh_store, tmp_path)
        assert warm_digest == cold_digest
        # the warm process really revived translations from disk
        assert sum(d["loaded"] for d in warm_disk) > 0
        assert all(d["corrupt"] == 0 for d in warm_disk)

    def test_disable_knob_gives_memory_only_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_CACHE", "0")
        clear_registry()
        assert shared_execution_cache([0x100]).disk is None
        monkeypatch.setenv("REPRO_EXEC_CACHE", "")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        clear_registry()
        assert shared_execution_cache([0x100]).disk is None
        clear_registry()


def _record(pc, code, payload=b"x" * 64):
    return {"pc": pc, "code": code, "filler": payload}


class TestPrune:
    def test_lru_prune_evicts_oldest_first(self, tmp_path):
        for n in range(4):
            path = tmp_path / f"store{n}.sbx"
            path.write_bytes(b"y" * 1000)
            os.utime(path, (1_000_000 + n, 1_000_000 + n))
        removed = LAYOUT.prune(tmp_path, max_bytes=2500)
        assert removed == 2
        assert sorted(p.name for p in tmp_path.glob("*.sbx")) == \
            ["store2.sbx", "store3.sbx"]

    def test_keep_file_survives_even_when_oldest(self, tmp_path):
        keep = tmp_path / "live.sbx"
        for n, name in enumerate(["live.sbx", "b.sbx", "c.sbx"]):
            path = tmp_path / name
            path.write_bytes(b"y" * 1000)
            os.utime(path, (1_000_000 + n, 1_000_000 + n))
        LAYOUT.prune(tmp_path, max_bytes=1000, keep=keep)
        assert keep.exists()

    def test_zero_budget_means_unbounded(self, tmp_path):
        (tmp_path / "a.sbx").write_bytes(b"y" * 1000)
        assert LAYOUT.prune(tmp_path, max_bytes=0) == 0

    def test_budget_env_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_CACHE_MAX_MB", "2")
        assert LAYOUT.max_bytes() == 2 * 1024 * 1024
        monkeypatch.setenv("REPRO_EXEC_CACHE_MAX_MB", "nonsense")
        assert LAYOUT.max_bytes() == 64 * 1024 * 1024

    def test_publish_prunes_under_tiny_budget(self, tmp_path,
                                              monkeypatch):
        """End to end: with a budget smaller than one store, every
        publish prunes sibling stores but keeps its own append-target
        alive."""
        monkeypatch.setenv("REPRO_EXEC_CACHE_MAX_MB", "0.001")
        stale = tmp_path / "stale.sbx"
        stale.write_bytes(b"y" * 4096)
        os.utime(stale, (1_000_000, 1_000_000))
        tier = DiskTier(tmp_path / "live.sbx")
        for n in range(8):
            tier.publish(_record(0x4400 + 2 * n, bytes([n]) * 8,
                                 payload=b"z" * 512))
        assert not stale.exists()
        assert tier.path.exists()
        assert tier.published == 8

    @staticmethod
    def _count_scans(monkeypatch):
        scans = []
        by_age = StoreLayout._by_age

        def counting(layout, directory):
            scans.append(directory)
            return by_age(layout, directory)
        monkeypatch.setattr(StoreLayout, "_by_age", counting)
        return scans

    def test_small_publishes_under_a_large_budget_scan_once(
            self, tmp_path, monkeypatch):
        """A process scans a store directory on its first write there,
        then only once what it wrote since could pass the budget."""
        monkeypatch.delenv("REPRO_EXEC_CACHE_MAX_MB", raising=False)
        scans = self._count_scans(monkeypatch)
        tier = DiskTier(tmp_path / "live.sbx")
        for n in range(200):
            tier.publish(_record(0x4400 + 2 * n, bytes([n % 256]) * 8))
        assert tier.published == 200
        assert scans == [tmp_path]

    def test_write_that_could_pass_the_budget_prunes(self, tmp_path,
                                                     monkeypatch):
        # a 16 KiB budget: the first publish scans (the stale store
        # fits), later ones are counted, and the one whose bytes could
        # pass the budget scans again and evicts the stale store
        monkeypatch.setenv("REPRO_EXEC_CACHE_MAX_MB", str(16 / 1024))
        stale = tmp_path / "stale.sbx"
        stale.write_bytes(b"y" * 8192)
        os.utime(stale, (1_000_000, 1_000_000))
        scans = self._count_scans(monkeypatch)
        tier = DiskTier(tmp_path / "live.sbx")
        published = 0
        while stale.exists():
            tier.publish(_record(0x4400 + 2 * published, b"\x01\x02",
                                 payload=b"z" * 512))
            published += 1
            assert published < 32, "the budget was never enforced"
        assert published > len(scans) == 2
        assert tier.path.stat().st_size > 16384 - 8192
        assert tier.path.exists()


class TestFailClosedIngestion(AppendTierMatrix):
    _PCS = (0x4400, 0x4402)

    def fmt(self):
        return LAYOUT.fmt

    def open_store(self, path):
        return DiskTier(path)

    def record(self, n):
        return _record(0x4400 + 2 * n, bytes([n]) * 2)

    def populate(self, tmp_path):
        path = tmp_path / "s.sbx"
        path.unlink(missing_ok=True)
        tier = DiskTier(path)
        tier.publish(_record(self._PCS[0], b"\x01\x02"))
        tier.publish(_record(self._PCS[1], b"\x03\x04"))
        return path

    def assert_recovers(self, path, intact, corrupt):
        fresh = DiskTier(path)
        served = [pc for pc in self._PCS if fresh.take(pc) is not None]
        # an unserved PC is simply translated again by the CPU
        assert served == list(self._PCS[:intact])
        if corrupt:
            assert fresh.corrupt >= 1

    def test_round_trip_and_dedup(self, tmp_path):
        tier = DiskTier(tmp_path / "s.sbx")
        tier.publish(_record(0x4400, b"\x01\x02"))
        tier.publish(_record(0x4400, b"\x01\x02"))     # dup: dropped
        fresh = DiskTier(tmp_path / "s.sbx")
        assert fresh.loaded == 1
        records = fresh.take(0x4400)
        assert len(records) == 1 and records[0]["code"] == b"\x01\x02"
        assert fresh.take(0x4400) is None              # popped once

    def test_variant_cap_holds_on_disk(self, tmp_path):
        path = tmp_path / "s.sbx"
        # two writers (dedup state not shared) overfill one PC
        for offset in range(MAX_VARIANTS + 3):
            DiskTier(path).publish(
                _record(0x4400, bytes([offset]) * 4))
        fresh = DiskTier(path)
        assert fresh.loaded == MAX_VARIANTS
        assert len(fresh.take(0x4400)) == MAX_VARIANTS

    def test_hostile_record_fails_revival(self):
        """A syntactically valid record whose contents aren't a real
        translation must revive to None (and so be re-translated), not
        crash or produce a bogus block."""
        assert _block_from_record(
            {"pc": 0x4400, "end": 0x4404, "end_pc": 0x4404,
             "loop": False, "code": b"\xff\xff\xff\xff",
             "steps": [(0x4400, 0x4404, 4, False, None, None)],
             "fn": None}) is None
        assert _block_from_record({"pc": 0x4400}) is None

    def test_step_without_a_template_fails_revival(self):
        """A well-formed record whose step decodes to a shape the
        template table lacks (DADD) revives to None, as the same
        record over a table shape (ADD) does not."""
        def record(opcode):
            insn = Instruction(opcode, src=reg(4), dst=reg(5))
            code = encode_bytes(insn, 0x4400)
            end = 0x4400 + len(code)
            return {"pc": 0x4400, "end": end, "end_pc": end,
                    "loop": False, "code": code,
                    "steps": [(0x4400, end, instruction_cycles(insn), 0,
                               None)],
                    "fn": marshal.dumps((lambda c, r, m: None).__code__)}

        assert _block_from_record(record(Opcode.ADD)) is not None
        assert _block_from_record(record(Opcode.DADD)) is None


def _poison_then_sim(cache_dir, device_id, seed):
    """Worker entry point: overfill the store with hostile variants at
    every published PC, then run a clean device against it."""
    os.environ["REPRO_EXEC_CACHE_DIR"] = str(cache_dir)
    clear_registry()
    store_files = list(cache_dir.glob("*.sbx"))
    assert store_files
    for path in store_files:
        reader = DiskTier(path)
        pcs = list(reader._records)
        writer = DiskTier(path)   # separate dedup state: can append
        for pc in pcs:
            for n in range(MAX_VARIANTS):
                writer.publish(
                    {"pc": pc, "code": bytes([0xEE, n]) * 3,
                     "end": pc + 6, "end_pc": pc + 6,
                     "loop": False, "fn": None,
                     "steps": [(pc, pc + 6, 1, False, None, None)]})
    return _sim_in_fresh_store(cache_dir, device_id, seed)


class TestPoisonResistance:
    def test_rogue_variants_cannot_alter_a_clean_device(self,
                                                        tmp_path):
        """Flood the shared store file with hostile same-PC variants;
        the clean device's warm run must stay byte-identical to its
        cold run — content verification (and the variant cap) make the
        poison inert."""
        clear_registry()
        cold_digest, _ = _fresh_process(_sim_in_fresh_store,
                                        tmp_path, 3, 11)
        warm_digest, disk = _fresh_process(_poison_then_sim,
                                           tmp_path, 3, 11)
        assert warm_digest == cold_digest
        # the run still *used* the disk tier (it loaded something) —
        # resistance isn't "the cache was off"
        assert sum(d["loaded"] for d in disk) > 0
