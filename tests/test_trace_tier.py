"""Persistent cohort trace tier (``.tbx`` stores).

Promises pinned here:

* **Warm-start equivalence** — a follower that replays a trace
  revived from disk (in a fresh tier, as a fresh process would) ends
  bit-for-bit where a device that executed the segment ends, and a
  whole campaign is byte-identical with the tier cold, warm,
  corrupted, or disabled.
* **Fail-closed ingestion** — exploit pickles, torn tails, garbage,
  oversized length fields (:mod:`tests.tier_matrix`, shared by every
  disk tier), and shape-invalid records are refused at the door; at
  worst a segment is re-recorded.
* **Poison resistance** — a rogue device's published write-sets sit
  in the same store file as a clean sibling's and are inert for it:
  the pre-state digest never matches, the lookup misses, the sibling
  executes and stays byte-identical.
"""

import json
import pickle

import pytest

from repro.aft.cache import build_firmware
from repro.aft.models import IsolationModel
from repro.aft.phases import AppSource
from repro.fleet import tracetier
from repro.fleet.cohort import CohortStats, record_segment, \
    replay_segment, state_digest
from repro.fleet.executor import FleetConfig, run_campaign
from repro.fleet.tracetier import LAYOUT, MAX_SEGMENT_VARIANTS, \
    TraceStore, trace_record, trace_tier
from repro.kernel.events import EventType, PeriodicSource
from repro.kernel.machine import AmuletMachine
from repro.kernel.scheduler import AppSchedule, Scheduler
from repro.kernel.services import SensorEnvironment
from tests.tier_matrix import HostileInputMatrix

_COUNTER = """
int total = 0;
int on_tick(int x) {
    total = total + x + 1;
    return total;
}
"""

_SEGMENT_MS = 200


def _machine():
    firmware = build_firmware(
        IsolationModel.NO_ISOLATION,
        [AppSource("counter", _COUNTER, handlers=["on_tick"])])
    machine = AmuletMachine(firmware, env=SensorEnvironment(5))
    scheduler = Scheduler(machine)
    scheduler.add_app(AppSchedule("counter", sources=[PeriodicSource(
        app="counter", handler="on_tick",
        event_type=EventType.TIMER, period_ms=40, phase_ms=3)]))
    return machine, scheduler


def _recorded_trace():
    machine, scheduler = _machine()
    stats = CohortStats()
    trace = record_segment(machine, scheduler, 0, _SEGMENT_MS, stats)
    assert trace.entries
    return machine, trace


class TestRoundTrip:
    def test_publish_reload_replay_byte_identical(self):
        leader, trace = _recorded_trace()
        tier = trace_tier()
        assert tier is not None
        assert tier.publish(trace)

        # a fresh tier (what a new process sees) must revive it
        tracetier.clear_tier()
        fresh = trace_tier()
        revived = fresh.load(trace.base_sha, 0, _SEGMENT_MS,
                             trace.pre_sha)
        assert revived is not None
        assert len(revived.entries) == len(trace.entries)

        follower, follower_sched = _machine()
        stats = CohortStats()
        replay_segment(follower, follower_sched, revived, 0,
                       _SEGMENT_MS, stats)
        assert stats.replayed == len(trace.entries)
        assert stats.executed == 0
        assert follower.cpu.memory.image_equals(
            leader.cpu.memory.image_bytes())
        assert follower.cpu.regs.snapshot() == \
            leader.cpu.regs.snapshot()
        assert state_digest(follower) == state_digest(leader)

    def test_publish_dedups_and_misses_are_none(self):
        _leader, trace = _recorded_trace()
        tier = trace_tier()
        assert tier.publish(trace)
        assert not tier.publish(trace)          # dup: dropped
        assert tier.load(trace.base_sha, 0, _SEGMENT_MS,
                         "0" * 64) is None      # foreign pre-state
        assert tier.load(trace.base_sha, _SEGMENT_MS,
                         2 * _SEGMENT_MS, trace.pre_sha) is None

    def test_truncated_trace_is_never_persisted(self):
        _leader, trace = _recorded_trace()
        trace.truncated = True
        assert not trace_tier().publish(trace)

    def test_disable_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        tracetier.clear_tier()
        assert trace_tier() is None
        monkeypatch.setenv("REPRO_TRACE_CACHE", "")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        tracetier.clear_tier()
        assert trace_tier() is None


class TestFailClosedIngestion(HostileInputMatrix):
    def fmt(self):
        return LAYOUT.fmt

    def populate(self, tmp_path):
        path = tmp_path / "s.tbx"
        path.unlink(missing_ok=True)
        store, trace = self._store_with_one_trace(tmp_path)
        assert store.publish_record(
            dict(trace_record(trace), pre_sha="e" * 64))
        self.pre_shas = (trace.pre_sha, "e" * 64)
        return path

    def assert_recovers(self, path, intact, corrupt):
        fresh = TraceStore(path)
        served = [pre_sha for pre_sha in self.pre_shas
                  if fresh.get(0, _SEGMENT_MS, pre_sha) is not None]
        # an unserved pre-state simply executes and records again
        assert served == list(self.pre_shas[:intact])
        if corrupt:
            assert fresh.corrupt >= 1

    def _store_with_one_trace(self, tmp_path):
        _leader, trace = _recorded_trace()
        store = TraceStore(tmp_path / "s.tbx")
        assert store.put(trace)
        return store, trace

    def test_shape_valid_pickle_wrong_content_is_refused(self,
                                                         tmp_path):
        store, trace = self._store_with_one_trace(tmp_path)
        bogus = dict(trace_record(trace), pre_sha="f" * 64,
                     entries=[{"key": "not an entry"}])
        with store.path.open("ab") as handle:
            handle.write(LAYOUT.fmt.frame(pickle.dumps(bogus)))
        fresh = TraceStore(store.path)
        assert fresh.loaded == 2        # framing + top-level shape ok
        assert fresh.get(0, _SEGMENT_MS, "f" * 64) is None
        assert fresh.corrupt >= 1       # ...but revival refused it
        # the clean sibling record still revives
        assert fresh.get(0, _SEGMENT_MS, trace.pre_sha) is not None

    def test_variant_cap_holds_on_disk(self, tmp_path):
        _leader, trace = _recorded_trace()
        record = trace_record(trace)
        path = tmp_path / "s.tbx"
        # several writers (dedup state not shared) overfill one window
        for n in range(MAX_SEGMENT_VARIANTS + 3):
            TraceStore(path).publish_record(
                dict(record, pre_sha=f"{n:064x}"))
        fresh = TraceStore(path)
        assert fresh.loaded == MAX_SEGMENT_VARIANTS

    def test_import_rejects_garbage_and_bad_names(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path))
        _leader, trace = _recorded_trace()
        store_bytes = LAYOUT.fmt.frame(
            pickle.dumps(trace_record(trace)))
        name = "ab" * 8 + ".tbx"
        assert tracetier.import_store_file(
            "../escape.tbx", store_bytes) == 0
        assert tracetier.import_store_file(
            name, b"garbage" * 100) == 0
        assert not (tmp_path / name).exists()
        assert tracetier.import_store_file(name, store_bytes) == 1
        assert LAYOUT.have_store_file(name)
        assert LAYOUT.read_store_file(name) is not None
        # re-import of an existing store is a no-op
        assert tracetier.import_store_file(name, store_bytes) == 0


class TestPoisonResistance:
    def test_rogue_variant_is_inert_for_clean_sibling(self):
        """A rogue's trace (recorded from a diverged state, carrying
        whatever write-set it likes) lands in the same store as the
        clean leader's.  The clean sibling's digest never matches it,
        so the sibling replays the clean variant — or executes — and
        ends byte-identical to a solo run."""
        leader, clean = _recorded_trace()

        rogue, rogue_sched = _machine()
        rogue.services.env._state += 7      # diverged pre-state
        stats = CohortStats()
        poisoned = record_segment(rogue, rogue_sched, 0, _SEGMENT_MS,
                                  stats)
        assert poisoned.pre_sha != clean.pre_sha
        for entry in poisoned.entries:      # make the payload hostile
            entry.pages = {0x2000: b"\xEE" * 256}
            entry.regs_post = tuple([0xBAD0] + [0] * 15)

        tier = trace_tier()
        assert tier.publish(poisoned)
        assert tier.publish(clean)
        tracetier.clear_tier()
        fresh = trace_tier()

        follower, follower_sched = _machine()
        pre_sha = state_digest(follower)
        revived = fresh.load(clean.base_sha, 0, _SEGMENT_MS, pre_sha)
        assert revived is not None
        assert revived.pre_sha == clean.pre_sha   # not the poison
        replay_segment(follower, follower_sched, revived, 0,
                       _SEGMENT_MS, CohortStats())
        assert follower.cpu.memory.image_equals(
            leader.cpu.memory.image_bytes())
        assert follower.cpu.regs.snapshot() == \
            leader.cpu.regs.snapshot()


_CAMPAIGN = dict(devices=6, hours=0.003, models=("mpu",), seed=7,
                 checkpoint_minutes=0.05, rogue_fraction=0.5)


def _campaign(tmp_path, name, **kwargs):
    out = tmp_path / name
    summary = run_campaign(FleetConfig(**_CAMPAIGN), out, jobs=1,
                           cohort=True, profile_dir=out / "profiles",
                           **kwargs)
    return out, summary


def _model_profile(out):
    profile = json.loads(
        (out / "profiles" / "coordinator.json").read_text())
    return profile["models"]["mpu"]


def _bytes(out):
    return ((out / "summary.json").read_bytes(),
            (out / "devices-mpu.jsonl").read_bytes())


class TestCampaignByteIdentity:
    def test_cold_warm_corrupted_disabled_identical(self, tmp_path,
                                                    monkeypatch):
        cold, _ = _campaign(tmp_path, "cold")
        assert _model_profile(cold)["trace_published"] > 0
        trace_dir = LAYOUT.directory()
        stores = list(trace_dir.glob("*.tbx"))
        assert stores

        tracetier.clear_tier()
        warm, _ = _campaign(tmp_path, "warm")
        assert _bytes(warm) == _bytes(cold)
        warm_profile = _model_profile(warm)
        assert warm_profile["trace_hits"] > 0
        assert warm_profile["trace_misses"] == 0

        for path in stores:                 # bit-rot every store
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0xFF
            path.write_bytes(bytes(data))
        tracetier.clear_tier()
        corrupted, _ = _campaign(tmp_path, "corrupted")
        assert _bytes(corrupted) == _bytes(cold)

        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        tracetier.clear_tier()
        disabled, _ = _campaign(tmp_path, "disabled")
        assert _bytes(disabled) == _bytes(cold)
        assert _model_profile(disabled)["trace_hits"] == 0
        assert _model_profile(disabled)["trace_misses"] == 0

    def test_warm_tier_survives_kill_and_resume(self, tmp_path,
                                                monkeypatch):
        from repro.errors import ReproError
        reference, _ = _campaign(tmp_path, "reference")
        tracetier.clear_tier()
        out = tmp_path / "crashed"
        monkeypatch.setenv("REPRO_FAULT", "ckpt.after_replace:2")
        with pytest.raises(ReproError, match="re-run the same"):
            run_campaign(FleetConfig(**_CAMPAIGN), out, jobs=2,
                         cohort=True)
        monkeypatch.delenv("REPRO_FAULT")
        tracetier.clear_tier()
        run_campaign(FleetConfig(**_CAMPAIGN), out, jobs=2,
                     cohort=True)
        assert (out / "summary.json").read_bytes() == \
            (reference / "summary.json").read_bytes()
