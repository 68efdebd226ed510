"""Persistent cohort trace tier (one ``.tbx`` entry per segment).

Promises pinned here:

* **Warm-start equivalence** — a follower that replays a trace
  revived from disk (in a fresh tier, as a fresh process would) ends
  bit-for-bit where a device that executed the segment ends, and a
  whole campaign is byte-identical with the tier cold, warm,
  corrupted, or disabled.
* **Fail-closed ingestion** — exploit pickles, torn tails, garbage,
  oversized length fields (:mod:`tests.tier_matrix`, shared by every
  disk tier), shape-invalid records, and records filed under another
  key's name are refused at the door; at worst a segment is
  re-recorded.
* **Poison resistance** — a rogue device's published write-sets sit
  in the same tier as a clean sibling's and are inert for it: the
  pre-state digest never matches, the lookup misses, the sibling
  executes and stays byte-identical.
* **No memory per record** — the file system is the index, so
  publishing and loading traces leaves nothing behind in the process.
"""

import dataclasses
import gc
import json
import pickle
import tracemalloc

import pytest

from repro.aft.cache import build_firmware
from repro.aft.models import IsolationModel
from repro.aft.phases import AppSource
from repro.fleet import tracetier
from repro.fleet.cohort import CohortStats, record_segment, \
    replay_segment, state_digest
from repro.fleet.executor import FleetConfig, run_campaign
from repro.fleet.tracetier import LAYOUT, trace_record, trace_tier
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


def _key(trace):
    return (trace.base_sha, 0, _SEGMENT_MS, trace.pre_sha)


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
        assert tier.publish(trace)              # same key, same entry
        assert len(list(LAYOUT.directory().glob("*.tbx"))) == 1
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


class TestNoMemoryPerRecord:
    def test_publish_and_load_keep_nothing_in_memory(self):
        _leader, trace = _recorded_trace()
        record_bytes = len(pickle.dumps(
            trace_record(trace), protocol=pickle.HIGHEST_PROTOCOL))
        traces = [dataclasses.replace(trace, pre_sha=f"{n:064x}")
                  for n in range(21)]
        tier = trace_tier()

        def _round_trip(trace):
            assert tier.publish(trace)
            assert tier.load(*_key(trace)) is not None

        _round_trip(traces[0])          # one-time caches don't count
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for trace in traces[1:]:
                _round_trip(trace)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < record_bytes, (grown, record_bytes)


class TestFailClosedIngestion(HostileInputMatrix):
    records = 1

    def fmt(self):
        return LAYOUT.fmt

    def populate(self, tmp_path):
        _leader, self.trace = _recorded_trace()
        assert trace_tier().publish(self.trace)
        return LAYOUT.store_path(*_key(self.trace))

    def assert_recovers(self, path, intact, corrupt):
        assert intact == 0                # one frame: all or nothing
        tracetier.clear_tier()            # as a fresh process would
        tier = trace_tier()
        assert tier.load(*_key(self.trace)) is None
        # the follower executes, records again, and replaces the entry
        assert tier.publish(self.trace)
        assert tier.load(*_key(self.trace)) is not None

    def test_shape_valid_pickle_wrong_content_is_refused(self):
        _leader, trace = _recorded_trace()
        bogus = dict(trace_record(trace),
                     entries=[{"key": "not an entry"}])
        path = LAYOUT.store_path(*_key(trace))
        assert LAYOUT.write_entry(path, pickle.dumps(bogus))
        assert LAYOUT.read_entry(path) is not None   # framing is fine
        assert trace_tier().load(*_key(trace)) is None  # revival is not

    def test_record_under_another_keys_name_is_refused(self):
        # entry names are 64-bit hashes: a record the name does not
        # belong to must not replay, whatever put it there
        _leader, trace = _recorded_trace()
        record = pickle.dumps(trace_record(trace))
        other = (trace.base_sha, 0, _SEGMENT_MS, "e" * 64)
        assert LAYOUT.write_entry(LAYOUT.store_path(*other), record)
        tier = trace_tier()
        assert tier.load(*other) is None
        assert tier.load(*_key(trace)) is None

    def test_import_rejects_garbage_and_bad_names(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path))
        _leader, trace = _recorded_trace()
        entry = LAYOUT.fmt.frame(pickle.dumps(trace_record(trace)))
        name = LAYOUT.store_path(*_key(trace)).name
        assert not tracetier.import_store_file("../escape.tbx", entry)
        assert not tracetier.import_store_file(name, b"garbage" * 100)
        # two valid frames are not an entry
        assert not tracetier.import_store_file(name, entry + entry)
        # a valid entry is installed only under its own key's name
        assert not tracetier.import_store_file("ab" * 8 + ".tbx", entry)
        assert not list(tmp_path.glob("*.tbx"))
        assert tracetier.import_store_file(name, entry)
        assert LAYOUT.have_store_file(name)
        assert LAYOUT.read_store_file(name) == entry
        assert trace_tier().load(*_key(trace)) is not None
        # re-import of an existing entry is a no-op
        assert not tracetier.import_store_file(name, entry)


class TestPoisonResistance:
    def test_rogue_variant_is_inert_for_clean_sibling(self):
        """A rogue's trace (recorded from a diverged state, carrying
        whatever write-set it likes) lands in the same tier as the
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


def _campaign(tmp_path, name, **overrides):
    out = tmp_path / name
    summary = run_campaign(FleetConfig(**{**_CAMPAIGN, **overrides}),
                           out, jobs=1, cohort=True,
                           profile_dir=out / "profiles")
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

        for path in stores:                 # bit-rot every entry
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

    def test_checkpoint_bytes_equal_cold_and_warm(self, tmp_path):
        # a warm replay leaves app-name strings equal to, but not the
        # same objects as, a cold run's; checkpoints must not notice
        cold, _ = _campaign(tmp_path, "cold", homogeneous=True)
        tracetier.clear_tier()
        warm, _ = _campaign(tmp_path, "warm", homogeneous=True)
        cold_profile, warm_profile = (_model_profile(out)
                                      for out in (cold, warm))
        assert warm_profile["trace_hits"] > 0
        assert warm_profile["cohort_executed"] == 0
        assert cold_profile["ckpt_flushes"] > 0
        assert warm_profile["ckpt_bytes"] == cold_profile["ckpt_bytes"]

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
