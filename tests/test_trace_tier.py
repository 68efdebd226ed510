"""Persistent cohort trace tier (one ``.tbx`` memo entry per segment).

Promises pinned here:

* **Warm-start equivalence** — a device that adopts a memo revived
  from disk (in a fresh tier, as a fresh process would) ends
  bit-for-bit where a device that executed the segment ends, and a
  whole campaign is byte-identical with the tier cold, warm,
  corrupted, or disabled.
* **Fail-closed ingestion** — exploit pickles, torn tails, garbage,
  oversized length fields (:mod:`tests.tier_matrix`, shared by every
  disk tier), pickles that are not snapshots, snapshots with a field
  of the wrong type or range, and records filed under another key's
  name are refused at the door: the device executes the segment to
  the same bytes, and ``parse_checkpoint`` refuses the same
  snapshots.
* **Poison resistance** — a rogue device's published memo sits in the
  same tier as a clean sibling's and is inert for it: the memo key
  covers the whole pre-segment state, so the lookup never finds it.
* **No memory per record** — the file system is the index, so
  publishing and loading memos leaves nothing behind in the process.
"""

import copy
import gc
import json
import pickle
import tracemalloc

import pytest

from repro.errors import ReproError
from repro.fleet import tracetier
from repro.fleet.cohort import CohortStats, state_digest
from repro.fleet.device import make_device, simulate_cohort, \
    simulate_device
from repro.fleet.executor import FleetConfig, run_campaign
from repro.fleet.population import device_spec
from repro.fleet.snapshot import checkpoint_bytes, parse_checkpoint, \
    snapshot_device
from repro.fleet.telemetry import MODELS_BY_KEY, device_record
from repro.fleet.tracetier import LAYOUT, trace_tier
from tests.tier_matrix import HostileInputMatrix

_MODEL = MODELS_BY_KEY["mpu"]
_SPEC = device_spec(7, 0, rogue_fraction=1.0)
_SEGMENT_MS = 2000


def _key(spec=_SPEC, env_shift=0):
    """The memo key of ``spec``'s first segment (with its sensor LCG
    shifted by ``env_shift``, for a diverged pre-state)."""
    machine, scheduler, _rogue = make_device(spec, _MODEL)
    machine.services.env._state += env_shift
    return state_digest(_MODEL, spec, 0, _SEGMENT_MS,
                        snapshot_device(machine, scheduler, 0))


def _solo():
    return simulate_device(_SPEC, _MODEL, sim_ms=_SEGMENT_MS)


def _memo():
    """``(key, post-segment snapshot)`` of ``_SPEC``'s first segment."""
    run = _solo()
    return _key(), snapshot_device(run.machine, run.scheduler,
                                   _SEGMENT_MS)


def _entry(key, snapshot) -> bytes:
    return pickle.dumps({"key": key, "snapshot": snapshot})


def _through_tier():
    """Run ``_SPEC``'s first segment as a cohort of one, through the
    (fresh) tier: ``(run, stats)``."""
    tracetier.clear_tier()
    stats = CohortStats()
    runs = simulate_cohort([_SPEC], _MODEL, sim_ms=_SEGMENT_MS,
                           checkpoint_every_ms=_SEGMENT_MS,
                           stats=stats, tier=trace_tier())
    return runs[0], stats


def _assert_same_bytes(run, solo):
    assert device_record(run, "mpu") == device_record(solo, "mpu")
    assert snapshot_device(run.machine, run.scheduler, _SEGMENT_MS) \
        == snapshot_device(solo.machine, solo.scheduler, _SEGMENT_MS)


def _assert_refused_then_executed(key):
    """The entry under ``key`` is refused: the device executes the
    segment to a solo run's bytes and replaces the entry."""
    assert trace_tier().load(key) is None
    run, stats = _through_tier()
    assert (stats.trace_hits, stats.trace_misses, stats.leads,
            stats.trace_published) == (0, 1, 1, 1)
    _assert_same_bytes(run, _solo())
    assert trace_tier().load(key) is not None


class TestRoundTrip:
    def test_publish_reload_replay_byte_identical(self):
        key, memo = _memo()
        assert trace_tier().publish(key, memo)

        # a fresh tier (what a new process sees) must revive it
        tracetier.clear_tier()
        assert trace_tier().load(key) == memo

        run, stats = _through_tier()
        assert (stats.trace_hits, stats.joins, stats.leads,
                stats.executed) == (1, 1, 0, 0)
        assert stats.replayed == \
            memo["scheduler"]["stats"]["events_delivered"] > 0
        _assert_same_bytes(run, _solo())

    def test_publish_dedups_and_misses_are_none(self):
        key, memo = _memo()
        tier = trace_tier()
        assert tier.publish(key, memo)
        assert tier.publish(key, memo)          # same key, same entry
        assert len(list(LAYOUT.directory().glob("*.tbx"))) == 1
        assert tier.load("0" * 64) is None      # foreign key
        assert tier.load(_key(env_shift=1)) is None

    def test_entry_is_about_one_checkpoint(self):
        key, memo = _memo()
        assert trace_tier().publish(key, memo)
        size = LAYOUT.store_path(key).stat().st_size
        assert size < len(checkpoint_bytes("k", 0, memo)) + 200

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
        _key_, memo = _memo()
        record_bytes = len(pickle.dumps(
            {"key": _key_, "snapshot": memo},
            protocol=pickle.HIGHEST_PROTOCOL))
        keys = [f"{n:064x}" for n in range(21)]
        tier = trace_tier()

        def _round_trip(key):
            assert tier.publish(key, memo)
            assert tier.load(key) is not None

        _round_trip(keys[0])            # one-time caches don't count
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for key in keys[1:]:
                _round_trip(key)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < record_bytes, (grown, record_bytes)


def _regs_17_wide(snapshot):
    snapshot["machine"]["cpu"]["regs"].append(0)


def _page_past_64k(snapshot):
    snapshot["machine"]["memory"]["delta"][0xFF80] = b"\xEE" * 256


def _unknown_fault_origin(snapshot):
    snapshot["machine"]["fault_log"]["records"].append(
        {"app": "rogue", "origin": "cosmic-ray", "pc": 0x4400,
         "address": 0, "cycle": 1, "detail": ""})


def _float_cycle_counter(snapshot):
    snapshot["machine"]["cpu"]["cycles"] += 0.5


class TestFailClosedIngestion(HostileInputMatrix):
    records = 1

    def fmt(self):
        return LAYOUT.fmt

    def populate(self, tmp_path):
        self.key, memo = _memo()
        assert trace_tier().publish(self.key, memo)
        return LAYOUT.store_path(self.key)

    def assert_recovers(self, path, intact, corrupt):
        assert intact == 0                # one frame: all or nothing
        tracetier.clear_tier()            # as a fresh process would
        _assert_refused_then_executed(self.key)

    def test_shape_valid_pickle_wrong_content_is_refused(self):
        # a valid pickle that is not a snapshot
        key = _key()
        path = LAYOUT.store_path(key)
        for bogus in ({"key": key, "snapshot": {"version": 2}},
                      {"key": key}, ["not", "a", "record"]):
            assert LAYOUT.write_entry(path, pickle.dumps(bogus))
            assert LAYOUT.read_entry(path) is not None  # framing: fine
            assert trace_tier().load(key) is None       # revival: not
        _assert_refused_then_executed(key)
        with pytest.raises(ReproError):
            parse_checkpoint(checkpoint_bytes("k", 0, {"version": 2}),
                             "k", 0)

    @pytest.mark.parametrize("corrupt", [
        _regs_17_wide, _page_past_64k, _unknown_fault_origin,
        _float_cycle_counter])
    def test_hostile_snapshot_is_refused(self, corrupt):
        key, memo = _memo()
        corrupt(memo)
        assert LAYOUT.write_entry(LAYOUT.store_path(key),
                                  _entry(key, memo))
        _assert_refused_then_executed(key)
        with pytest.raises(ReproError):
            parse_checkpoint(checkpoint_bytes("k", 0, memo), "k", 0)

    def test_memo_that_fails_to_restore_is_executed(self):
        # valid for any device, wrong for this one: without MPU state
        # an MPU device's restore raises halfway (memory and registers
        # already loaded), so the device reloads its own pre-segment
        # snapshot and executes
        key, memo = _memo()
        del memo["machine"]["mpu"]
        assert trace_tier().publish(key, memo)
        assert trace_tier().load(key) == memo
        run, stats = _through_tier()
        assert (stats.trace_hits, stats.joins, stats.leads,
                stats.trace_published) == (1, 0, 1, 1)
        _assert_same_bytes(run, _solo())
        assert "mpu" in trace_tier().load(key)["machine"]

    def test_record_under_another_keys_name_is_refused(self):
        # entry names are 64-bit hashes: a record the name does not
        # belong to must not be adopted, whatever put it there
        key, memo = _memo()
        other = _key(env_shift=1)
        assert LAYOUT.write_entry(LAYOUT.store_path(key),
                                  _entry(other, memo))
        tier = trace_tier()
        assert tier.load(other) is None
        _assert_refused_then_executed(key)

    def test_import_rejects_garbage_and_bad_names(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path))
        key, memo = _memo()
        entry = LAYOUT.fmt.frame(_entry(key, memo))
        name = LAYOUT.store_path(key).name
        assert not tracetier.import_store_file("../escape.tbx", entry)
        assert not tracetier.import_store_file(name, b"garbage" * 100)
        # two valid frames are not an entry
        assert not tracetier.import_store_file(name, entry + entry)
        # a valid entry is installed only under its own key's name
        assert not tracetier.import_store_file("ab" * 8 + ".tbx", entry)
        # ...and only if its snapshot validates
        hostile = copy.deepcopy(memo)
        _regs_17_wide(hostile)
        assert not tracetier.import_store_file(
            name, LAYOUT.fmt.frame(_entry(key, hostile)))
        assert not list(tmp_path.glob("*.tbx"))
        assert tracetier.import_store_file(name, entry)
        assert LAYOUT.have_store_file(name)
        assert LAYOUT.read_store_file(name) == entry
        assert trace_tier().load(key) == memo
        # re-import of an existing entry is a no-op
        assert not tracetier.import_store_file(name, entry)


class TestPoisonResistance:
    def test_rogue_variant_is_inert_for_clean_sibling(self):
        """A diverged device's memo (carrying whatever snapshot it
        likes) lands in the same tier as the clean leader's.  The
        clean sibling's key never matches it, so the sibling adopts
        the clean memo and ends byte-identical to a solo run."""
        key, clean = _memo()
        rogue_key = _key(env_shift=7)       # diverged pre-state
        assert rogue_key != key
        poisoned = copy.deepcopy(clean)     # make the payload hostile
        poisoned["machine"]["cpu"]["regs"][0] = 0xBAD0
        poisoned["machine"]["memory"]["delta"][0x2000] = b"\xEE" * 256

        tier = trace_tier()
        assert tier.publish(rogue_key, poisoned)
        assert tier.publish(key, clean)
        run, stats = _through_tier()
        assert (stats.trace_hits, stats.joins) == (1, 1)
        _assert_same_bytes(run, _solo())


_CAMPAIGN = dict(devices=6, hours=0.003, models=("mpu",), seed=7,
                 checkpoint_minutes=0.05, rogue_fraction=0.5)


def _campaign(tmp_path, name, **overrides):
    out = tmp_path / name
    summary = run_campaign(FleetConfig(**{**_CAMPAIGN, **overrides}),
                           out, jobs=1, profile_dir=out / "profiles")
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
            run_campaign(FleetConfig(**_CAMPAIGN), out, jobs=2)
        monkeypatch.delenv("REPRO_FAULT")
        tracetier.clear_tier()
        run_campaign(FleetConfig(**_CAMPAIGN), out, jobs=2)
        assert (out / "summary.json").read_bytes() == \
            (reference / "summary.json").read_bytes()
