"""Cohort lockstep execution: byte-identity, forking, and planning.

The cohort layer's contract mirrors ``--jobs``: it is an execution
detail.  A campaign run with ``--cohort on`` must produce the same
bytes as one run with it off — whether the fleet is homogeneous (full
lockstep), heterogeneous (mostly leads), or killed and resumed
mid-flight.  The unit tests additionally pin the sharp edge: the
cycle-timer port returns *absolute* quantized cycles, so a follower
whose absolute cycle count differs may only replay a timer-reading
dispatch when the counts agree modulo ``divider * 2^16``.
"""

import json

from repro.aft.cache import build_firmware
from repro.aft.models import IsolationModel
from repro.aft.phases import AppSource
from repro.fleet.cohort import CohortStats, record_segment, \
    replay_segment, state_digest
from repro.fleet.device import simulate_cohort, simulate_device
from repro.fleet.executor import FleetConfig, plan_cohort_units, \
    run_campaign
from repro.fleet.population import device_spec, generate_population
from repro.fleet.snapshot import snapshot_device
from repro.fleet.telemetry import MODELS_BY_KEY, device_record
from repro.kernel.events import EventType, PeriodicSource
from repro.kernel.machine import AmuletMachine
from repro.kernel.scheduler import AppSchedule, Scheduler
from repro.kernel.services import SensorEnvironment

_CAMPAIGN = dict(devices=6, hours=0.003, models=("mpu",), seed=7,
                 checkpoint_minutes=0.05, rogue_fraction=0.5)


def _campaign(tmp_path, name, cohort, jobs=2, profile=False,
              **overrides):
    config = FleetConfig(**{**_CAMPAIGN, **overrides})
    out = tmp_path / name
    profile_dir = out / "profiles" if profile else None
    summary = run_campaign(config, out, jobs=jobs, cohort=cohort,
                           profile_dir=profile_dir)
    return out, summary


class TestCohortCampaign:
    def test_off_on_identical_heterogeneous(self, tmp_path):
        off, _ = _campaign(tmp_path, "het-off", cohort=False)
        on, _ = _campaign(tmp_path, "het-on", cohort=True)
        assert (off / "summary.json").read_bytes() == \
            (on / "summary.json").read_bytes()
        assert (off / "devices-mpu.jsonl").read_bytes() == \
            (on / "devices-mpu.jsonl").read_bytes()

    def test_off_on_identical_homogeneous_with_replays(self, tmp_path):
        off, _ = _campaign(tmp_path, "hom-off", cohort=False,
                           homogeneous=True)
        on, _ = _campaign(tmp_path, "hom-on", cohort=True,
                          profile=True, homogeneous=True)
        assert (off / "summary.json").read_bytes() == \
            (on / "summary.json").read_bytes()
        # the profile proves lockstep actually happened: clones
        # replayed the leader's deltas instead of executing
        profile = json.loads(
            (on / "profiles" / "coordinator.json").read_text())
        model = profile["models"]["mpu"]
        assert model["cohort_replayed"] > 0
        assert model["cohort_executed"] > 0
        assert model["cohort_forks"] == 0

    def test_cohort_kill_and_resume_is_byte_identical(self, tmp_path,
                                                      monkeypatch):
        import pytest
        from repro.errors import ReproError
        reference, _ = _campaign(tmp_path, "creference",
                                 cohort=False, jobs=1,
                                 homogeneous=True)
        config = FleetConfig(**{**_CAMPAIGN, "homogeneous": True})
        out = tmp_path / "ccrashed"
        monkeypatch.setenv("REPRO_FAULT", "ckpt.after_replace:2")
        with pytest.raises(ReproError, match="re-run the same"):
            run_campaign(config, out, jobs=2, cohort=True)
        monkeypatch.delenv("REPRO_FAULT")
        run_campaign(config, out, jobs=2, cohort=True)
        assert (out / "summary.json").read_bytes() == \
            (reference / "summary.json").read_bytes()

    def test_cohort_is_not_campaign_identity(self, tmp_path):
        # finish a campaign with cohorts off, reopen it with them on:
        # same key, nothing reruns
        out, first = _campaign(tmp_path, "reopen", cohort=False)
        summary = run_campaign(FleetConfig(**_CAMPAIGN), out, jobs=1,
                               cohort=True)
        assert summary == first


class TestCohortPlanning:
    def test_homogeneous_fleet_forms_per_job_units(self):
        config = FleetConfig(**{**_CAMPAIGN, "devices": 8,
                                "homogeneous": True})
        units = plan_cohort_units(config, MODELS_BY_KEY["mpu"],
                                  list(range(8)), jobs=2)
        assert units == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_units_group_by_firmware_signature(self):
        config = FleetConfig(**{**_CAMPAIGN, "devices": 16})
        model = MODELS_BY_KEY["mpu"]
        units = plan_cohort_units(config, model, list(range(16)),
                                  jobs=2)
        assert sorted(d for unit in units for d in unit) == \
            list(range(16))
        assert units == sorted(units, key=lambda unit: unit[0])
        for unit in units:
            signatures = set()
            for device_id in unit:
                spec = device_spec(config.seed, device_id,
                                   config.rogue_fraction)
                signatures.add((spec.apps, spec.rogue))
            assert len(signatures) == 1


class TestSimulateCohort:
    def test_matches_simulate_device_heterogeneous(self):
        model = MODELS_BY_KEY["mpu"]
        specs = generate_population(3, 4, rogue_fraction=0.5)
        stats = CohortStats()
        runs = simulate_cohort(specs, model, sim_ms=6000,
                               checkpoint_every_ms=2500, stats=stats)
        for spec in specs:
            solo = simulate_device(spec, model, sim_ms=6000,
                                   checkpoint_every_ms=2500)
            run = runs[spec.device_id]
            assert device_record(run, "mpu") == \
                device_record(solo, "mpu")
            assert snapshot_device(run.machine, run.scheduler, 6000) \
                == snapshot_device(solo.machine, solo.scheduler, 6000)

    def test_homogeneous_clones_stay_in_lockstep(self):
        model = MODELS_BY_KEY["mpu"]
        specs = generate_population(3, 4, rogue_fraction=0.5,
                                    homogeneous=True)
        stats = CohortStats()
        runs = simulate_cohort(specs, model, sim_ms=6000,
                               checkpoint_every_ms=2500, stats=stats)
        assert stats.replayed == 3 * stats.executed
        assert stats.forks == 0 and stats.rejects == 0
        solo = simulate_device(specs[1], model, sim_ms=6000,
                               checkpoint_every_ms=2500)
        assert snapshot_device(runs[1].machine, runs[1].scheduler,
                               6000) == \
            snapshot_device(solo.machine, solo.scheduler, 6000)

    def test_state_digest_once_per_device_and_segment(self,
                                                       monkeypatch):
        # the segment-start handshake is cohort lockstep's only state
        # check: recording and replaying never digest per dispatch
        calls = []

        def counting(machine):
            calls.append(machine)
            return state_digest(machine)

        monkeypatch.setattr("repro.fleet.cohort.state_digest", counting)
        monkeypatch.setattr("repro.fleet.device.state_digest", counting)
        model = MODELS_BY_KEY["mpu"]
        specs = generate_population(3, 4, rogue_fraction=0.5,
                                    homogeneous=True)
        stats = CohortStats()
        simulate_cohort(specs, model, sim_ms=6000,
                        checkpoint_every_ms=2500, stats=stats)
        segments = 3                     # 0-2500, 2500-5000, 5000-6000
        assert stats.executed > segments
        assert len(calls) == len(specs) * segments


#: reads the Timer_A counter port each dispatch and folds it into a
#: global — state that diverges the moment a timer read differs
_TICKER = """
int last = 0;
int on_tick(int x) {
    int *t = (int *)0x0340;
    last = last + *t;
    return last;
}
"""

_SEGMENT_MS = 200


def _ticker_machine():
    firmware = build_firmware(
        IsolationModel.NO_ISOLATION,
        [AppSource("ticker", _TICKER, handlers=["on_tick"])])
    machine = AmuletMachine(firmware, env=SensorEnvironment(5))
    scheduler = Scheduler(machine)
    scheduler.add_app(AppSchedule("ticker", sources=[PeriodicSource(
        app="ticker", handler="on_tick",
        event_type=EventType.TIMER, period_ms=40, phase_ms=3)]))
    return machine, scheduler


def _run_reference(cycle_offset):
    machine, scheduler = _ticker_machine()
    machine.cpu.cycles += cycle_offset
    scheduler.seed_events(_SEGMENT_MS, 0)
    while scheduler.step(before_ms=_SEGMENT_MS) is not None:
        pass
    return machine


class TestTimerSensitivity:
    def _trace(self):
        leader, leader_sched = _ticker_machine()
        stats = CohortStats()
        trace = record_segment(leader, leader_sched, 0, _SEGMENT_MS,
                               stats)
        # the recorder must have seen the timer reads, else the guard
        # under test never arms
        assert trace.entries
        assert all(entry.cycles_mod is not None
                   for entry in trace.entries)
        return leader, trace

    def test_congruent_cycle_offset_replays(self):
        # +divider*2^16 cycles: every 16-bit counter read is identical,
        # so the follower may (and does) stay in lockstep
        leader, trace = self._trace()
        follower, follower_sched = _ticker_machine()
        follower.cpu.cycles += trace.timer_modulus
        stats = CohortStats()
        replay_segment(follower, follower_sched, trace, 0,
                       _SEGMENT_MS, stats)
        assert stats.joins == 1 and stats.forks == 0
        assert stats.replayed == len(trace.entries)
        assert follower.cpu.memory.image_equals(
            leader.cpu.memory.image_bytes())
        assert follower.cpu.regs.snapshot() == \
            leader.cpu.regs.snapshot()

    def test_incongruent_cycle_offset_forks(self):
        # an offset that shifts the counter value: the handshake still
        # passes (it does not cover absolute cycles), so only the
        # per-entry cycles_mod guard stands between the follower and a
        # wrong replay
        offset = 12344
        _leader, trace = self._trace()
        assert offset % trace.timer_modulus != 0
        follower, follower_sched = _ticker_machine()
        follower.cpu.cycles += offset
        stats = CohortStats()
        replay_segment(follower, follower_sched, trace, 0,
                       _SEGMENT_MS, stats)
        assert stats.joins == 1       # pre-state matches...
        assert stats.forks == 1       # ...but the first timer read forks
        assert stats.replayed == 0
        reference = _run_reference(offset)
        assert follower.cpu.memory.image_equals(
            reference.cpu.memory.image_bytes())
        assert follower.cpu.regs.snapshot() == \
            reference.cpu.regs.snapshot()
        assert follower.cpu.cycles == reference.cpu.cycles

    def test_divergent_pre_state_rejects_handshake(self):
        _leader, trace = self._trace()
        follower, follower_sched = _ticker_machine()
        follower.services.env._state += 1
        stats = CohortStats()
        replay_segment(follower, follower_sched, trace, 0,
                       _SEGMENT_MS, stats)
        assert stats.rejects == 1 and stats.joins == 0
        assert stats.replayed == 0
        assert stats.executed == len(trace.entries)


class TestMidSegmentFork:
    def test_fork_runs_rest_of_segment_to_leader_state(self):
        # one unmatchable entry forces a fork mid-segment; the follower
        # executes every dispatch from there on for real (no rejoin)
        # and, deterministically, ends where the leader ended
        leader, leader_sched = _ticker_machine()
        trace = record_segment(leader, leader_sched, 0, _SEGMENT_MS,
                               CohortStats())
        assert len(trace.entries) >= 4
        broken = len(trace.entries) // 2
        trace.entries[broken].key = ("rogue", "nope", (), ())
        follower, follower_sched = _ticker_machine()
        stats = CohortStats()
        replay_segment(follower, follower_sched, trace, 0,
                       _SEGMENT_MS, stats)
        assert stats.joins == 1 and stats.forks == 1
        assert stats.replayed == broken
        assert stats.executed == len(trace.entries) - broken
        assert follower.cpu.memory.image_equals(
            leader.cpu.memory.image_bytes())
        assert follower.cpu.regs.snapshot() == \
            leader.cpu.regs.snapshot()
        assert follower.cpu.cycles == leader.cpu.cycles
