"""Cohort lockstep execution: byte-identity, memo keys, and planning.

The cohort layer's contract mirrors ``--jobs``: it is an execution
detail.  A campaign run with ``--cohort on`` must produce the same
bytes as one run with it off — whether the fleet is homogeneous (full
lockstep), heterogeneous (mostly leads), or killed and resumed
mid-flight.  The property test additionally pins the memo key: a
clone that differs from its leader in any one input a segment reads —
its cycle counter, sensor LCG, storage, app data, a source's phase,
its restart cooldown — executes instead of adopting the leader's
post-segment snapshot, and ends exactly where a solo run ends.
"""

import copy
import json
from dataclasses import replace
from functools import lru_cache

from hypothesis import HealthCheck, example, given, settings, \
    strategies as st

from repro.fleet.cohort import CohortStats, state_digest
from repro.fleet.device import make_device, simulate_cohort, \
    simulate_device
from repro.fleet.executor import FleetConfig, plan_cohort_units, \
    run_campaign
from repro.fleet.population import device_spec, generate_population
from repro.fleet.snapshot import checkpoint_bytes, snapshot_device
from repro.fleet.telemetry import MODELS_BY_KEY, device_record

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
        assert model["cohort_executed"] > 0
        # two units of three clones: each leader's segments are
        # adopted by both of its followers, none executes (a unit that
        # finds the other's memos in the trace tier replays even more)
        assert model["cohort_replayed"] >= 2 * model["cohort_executed"]

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
        assert stats.joins == 3 * stats.leads
        solo = simulate_device(specs[1], model, sim_ms=6000,
                               checkpoint_every_ms=2500)
        assert snapshot_device(runs[1].machine, runs[1].scheduler,
                               6000) == \
            snapshot_device(solo.machine, solo.scheduler, 6000)

    def test_state_digest_once_per_device_and_segment(self,
                                                       monkeypatch):
        # the memo key is cohort lockstep's only state check: leading
        # and following never digest per dispatch
        calls = []

        def counting(*args):
            calls.append(args)
            return state_digest(*args)

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


_MODEL = MODELS_BY_KEY["mpu"]
#: the clones resume at _T0 and run one _SEGMENT_MS segment
_T0, _SEGMENT_MS = 61_000, 4000


@lru_cache(maxsize=1)
def _clone_start():
    """A clone spec, its snapshot at ``_T0`` from a solo run, and a
    machine built from it."""
    spec = device_spec(5, 0, rogue_fraction=0.0)
    at_t0 = []
    simulate_device(spec, _MODEL, sim_ms=_T0 + 1,
                    checkpoint_every_ms=_T0,
                    on_checkpoint=lambda _ms, snap: at_t0.append(snap))
    machine, _scheduler, _rogue = make_device(spec, _MODEL)
    return spec, at_t0[0], machine


_PERTURBATIONS = ("nothing", "cycles", "env lcg", "storage blob",
                  "app data byte", "source phase", "restart cooldown")


def _perturbed(kind: str, amount: int):
    """``(spec, snapshot)`` of a clone differing from the
    :func:`_clone_start` one in one field (by ``amount`` >= 1 where it
    applies)."""
    spec, snapshot, built = _clone_start()
    snapshot = copy.deepcopy(snapshot)
    machine = snapshot["machine"]
    if kind == "cycles":
        machine["cpu"]["cycles"] += amount
    elif kind == "env lcg":
        env = machine["services"]["env"]
        env["state"] = (env["state"] + amount) & 0x7FFFFFFF or 1
    elif kind == "storage blob":
        machine["services"]["storage"][amount % 8] = \
            bytes([amount & 0xFF]) * 4
    elif kind == "app data byte":
        layouts = list(built.firmware.apps.values())
        layout = layouts[amount % len(layouts)]
        address = layout.stack_top + amount % (layout.seg_hi
                                               - layout.stack_top)
        delta = machine["memory"]["delta"]
        page = address & ~0xFF
        data = bytearray(delta.get(
            page, built.base_image[page:page + 256]))
        data[address - page] ^= 1 + amount % 255
        delta[page] = bytes(data)
    elif kind == "source phase":
        sources = list(spec.sources)
        index = amount % len(sources)
        sources[index] = replace(
            sources[index], phase_ms=sources[index].phase_ms + amount)
        spec = replace(spec, sources=tuple(sources))
    elif kind == "restart cooldown":
        spec = replace(spec, restart_cooldown_ms=spec
                       .restart_cooldown_ms + amount)
    return spec, snapshot


class TestMemoKey:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kind=st.sampled_from(_PERTURBATIONS),
           amount=st.integers(1, 5000))
    @example(kind="nothing", amount=1)
    @example(kind="cycles", amount=1)
    @example(kind="env lcg", amount=1)
    @example(kind="storage blob", amount=1)
    @example(kind="app data byte", amount=1)
    @example(kind="source phase", amount=1)
    @example(kind="restart cooldown", amount=1)
    def test_perturbed_clone_replays_iff_unperturbed(self, kind,
                                                     amount):
        leader, at_t0, _built = _clone_start()
        spec, snapshot = _perturbed(kind, amount)
        clone = replace(spec, device_id=1)
        end = _T0 + _SEGMENT_MS
        stats = CohortStats()
        runs = simulate_cohort(
            [leader, clone], _MODEL, sim_ms=end,
            checkpoint_every_ms=_SEGMENT_MS, stats=stats,
            resumes={0: copy.deepcopy(at_t0), 1: snapshot})
        assert stats.leads == (1 if kind == "nothing" else 2)
        assert stats.joins == (1 if kind == "nothing" else 0)

        solo = simulate_device(clone, _MODEL, sim_ms=end,
                               checkpoint_every_ms=_SEGMENT_MS,
                               resume=copy.deepcopy(snapshot))
        run = runs[1]
        assert device_record(run, "mpu") == device_record(solo, "mpu")
        assert checkpoint_bytes("k", 1, snapshot_device(
            run.machine, run.scheduler, end)) == \
            checkpoint_bytes("k", 1, snapshot_device(
                solo.machine, solo.scheduler, end))
