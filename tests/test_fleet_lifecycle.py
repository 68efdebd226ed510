"""Resume-state hygiene: the out_dir file lifecycle across kill points.

Every worker commit follows the same order — flush checkpoints, append
the record line, unlink the checkpoint — so each kill point leaves a
characteristic residue.  These tests kill the pool's workers at each
point (``REPRO_FAULT``, which fires only in the forked pool children,
never in pytest), assert the exact residue, and pin that the resume
(a) converges on the byte-identical summary and (b) leaves
``shards/`` empty: no stale checkpoints (a record always outranks
one), no ``*.tmp`` litter, no unit streams once the merge committed.
"""

import json

import pytest

from repro.errors import ReproError
from repro.fleet.executor import FleetConfig, run_campaign
from tests.fleet_reference import reference_campaign

_CAMPAIGN = dict(devices=4, hours=0.003, models=("mpu",), seed=11,
                 checkpoint_minutes=0.05, rogue_fraction=0.5)


def _reference(tmp_path):
    out = reference_campaign(FleetConfig(**_CAMPAIGN),
                             tmp_path / "reference")
    return (out / "summary.json").read_bytes()


def _crashed(tmp_path, monkeypatch, name, fault):
    config = FleetConfig(**_CAMPAIGN)
    out = tmp_path / name
    monkeypatch.setenv("REPRO_FAULT", fault)
    with pytest.raises(ReproError, match="re-run the same"):
        run_campaign(config, out, jobs=2)
    monkeypatch.delenv("REPRO_FAULT")
    return config, out


def _assert_clean(out):
    shards = out / "shards"
    assert not list(shards.glob("*.ckpt"))
    assert not list(shards.glob("*.jsonl"))
    assert not list(out.glob("**/*.tmp*"))
    assert (out / "devices-mpu.jsonl").exists()


class TestConfigValidation:
    @pytest.mark.parametrize("hours", [0, -1, -0.5])
    def test_rejects_nonpositive_hours(self, hours):
        with pytest.raises(ReproError, match="hours must be positive"):
            FleetConfig(**{**_CAMPAIGN, "hours": hours})

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_rejects_rogue_fraction_outside_unit_interval(
            self, fraction):
        with pytest.raises(ReproError, match="rogue_fraction"):
            FleetConfig(**{**_CAMPAIGN, "rogue_fraction": fraction})

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_accepts_boundary_rogue_fractions(self, fraction):
        config = FleetConfig(**{**_CAMPAIGN,
                                "rogue_fraction": fraction})
        assert config.rogue_fraction == fraction

    @pytest.mark.parametrize("minutes", [0, -10.0])
    def test_rejects_nonpositive_checkpoint_cadence(self, minutes):
        # checkpoint_minutes <= 0 used to slip through __post_init__
        # and surface later as a confusing max(1, ...) cadence of one
        # simulated millisecond — it must fail loudly at construction
        with pytest.raises(ReproError,
                           match="checkpoint_minutes must be "
                                 "positive"):
            FleetConfig(**{**_CAMPAIGN,
                           "checkpoint_minutes": minutes})


class TestKillPointMatrix:
    def test_kill_mid_checkpoint_write(self, tmp_path, monkeypatch):
        # died between the temp write and its rename: a .ckpt.tmp<pid>
        # is stranded (nothing will ever reuse the name)
        reference = _reference(tmp_path)
        config, out = _crashed(tmp_path, monkeypatch, "midwrite",
                               "ckpt.before_replace:2")
        assert list((out / "shards").glob("*.ckpt.tmp*"))

        run_campaign(config, out, jobs=2)
        assert (out / "summary.json").read_bytes() == reference
        _assert_clean(out)

    def test_kill_after_checkpoint_commit(self, tmp_path, monkeypatch):
        # died right after renaming a checkpoint into place: the
        # device is mid-flight with a complete .ckpt and no record
        reference = _reference(tmp_path)
        config, out = _crashed(tmp_path, monkeypatch, "committed",
                               "ckpt.after_replace:2")
        assert list((out / "shards").glob("*.ckpt"))

        run_campaign(config, out, jobs=2)
        assert (out / "summary.json").read_bytes() == reference
        _assert_clean(out)

    def test_kill_after_record_before_unlink(self, tmp_path,
                                             monkeypatch):
        # died between flushing a device's record line and unlinking
        # its checkpoint: the device is complete, yet its .ckpt
        # survives — the stale-checkpoint leak.  The record must win
        # on resume and the orphan must be gone afterwards.
        reference = _reference(tmp_path)
        config, out = _crashed(tmp_path, monkeypatch, "leak",
                               "record.after_append:1")
        shards = out / "shards"
        recorded = set()
        for stream in shards.glob("*-u*.jsonl"):
            for line in stream.read_text().splitlines():
                recorded.add(json.loads(line)["device"])
        leaked = {int(path.stem.rsplit("dev", 1)[1])
                  for path in shards.glob("*-dev*.ckpt")}
        assert recorded, "fault fired after a record commit"
        assert recorded & leaked, \
            "completed device should have left its checkpoint behind"

        run_campaign(config, out, jobs=2)
        assert (out / "summary.json").read_bytes() == reference
        _assert_clean(out)


class TestOutDirHygiene:
    def test_stale_tmp_files_swept_on_resume(self, tmp_path,
                                             monkeypatch):
        config, out = _crashed(tmp_path, monkeypatch, "litter",
                               "ckpt.after_replace:2")
        # plant litter the sweep must remove: a coordinator-level
        # atomic write, a checkpoint write and a profile write, all
        # from a dead pid
        (out / "summary.json.tmp99999").write_text("torn")
        (out / "shards" / "mpu-dev00000.ckpt.tmp99999").write_text(
            "torn")
        (out / "profiles").mkdir()
        (out / "profiles" / "coordinator.json.tmp99999").write_text(
            "torn")

        lines = []
        run_campaign(config, out, jobs=2, report=lines.append)
        assert any("swept" in line for line in lines)
        assert not list(out.glob("**/*.tmp*"))

    def test_unit_streams_removed_after_merge(self, tmp_path):
        out = tmp_path / "streams"
        run_campaign(FleetConfig(**_CAMPAIGN), out, jobs=2)
        _assert_clean(out)

    def test_completed_model_resume_finishes_cleanup(self, tmp_path):
        # merge committed, then killed before the shard cleanup: the
        # early-continue branch must finish the job
        out = tmp_path / "latecleanup"
        run_campaign(FleetConfig(**_CAMPAIGN), out, jobs=1)
        stale = out / "shards" / "mpu-u00000.jsonl"
        stale.write_text((out / "devices-mpu.jsonl")
                         .read_text().splitlines()[0] + "\n")
        run_campaign(FleetConfig(**_CAMPAIGN), out, jobs=1)
        assert not stale.exists()


class TestCoordinatorProfile:
    def test_profile_reports_resumed_models(self, tmp_path):
        # a model satisfied from its merged file used to vanish from
        # coordinator.json entirely; it must now carry explicit status
        out = tmp_path / "profiled"
        run_campaign(FleetConfig(**_CAMPAIGN), out, jobs=1)
        profile_dir = out / "profiles"
        run_campaign(FleetConfig(**_CAMPAIGN), out, jobs=1,
                     profile_dir=profile_dir)
        profile = json.loads(
            (profile_dir / "coordinator.json").read_text())
        assert profile["models"]["mpu"] == {
            "resumed": True,
            "units_run": 0,
            "devices_resumed": _CAMPAIGN["devices"],
        }

    def test_profile_reports_fresh_models(self, tmp_path):
        out = tmp_path / "fresh"
        run_campaign(FleetConfig(**_CAMPAIGN), out, jobs=1,
                     profile_dir=out / "profiles")
        model = json.loads(
            (out / "profiles" / "coordinator.json").read_text()
        )["models"]["mpu"]
        assert model["resumed"] is False
        assert model["devices_resumed"] == 0
        assert model["units_run"] == len(model["units"])
        assert model["units_run"] > 0
