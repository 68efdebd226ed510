"""Shard invariance and crash/resume for fleet campaigns.

The executor's contract: the summary (and every per-device record) is
a pure function of the campaign parameters — never of how many worker
processes ran it, or of how many times it was killed and resumed.
"""

import json

import pytest

from repro.errors import ReproError
from repro.fleet.executor import FleetConfig, run_campaign
from repro.fleet.telemetry import _percentiles

#: small but non-trivial: ~11 simulated seconds per device, several
#: checkpoint segments, rogues likely present
_CAMPAIGN = dict(devices=4, hours=0.003, models=("mpu",), seed=7,
                 checkpoint_minutes=0.05, rogue_fraction=0.5)


def _run(tmp_path, name, jobs, **overrides):
    config = FleetConfig(**{**_CAMPAIGN, **overrides})
    out = tmp_path / name
    summary = run_campaign(config, out, jobs=jobs)
    return out, summary


class TestShardInvariance:
    def test_jobs_1_2_4_identical_summary(self, tmp_path):
        outs = [_run(tmp_path, f"jobs{jobs}", jobs)[0]
                for jobs in (1, 2, 4)]
        blobs = [(out / "summary.json").read_bytes() for out in outs]
        assert blobs[0] == blobs[1] == blobs[2]
        records = [(out / "devices-mpu.jsonl").read_bytes()
                   for out in outs]
        assert records[0] == records[1] == records[2]

    def test_campaign_dir_rejects_other_config(self, tmp_path):
        out, _ = _run(tmp_path, "campaign", 1)
        other = FleetConfig(**{**_CAMPAIGN, "seed": 8})
        with pytest.raises(ReproError, match="different campaign"):
            run_campaign(other, out, jobs=1)

    def test_jobs_is_not_campaign_identity(self, tmp_path):
        # --jobs is an execution detail: the campaign key must not
        # change with it, so the same directory accepts any jobs
        out, first = _run(tmp_path, "anyjobs", 2)
        summary = run_campaign(FleetConfig(**_CAMPAIGN), out, jobs=1)
        assert summary == first


class TestCrashResume:
    def test_kill_and_resume_is_byte_identical(self, tmp_path,
                                               monkeypatch):
        reference, _ = _run(tmp_path, "reference", 1)

        config = FleetConfig(**_CAMPAIGN)
        out = tmp_path / "crashed"
        # a worker process dies (os._exit) after its second committed
        # checkpoint write — mid-device, mid-campaign
        monkeypatch.setenv("REPRO_FAULT", "ckpt.after_replace:2")
        with pytest.raises(ReproError, match="re-run the same"):
            run_campaign(config, out, jobs=2)
        monkeypatch.delenv("REPRO_FAULT")
        assert (out / "shards").exists()         # checkpoints survive

        run_campaign(config, out, jobs=2)        # same command again
        assert (out / "summary.json").read_bytes() == \
            (reference / "summary.json").read_bytes()

    def test_kill_mid_checkpoint_write_falls_back(self, tmp_path,
                                                  monkeypatch):
        # worker dies after fully writing the Nth checkpoint's temp
        # file but BEFORE renaming it into place: the checkpoint path
        # must still hold the previous complete checkpoint (or not
        # exist), never a torn file, and the resume must land on the
        # byte-identical summary
        reference, _ = _run(tmp_path, "wreference", 1)

        config = FleetConfig(**_CAMPAIGN)
        out = tmp_path / "torn"
        monkeypatch.setenv("REPRO_FAULT", "ckpt.before_replace:2")
        with pytest.raises(ReproError, match="re-run the same"):
            run_campaign(config, out, jobs=2)
        monkeypatch.delenv("REPRO_FAULT")

        shards = out / "shards"
        tmp_leftovers = list(shards.glob("*.ckpt.tmp*"))
        assert tmp_leftovers, "the fault should leave a temp file"
        import pickle
        for ckpt in shards.glob("*.ckpt"):
            # every committed checkpoint is complete and loadable
            saved = pickle.loads(ckpt.read_bytes())
            assert saved["config_key"] == config.key()

        run_campaign(config, out, jobs=2)
        assert (out / "summary.json").read_bytes() == \
            (reference / "summary.json").read_bytes()

    def test_resume_under_different_jobs(self, tmp_path, monkeypatch):
        # kill a jobs=2 run, resume it serially via a worker process
        # count the original run never saw — per-device state makes
        # the unit layout irrelevant
        reference, _ = _run(tmp_path, "jreference", 1)

        config = FleetConfig(**_CAMPAIGN)
        out = tmp_path / "rejobs"
        monkeypatch.setenv("REPRO_FAULT", "ckpt.after_replace:2")
        with pytest.raises(ReproError, match="re-run the same"):
            run_campaign(config, out, jobs=2)
        monkeypatch.delenv("REPRO_FAULT")
        run_campaign(config, out, jobs=3)
        assert (out / "summary.json").read_bytes() == \
            (reference / "summary.json").read_bytes()

    def test_completed_models_are_not_rerun(self, tmp_path):
        out, first = _run(tmp_path, "resume", 1)
        lines = []
        config = FleetConfig(**_CAMPAIGN)
        summary = run_campaign(config, out, jobs=1,
                               report=lines.append)
        assert summary == first
        assert any("already complete" in line for line in lines)


class TestSummaryShape:
    def test_percentiles_nearest_rank(self):
        stats = _percentiles(list(range(1, 11)))
        assert stats == {"min": 1, "p50": 5, "p90": 9, "p99": 10,
                         "max": 10, "mean": 5.5}

    def test_summary_reports_models_and_containment(self, tmp_path):
        _, summary = _run(tmp_path, "shape", 2,
                          models=("none", "mpu"))
        assert set(summary["models"]) == {"none", "mpu"}
        mpu = summary["models"]["mpu"]
        assert mpu["overhead_vs_none_pct"] > 0
        assert mpu["rogue_contained"]
        # rogues fault and restart under the MPU, never under none
        if mpu["rogue_devices"]:
            assert mpu["faults"] > 0
            assert summary["models"]["none"]["faults"] == 0
