"""The firmware build cache as a disk tier (``.cache/firmware``).

Promises pinned here:

* **Fail-closed ingestion** — an entry is used only when it holds
  exactly one intact frame of allowlisted firmware data; a flipped
  bit, a torn write, garbage, a bad length field or an exploit pickle
  is rebuilt, never loaded or executed (:mod:`tests.tier_matrix`).
* **Poisoned-tier byte identity** — a fleet rerun over a build cache
  whose images have a bit flipped at every handler entry writes the
  same ``summary.json`` and ``devices-*.jsonl`` as the cold run.
* **Warm means warm** — a fresh process revives every firmware the
  paper's experiments and a fleet build, without one rebuild: the
  allowlist covers everything a :class:`Firmware` is made of.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.aft import cache
from repro.aft.models import IsolationModel
from repro.aft.phases import AftPipeline, AppSource
from repro.framestore import HEADER
from repro.pool import worker_pool
from tests.tier_matrix import HostileInputMatrix

REPO = Path(__file__).resolve().parents[1]

APP_SRC = """
int total = 0;
int on_tick(int step) { total += step; return total; }
int on_reset(int unused) { total = 0; return 0; }
"""


def _apps():
    return [AppSource("demo", APP_SRC, handlers=["on_tick", "on_reset"])]


class TestFailClosedIngestion(HostileInputMatrix):
    records = 1

    @pytest.fixture(autouse=True)
    def _private_tier(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "firmware"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
        self.builds = 0
        build = AftPipeline.build

        def counting_build(pipeline, apps):
            self.builds += 1
            return build(pipeline, apps)

        monkeypatch.setattr(AftPipeline, "build", counting_build)
        yield
        cache.clear_memory_cache()

    def _build(self):
        cache.clear_memory_cache()        # as a fresh process would
        return cache.build_firmware(IsolationModel.MPU, _apps())

    def fmt(self):
        return cache.LAYOUT.fmt

    def populate(self, tmp_path):
        self.segments = self._build().image.segments
        (path,) = (tmp_path / "firmware").glob("*.pkl")
        return path

    def flip_offset(self, data):
        # a bit of the linked image itself — the corruption an
        # unchecked pickle would load without complaint
        _address, blob = max(self.segments, key=lambda seg: len(seg[1]))
        return data.find(blob) + len(blob) // 2

    def assert_recovers(self, path, intact, corrupt):
        assert intact == 0                # one frame: all or nothing
        before = self.builds
        assert self._build().image.segments == self.segments
        assert self.builds == before + 1  # rebuilt, not loaded
        # the rebuild overwrote the entry: the next process loads it
        assert self._build().image.segments == self.segments
        assert self.builds == before + 1


# -- a poisoned tier under a real campaign ------------------------------

_FLEET = ["--devices", "3", "--hours", "0.003", "--model", "mpu",
          "--seed", "3"]


def _fleet_run(out, env):
    result = subprocess.run(
        [sys.executable, "-m", "repro", "fleet", "run", *_FLEET,
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def _poison_handler_entries(path) -> int:
    """Flip the low bit of the first byte of every handler of the
    image stored at ``path``; returns the number of bits flipped."""
    data = bytearray(path.read_bytes())
    payload = bytes(data)
    if payload.startswith(cache.LAYOUT.fmt.magic):
        payload = payload[len(cache.LAYOUT.fmt.magic) + HEADER.size:]
    firmware = pickle.loads(payload)      # our own, trusted entry
    flipped = 0
    for app in firmware.apps.values():
        for entry in app.handlers.values():
            for address, blob in firmware.image.segments:
                if address <= entry < address + len(blob):
                    data[data.find(blob) + entry - address] ^= 0x01
                    flipped += 1
    path.write_bytes(bytes(data))
    return flipped


class TestPoisonedTier:
    def test_poisoned_rerun_is_byte_identical(self, tmp_path):
        env = dict(os.environ)
        env.pop("REPRO_NO_CACHE", None)
        env.update(PYTHONPATH=str(REPO / "src"),
                   REPRO_CACHE_DIR=str(tmp_path / "firmware"),
                   REPRO_EXEC_CACHE_DIR=str(tmp_path / "exec"))
        _fleet_run(tmp_path / "cold", env)
        entries = sorted((tmp_path / "firmware").glob("*.pkl"))
        assert len(entries) == 3
        assert all(_poison_handler_entries(path) for path in entries)
        _fleet_run(tmp_path / "poisoned", env)
        outputs = ["summary.json", "devices-mpu.jsonl"]
        for name in outputs:
            assert (tmp_path / "poisoned" / name).read_bytes() == \
                (tmp_path / "cold" / name).read_bytes(), name


# -- warm revival -------------------------------------------------------

def _paper_and_fleet_builds() -> None:
    """Every cached build ``experiments`` makes (at tiny run counts,
    which build the same firmwares as ``--quick``) and a jittered
    fleet's device firmwares under every model."""
    from repro.experiments.parallel import run_all_parallel
    from repro.fleet.device import build_device_apps
    from repro.fleet.population import device_spec
    from repro.fleet.telemetry import DEFAULT_MODELS, MODELS_BY_KEY
    run_all_parallel(1, table1_runs=2, figure3_runs=2, arp_samples=2)
    for key in DEFAULT_MODELS:
        model = MODELS_BY_KEY[key]
        for device_id in range(4):
            apps, _rogue = build_device_apps(device_spec(5, device_id),
                                             model)
            cache.build_firmware(model, apps)


class _NoRebuild(AftPipeline):
    def build(self, apps):
        raise AssertionError(
            f"{self.config.model.name} firmware rebuilt, not revived")


def _revive_everything(directory) -> int:
    """Fresh-process entry point: every cached build must come back
    from disk (the ARP profiler's uncacheable build still runs)."""
    os.environ["REPRO_CACHE_DIR"] = str(directory)
    cache.clear_memory_cache()
    cache.AftPipeline = _NoRebuild
    _paper_and_fleet_builds()
    return len(cache._memory_cache)


class TestWarmRevival:
    def test_fresh_process_rebuilds_nothing(self, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cache.clear_memory_cache()
        _paper_and_fleet_builds()
        built = len(list(tmp_path.glob("*.pkl")))
        cache.clear_memory_cache()
        with worker_pool(2) as pool:
            revived = pool.submit(_revive_everything, tmp_path).result()
        assert revived == built > 12
