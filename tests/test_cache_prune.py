"""On-disk firmware cache bounding: REPRO_CACHE_MAX_MB + LRU prune
(the firmware tier's :class:`~repro.framestore.StoreLayout`)."""

import os
import pickle

import pytest

from repro.aft import cache
from repro.aft.models import IsolationModel
from repro.aft.phases import AppSource

APP_SRC = """
int total = 0;
int on_tick(int step) { total += step; return total; }
"""


def _make_entry(directory, name, size, mtime):
    path = directory / f"{name}.pkl"
    path.write_bytes(b"\0" * size)
    os.utime(path, (mtime, mtime))
    return path


class TestPruneCache:
    def test_evicts_oldest_until_under_limit(self, tmp_path):
        old = _make_entry(tmp_path, "a" * 8, 1000, mtime=100)
        mid = _make_entry(tmp_path, "b" * 8, 1000, mtime=200)
        new = _make_entry(tmp_path, "c" * 8, 1000, mtime=300)
        removed = cache.LAYOUT.prune(tmp_path, max_bytes=2000)
        assert removed == 1
        assert not old.exists()
        assert mid.exists() and new.exists()

    def test_noop_when_within_limit(self, tmp_path):
        kept = _make_entry(tmp_path, "a" * 8, 100, mtime=100)
        assert cache.LAYOUT.prune(tmp_path, max_bytes=2000) == 0
        assert kept.exists()

    def test_zero_or_negative_limit_disables(self, tmp_path):
        kept = _make_entry(tmp_path, "a" * 8, 5000, mtime=100)
        assert cache.LAYOUT.prune(tmp_path, max_bytes=0) == 0
        assert cache.LAYOUT.prune(tmp_path, max_bytes=-1) == 0
        assert kept.exists()

    def test_missing_directory_is_noop(self, tmp_path):
        assert cache.LAYOUT.prune(tmp_path / "nope", max_bytes=1) == 0

    def test_ignores_non_pkl_files(self, tmp_path):
        note = tmp_path / "README.txt"
        note.write_text("not a cache entry")
        entry = _make_entry(tmp_path, "a" * 8, 4000, mtime=100)
        assert cache.LAYOUT.prune(tmp_path, max_bytes=2000) == 1
        assert note.exists() and not entry.exists()


class TestCacheMaxBytes:
    def test_default_is_256_mb(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
        assert cache.LAYOUT.max_bytes() == 256 * 1024 * 1024

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "1.5")
        assert cache.LAYOUT.max_bytes() == int(1.5 * 1024 * 1024)

    def test_garbage_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "lots")
        assert cache.LAYOUT.max_bytes() == 256 * 1024 * 1024


class TestBuildFirmwareLru:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
        cache.clear_memory_cache()
        yield tmp_path
        cache.clear_memory_cache()

    def _apps(self):
        return [AppSource("demo", APP_SRC, handlers=["on_tick"])]

    def test_disk_hit_touches_mtime(self, isolated_cache):
        cache.build_firmware(IsolationModel.NO_ISOLATION, self._apps())
        (entry,) = isolated_cache.glob("*.pkl")
        os.utime(entry, (100, 100))       # pretend it is ancient
        cache.clear_memory_cache()        # force the disk path
        cache.build_firmware(IsolationModel.NO_ISOLATION, self._apps())
        assert entry.stat().st_mtime > 100   # read refreshed the entry

    def test_write_prunes_over_budget_entries(self, isolated_cache,
                                              monkeypatch):
        stale = _make_entry(isolated_cache, "f" * 8,
                            2 * 1024 * 1024, mtime=100)
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "1")
        cache.build_firmware(IsolationModel.NO_ISOLATION, self._apps())
        # the fresh build's own entry survives; the old blob is gone
        assert not stale.exists()
        assert list(isolated_cache.glob("*.pkl"))

    def test_disk_round_trip_same_firmware(self, isolated_cache):
        built = cache.build_firmware(IsolationModel.NO_ISOLATION, self._apps())
        cache.clear_memory_cache()
        loaded = cache.build_firmware(IsolationModel.NO_ISOLATION, self._apps())
        assert built is not loaded        # came back through pickle
        assert pickle.dumps(built.image) == pickle.dumps(loaded.image)
