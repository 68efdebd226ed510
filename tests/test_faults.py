"""The fault-point registry: every commit point gets a kill-and-resume
test.

``REPRO_FAULT=site:N`` kills a process at the Nth hit of a named commit
point (:mod:`repro.faults`).  :class:`TestEverySite` enumerates
:data:`repro.faults.SITES`: for each of a site's kill plans it kills a
small campaign through the real CLI (so ``os._exit`` never lands in
pytest), proves the kill happened, resumes the campaign with the
variable unset, and compares ``summary.json`` and every
``devices-*.jsonl`` with the per-device reference byte for byte.  A site
registered without a kill plan here fails the suite.
"""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import faults
from repro.errors import ReproError
from repro.fleet.executor import FleetConfig
from tests.fleet_reference import reference_campaign

REPO = Path(__file__).resolve().parents[1]

_CAMPAIGN = dict(devices=2, hours=0.002, models=("mpu",), seed=11,
                 checkpoint_minutes=0.05, rogue_fraction=0.5)
_ARGS = ["--devices", "2", "--hours", "0.002", "--model", "mpu",
         "--seed", "11", "--checkpoint-minutes", "0.05",
         "--rogue-fraction", "0.5"]

#: how each site is killed, and at which hit: ``local`` arms a serial
#: ``fleet run``; ``pool`` arms a ``fleet run --jobs 2``, whose pool
#: child dies; ``coordinator`` arms a ``fleet run --listen`` served by
#: one worker; ``worker`` arms that worker.  Sites whose commit point
#: sits on a code path several transports share get a plan per path.
_PLANS = {
    "ckpt.before_replace": [("local", 3)],
    "ckpt.after_replace": [("local", 3)],
    "record.after_append": [("local", 1)],
    "merge.after_replace": [("local", 1), ("coordinator", 1)],
    "summary.before_replace": [("local", 1), ("coordinator", 1)],
    "store.after_append": [("local", 20), ("pool", 20)],
    "status.after_replace": [("coordinator", 2)],
    "wire.after_ckpt": [("worker", 2)],
}

#: one test per plan; a site's first plan is named by the site alone
_CASES = [pytest.param(site, where, count,
                       id=site if index == 0 else f"{site}-{where}")
          for site, plans in _PLANS.items()
          for index, (where, count) in enumerate(plans)]


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    # built before the per-test tier fixture: a campaign here would
    # publish memos into the default trace tier
    return reference_campaign(
        FleetConfig(**_CAMPAIGN),
        tmp_path_factory.mktemp("fault-reference") / "out")


@pytest.fixture(scope="module")
def firmware_dir(tmp_path_factory):
    # firmware builds hold no fault site, so one warm cache serves
    # every run in this module
    return tmp_path_factory.mktemp("fault-firmware")


def _env(tmp_path, firmware_dir, fault=None):
    """A subprocess environment with private, cold exec and trace
    tiers, armed with ``fault`` (or with no fault at all)."""
    env = os.environ.copy()
    env.pop("REPRO_FAULT", None)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(firmware_dir)
    env["REPRO_EXEC_CACHE_DIR"] = str(tmp_path / "exec")
    env["REPRO_TRACE_CACHE_DIR"] = str(tmp_path / "trace")
    if fault is not None:
        env["REPRO_FAULT"] = fault
    return env


def _command(*args):
    return [sys.executable, "-m", "repro", "fleet", *args]


def _coordinator(out, env):
    return subprocess.Popen(
        _command("run", *_ARGS, "--out", str(out),
                 "--listen", "127.0.0.1:0", "--lease-seconds", "5",
                 "--heartbeat-seconds", "0.5"),
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def _address(out, coordinator):
    path = out / "coordinator.addr"
    deadline = time.monotonic() + 60
    while not path.exists():
        assert coordinator.poll() is None, coordinator.stderr.read()
        assert time.monotonic() < deadline, "no coordinator.addr"
        time.sleep(0.02)
    return path.read_text().strip()


def _worker(address, env, *extra):
    return subprocess.run(
        _command("worker", "--connect", address, *extra),
        env=env, capture_output=True, timeout=120)


def _assert_matches(out, reference):
    names = sorted(path.name for path in reference.glob("devices-*"))
    assert sorted(path.name for path in out.glob("devices-*")) == names
    for name in ["summary.json", *names]:
        assert (out / name).read_bytes() == \
            (reference / name).read_bytes(), name
    assert not list(out.glob("**/*.ckpt"))
    assert not list(out.glob("**/*.tmp*"))
    assert not list(out.glob("shards/*.jsonl"))


class TestEverySite:
    def test_every_site_has_a_kill_plan(self):
        assert set(_PLANS) == set(faults.SITES)

    def test_every_hit_is_registered_and_every_site_hit(self):
        called = set()
        for path in (REPO / "src").rglob("*.py"):
            called |= set(re.findall(r'\bhit\(\s*"([^"]+)"',
                                     path.read_text()))
        assert called == set(faults.SITES)

    @pytest.mark.parametrize("site, where, count", _CASES)
    def test_kill_at_site_then_resume_is_byte_identical(
            self, site, where, count, tmp_path, reference,
            firmware_dir):
        armed = _env(tmp_path, firmware_dir, f"{site}:{count}")
        plain = _env(tmp_path, firmware_dir)
        out = tmp_path / "out"
        if where in ("local", "pool"):
            jobs = ["--jobs", "2"] if where == "pool" else []
            killed = subprocess.run(
                _command("run", *_ARGS, *jobs, "--out", str(out)),
                env=armed, capture_output=True, text=True,
                timeout=120)
            if where == "local":
                assert killed.returncode == faults.EXIT_CODE, \
                    killed.stderr
            else:
                # the pool child died at the site, and the run failed
                # for that reason and no other
                assert killed.returncode == 2, killed.stderr
                assert "terminated abruptly" in killed.stderr, \
                    killed.stderr
            resumed = subprocess.run(
                _command("run", *_ARGS, *jobs, "--out", str(out)),
                env=plain, capture_output=True, timeout=120)
            assert resumed.returncode == 0, resumed.stderr
        elif where == "coordinator":
            coordinator = _coordinator(out, armed)
            try:
                address = _address(out, coordinator)
                worker = subprocess.Popen(
                    _command("worker", "--connect", address,
                             "--retry-limit", "0"),
                    env=plain, stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL)
                try:
                    assert coordinator.wait(timeout=120) == \
                        faults.EXIT_CODE
                finally:
                    worker.kill()
                    worker.wait()
            finally:
                coordinator.kill()
                coordinator.wait()
            # the resumed coordinator publishes its own address; it
            # may finish before the worker connects (a kill after the
            # last merge leaves no work), so the worker tries once
            (out / "coordinator.addr").unlink()
            coordinator = _coordinator(out, plain)
            try:
                fresh = _worker(_address(out, coordinator), plain,
                                "--retry-limit", "0")
                assert fresh.returncode in (0, 1), fresh.stderr
                assert coordinator.wait(timeout=60) == 0
            finally:
                coordinator.kill()
                coordinator.wait()
        else:
            coordinator = _coordinator(out, plain)
            try:
                address = _address(out, coordinator)
                killed = _worker(address, armed)
                assert killed.returncode == faults.EXIT_CODE, \
                    killed.stderr
                fresh = _worker(address, plain)
                assert fresh.returncode == 0, fresh.stderr
                assert coordinator.wait(timeout=60) == 0
            finally:
                coordinator.kill()
                coordinator.wait()
        _assert_matches(out, reference)


class TestMalformedFault:
    @pytest.mark.parametrize("spec", [
        "ckpt.after_replace", "no.such_site:1", "ckpt.after_replace:0",
        "ckpt.after_replace:-1", "ckpt.after_replace:two"])
    def test_parse_rejects(self, spec):
        with pytest.raises(ReproError, match="wire.after_ckpt"):
            faults.parse(spec)

    def test_parse_accepts_registered_site(self):
        assert faults.parse("merge.after_replace:12") == \
            ("merge.after_replace", 12)

    @pytest.mark.parametrize("spec", ["ckpt.after_replaced:1",
                                      "ckpt.after_replace:0"])
    def test_cli_exits_2_before_creating_the_out_dir(
            self, spec, tmp_path, firmware_dir):
        out = tmp_path / "never"
        run = subprocess.run(
            _command("run", *_ARGS, "--out", str(out)),
            env=_env(tmp_path, firmware_dir, spec),
            capture_output=True, text=True, timeout=60)
        assert run.returncode == 2
        assert "ckpt.before_replace" in run.stderr
        assert not out.exists()
