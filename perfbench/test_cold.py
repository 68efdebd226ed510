"""No state survives a benchmark run.

    python3 -m pytest perfbench/test_cold.py

Runs one workload twice at toy size, traced, and checks that both runs
start equally cold -- the same number of firmware builds, nothing
revived from the translation or trace tiers -- and that the repo's
own ``.cache/`` was neither read nor written.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402


def _tree(path: Path) -> dict:
    """Size and modification time of every file."""
    if not path.exists():
        return {}
    return {str(p.relative_to(path)): (p.stat().st_size,
                                       p.stat().st_mtime_ns)
            for p in sorted(path.rglob("*")) if p.is_file()}


def _traced_rep(work: Path) -> dict:
    work.mkdir(parents=True)
    trace = work.parent / f"{work.name}.json"
    subprocess.run(
        [sys.executable, str(HERE / "rep.py"), "--workload",
         "fleet-cohort", "--seed", "4", "--toy", "--work", str(work),
         "--trace-out", str(trace)],
        check=True, capture_output=True, cwd=ROOT)
    data = json.loads(trace.read_text())
    assert not data["result"]["checks"], data["result"]["checks"]
    return metrics.layer_metrics(data["processes"], {})


def test_runs_start_cold_and_leave_repo_cache_alone():
    cache = ROOT / ".cache"
    before = _tree(cache)
    base = HERE / "_work" / f"test-{os.getpid()}"
    try:
        first = _traced_rep(base / "a")
        second = _traced_rep(base / "b")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for run in (first, second):
        assert run["aft.builds"] > 0
        assert run["msp430.execcache.disk_loaded"] == 0
        assert run["fleet.tracetier.hits"] == 0
        assert run["fleet.tracetier.misses"] > 0
    for name in ("aft.builds", "msp430.execcache.publishes",
                 "fleet.cohort.leads", "msp430.cpu.insns"):
        assert first[name] == second[name], name
    assert _tree(cache) == before
