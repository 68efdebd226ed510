"""The four benchmark workloads: inputs, set-up, timed phase, checks.

Every workload runs serially on one core and starts from private,
empty cache tiers (the caller points ``REPRO_CACHE_DIR``,
``REPRO_EXEC_CACHE_DIR`` and ``REPRO_TRACE_CACHE_DIR`` at fresh
directories before :mod:`repro` is imported).  See ``WORKLOADS.md``
for why each workload exists and which layers it stresses.

Fleet populations come from the benchmark seed through
:func:`repro.fleet.population.device_spec` at the default rogue
fraction, but not one to one: the seed picks a *fleet seed* from the
family of populations with the typical nominal load
(:func:`fleet_seed`).  Raw fleet seeds differ up to 2x in work -- a
device carries 2 to 5 apps, and the accelerometer apps alone span 10
to 32 Hz -- so a timing taken on one raw seed says more about the
population than about the code.  Every chosen population has device 0
as a rogue (the other devices are rogues by the default draw), and
its total app count, history compactions, accelerometer events and
(on the jittered shape) estimated simulated cycles sit at the medians
of ``device_spec``'s own distribution for the shape's device count
(``WORKLOADS.md`` records that distribution).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"

MODELS = ("none", "feature-limited", "software-only", "mpu")
#: models whose summary must report the rogue contained
ISOLATING = ("feature-limited", "software-only", "mpu")
#: the CLI's and ``FleetConfig``'s default
ROGUE_FRACTION = 0.125
#: fleet seeds tried per benchmark seed before giving up
SEARCH = 100_000
#: the handlers whose event rate dominates a device's dispatch count
ACCEL_HANDLER = "on_accel"
COMPACTION_HANDLER = "quicksort_run"
#: simulated cycles per event of each catalog handler, summed over the
#: four models (``make_refs.py --costs`` measures them).  Only weights
#: for choosing populations: fixed, so a change to the simulator's
#: costs does not change which population a seed picks
HANDLER_CYCLES = {
    ("batterymeter", "on_battery"): 3868, ("batterymeter", "on_minute"): 1715,
    ("clock", "on_second"): 659,
    ("falldetection", "on_accel"): 2021, ("falldetection", "on_status"): 1389,
    ("hr", "on_hr_sample"): 3966, ("hr", "on_display"): 662,
    ("hrlog", "on_hr_sample"): 730, ("hrlog", "on_flush"): 480,
    ("pedometer", "on_accel"): 3878, ("pedometer", "on_minute"): 1453,
    ("rest", "on_accel"): 4376, ("rest", "on_minute"): 512,
    ("sun", "on_light"): 2855, ("sun", "on_show"): 2093,
    ("sun", "on_midnight"): 420,
    ("temperature", "on_temp"): 3357, ("temperature", "on_show"): 1611,
}


@dataclass(frozen=True)
class FleetShape:
    """One fleet population shape and the campaign run over it."""

    kind: str                 # reference-digest family
    devices: int
    sim_s: int
    checkpoint_s: float
    homogeneous: bool
    #: population filter over the distinct devices: apps, history
    #: compactions inside the horizon, accelerometer events and
    #: estimated catalog-handler cycles (targets and relative
    #: tolerances), each target the median over ``device_spec``'s
    #: populations of this size; ``None`` skips a criterion
    apps: Optional[int]
    compactions: Optional[int]
    accel: Optional[int]
    accel_tol: float = 0.04
    cycles: Optional[int] = None
    cycles_tol: float = 0.03

    @property
    def hours(self) -> float:
        return self.sim_s / 3600.0

    @property
    def checkpoint_minutes(self) -> float:
        return self.checkpoint_s / 60.0


JITTERED = FleetShape("jittered", devices=4, sim_s=30, checkpoint_s=7.5,
                      homogeneous=False, apps=14, compactions=2,
                      accel=2668, accel_tol=0.10, cycles=8_341_224)
CLONES = FleetShape("clones", devices=8, sim_s=30, checkpoint_s=7.5,
                    homogeneous=True, apps=4, compactions=1, accel=638)
#: the size the cold-state test runs at
TOY_JITTERED = FleetShape("toy", devices=2, sim_s=6, checkpoint_s=2.0,
                          homogeneous=False, apps=None,
                          compactions=None, accel=None)
TOY_CLONES = FleetShape("toy", devices=3, sim_s=6, checkpoint_s=2.0,
                        homogeneous=True, apps=None, compactions=None,
                        accel=None)


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Optional[FleetShape] = None
    cohort: bool = False
    socket: bool = False

    @property
    def fleet(self) -> bool:
        return self.shape is not None


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fleet-jittered", JITTERED),
    Workload("fleet-cohort", JITTERED, cohort=True),
    Workload("fleet-clones-socket", CLONES, cohort=True, socket=True),
    Workload("paper-quick"),
)}


def toy(workload: Workload) -> Workload:
    """The same workload at the cold-state test's size."""
    if not workload.fleet:
        return workload
    shape = TOY_CLONES if workload.shape.homogeneous else TOY_JITTERED
    return Workload(workload.name, shape, workload.cohort,
                    workload.socket)


# -- population choice --------------------------------------------------------

def _events(source, sim_ms: int) -> int:
    """Firings of one periodic source inside ``[0, sim_ms)``."""
    if source.phase_ms >= sim_ms:
        return 0
    return (sim_ms - 1 - source.phase_ms) // source.period_ms + 1


def population_load(specs, sim_ms: int) -> dict:
    """The nominal load of a population: what :func:`fleet_seed`
    filters on, also printed with every run."""
    load = {"apps": 0, "compactions": 0, "accel": 0, "cycles": 0,
            "rogues": sum(spec.rogue for spec in specs)}
    for spec in specs:
        load["apps"] += len(spec.apps)
        for source in spec.sources:
            events = _events(source, sim_ms)
            load["cycles"] += events * HANDLER_CYCLES.get(
                (source.app, source.handler), 0)
            if source.handler == ACCEL_HANDLER:
                load["accel"] += events
            elif source.handler == COMPACTION_HANDLER:
                load["compactions"] += events
    return load


def distinct_specs(shape: FleetShape, fleet_seed_: int) -> list:
    from repro.fleet.population import device_spec
    count = 1 if shape.homogeneous else shape.devices
    return [device_spec(fleet_seed_, device_id, ROGUE_FRACTION,
                        shape.homogeneous)
            for device_id in range(count)]


def _accepts(shape: FleetShape, specs) -> bool:
    if not specs[0].rogue:
        return False
    load = population_load(specs, shape.sim_s * 1000)
    if shape.apps is not None and load["apps"] != shape.apps:
        return False
    if shape.compactions is not None and \
            load["compactions"] != shape.compactions:
        return False
    for target, tolerance, value in (
            (shape.accel, shape.accel_tol, load["accel"]),
            (shape.cycles, shape.cycles_tol, load["cycles"])):
        if target is not None and \
                abs(value - target) > tolerance * target:
            return False
    return True


def fleet_seed(shape: FleetShape, seed: int) -> int:
    """The first fleet seed in ``[seed*SEARCH, (seed+1)*SEARCH)`` whose
    population passes the shape's filter."""
    for candidate in range(seed * SEARCH, (seed + 1) * SEARCH):
        if _accepts(shape, distinct_specs(shape, candidate)):
            return candidate
    raise SystemExit(f"no population of shape {shape.kind} found for "
                     f"seed {seed}")


def fleet_config(shape: FleetShape, fleet_seed_: int):
    from repro.fleet.executor import FleetConfig
    return FleetConfig(devices=shape.devices, hours=shape.hours,
                       models=MODELS, seed=fleet_seed_,
                       checkpoint_minutes=shape.checkpoint_minutes,
                       rogue_fraction=ROGUE_FRACTION,
                       homogeneous=shape.homogeneous)


# -- set-up -------------------------------------------------------------------

def prebuild_fleet(config) -> int:
    """Build every firmware the campaign runs, and its machine
    prototype, into the (empty) build cache; returns the build count."""
    from repro.aft.cache import build_firmware
    from repro.fleet.device import build_device_apps
    from repro.fleet.population import device_spec
    from repro.fleet.telemetry import MODELS_BY_KEY
    from repro.kernel.machine import AmuletMachine
    builds = 0
    for key in config.models:
        model = MODELS_BY_KEY[key]
        seen = set()
        for device_id in range(config.devices):
            spec = device_spec(config.seed, device_id,
                               config.rogue_fraction, config.homogeneous)
            apps, _rogue = build_device_apps(spec, model)
            identity = tuple(app.name for app in apps)
            if identity in seen:
                continue
            seen.add(identity)
            AmuletMachine(build_firmware(model, apps))
            builds += 1
    return builds


def prebuild_paper() -> int:
    """The twelve cacheable builds ``experiments --quick`` runs, with
    machine prototypes where the experiment builds a machine.  The ARP
    profiler's counting build cannot be cached and stays timed."""
    from repro.aft.cache import build_firmware
    from repro.apps.catalog import load_benchmarks, load_suite
    from repro.experiments.code_size import SIZE_MODELS
    from repro.experiments.figure3 import DEFAULT_MODELS as F3_MODELS
    from repro.experiments.table1 import DEFAULT_MODELS as T1_MODELS
    from repro.kernel.machine import AmuletMachine
    for model in T1_MODELS:
        AmuletMachine(build_firmware(model, load_benchmarks(["synthetic"])))
    for model in F3_MODELS:
        AmuletMachine(build_firmware(
            model, load_benchmarks(["activity", "quicksort"])))
    for model in SIZE_MODELS:
        build_firmware(model, load_suite())
    return len(T1_MODELS) + len(F3_MODELS) + len(SIZE_MODELS)


# -- timed phases -------------------------------------------------------------

def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_paper() -> dict:
    """``experiments --quick``, in process and serial."""
    from repro.experiments.parallel import run_all_parallel
    report = run_all_parallel(1, table1_runs=30, figure3_runs=30,
                              arp_samples=16)
    text = report.render()
    return {"report": report, "text": text}


def run_local_campaign(config, out_dir: Path, cohort: bool) -> None:
    from repro.fleet import executor
    executor.run_campaign(config, out_dir, jobs=1, cohort=cohort)


class SocketCampaign:
    """The socket workload's coordinator side: ``SocketTransport`` with
    the CLI's ``--listen`` defaults serving one ``repro fleet worker``
    (through the benchmark's worker shim) on loopback."""

    def __init__(self, config, out_dir: Path, cohort: bool,
                 worker_trace: Optional[Path] = None):
        self.config = config
        self.out_dir = out_dir
        self.cohort = cohort
        self.worker_trace = worker_trace
        self.transport = None
        self.worker = None
        self.worker_rss_mb = 0.0
        self._joined = threading.Event()
        self._t_join = 0.0
        self._done = threading.Event()
        self._t_done = 0.0
        self._error: List[BaseException] = []

    def _report(self, line: str) -> None:
        if line.startswith("worker ") and " connected from " in line:
            self._t_join = time.perf_counter()
            self._m_join = time.monotonic()
            self._joined.set()

    def _campaign(self) -> None:
        from repro.fleet import executor
        try:
            executor.run_campaign(self.config, self.out_dir, jobs=1,
                                  cohort=self.cohort,
                                  transport=self.transport,
                                  report=self._report)
        except BaseException as error:      # re-raised in run()
            self._error.append(error)
        finally:
            self._t_done = time.perf_counter()
            self._m_done = time.monotonic()
            self._done.set()

    def run(self) -> dict:
        """Start the coordinator, spawn the worker, and wait for both.
        Returns ``join_s`` (worker spawn through welcome), ``wall_s``
        (worker joined through ``summary.json`` written), their
        ``time.monotonic`` spans, and the worker's ``busy_s`` (time in
        its leases)."""
        from repro.fleet.net.coordinator import SocketTransport
        from repro.fleet.net.worker import parse_endpoint
        host, port = parse_endpoint("127.0.0.1:0")
        # the CLI's --listen defaults: 30 s leases, 5 s heartbeats, and
        # the transport's own 1 s idle retry
        self.transport = SocketTransport(host=host, port=port,
                                         lease_timeout_s=30.0,
                                         heartbeat_s=5.0)
        thread = threading.Thread(target=self._campaign,
                                  name="bench-coordinator", daemon=True)
        thread.start()
        addr_path = self.out_dir / "coordinator.addr"
        deadline = time.monotonic() + 60
        while not addr_path.exists():
            if self._done.is_set() or time.monotonic() > deadline:
                thread.join(timeout=5)
                raise RuntimeError(f"coordinator never listened: "
                                   f"{self._error}")
            time.sleep(0.005)
        address = addr_path.read_text().strip()
        stats_path = self.out_dir.parent / "worker-stats.json"
        command = [sys.executable, str(HERE / "worker_shim.py"),
                   "--connect", address, "--stats-out", str(stats_path)]
        if self.worker_trace is not None:
            command += ["--trace-out", str(self.worker_trace)]
        log = (self.out_dir.parent / "worker.log").open("wb")
        t_spawn, m_spawn = time.perf_counter(), time.monotonic()
        try:
            self.worker = subprocess.Popen(command, stdout=log,
                                           stderr=subprocess.STDOUT,
                                           env=os.environ.copy())
            if not self._joined.wait(timeout=60):
                raise RuntimeError("worker never joined")
            join_s = self._t_join - t_spawn
            self._done.wait(timeout=150)
            code = self.worker.wait(timeout=30)
        finally:
            if self.worker is not None and self.worker.poll() is None:
                self.worker.kill()
                self.worker.wait()
            log.close()
        thread.join(timeout=10)
        if self._error:
            raise self._error[0]
        if code != 0:
            raise RuntimeError(f"worker exited with {code}")
        self.worker_rss_mb = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        worker = json.loads(stats_path.read_text())
        return {"wall_s": self._t_done - self._t_join, "join_s": join_s,
                "join_span": [m_spawn, self._m_join],
                "wall_span": [self._m_join, self._m_done],
                "busy_s": worker["busy_s"]}


# -- verification -------------------------------------------------------------

def load_refs() -> dict:
    if REFS_PATH.exists():
        return json.loads(REFS_PATH.read_text())
    return {}


def fleet_digests(out_dir: Path) -> dict:
    """Digests of a finished campaign's result files."""
    return {
        "summary": sha((out_dir / "summary.json").read_bytes()),
        "devices": {key: sha((out_dir / f"devices-{key}.jsonl")
                             .read_bytes())
                    for key in MODELS
                    if (out_dir / f"devices-{key}.jsonl").exists()},
    }


def verify_fleet(shape: FleetShape, seed: int, config, out_dir: Path,
                 requeues: int = 0) -> dict:
    """Count failed operations (device runs) of one campaign.

    Every device must have a record under every model, every isolating
    model must contain the rogue, and -- when a reference exists for
    this seed -- each model's records must match it byte for byte."""
    failed = 0
    checks: List[str] = []
    summary_path = out_dir / "summary.json"
    summary = json.loads(summary_path.read_text()) \
        if summary_path.exists() else {"models": {}}
    digests = fleet_digests(out_dir) if summary_path.exists() else \
        {"summary": None, "devices": {}}
    reference = load_refs().get(shape.kind, {}).get(str(seed))
    for key in MODELS:
        path = out_dir / f"devices-{key}.jsonl"
        ids = set()
        if path.exists():
            ids = {json.loads(line)["device"]
                   for line in path.read_text().splitlines()}
        missing = config.devices - len(ids & set(range(config.devices)))
        model_failed = missing
        if missing:
            checks.append(f"{key}: {missing} device(s) without a record")
        model = summary["models"].get(key, {})
        if key in ISOLATING and not model.get("rogue_contained", False):
            model_failed = max(model_failed,
                               max(1, model.get("rogue_devices", 0)))
            checks.append(f"{key}: rogue not contained")
        if reference is not None and \
                digests["devices"].get(key) != reference["devices"][key]:
            model_failed = config.devices
            checks.append(f"{key}: records differ from the reference")
        failed += model_failed
    if reference is not None and digests["summary"] != reference["summary"]:
        checks.append("summary.json differs from the reference")
        failed = max(failed, 1)
    if requeues:
        checks.append(f"{requeues} lease(s) requeued")
        failed += requeues
    return {
        "attempted": config.devices * len(MODELS),
        "failed": failed,
        "checks": checks,
        "reference": reference is not None,
        "summary_sha": digests["summary"],
        "digests": digests,
        "rogues": summary["models"].get("mpu", {}).get("rogue_devices", 0),
        "dispatches": sum(model.get("dispatches", 0)
                          for model in summary["models"].values()),
        "sim_cycles": sum(model.get("cycles", 0)
                          for model in summary["models"].values()),
    }


#: report sections -> the experiment cells that produce them
PAPER_CELLS = {"table1": 4, "figure2": 1, "figure3": 4, "code_size": 4}


def table1_error_pct(report) -> float:
    """Mean absolute error of the simulated Table 1 (memory access and
    context switch cycles, four models) against the paper's."""
    from repro.experiments.table1 import PAPER_TABLE1
    errors = []
    for model, (access, switch) in PAPER_TABLE1.items():
        costs = report.table1.costs[model]
        errors.append(abs(costs.memory_access - access) / access)
        errors.append(abs(costs.context_switch - switch) / switch)
    return 100.0 * sum(errors) / len(errors)


def verify_paper(result: dict) -> dict:
    report = result["report"]
    sections = {
        "table1": report.table1.render(),
        "figure2": report.figure2.render(),
        "figure3": report.figure3.render(),
        "code_size": report.code_size.render(),
    }
    shapes = {"table1": report.table1.shape_holds(),
              "figure2": report.figure2.shape_holds(),
              "figure3": report.figure3.shape_holds()}
    reference = load_refs().get("paper-quick")
    failed = 0
    checks: List[str] = []
    for name, text in sections.items():
        bad = not shapes.get(name, True)
        if bad:
            checks.append(f"{name}: qualitative shape does not hold")
        if reference is not None and \
                sha(text.encode()) != reference["sections"][name]:
            bad = True
            checks.append(f"{name}: output differs from the reference")
        failed += PAPER_CELLS[name] if bad else 0
    digest = sha(result["text"].encode())
    if reference is not None and digest != reference["report"]:
        checks.append("report differs from the reference")
        failed = max(failed, 1)
    return {"attempted": sum(PAPER_CELLS.values()), "failed": failed,
            "checks": checks, "reference": reference is not None,
            "report_sha": digest, "sections": {
                name: sha(text.encode())
                for name, text in sections.items()},
            "table1_err_pct": table1_error_pct(report)}


def dir_mb(path: Path) -> float:
    if not path.is_dir():
        return 0.0
    return sum(p.stat().st_size for p in path.rglob("*")
               if p.is_file()) / (1024.0 * 1024.0)


def stored_builds(work: Path) -> int:
    """Firmwares in the run's build cache: a timed phase that adds one
    (in either process) built something set-up should have."""
    return len(list((work / "firmware").glob("*.pkl")))

