"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``build``        run the AFT over one or more ``.mc`` app sources and
                 write an Intel HEX firmware image plus a map file
``run``          build (or reuse) a firmware and dispatch a handler
``disasm``       disassemble an app or symbol from a built firmware
``experiments``  regenerate the paper's tables and figures
``suite``        simulate the nine-app wearable for N seconds
``fleet``        sharded multi-device campaigns (``fleet run``)
``fuzz``         differential fuzzing + fault-injection attack matrix

Handlers default to every non-static function when ``--handlers`` is
omitted, which is convenient for quick runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro import faults
from repro.aft import AftPipeline, AppSource, IsolationModel
from repro.asm import intelhex
from repro.errors import ReproError

_MODEL_NAMES = {
    "none": IsolationModel.NO_ISOLATION,
    "feature-limited": IsolationModel.FEATURE_LIMITED,
    "software-only": IsolationModel.SOFTWARE_ONLY,
    "mpu": IsolationModel.MPU,
    "advanced-mpu": IsolationModel.ADVANCED_MPU,
}


def _model(name: str) -> IsolationModel:
    try:
        return _MODEL_NAMES[name]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown model {name!r}; pick from "
            f"{', '.join(_MODEL_NAMES)}")


def _default_handlers(source: str) -> List[str]:
    """Every defined non-static function, via a quick parse."""
    from repro.cc.parser import parse
    unit = parse(source)
    return [f.name for f in unit.functions
            if f.body is not None and not f.is_static]


def _load_apps(paths: List[str],
               handlers: Optional[List[str]]) -> List[AppSource]:
    apps = []
    for path_text in paths:
        path = Path(path_text)
        source = path.read_text()
        name = path.stem.replace("-", "_")
        app_handlers = handlers if handlers else \
            _default_handlers(source)
        apps.append(AppSource(name, source, handlers=app_handlers))
    return apps


def cmd_build(args: argparse.Namespace) -> int:
    pipeline = AftPipeline(args.model, shadow_stack=args.shadow_stack)
    firmware = pipeline.build(_load_apps(args.sources, args.handlers))
    hex_text = intelhex.encode_image(firmware.image)
    output = Path(args.output)
    output.write_text(hex_text)
    print(f"wrote {output} "
          f"({firmware.image.total_size()} bytes of firmware, "
          f"model={firmware.model.display})")
    if args.map:
        map_path = output.with_suffix(".map")
        lines = [pipeline.report.describe(), ""]
        for app in firmware.app_list():
            lines.append(app.summary())
        lines.append("")
        for name in sorted(firmware.image.symbols):
            lines.append(f"0x{firmware.image.symbols[name]:04X} {name}")
        map_path.write_text("\n".join(lines) + "\n")
        print(f"wrote {map_path}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.kernel.machine import AmuletMachine
    apps = _load_apps(args.sources, None)
    firmware = AftPipeline(args.model,
                           shadow_stack=args.shadow_stack).build(apps)
    machine = AmuletMachine(firmware)
    app_name = args.app if args.app else apps[0].name
    handler_args = [int(a, 0) for a in args.args]
    result = machine.dispatch(app_name, args.handler, handler_args)
    print(f"{app_name}.{args.handler}({', '.join(args.args)}) -> "
          f"{result.return_value} "
          f"[{result.cycles} cycles, {result.instructions} insns]")
    if result.faulted:
        print(f"FAULTED: {result.fault.describe()}")
        return 1
    if machine.services.log.words:
        print(f"log: {machine.services.log.words}")
    if machine.services.display.last_digits is not None:
        print(f"display: {machine.services.display.last_digits}")
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    from repro.asm.disassembler import disassemble_range
    from repro.kernel.machine import AmuletMachine
    apps = _load_apps(args.sources, None)
    firmware = AftPipeline(args.model).build(apps)
    machine = AmuletMachine(firmware)
    by_address = {v: k for k, v in
                  sorted(firmware.image.symbols.items())}
    for app in firmware.app_list():
        print(f"; === app {app.name} "
              f"(0x{app.code_lo:04X}-0x{app.code_hi:04X}) ===")
        for address, insn in disassemble_range(
                machine.cpu.memory, app.code_lo, app.code_hi):
            if address in by_address:
                print(f"{by_address[address]}:")
            print(f"    0x{address:04X}:  {insn.render()}")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.parallel import run_all_parallel
    runs = 30 if args.quick else 200
    samples = 16 if args.quick else 64
    report = run_all_parallel(args.jobs, table1_runs=runs,
                              figure3_runs=runs, arp_samples=samples)
    print(report.render())
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    from repro.aft.cache import build_firmware
    from repro.apps import MANIFESTS, load_suite
    from repro.kernel.machine import AmuletMachine
    from repro.kernel.scheduler import AppSchedule, Scheduler
    firmware = build_firmware(args.model, load_suite())
    machine = AmuletMachine(firmware)
    scheduler = Scheduler(machine)
    for name, manifest in MANIFESTS.items():
        scheduler.add_app(AppSchedule(
            name, sources=manifest.sources_for(name)))
    stats = scheduler.run(horizon_ms=args.seconds * 1000)
    print(f"model={firmware.model.display} "
          f"simulated={args.seconds}s events={stats.events_delivered} "
          f"faults={stats.faults}")
    for name in sorted(stats.per_app_cycles):
        print(f"  {name:<14} {stats.per_app_cycles[name]:>12,} cycles "
              f"({stats.per_app_events[name]} events)")
    return 0


def _fleet_secret(secret_file: Optional[str]) -> Optional[bytes]:
    """The fleet's shared handshake secret: ``--secret-file`` wins,
    else the ``REPRO_FLEET_SECRET`` environment variable, else none
    (loopback-only dispatch)."""
    import os
    if secret_file:
        secret = Path(secret_file).read_bytes().strip()
        if not secret:
            raise ReproError(f"--secret-file {secret_file} is empty")
        return secret
    env = os.environ.get("REPRO_FLEET_SECRET")
    return env.encode() if env else None


def cmd_fleet_run(args: argparse.Namespace) -> int:
    from repro.fleet.executor import FleetConfig, run_campaign
    from repro.fleet.telemetry import DEFAULT_MODELS, MODELS_BY_KEY, \
        summary_text
    if args.jobs < 1:
        raise ReproError(f"--jobs must be >= 1 (got {args.jobs})")
    if args.model == "all":
        models = DEFAULT_MODELS
    else:
        models = tuple(key.strip() for key in args.model.split(","))
    for key in models:
        if key not in MODELS_BY_KEY:
            raise ReproError(f"unknown model {key!r}; pick from "
                             f"{', '.join(MODELS_BY_KEY)} or 'all'")
    config = FleetConfig(
        devices=args.devices, hours=args.hours, models=models,
        seed=args.seed,
        checkpoint_minutes=args.checkpoint_minutes,
        rogue_fraction=args.rogue_fraction,
        homogeneous=args.homogeneous)
    profile_dir = (Path(args.out) / "profiles" if args.profile
                   else None)
    transport = None
    if args.listen is not None:
        from repro.fleet.net.coordinator import SocketTransport
        from repro.fleet.net.worker import parse_endpoint
        host, port = parse_endpoint(args.listen)
        transport = SocketTransport(
            host=host, port=port,
            lease_timeout_s=args.lease_seconds,
            heartbeat_s=args.heartbeat_seconds,
            secret=_fleet_secret(args.secret_file))
    summary = run_campaign(config, Path(args.out), jobs=args.jobs,
                           report=print, profile_dir=profile_dir,
                           cohort=args.cohort == "on",
                           transport=transport)
    print(summary_text(summary))
    print(f"summary: {Path(args.out) / 'summary.json'}")
    if profile_dir is not None:
        print(f"profiles: {profile_dir}/<model>-uNNNNN.prof per work "
              "unit (inspect with python -m pstats) and "
              f"{profile_dir}/coordinator.json (queue waits, "
              "checkpoint flush stalls)")
    return 0


def cmd_fleet_worker(args: argparse.Namespace) -> int:
    from repro.fleet.net.worker import run_worker
    return run_worker(
        args.connect, worker_id=args.worker_id,
        retry_limit=args.retry_limit,
        report=print, secret=_fleet_secret(args.secret_file))


def cmd_fleet_status(args: argparse.Namespace) -> int:
    """One-shot live view of a campaign, from either side:

    * ``HOST:PORT`` — handshake with the coordinator as a ``status``
      observer (authenticating like a worker when a secret is set)
      and print the reply;
    * an out-dir — read the ``status.json`` the coordinator mirrors
      there about once a second (works after the coordinator exits,
      and without network reachability).
    """
    import json
    target = args.target
    if ":" in target and not Path(target).exists():
        import socket as socketlib
        from repro.fleet.net.protocol import Channel
        from repro.fleet.net.worker import HandshakeRejected, \
            handshake, parse_endpoint
        host, port = parse_endpoint(target)
        channel = Channel(
            socketlib.create_connection((host, port), timeout=10))
        try:
            status = handshake(channel, None, "status-observer",
                               _fleet_secret(args.secret_file),
                               role="status")
        except HandshakeRejected as reject:
            raise ReproError(f"status request rejected: {reject}") \
                from None
        finally:
            channel.close()
    else:
        path = Path(target)
        if path.is_dir():
            path = path / "status.json"
        if not path.exists():
            raise ReproError(
                f"no status at {path} — point at a campaign out-dir "
                "with a socket coordinator (status.json appears "
                "once dispatch starts) or at a live HOST:PORT")
        status = json.loads(path.read_text())
    print(_fleet_status_text(status))
    return 0


def _fleet_status_text(status: dict) -> str:
    """Render one status snapshot for a terminal."""
    lines = [f"campaign {status.get('campaign') or '?'}"]
    model = status.get("model")
    if model:
        lines.append(
            f"  model {model}: {status.get('devices_done', 0)}/"
            f"{status.get('devices_total', 0)} devices, "
            f"{status.get('queue_depth', 0)} unit(s) queued, "
            f"{status.get('active_leases', 0)} leased, "
            f"{status.get('requeues', 0)} requeue(s)")
    else:
        lines.append(
            f"  no model in flight "
            f"({status.get('requeues', 0)} requeue(s) so far)")
    cohort = status.get("cohort") or {}
    if any(cohort.values()):
        rate = status.get("trace_hit_rate")
        lines.append(
            f"  cohort: {cohort.get('cohort_replayed', 0)} replayed, "
            f"{cohort.get('cohort_executed', 0)} executed; "
            f"trace tier {cohort.get('trace_hits', 0)} hit(s) / "
            f"{cohort.get('trace_misses', 0)} miss(es)"
            + (f" ({rate:.0%} hit rate)"
               if isinstance(rate, float) else "")
            + f", {cohort.get('trace_published', 0)} published")
    workers = status.get("workers") or {}
    for worker_id in sorted(workers):
        row = workers[worker_id]
        lines.append(
            f"  worker {worker_id} ({row.get('host', '?')}): "
            f"{row.get('units_run', 0)} unit(s), "
            f"{row.get('devices_done', 0)} device(s), "
            f"{row.get('bytes_from_worker', 0):,}B up / "
            f"{row.get('bytes_to_worker', 0):,}B down, "
            f"{row.get('reconnects', 0)} reconnect(s), "
            f"{row.get('lease_timeouts', 0)} lease timeout(s), "
            f"{row.get('wait_s', 0.0):.2f}s waiting for work")
    if not workers:
        lines.append("  no workers have connected")
    return "\n".join(lines)


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz.attacks import run_attack_matrix
    from repro.fuzz.engine import (
        replay_corpus,
        run_differential_campaign,
        run_smoke,
    )
    from repro.fuzz.harness import run_differential
    from repro.fuzz.shrink import load_case

    if args.smoke:
        ok = run_smoke(seeds=args.seeds or 200,
                       seed_start=args.seed_start, report=print)
        print("smoke: " + ("PASS" if ok else "FAIL"))
        return 0 if ok else 1

    if args.replay:
        target = Path(args.replay)
        if target.is_dir():
            results = replay_corpus(target, chunk=args.chunk,
                                    max_instructions=args.max_insns,
                                    report=print)
        else:
            results = [run_differential(
                load_case(target), chunk=args.chunk,
                max_instructions=args.max_insns)]
            print(results[0].describe())
        return 1 if any(not r.ok for r in results) else 0

    status = 0
    if not args.attacks_only:
        corpus = None if args.no_corpus else Path(args.corpus)
        stats = run_differential_campaign(
            seeds=args.seeds or 500, seed_start=args.seed_start,
            chunk=args.chunk, max_instructions=args.max_insns,
            corpus=corpus, report=print)
        print(stats.describe())
        if not stats.clean:
            status = 1
    if not args.diff_only:
        outcomes = run_attack_matrix()
        for outcome in outcomes:
            print(outcome.describe())
        failures = [o for o in outcomes if not o.ok]
        print(f"attack matrix: {len(outcomes) - len(failures)}/"
              f"{len(outcomes)} ok")
        if failures:
            status = 1
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Application Memory Isolation "
                    "on Ultra-Low-Power MCUs' (USENIX ATC '18)")
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build a firmware image")
    build.add_argument("sources", nargs="+",
                       help="MiniC app source files (.mc)")
    build.add_argument("--model", type=_model, default="mpu")
    build.add_argument("--handlers", nargs="*",
                       help="exported handler names (default: all)")
    build.add_argument("--output", "-o", default="firmware.hex")
    build.add_argument("--map", action="store_true",
                       help="also write a .map symbol file")
    build.add_argument("--shadow-stack", action="store_true")
    build.set_defaults(func=cmd_build)

    run = sub.add_parser("run", help="build and dispatch a handler")
    run.add_argument("sources", nargs="+")
    run.add_argument("--model", type=_model, default="mpu")
    run.add_argument("--app", help="app name (default: first source)")
    run.add_argument("--handler", required=True)
    run.add_argument("--args", nargs="*", default=[])
    run.add_argument("--shadow-stack", action="store_true")
    run.set_defaults(func=cmd_run)

    disasm = sub.add_parser("disasm", help="disassemble built apps")
    disasm.add_argument("sources", nargs="+")
    disasm.add_argument("--model", type=_model, default="mpu")
    disasm.set_defaults(func=cmd_disasm)

    experiments = sub.add_parser(
        "experiments", help="regenerate the paper's tables/figures")
    experiments.add_argument("--quick", action="store_true")
    experiments.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run independent experiment cells across N processes "
             "(default 1 = serial; results are identical)")
    experiments.set_defaults(func=cmd_experiments)

    suite = sub.add_parser(
        "suite", help="simulate the nine-app wearable")
    suite.add_argument("--model", type=_model, default="mpu")
    suite.add_argument("--seconds", type=int, default=5)
    suite.set_defaults(func=cmd_suite)

    fleet = sub.add_parser(
        "fleet", help="simulate a fleet of varied devices")
    fleet_sub = fleet.add_subparsers(dest="fleet_command",
                                     required=True)
    fleet_run = fleet_sub.add_parser(
        "run", help="run (or resume) a work-stealing fleet campaign")
    fleet_run.add_argument("--devices", type=int, default=25,
                           metavar="N")
    fleet_run.add_argument("--hours", type=float, default=1.0,
                           metavar="H",
                           help="simulated hours per device")
    fleet_run.add_argument(
        "--model", default="all", metavar="M",
        help="comma-separated isolation models, or 'all' "
             "(none,feature-limited,software-only,mpu)")
    fleet_run.add_argument(
        "--jobs", type=int, default=1, metavar="J",
        help="worker processes pulling from the work-stealing unit "
             "queue; an execution detail — summaries are "
             "byte-identical for any value, and a campaign may be "
             "resumed under a different --jobs")
    fleet_run.add_argument("--seed", type=int, default=0,
                           help="fleet seed; every device derives "
                                "from (seed, device_id)")
    fleet_run.add_argument("--out", default="fleet_out", metavar="DIR",
                           help="campaign directory (checkpoints, "
                                "telemetry, summary)")
    fleet_run.add_argument(
        "--checkpoint-minutes", type=float, default=10.0, metavar="K",
        help="simulated minutes between in-device checkpoints")
    fleet_run.add_argument("--rogue-fraction", type=float,
                           default=0.125, metavar="F",
                           help="probability a device sideloads the "
                                "rogue app")
    fleet_run.add_argument(
        "--profile", action="store_true",
        help="profile the campaign: cProfile each work unit "
             "(<out>/profiles/<model>-uNNNNN.prof) and write the "
             "coordinator's queue-wait / checkpoint-stall breakdown "
             "to <out>/profiles/coordinator.json")
    fleet_run.add_argument(
        "--cohort", default="off", choices=("on", "off"),
        help="lockstep same-firmware devices: group them into shared "
             "work units, execute each segment once and restore the "
             "leader's post-segment snapshot into state-identical "
             "siblings; an execution detail — summaries are "
             "byte-identical on or off")
    fleet_run.add_argument(
        "--homogeneous", action="store_true",
        help="clone device 0 across the whole fleet (one firmware "
             "build for everyone) — campaign identity, used by the "
             "cohort benchmark scenario")
    fleet_run.add_argument(
        "--listen", metavar="HOST:PORT", default=None,
        help="serve the unit queue over TCP instead of an in-process "
             "pool: remote 'repro fleet worker' processes lease the "
             "units (port 0 picks an ephemeral port, written to "
             "<out>/coordinator.addr); output stays byte-identical "
             "to a --jobs run, kill-and-resume included")
    fleet_run.add_argument(
        "--lease-seconds", type=float, default=30.0, metavar="S",
        help="lease deadline: a worker silent this long has its unit "
             "returned to the queue (only with --listen)")
    fleet_run.add_argument(
        "--heartbeat-seconds", type=float, default=5.0, metavar="S",
        help="heartbeat cadence advertised to workers "
             "(only with --listen)")
    fleet_run.add_argument(
        "--secret-file", default=None, metavar="PATH",
        help="file holding the fleet's shared handshake secret "
             "(default: the REPRO_FLEET_SECRET environment "
             "variable); required for a non-loopback --listen — "
             "workers must present the same secret to join")
    fleet_run.set_defaults(func=cmd_fleet_run)

    fleet_worker = fleet_sub.add_parser(
        "worker",
        help="join a --listen coordinator: lease work units over "
             "TCP, stream results back")
    fleet_worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the coordinator's listen address")
    fleet_worker.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="stable name for coordinator.json attribution "
             "(default: <hostname>-<pid>)")
    fleet_worker.add_argument(
        "--retry-limit", type=int, default=10, metavar="N",
        help="consecutive connection failures before giving up")
    fleet_worker.add_argument(
        "--secret-file", default=None, metavar="PATH",
        help="file holding the fleet's shared handshake secret "
             "(default: the REPRO_FLEET_SECRET environment "
             "variable), for coordinators that require one")
    fleet_worker.set_defaults(func=cmd_fleet_worker)

    fleet_status = fleet_sub.add_parser(
        "status",
        help="one-shot live view of a campaign: per-worker "
             "throughput, queue depth, trace-tier hit rates")
    fleet_status.add_argument(
        "target", metavar="OUT_DIR|HOST:PORT",
        help="a campaign out-dir (reads the status.json the "
             "coordinator mirrors there) or a live coordinator "
             "address (asks over the wire)")
    fleet_status.add_argument(
        "--secret-file", default=None, metavar="PATH",
        help="file holding the fleet's shared handshake secret "
             "(default: the REPRO_FLEET_SECRET environment "
             "variable), for coordinators that require one")
    fleet_status.set_defaults(func=cmd_fleet_status)

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing and the attack matrix")
    fuzz.add_argument("--seeds", type=int, default=0, metavar="N",
                      help="number of differential seeds "
                           "(default 500; 200 with --smoke)")
    fuzz.add_argument("--seed-start", type=int, default=0)
    fuzz.add_argument("--smoke", action="store_true",
                      help="CI gate: fixed seed block + attack matrix")
    fuzz.add_argument("--replay", metavar="PATH",
                      help="re-run an archived corpus case "
                           "(or every case in a directory)")
    fuzz.add_argument("--diff-only", action="store_true",
                      help="skip the attack matrix")
    fuzz.add_argument("--attacks-only", action="store_true",
                      help="skip the differential campaign")
    fuzz.add_argument("--corpus", default="tests/fuzz_corpus",
                      help="where shrunken divergences are archived")
    fuzz.add_argument("--no-corpus", action="store_true",
                      help="do not archive divergences")
    fuzz.add_argument("--chunk", type=int, default=256,
                      help="checkpoint spacing in instructions")
    fuzz.add_argument("--max-insns", type=int, default=20_000,
                      help="per-run instruction budget")
    fuzz.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        faults.check()
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
