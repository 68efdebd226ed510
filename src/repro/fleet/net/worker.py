"""The remote fleet worker: ``repro fleet worker --connect host:port``.

A worker is a loop around one connection: handshake (protocol,
``STATE_VERSION``, ``DISK_FORMAT``, campaign key, and — when the
coordinator is configured with a shared secret — an HMAC
challenge/response proving this worker holds it too), import any warm
``.sbx`` translation stores the coordinator offers, then lease units
until the coordinator says shutdown.  Each lease runs through the
exact same :func:`~repro.fleet.device.simulate_device` /
:func:`~repro.fleet.device.simulate_cohort` code a local pool worker
uses — the only difference is where the bytes go:

* checkpoints are serialized on the simulating thread and shipped by
  the :class:`~repro.fleet.ckptio.AsyncCheckpointWriter`'s writer
  thread through a socket **sink**, keeping the local path's
  double-buffered overlap (and its stall accounting) on the wire;
* each finished device is committed with a ``dev_done`` frame — the
  durable per-device commit that makes lease reassignment idempotent;
* the unit ends with a ``result`` frame carrying the same stats dict
  :func:`~repro.fleet.executor.run_unit` returns.

Report frames (``ckpt``/``dev_done``/``result``/``profile``) flow
through a :class:`FrameBatcher`: they buffer until ``--batch-bytes``
accumulate or the oldest waits ``--batch-ms``, then ship as one
``batch`` frame — tiny dev_done frames stop paying a syscall and a
TCP round each.  Anything that expects a reply (lease_req, blob_get)
flushes the buffer first, so the coordinator always observes frames
in the order the worker produced them.  ``--batch-bytes 0`` disables
coalescing entirely (byte-for-byte the PR 9 wire behavior), and
``--compress off`` disables the zlib blob framing that otherwise
shrinks checkpoint and store transfers.

A heartbeat thread pings on the coordinator's advertised cadence
(±10% jitter, so a fleet of same-config workers doesn't phase-lock
into synchronized ping bursts) to keep a parked or long-simulating
worker's connection and lease alive: a ``lease_req`` that arrives
while nothing is queued is answered only once work (or campaign end)
exists, so the worker never polls.  Connection loss triggers
reconnect with exponential backoff plus jitter; a ``campaign``-kind
reject (the coordinator moved on to a different campaign) drops the
remembered key and re-handshakes fresh, while a ``version``-kind
reject is fatal — no amount of retrying fixes a version skew.
"""

from __future__ import annotations

import os
import random
import socket
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.fleet import tracetier
from repro.fleet.ckptio import AsyncCheckpointWriter
from repro.fleet.cohort import CohortStats
from repro.fleet.device import simulate_cohort, simulate_device
from repro.fleet.executor import FleetConfig
from repro.fleet.net.protocol import Channel, PROTO_VERSION, WireError, \
    auth_mac, blob_sha, pack_batch
from repro.fleet.population import device_spec
from repro.fleet.snapshot import STATE_VERSION, checkpoint_bytes, \
    parse_checkpoint
from repro.fleet.telemetry import MODELS_BY_KEY, device_record
from repro.msp430.execcache import DISK_FORMAT, have_store_file, \
    import_store_file

#: per-frame reply deadline: the coordinator answers blob requests
#: immediately, so a silent minute means the link is gone (a parked
#: ``lease_req`` also scales it with the heartbeat; see _work_loop)
REPLY_TIMEOUT_S = 60.0

#: default coalescing bounds: flush a batch once this many payload
#: bytes accumulate, or once its oldest frame has waited this long
DEFAULT_BATCH_BYTES = 65536
DEFAULT_BATCH_MS = 50


class _Shutdown(Exception):
    """Coordinator says the campaign is complete — exit 0."""


class _Reject(Exception):
    """Handshake refused; ``kind`` is ``"campaign"`` (recoverable by
    re-handshaking keyless) or ``"version"`` (fatal)."""

    def __init__(self, kind: str, reason: str):
        super().__init__(reason)
        self.kind = kind


def parse_endpoint(text: str) -> Tuple[str, int]:
    """``host:port`` with a loud error, because this is typed by
    hand."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ReproError(
            f"--connect expects host:port (got {text!r})")
    try:
        return host, int(port)
    except ValueError:
        raise ReproError(
            f"--connect port must be an integer (got {port!r})") \
            from None


def _recv_reply(channel: Channel, want: Tuple[str, ...],
                timeout: Optional[float] = None
                ) -> Tuple[dict, Optional[bytes]]:
    """Receive the next frame of an expected type, absorbing heartbeat
    echoes and honoring an unsolicited shutdown wherever it lands.
    ``timeout`` bounds the silence before each frame (default
    :data:`REPLY_TIMEOUT_S`)."""
    while True:
        message, blob = channel.recv(
            timeout=REPLY_TIMEOUT_S if timeout is None else timeout)
        mtype = message["type"]
        if mtype == "pong":
            continue
        if mtype == "shutdown":
            raise _Shutdown()
        if mtype in want:
            return message, blob
        raise WireError(
            f"expected one of {want}, got {mtype!r}")


class FrameBatcher:
    """Coalesce report frames into bounded ``batch`` frames.

    ``add`` buffers; a batch ships when the buffered payload reaches
    ``max_bytes`` or the oldest frame has waited ``max_ms`` (a pump
    thread watches the clock).  ``direct`` flushes then sends — the
    path for anything expecting a reply, so frame order on the wire
    matches production order.  A single buffered frame ships as
    itself, not wrapped; ``max_bytes <= 0`` disables coalescing so
    every ``add`` degenerates to a plain send.  ``compress`` turns on
    the zlib blob framing for everything this batcher ships.
    """

    #: rough JSON envelope per sub-message, counted toward max_bytes
    #: so a flood of blobless dev_done frames still flushes
    FRAME_OVERHEAD = 256

    def __init__(self, channel: Channel,
                 max_bytes: int = DEFAULT_BATCH_BYTES,
                 max_ms: int = DEFAULT_BATCH_MS,
                 compress: bool = True):
        self.channel = channel
        self.max_bytes = max_bytes
        self.max_ms = max_ms
        self.compress = compress
        self.batches_sent = 0
        self._pending: List[tuple] = []
        self._pending_bytes = 0
        self._oldest = 0.0
        self._lock = threading.Lock()
        self._ship_lock = threading.Lock()
        self._stop = threading.Event()
        self._pump: Optional[threading.Thread] = None
        if self.enabled:
            self._pump = threading.Thread(
                target=self._pump_loop, name="fleet-batch",
                daemon=True)
            self._pump.start()

    @property
    def enabled(self) -> bool:
        return self.max_bytes > 0

    def add(self, message: dict,
            blob: Optional[bytes] = None) -> None:
        if not self.enabled:
            self.channel.send(message, blob=blob,
                              compress=self.compress)
            return
        with self._lock:
            if not self._pending:
                self._oldest = time.monotonic()
            self._pending.append((message, blob))
            self._pending_bytes += self.FRAME_OVERHEAD + \
                (len(blob) if blob is not None else 0)
            ship = self._pending_bytes >= self.max_bytes
        if ship:
            self.flush()

    def flush(self) -> None:
        # pop and send under one lock: concurrent flushes (pump
        # thread vs. simulating thread) must not reorder batches
        with self._ship_lock:
            with self._lock:
                pending, self._pending = self._pending, []
                self._pending_bytes = 0
            if not pending:
                return
            if len(pending) == 1:
                message, blob = pending[0]
            else:
                message, blob = pack_batch(pending)
                self.batches_sent += 1
            self.channel.send(message, blob=blob,
                              compress=self.compress)

    def direct(self, message: dict,
               blob: Optional[bytes] = None) -> None:
        """Flush, then send — for frames that expect a reply."""
        self.flush()
        self.channel.send(message, blob=blob, compress=self.compress)

    def close(self) -> None:
        self._stop.set()
        if self._pump is not None:
            self._pump.join(timeout=1.0)
        try:
            self.flush()
        except (WireError, OSError):
            pass                        # connection already gone

    def _pump_loop(self) -> None:
        age_limit = max(0.001, self.max_ms / 1000.0)
        while not self._stop.wait(age_limit / 2):
            with self._lock:
                due = bool(self._pending) and \
                    time.monotonic() - self._oldest >= age_limit
            if due:
                try:
                    self.flush()
                except (WireError, OSError):
                    return              # main loop handles the drop


def _fetch_blob(batcher: FrameBatcher, channel: Channel, name: str,
                want_sha: str) -> Optional[bytes]:
    """Content-addressed fetch: ``None`` unless the coordinator
    returns exactly the bytes whose sha we asked for (fail closed —
    a changed or vanished blob means run without it).  ``zip`` asks
    the coordinator to deflate the transfer; the channel inflates
    transparently, so the digest below is always over raw bytes."""
    request = {"type": "blob_get", "name": name, "sha": want_sha}
    if batcher.compress:
        request["zip"] = True
    batcher.direct(request)
    message, blob = _recv_reply(channel, ("blob", "blob_missing"))
    if message["type"] == "blob_missing" or blob is None:
        return None
    if blob_sha(blob) != want_sha:
        return None
    return blob


def _heartbeat(channel: Channel, interval: float,
               stop: threading.Event) -> None:
    # ±10% jitter: workers sharing a start time (a cohort of systemd
    # units, a test harness) would otherwise ping in phase forever
    while not stop.wait(interval * (0.9 + 0.2 * random.random())):
        try:
            channel.send({"type": "ping"})
        except (WireError, OSError):
            return                      # main loop handles the drop


def _import_stores(batcher: FrameBatcher, channel: Channel,
                   offers: List[dict], say: Callable[[str], None],
                   prefix: str = "sbx",
                   have: Callable[[str], bool] = have_store_file,
                   install: Callable[[str, bytes], int]
                   = import_store_file,
                   label: str = "translation") -> None:
    """Warm this host's cache tiers from the coordinator's store
    offers (``.sbx`` translation stores, ``.tbx`` trace stores);
    every store is fetched by content hash and re-validated
    frame-by-frame on import."""
    for offer in offers:
        name = str(offer.get("name", ""))
        sha = offer.get("sha")
        if not name or not isinstance(sha, str) or have(name):
            continue
        blob = _fetch_blob(batcher, channel, f"{prefix}:{name}", sha)
        if blob is None:
            continue
        records = install(name, blob)
        if records:
            say(f"imported {label} store {name} "
                f"({records} records)")


def _run_lease(batcher: FrameBatcher, channel: Channel, lease: dict,
               config: FleetConfig, config_key: str, cache_mode: str,
               cohort: bool, rejoin: bool, profile: bool,
               worker_id: str, crash_state: Dict[str, int]) -> None:
    """Run one leased unit, mirroring the local ``run_unit`` entry
    point: wire sinks in place of files, and — when the campaign
    profiles — a per-unit cProfile dump shipped home as a ``profile``
    frame so ``--profile`` output is transport-agnostic."""
    if not profile:
        _simulate_lease(batcher, channel, lease, config, config_key,
                        cache_mode, cohort, rejoin, worker_id,
                        crash_state)
        return
    import cProfile
    prof = cProfile.Profile()
    prof.enable()
    try:
        _simulate_lease(batcher, channel, lease, config, config_key,
                        cache_mode, cohort, rejoin, worker_id,
                        crash_state)
    finally:
        prof.disable()
    handle, prof_path = tempfile.mkstemp(suffix=".prof")
    os.close(handle)
    try:
        prof.dump_stats(prof_path)
        dump = Path(prof_path).read_bytes()
    finally:
        os.unlink(prof_path)
    batcher.add({"type": "profile", "model": lease["model"],
                 "first": lease["first"], "lease": lease["lease"]},
                blob=dump)


def _simulate_lease(batcher: FrameBatcher, channel: Channel,
                    lease: dict, config: FleetConfig,
                    config_key: str, cache_mode: str, cohort: bool,
                    rejoin: bool, worker_id: str,
                    crash_state: Dict[str, int]) -> None:
    """The local ``_run_unit`` loop over wire sinks."""
    t_start = time.time()
    model_key = lease["model"]
    lease_id = lease["lease"]
    first = lease["first"]
    device_ids = [int(device) for device in lease["devices"]]
    model = MODELS_BY_KEY[model_key]
    cohort_stats = CohortStats()
    records: Dict[int, dict] = {}

    resumes: Dict[int, dict] = {}
    for device_text, sha in dict(lease.get("ckpts", {})).items():
        device = int(device_text)
        blob = _fetch_blob(batcher, channel,
                           f"ckpt:{model_key}:{device}", str(sha))
        if blob is None:
            continue                   # fresh start is byte-identical
        resumes[device] = parse_checkpoint(blob, config_key, device)

    def sink(device_id, payload: bytes) -> None:
        batcher.add({"type": "ckpt", "model": model_key,
                     "device": device_id, "lease": lease_id},
                    blob=payload)
        crash_state["sent"] += 1
        if 0 < crash_state["limit"] <= crash_state["sent"]:
            try:
                batcher.flush()        # land what was reported
            except (WireError, OSError):
                pass
            os._exit(3)                # a worker dying mid-unit

    writer = AsyncCheckpointWriter(sink=sink)

    def submit_checkpoint(device_id: int, sim_ms: int,
                          snapshot: dict) -> None:
        writer.submit(device_id,
                      checkpoint_bytes(config_key, device_id,
                                       snapshot))

    def commit_record(device_id: int) -> None:
        # same commit order as the local path: drain the in-flight
        # checkpoint sends, then the record — the batcher preserves
        # production order, so the coordinator still sees each ckpt
        # before the dev_done that retires it
        batcher.add({"type": "dev_done", "model": model_key,
                     "device": device_id, "first": first,
                     "lease": lease_id,
                     "record": records[device_id]})

    with writer:
        if cohort:
            specs = [device_spec(config.seed, device_id,
                                 config.rogue_fraction,
                                 config.homogeneous)
                     for device_id in device_ids]
            runs = simulate_cohort(
                specs, model, sim_ms=config.sim_ms,
                checkpoint_every_ms=config.checkpoint_ms,
                on_checkpoint=submit_checkpoint,
                resumes={device: resumes[device]
                         for device in device_ids
                         if device in resumes},
                cache_mode=cache_mode, stats=cohort_stats,
                rejoin=rejoin, tier=tracetier.trace_tier())
            writer.drain()
            for device_id in device_ids:
                records[device_id] = device_record(runs[device_id],
                                                   model_key)
                commit_record(device_id)
        else:
            for device_id in device_ids:
                spec = device_spec(config.seed, device_id,
                                   config.rogue_fraction,
                                   config.homogeneous)
                run = simulate_device(
                    spec, model, sim_ms=config.sim_ms,
                    checkpoint_every_ms=config.checkpoint_ms,
                    on_checkpoint=lambda sim_ms, snapshot,
                    _device=device_id: submit_checkpoint(
                        _device, sim_ms, snapshot),
                    resume=resumes.get(device_id),
                    cache_mode=cache_mode)
                records[device_id] = device_record(run, model_key)
                writer.drain()
                commit_record(device_id)

    batcher.add({"type": "result", "lease": lease_id,
                 "model": model_key,
                 "stats": {
                     "devices": list(device_ids),
                     "t_start": t_start,
                     "t_end": time.time(),
                     "ckpt_flushes": writer.flushes,
                     "ckpt_stall_s": round(writer.stall_s, 6),
                     "ckpt_bytes": writer.bytes_written,
                     "cohort_replayed": cohort_stats.replayed,
                     "cohort_executed": cohort_stats.executed,
                     "cohort_forks": cohort_stats.forks,
                     "cohort_rejoins": cohort_stats.rejoins,
                     "trace_hits": cohort_stats.trace_hits,
                     "trace_misses": cohort_stats.trace_misses,
                     "trace_published": cohort_stats.trace_published,
                     "worker": worker_id,
                 }})


def _handshake(channel: Channel, campaign_key: Optional[str],
               worker_id: str,
               secret: Optional[bytes] = None) -> dict:
    channel.send({"type": "hello", "proto": PROTO_VERSION,
                  "state_version": STATE_VERSION,
                  "disk_format": DISK_FORMAT,
                  "campaign": campaign_key,
                  "worker": worker_id,
                  "host": socket.gethostname()})
    message, _ = channel.recv(timeout=REPLY_TIMEOUT_S)
    if message["type"] == "challenge":
        if secret is None:
            raise _Reject(
                "auth", "coordinator requires a shared secret — "
                "pass --secret-file or set REPRO_FLEET_SECRET")
        channel.send({"type": "auth",
                      "mac": auth_mac(secret,
                                      str(message.get("nonce", "")))})
        message, _ = channel.recv(timeout=REPLY_TIMEOUT_S)
    if message["type"] == "reject":
        raise _Reject(str(message.get("kind", "version")),
                      str(message.get("reason", "rejected")))
    if message["type"] != "welcome":
        raise WireError(
            f"expected welcome, got {message['type']!r}")
    return message


def _work_loop(batcher: FrameBatcher, channel: Channel,
               welcome: dict, config: FleetConfig,
               config_key: str, cache_mode: str, worker_id: str,
               crash_state: Dict[str, int],
               say: Callable[[str], None]) -> None:
    cohort = bool(welcome.get("cohort", False))
    rejoin = bool(welcome.get("rejoin", True))
    profile = bool(welcome.get("profile", False))
    # the coordinator parks a lease_req until work exists; meanwhile
    # only pongs arrive, one per heartbeat, so the deadline scales
    # with the cadence as the coordinator's own recv deadline does
    lease_wait_s = max(REPLY_TIMEOUT_S,
                       4 * float(welcome.get("heartbeat_s", 5.0)))
    while True:
        batcher.direct({"type": "lease_req", "worker": worker_id})
        message, _ = _recv_reply(channel, ("lease",),
                                 timeout=lease_wait_s)
        say(f"lease {message['lease']}: model {message['model']}, "
            f"{len(message['devices'])} device(s)")
        _run_lease(batcher, channel, message, config, config_key,
                   cache_mode, cohort, rejoin, profile, worker_id,
                   crash_state)


def run_worker(connect: str, worker_id: Optional[str] = None,
               cache_mode: Optional[str] = None,
               retry_limit: int = 10,
               crash_after_checkpoints: int = 0,
               report: Optional[Callable[[str], None]] = None,
               secret: Optional[bytes] = None,
               batch_bytes: int = DEFAULT_BATCH_BYTES,
               batch_ms: int = DEFAULT_BATCH_MS,
               compress: bool = True) -> int:
    """Worker main loop; returns a process exit code (0 campaign
    complete, 1 coordinator unreachable, 2 version/campaign skew).

    ``batch_bytes``/``batch_ms`` bound the report-frame coalescing
    (``batch_bytes=0`` disables it); ``compress`` toggles zlib blob
    framing.  Like every other execution knob, neither changes a
    single byte of campaign output."""
    say = report if report is not None else (lambda _line: None)
    host, port = parse_endpoint(connect)
    if worker_id is None:
        worker_id = f"{socket.gethostname()}-{os.getpid()}"
    campaign_key: Optional[str] = None
    crash_state = {"sent": 0, "limit": crash_after_checkpoints}
    failures = 0
    backoff = 0.5
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10)
        except OSError as error:
            failures += 1
            if failures > retry_limit:
                say(f"giving up after {failures} failed connection "
                    f"attempt(s): {error}")
                return 1
            delay = backoff * (1.0 + random.random())
            say(f"connect to {host}:{port} failed ({error}); "
                f"retrying in {delay:.1f}s")
            time.sleep(delay)
            backoff = min(backoff * 2, 30.0)
            continue
        channel = Channel(sock)
        batcher = FrameBatcher(channel, max_bytes=batch_bytes,
                               max_ms=batch_ms, compress=compress)
        stop = threading.Event()
        heartbeat: Optional[threading.Thread] = None
        try:
            welcome = _handshake(channel, campaign_key, worker_id,
                                 secret)
            failures = 0
            backoff = 0.5
            campaign_key = str(welcome["campaign"])
            config = FleetConfig(
                **{**welcome["config"],
                   "models": tuple(welcome["config"]["models"])})
            if config.key() != campaign_key:
                say("campaign key does not match the advertised "
                    "config — version skew between hosts")
                return 2
            mode = cache_mode if cache_mode is not None \
                else str(welcome.get("cache_mode", "shared"))
            _import_stores(batcher, channel,
                           list(welcome.get("stores", [])), say)
            _import_stores(batcher, channel,
                           list(welcome.get("trace_stores", [])),
                           say, prefix="tbx",
                           have=tracetier.have_store_file,
                           install=tracetier.import_store_file,
                           label="trace")
            heartbeat = threading.Thread(
                target=_heartbeat,
                args=(channel,
                      max(0.1, float(welcome.get("heartbeat_s", 5.0))),
                      stop),
                name="fleet-heartbeat", daemon=True)
            heartbeat.start()
            say(f"joined campaign {campaign_key} at {host}:{port} "
                f"as {worker_id!r}")
            _work_loop(batcher, channel, welcome, config,
                       campaign_key, mode, worker_id, crash_state,
                       say)
        except _Shutdown:
            say("campaign complete — shutting down")
            return 0
        except _Reject as reject:
            if reject.kind == "campaign":
                say(f"handshake rejected ({reject}); re-handshaking "
                    "without a campaign key")
                campaign_key = None
                continue
            say(f"handshake rejected: {reject}")
            return 2
        except (WireError, OSError) as error:
            failures += 1
            if failures > retry_limit:
                say(f"giving up after {failures} consecutive "
                    f"connection failure(s): {error}")
                return 1
            delay = backoff * (1.0 + random.random())
            say(f"connection lost ({error}); reconnecting in "
                f"{delay:.1f}s")
            time.sleep(delay)
            backoff = min(backoff * 2, 30.0)
        finally:
            stop.set()
            if heartbeat is not None:
                heartbeat.join(timeout=1.0)
            batcher.close()
            channel.close()
