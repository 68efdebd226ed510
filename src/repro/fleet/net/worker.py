"""The remote fleet worker: ``repro fleet worker --connect host:port``.

A worker is a loop around one connection: handshake (protocol,
``STATE_VERSION``, campaign key, and — when the worker holds a shared
secret — an HMAC exchange in which each side proves it holds it),
import any warm ``.tbx`` trace entries the coordinator offers, then
lease units until the coordinator says shutdown.  Nothing executable
crosses the wire: ``.sbx`` translation stores hold generated
bytecode, so a worker always translates locally.  Each lease runs
through the one unit runner a local pool worker uses,
:func:`~repro.fleet.executor._run_unit`; only the sink differs, a
:class:`WireSink` in place of the pool's ``FileSink``:

* checkpoints are serialized on the simulating thread and shipped as
  ``ckpt`` frames by the writer thread, keeping the local path's
  double-buffered overlap (and its stall accounting) on the wire;
* each finished device is committed with a ``dev_done`` frame — the
  durable per-device commit that makes lease reassignment idempotent;
* the unit ends with a ``result`` frame carrying ``asdict`` of the
  :class:`~repro.fleet.executor.UnitStats` the local pool returns.

Report frames (``ckpt``/``dev_done``/``result``/``profile``) flow
through a :class:`FrameBatcher`: they buffer until
:data:`BATCH_BYTES` accumulate or the oldest waits :data:`BATCH_MS`,
then ship as one ``batch`` frame — tiny dev_done frames stop paying a
syscall and a TCP round each.  Anything that expects a reply
(lease_req, blob_get) flushes the buffer first, so the coordinator
always observes frames in the order the worker produced them.  Blobs
travel zlib-deflated in both directions whenever that shrinks them.

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
import threading
import time
from dataclasses import asdict
from functools import partial
from typing import Callable, List, Optional, Tuple

from repro import faults
from repro.errors import ReproError
from repro.fleet import tracetier
from repro.fleet.executor import FleetConfig, UnitStats, _run_unit, \
    profiled
from repro.fleet.net.protocol import COORDINATOR_MAC, Channel, \
    PROTO_VERSION, WORKER_MAC, WireError, auth_mac, blob_sha, \
    mac_matches, new_nonce, pack_batch
from repro.fleet.snapshot import STATE_VERSION

# unused here — the runner calls executor's copies — but
# perfbench/tracer.py patches these names in this module as well
from repro.fleet.cohort import CohortStats  # noqa: F401
from repro.fleet.device import simulate_cohort, \
    simulate_device  # noqa: F401
from repro.fleet.snapshot import checkpoint_bytes, \
    parse_checkpoint  # noqa: F401
from repro.fleet.telemetry import device_record  # noqa: F401

#: per-frame reply deadline: the coordinator answers blob requests
#: immediately, so a silent minute means the link is gone (a parked
#: ``lease_req`` also scales it with the heartbeat; see _work_loop)
REPLY_TIMEOUT_S = 60.0

#: coalescing bounds: flush a batch once this many payload bytes
#: accumulate, or once its oldest frame has waited this long
BATCH_BYTES = 65536
BATCH_MS = 50


class _Shutdown(Exception):
    """Coordinator says the campaign is complete — exit 0."""


class HandshakeRejected(Exception):
    """Handshake refused; ``kind`` is ``"campaign"`` (recoverable by
    re-handshaking keyless), ``"version"`` or ``"auth"`` (fatal)."""

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
    itself, not wrapped.
    """

    #: rough JSON envelope per sub-message, counted toward max_bytes
    #: so a flood of blobless dev_done frames still flushes
    FRAME_OVERHEAD = 256

    def __init__(self, channel: Channel, max_bytes: int = BATCH_BYTES,
                 max_ms: int = BATCH_MS):
        self.channel = channel
        self.max_bytes = max_bytes
        self.max_ms = max_ms
        self.batches_sent = 0
        self._pending: List[tuple] = []
        self._pending_bytes = 0
        self._oldest = 0.0
        self._lock = threading.Lock()
        self._ship_lock = threading.Lock()
        self._stop = threading.Event()
        self._pump = threading.Thread(
            target=self._pump_loop, name="fleet-batch", daemon=True)
        self._pump.start()

    def add(self, message: dict,
            blob: Optional[bytes] = None) -> None:
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
            self.channel.send(message, blob=blob)

    def direct(self, message: dict,
               blob: Optional[bytes] = None) -> None:
        """Flush, then send — for frames that expect a reply."""
        self.flush()
        self.channel.send(message, blob=blob)

    def close(self) -> None:
        self._stop.set()
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
    a changed or vanished blob means run without it).  The coordinator
    deflates the transfer and the channel inflates it transparently,
    so the digest below is always over raw bytes."""
    batcher.direct({"type": "blob_get", "name": name, "sha": want_sha})
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
                   offers: List[dict], say: Callable[[str], None]
                   ) -> None:
    """Warm this host's trace tier from the coordinator's ``.tbx``
    entry offers; every entry is fetched by content hash and
    re-validated on import."""
    imported = 0
    for offer in offers:
        name = str(offer.get("name", ""))
        sha = offer.get("sha")
        if not name or not isinstance(sha, str) or \
                tracetier.LAYOUT.have_store_file(name):
            continue
        blob = _fetch_blob(batcher, channel, f"tbx:{name}", sha)
        if blob is not None and tracetier.import_store_file(name, blob):
            imported += 1
    if offers:
        say(f"imported trace store: {imported} of {len(offers)} "
            "entries")


class WireSink:
    """The socket worker's unit sink for one lease: resume state comes
    over the sha-verified blob channel (a missing or changed blob
    means a fresh, byte-identical start), and checkpoints, records and
    stats leave as ``ckpt``/``dev_done``/``result`` frames through the
    batcher, in production order."""

    def __init__(self, batcher: FrameBatcher, channel: Channel,
                 lease: dict, worker_id: str):
        self._batcher = batcher
        self._channel = channel
        self._lease = lease
        self._worker_id = worker_id

    def _frame(self, kind: str, **extra) -> dict:
        return {"type": kind, "model": self._lease["model"],
                "lease": self._lease["lease"], **extra}

    def load_resume(self, device_id: int) -> Optional[bytes]:
        sha = self._lease.get("ckpts", {}).get(str(device_id))
        return None if sha is None else _fetch_blob(
            self._batcher, self._channel,
            f"ckpt:{self._lease['model']}:{device_id}", str(sha))

    def checkpoint(self, device_id: int, payload: bytes) -> None:
        self._batcher.add(self._frame("ckpt", device=device_id),
                          blob=payload)
        # a worker killed here has landed every frame it reported
        faults.hit("wire.after_ckpt", before_exit=self._batcher.close)

    def commit(self, device_id: int, record: dict) -> None:
        self._batcher.add(self._frame(
            "dev_done", device=device_id, first=self._lease["first"],
            record=record))

    def finish(self, stats: UnitStats) -> None:
        stats.worker = self._worker_id
        self._batcher.add(self._frame("result", stats=asdict(stats)))


def _run_lease(batcher: FrameBatcher, channel: Channel, lease: dict,
               config: FleetConfig, profile: bool,
               worker_id: str) -> None:
    """Run one leased unit through the shared runner over a
    :class:`WireSink`; when the campaign profiles, the unit's cProfile
    dump goes home as a ``profile`` frame."""
    sink = WireSink(batcher, channel, lease, worker_id)
    run = partial(_run_unit, config, lease["model"],
                  [int(device) for device in lease["devices"]], sink)
    if not profile:
        run()
        return
    _, dump = profiled(run)
    batcher.add({"type": "profile", "model": lease["model"],
                 "first": lease["first"], "lease": lease["lease"]},
                blob=dump)


def handshake(channel: Channel, campaign_key: Optional[str],
              worker_id: str, secret: Optional[bytes] = None,
              role: str = "worker") -> dict:
    """The one client side of the hello/challenge/auth exchange, for
    workers (answered by ``welcome``) and ``repro fleet status``
    observers (``role="status"``, answered by the ``status`` view);
    returns that reply, raising :class:`HandshakeRejected` on a
    refusal.

    Holding a secret makes authentication mutual: the hello carries a
    fresh nonce, and only a challenge whose ``proof`` is that nonce's
    coordinator MAC gets an answer.  A reply that skips the challenge,
    or a wrong proof, means whoever answered ``--connect`` does not
    hold the secret; it is refused with kind ``auth`` before any of
    its offers are taken."""
    hello = {"type": "hello", "proto": PROTO_VERSION,
             "state_version": STATE_VERSION,
             "campaign": campaign_key, "role": role,
             "worker": worker_id, "host": socket.gethostname()}
    if secret is not None:
        hello["nonce"] = nonce = new_nonce()
    channel.send(hello)
    message, _ = channel.recv(timeout=REPLY_TIMEOUT_S)
    if message["type"] == "challenge":
        if secret is None:
            raise HandshakeRejected(
                "auth", "coordinator requires a shared secret — "
                "pass --secret-file or set REPRO_FLEET_SECRET")
        if not mac_matches(message.get("proof"), secret,
                           COORDINATOR_MAC, nonce):
            raise HandshakeRejected(
                "auth", "coordinator failed to prove it holds the "
                "fleet secret")
        channel.send({"type": "auth",
                      "mac": auth_mac(secret, WORKER_MAC,
                                      str(message.get("nonce", "")))})
        message, _ = channel.recv(timeout=REPLY_TIMEOUT_S)
    elif secret is not None and message["type"] != "reject":
        raise HandshakeRejected(
            "auth", f"coordinator sent {message['type']!r} without a "
            "challenge — it does not hold the fleet secret")
    if message["type"] == "reject":
        raise HandshakeRejected(str(message.get("kind", "version")),
                                str(message.get("reason", "rejected")))
    want = "welcome" if role == "worker" else role
    if message["type"] != want:
        raise WireError(
            f"expected {want}, got {message['type']!r}")
    return message


def _work_loop(batcher: FrameBatcher, channel: Channel,
               welcome: dict, config: FleetConfig, worker_id: str,
               say: Callable[[str], None]) -> None:
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
        _run_lease(batcher, channel, message, config, profile,
                   worker_id)


def run_worker(connect: str, worker_id: Optional[str] = None,
               retry_limit: int = 10,
               report: Optional[Callable[[str], None]] = None,
               secret: Optional[bytes] = None) -> int:
    """Worker main loop; returns a process exit code (0 campaign
    complete, 1 coordinator unreachable, 2 version/campaign skew)."""
    say = report if report is not None else (lambda _line: None)
    host, port = parse_endpoint(connect)
    if worker_id is None:
        worker_id = f"{socket.gethostname()}-{os.getpid()}"
    campaign_key: Optional[str] = None
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
        batcher = FrameBatcher(channel)
        stop = threading.Event()
        heartbeat: Optional[threading.Thread] = None
        try:
            welcome = handshake(channel, campaign_key, worker_id,
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
            _import_stores(batcher, channel,
                           list(welcome.get("trace_stores", [])), say)
            heartbeat = threading.Thread(
                target=_heartbeat,
                args=(channel,
                      max(0.1, float(welcome.get("heartbeat_s", 5.0))),
                      stop),
                name="fleet-heartbeat", daemon=True)
            heartbeat.start()
            say(f"joined campaign {campaign_key} at {host}:{port} "
                f"as {worker_id!r}")
            _work_loop(batcher, channel, welcome, config, worker_id,
                       say)
        except _Shutdown:
            say("campaign complete — shutting down")
            return 0
        except HandshakeRejected as reject:
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
