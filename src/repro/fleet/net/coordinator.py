"""The coordinator's side of socket dispatch: :class:`SocketTransport`.

This is a drop-in peer of the executor's ``LocalTransport``: it
receives each model's planned units, serves them as **leases** to any
connected ``repro fleet worker``, and yields ``(devices, t_submit,
result)`` rows in completion order — so the executor's fold, merge,
and profile code runs unchanged and the campaign output is
byte-identical to a local run.

Failure model (the part worth reading twice):

* a lease carries a deadline — ``lease_timeout_s`` since the owning
  connection's last frame (any frame: heartbeat pings included).  A
  worker that is killed, wedged, or partitioned stops refreshing and
  its lease expires; the unit's *unfinished* devices go back on the
  queue for the next ``lease_req``.
* a dropped connection requeues immediately — no need to wait out the
  deadline when the socket already said goodbye.
* dispatch is event-driven: a ``lease_req`` that finds the queue
  empty (a model boundary, every unit already leased) is **parked**,
  and answered the moment work appears — the next model's units, a
  requeue — or the campaign ends.  The connection keeps reading
  frames while parked, so heartbeats still refresh it.
* reassignment is idempotent because completion is **per-device**:
  every ``dev_done`` commits one device's record to the same on-disk
  unit stream the local path appends to, and a requeued lease carries
  only devices without a committed record.  If a presumed-dead worker
  limps home later, its duplicate records are byte-identical (the
  determinism contract) and are dropped at the door.
* all persistent state — unit streams, per-device checkpoints,
  ``campaign.json`` — lives on the coordinator's disk in exactly the
  files the local path uses, so killing the coordinator and resuming
  (with ``--jobs`` *or* ``--listen``) behaves identically.

Trust model: the listen port may be reachable by peers that are not
fleet workers at all, so nothing a client sends is ever *executed* —
checkpoint frames are deserialized with the restricted
:func:`~repro.safeload.safe_loads` (inside
:func:`~repro.fleet.snapshot.parse_checkpoint`, which also checks the
campaign key + device stamp) before touching disk, blob names are
validated against the model registry before becoming paths, and blobs
served to workers (checkpoint payloads, ``.sbx`` translation stores)
go out content-addressed so the other end can verify them.  On top of
that, a shared ``secret`` turns the handshake into HMAC
challenge/response — required for any non-loopback bind, because
checkpoint *content* and ``dev_done`` records still shape campaign
output and must come from trusted workers.
"""

from __future__ import annotations

import hmac
import json
import os
import queue
import socket
import threading
import time
from collections import deque
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro import faults
from repro.errors import ReproError
from repro.fleet import tracetier
from repro.fleet.executor import FileSink, UnitStats, _atomic_write, \
    _ckpt_path, _shards_dir, land_checkpoint
from repro.fleet.net.protocol import Channel, PROTO_VERSION, WireError, \
    auth_mac, blob_sha, unpack_batch
from repro.fleet.snapshot import STATE_VERSION, parse_checkpoint
from repro.fleet.telemetry import MODELS_BY_KEY
from repro.msp430.execcache import DISK_FORMAT, list_store_files, \
    read_store_file

#: a cProfile dump for one unit is tens of KB; anything bigger is not
#: a profile
_MAX_PROFILE = 8 * 1024 * 1024

#: the longest :meth:`SocketTransport.close` waits for connected
#: workers to hang up after it pushes ``shutdown``
_CLOSE_GRACE_S = 2.0


def _is_loopback(host: str) -> bool:
    """Conservatively: only names that always resolve to the local
    host count (an empty host binds every interface)."""
    return host in ("localhost", "::1") or host.startswith("127.")


class _Lease:
    """One granted work unit: who holds it, what is left of it, and
    when its owner was last heard from."""

    __slots__ = ("lease_id", "model", "devices", "first", "t_submit",
                 "worker", "last_seen")

    def __init__(self, lease_id: int, model: str, devices: List[int],
                 first: int, t_submit: float, worker: str):
        self.lease_id = lease_id
        self.model = model
        self.devices = devices
        self.first = first
        self.t_submit = t_submit
        self.worker = worker
        self.last_seen = time.monotonic()


class _Peer:
    """One admitted worker connection: its channel, the leases it
    holds, and — while its ``lease_req`` is parked — when it parked."""

    __slots__ = ("channel", "worker_id", "held", "parked_at")

    def __init__(self, channel: Channel, worker_id: str):
        self.channel = channel
        self.worker_id = worker_id
        self.held: Set[int] = set()
        self.parked_at: Optional[float] = None


class _ModelState:
    """Queue, leases, and committed records for the model currently
    being dispatched."""

    def __init__(self, model_key: str, units: List[List[int]],
                 t_submit: float):
        self.model = model_key
        #: (first_device, remaining_devices, t_submit) — all units are
        #: "submitted" the moment dispatch starts, like the local pool
        self.queue: deque = deque(
            (unit[0], list(unit), t_submit) for unit in units)
        #: the devices this model dispatches; frames about others drop
        self.planned: Set[int] = {device for unit in units
                                  for device in unit}
        self.total = len(self.planned)
        self.records: Dict[int, dict] = {}
        self.yielded: Set[int] = set()
        self.leases: Dict[int, _Lease] = {}
        self.results: "queue.Queue[tuple]" = queue.Queue()
        self.active = True


class SocketTransport:
    """Serve the unit queue over TCP to remote fleet workers.

    ``port=0`` binds an ephemeral port; the bound address is written
    to ``<out_dir>/coordinator.addr`` at campaign open so workers
    launched by scripts and tests can discover it.
    """

    kind = "socket"

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 lease_timeout_s: float = 30.0,
                 heartbeat_s: float = 5.0,
                 secret: Optional[bytes] = None):
        if lease_timeout_s <= 0:
            raise ReproError(
                f"lease timeout must be positive (got {lease_timeout_s})")
        if heartbeat_s <= 0:
            raise ReproError(
                f"heartbeat cadence must be positive (got "
                f"{heartbeat_s}) — workers sleep between pings")
        if secret is None and not _is_loopback(host):
            raise ReproError(
                f"refusing to listen on non-loopback {host!r} without "
                "a shared secret: anyone who can reach the port could "
                "join the fleet and feed records into the campaign — "
                "pass --secret-file (or set REPRO_FLEET_SECRET) on "
                "both ends, or bind 127.0.0.1")
        self.host = host
        self.port = port
        self.secret = secret
        self.lease_timeout_s = lease_timeout_s
        self.heartbeat_s = heartbeat_s
        self.address: Optional[tuple] = None
        self._campaign: Optional[dict] = None
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._handlers: List[threading.Thread] = []
        self._peers: List[_Peer] = []
        self._lock = threading.RLock()
        self._state: Optional[_ModelState] = None
        self._lease_counter = 0
        self._workers: Dict[str, dict] = {}
        self._requeues = 0
        self._shutdown = False
        #: hashed once per campaign at open, not once per handshake —
        #: re-offering a 40+ MB exec cache to every reconnect was a
        #: measurable per-worker startup tax
        self._store_offers: List[dict] = []
        self._trace_offers: List[dict] = []
        self._status_path: Optional[Path] = None
        self._status_at = 0.0
        #: every ``result`` frame's counters, for the live status view
        self._unit_totals = UnitStats()

    # -- executor-facing transport API -----------------------------------
    def open_campaign(self, campaign: dict) -> None:
        self._campaign = campaign
        self._store_offers = list_store_files()
        # trace segments only replay inside cohort lockstep, so a
        # cohort-off campaign would hash and ship .tbx stores that no
        # worker can use
        self._trace_offers = (
            tracetier.list_store_files() if campaign.get("cohort")
            else [])
        self._listener = socket.create_server((self.host, self.port))
        self.address = self._listener.getsockname()[:2]
        out_dir = Path(campaign["out_dir"])
        self._status_path = out_dir / "status.json"
        _atomic_write(out_dir / "coordinator.addr",
                      f"{self.address[0]}:{self.address[1]}\n".encode())
        campaign["say"](
            f"coordinator listening on "
            f"{self.address[0]}:{self.address[1]}")
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fleet-accept", daemon=True)
        self._accept_thread.start()

    def run_units(self, model_key: str, units: List[List[int]]):
        if not units:
            return
        st = _ModelState(model_key, units, time.time())
        with self._lock:
            self._state = st
        # workers that asked during the model boundary get work now
        self._answer_parked()
        try:
            while True:
                with self._lock:
                    if len(st.records) >= st.total:
                        break
                try:
                    devices, t_submit, stats = st.results.get(
                        timeout=0.25)
                except queue.Empty:
                    pass
                else:
                    row = self._fresh_row(st, devices, t_submit, stats)
                    if row is not None:
                        yield row
                self._expire_leases(st)
                self._write_status()
        finally:
            with self._lock:
                st.active = False
                self._state = None
        # drain straggler result frames, then cover any devices whose
        # records landed but whose unit's result frame never arrived
        while True:
            try:
                devices, t_submit, stats = st.results.get_nowait()
            except queue.Empty:
                break
            row = self._fresh_row(st, devices, t_submit, stats)
            if row is not None:
                yield row
        with self._lock:
            leftover = {device: record
                        for device, record in st.records.items()
                        if device not in st.yielded}
            st.yielded.update(leftover)
        if leftover:
            # records that arrived via dev_done whose unit's result
            # frame never did (the worker died after committing them)
            devices = sorted(leftover)
            yield devices, time.time(), {
                "records": leftover,
                "stats": asdict(UnitStats(devices=devices))}

    def worker_stats(self) -> dict:
        with self._lock:
            return {"workers": self._worker_rows(),
                    "requeues": self._requeues}

    # -- live status --------------------------------------------------------
    def _worker_rows(self) -> Dict[str, dict]:
        """Copies of the per-worker rows, with live connections' byte
        counters folded in and waits still parked counted so far
        (callers hold the lock)."""
        now = time.monotonic()
        waiting: Dict[str, float] = {}
        for peer in self._peers:
            self._fold_bytes(peer.channel, peer.worker_id)
            if peer.parked_at is not None:
                waiting[peer.worker_id] = waiting.get(
                    peer.worker_id, 0.0) + now - peer.parked_at
        rows = {}
        for worker_id, row in self._workers.items():
            rows[worker_id] = dict(row)
            rows[worker_id]["wait_s"] = round(
                row["wait_s"] + waiting.get(worker_id, 0.0), 3)
        return rows

    def _status_snapshot(self) -> dict:
        """The live campaign view served to ``status_req`` observers
        and mirrored into ``status.json``."""
        with self._lock:
            st = self._state
            campaign = self._campaign
            totals = self._unit_totals
            lookups = totals.trace_hits + totals.trace_misses
            return {
                "type": "status",
                "campaign": campaign["config_key"]
                if campaign is not None else None,
                "model": st.model if st is not None else None,
                "queue_depth": len(st.queue) if st is not None else 0,
                "active_leases": len(st.leases)
                if st is not None else 0,
                "devices_done": len(st.records)
                if st is not None else 0,
                "devices_total": st.total if st is not None else 0,
                "requeues": self._requeues,
                "connections": len(self._peers),
                "workers": self._worker_rows(),
                "cohort": {name: value for name, value
                           in totals.counters().items()
                           if not name.startswith("ckpt_")},
                "trace_hit_rate": round(totals.trace_hits / lookups, 4)
                if lookups else None,
            }

    def _write_status(self, force: bool = False) -> None:
        """Mirror the live view to ``<out_dir>/status.json`` about
        once a second, atomically — ``repro fleet status <out-dir>``
        reads it without touching the port."""
        if self._status_path is None:
            return
        now = time.monotonic()
        if not force and now - self._status_at < 1.0:
            return
        self._status_at = now
        status = self._status_snapshot()
        status["updated"] = time.time()
        try:
            _atomic_write(self._status_path,
                          (json.dumps(status, indent=2, sort_keys=True)
                           + "\n").encode())
        except OSError:
            return                      # the view is best-effort
        faults.hit("status.after_replace")

    def close(self) -> None:
        with self._lock:
            self._shutdown = True
            peers = list(self._peers)
            for peer in peers:
                self._unpark(peer)
        if self._listener is not None:
            # shutdown, not just close: it wakes the accept() blocked
            # on the listener, and later connection attempts are
            # refused instead of accepted by a lingering socket
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            # returns at once where shutdown wakes accept() (Linux)
            self._accept_thread.join(timeout=1.0)
        # a push, not a reply: a parked lease_req gets its answer, and
        # a worker between frames reads it on its next recv — either
        # way it exits 0 instead of discovering a dead port
        for peer in peers:
            try:
                peer.channel.send({"type": "shutdown"})
            except (WireError, OSError):
                pass
        # each handler ends when its worker hangs up, which a parked
        # worker does at once; one still connected after the grace is
        # mid-unit in an aborted campaign, or wedged, and is cut off
        deadline = time.monotonic() + _CLOSE_GRACE_S
        with self._lock:
            handlers = list(self._handlers)
        for thread in handlers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        with self._lock:
            peers = list(self._peers)
        for peer in peers:
            peer.channel.close()
        self._write_status(force=True)

    # -- completion-order plumbing ----------------------------------------
    def _fresh_row(self, st: _ModelState, devices: List[int],
                   t_submit: float, stats: dict) -> Optional[tuple]:
        """Deduplicate result rows per device: after a reassignment
        both the presumed-dead worker and its replacement may report,
        and each device must be folded exactly once."""
        with self._lock:
            fresh = {device: st.records[device] for device in devices
                     if device in st.records
                     and device not in st.yielded}
            st.yielded.update(fresh)
        if not fresh:
            return None
        return devices, t_submit, {"records": fresh, "stats": stats}

    def _expire_leases(self, st: _ModelState) -> None:
        now = time.monotonic()
        expired = False
        with self._lock:
            for lease_id, lease in list(st.leases.items()):
                if now - lease.last_seen <= self.lease_timeout_s:
                    continue
                del st.leases[lease_id]
                self._requeue(st, lease)
                expired = True
                row = self._workers.get(lease.worker)
                if row is not None:
                    row["lease_timeouts"] += 1
                self._campaign["say"](
                    f"{st.model}: lease {lease.lease_id} "
                    f"(unit {lease.first}) on {lease.worker!r} missed "
                    f"its deadline — requeued")
        if expired:
            self._answer_parked()

    def _requeue(self, st: _ModelState, lease: _Lease) -> None:
        """Return a lease's unfinished devices to the queue (callers
        hold the lock, and call :meth:`_answer_parked` once they let
        go of it).  Finished devices stay finished — completion is
        per-device, which is what makes reassignment idempotent."""
        remaining = [device for device in lease.devices
                     if device not in st.records]
        if remaining:
            st.queue.append((lease.first, remaining, lease.t_submit))
        self._requeues += 1

    # -- parking -------------------------------------------------------------
    def _take_work(self, peer: _Peer) -> Optional[dict]:
        """The answer to ``peer``'s ``lease_req``: the next queued unit
        as a lease, ``shutdown`` once the campaign is closing, or
        ``None`` while there is neither (callers hold the lock)."""
        if self._shutdown:
            self._unpark(peer)
            return {"type": "shutdown"}
        st = self._state
        while st is not None and st.active and st.queue:
            first, devices, t_submit = st.queue.popleft()
            devices = [device for device in devices
                       if device not in st.records]
            if not devices:
                continue
            self._lease_counter += 1
            lease = _Lease(self._lease_counter, st.model, devices,
                           first, t_submit, peer.worker_id)
            st.leases[lease.lease_id] = lease
            peer.held.add(lease.lease_id)
            ckpts = {}
            for device in devices:
                path = _ckpt_path(Path(self._campaign["out_dir"]),
                                  st.model, device)
                try:
                    ckpts[str(device)] = blob_sha(path.read_bytes())
                except OSError:
                    pass                # no checkpoint: fresh start
            self._unpark(peer)
            return {"type": "lease", "lease": lease.lease_id,
                    "model": st.model, "devices": devices,
                    "first": first, "ckpts": ckpts}
        return None

    def _unpark(self, peer: _Peer) -> None:
        """Stop ``peer``'s parked wait and charge it to the worker's
        ``wait_s`` (callers hold the lock)."""
        if peer.parked_at is None:
            return
        row = self._workers.get(peer.worker_id)
        if row is not None:
            row["wait_s"] += time.monotonic() - peer.parked_at
        peer.parked_at = None

    def _answer_parked(self) -> None:
        """Hand out queued work to parked ``lease_req``s, longest
        waiting first, until the queue runs dry."""
        with self._lock:
            parked = sorted((peer for peer in self._peers
                             if peer.parked_at is not None),
                            key=lambda peer: peer.parked_at)
            replies = []
            for peer in parked:
                reply = self._take_work(peer)
                if reply is None:
                    break
                replies.append((peer, reply))
        requeued = False
        for peer, reply in replies:
            try:
                peer.channel.send(reply)
            except (WireError, OSError):
                # the lease never reached its worker: back on the
                # queue now, not once its deadline passes
                if reply["type"] == "lease":
                    with self._lock:
                        requeued |= self._return_leases(
                            peer, [reply["lease"]])
        if requeued:
            self._answer_parked()

    def _return_leases(self, peer: _Peer, lease_ids) -> bool:
        """Requeue those of ``peer``'s leases that are still live;
        returns whether any was (callers hold the lock, and call
        :meth:`_answer_parked` once they let go of it)."""
        st = self._state
        returned = False
        for lease_id in list(lease_ids):
            peer.held.discard(lease_id)
            lease = st.leases.pop(lease_id, None) \
                if st is not None else None
            if lease is not None:
                self._requeue(st, lease)
                returned = True
        return returned

    # -- connection handling ----------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, addr = self._listener.accept()
            except OSError:
                return                  # listener shut down
            thread = threading.Thread(
                target=self._serve, args=(conn, addr),
                name=f"fleet-conn-{addr[1]}", daemon=True)
            with self._lock:
                # every status query and reconnect is a connection:
                # track the live handlers, not the campaign's history
                self._handlers = [handler for handler in self._handlers
                                  if handler.is_alive()]
                self._handlers.append(thread)
            thread.start()

    def _handshake(self, channel: Channel) -> Optional[_Peer]:
        """Run the hello/welcome exchange; returns the admitted
        worker, or ``None`` after sending a reject."""
        hello, _ = channel.recv(timeout=10.0)
        if hello.get("type") != "hello":
            raise WireError(
                f"expected hello, got {hello.get('type')!r}")
        versions = (hello.get("proto"), hello.get("state_version"),
                    hello.get("disk_format"))
        if versions != (PROTO_VERSION, STATE_VERSION, DISK_FORMAT):
            channel.send({
                "type": "reject", "kind": "version",
                "reason": (
                    f"version mismatch: worker (proto, state, disk) "
                    f"= {versions}, coordinator = "
                    f"{(PROTO_VERSION, STATE_VERSION, DISK_FORMAT)}")})
            return None
        config_key = self._campaign["config_key"]
        if hello.get("campaign") not in (None, config_key):
            channel.send({
                "type": "reject", "kind": "campaign",
                "reason": (
                    f"stale campaign key {hello.get('campaign')!r} — "
                    f"this coordinator runs {config_key!r}; drop the "
                    "key and re-handshake")})
            return None
        if self.secret is not None:
            nonce = os.urandom(32).hex()
            channel.send({"type": "challenge", "nonce": nonce})
            reply, _ = channel.recv(timeout=10.0)
            if reply.get("type") != "auth" or not hmac.compare_digest(
                    str(reply.get("mac", "")),
                    auth_mac(self.secret, nonce)):
                channel.send({
                    "type": "reject", "kind": "auth",
                    "reason": (
                        "shared-secret authentication failed — this "
                        "coordinator requires the fleet secret "
                        "(--secret-file / REPRO_FLEET_SECRET)")})
                return None
        if hello.get("role") == "status":
            # a one-shot observer: authenticated like a worker (the
            # view names hosts and progress), never granted work
            channel.send(self._status_snapshot())
            return None
        worker_id = str(hello.get("worker") or "anonymous")
        channel.send({
            "type": "welcome",
            "campaign": config_key,
            "config": self._campaign["config_dict"],
            "cohort": self._campaign["cohort"],
            "rejoin": self._campaign.get("rejoin", True),
            "profile": self._campaign.get("profile_dir") is not None,
            "heartbeat_s": self.heartbeat_s,
            "lease_timeout_s": self.lease_timeout_s,
            "stores": self._store_offers,
            "trace_stores": self._trace_offers,
        })
        peer = _Peer(channel, worker_id)
        with self._lock:
            row = self._workers.get(worker_id)
            if row is None:
                self._workers[worker_id] = {
                    "id": worker_id,
                    "host": str(hello.get("host") or "?"),
                    "units_run": 0, "devices_done": 0,
                    "bytes_to_worker": 0, "bytes_from_worker": 0,
                    "reconnects": 0, "lease_timeouts": 0,
                    "wait_s": 0.0,
                }
            else:
                row["reconnects"] += 1
            self._peers.append(peer)
        self._campaign["say"](
            f"worker {worker_id!r} connected from "
            f"{self._workers[worker_id]['host']}")
        return peer

    def _serve(self, conn: socket.socket, addr) -> None:
        channel = Channel(conn)
        peer: Optional[_Peer] = None
        try:
            peer = self._handshake(channel)
            if peer is None:
                return
            recv_timeout = max(self.lease_timeout_s,
                               4 * self.heartbeat_s)
            while True:
                message, blob = channel.recv(timeout=recv_timeout)
                self._refresh(peer.held)
                mtype = message["type"]
                if mtype == "ping":
                    channel.send({"type": "pong"})
                elif mtype == "lease_req":
                    if not self._grant(peer):
                        return          # shutdown sent
                elif mtype == "blob_get":
                    self._serve_blob(channel, message)
                elif mtype == "ckpt":
                    self._store_checkpoint(message, blob)
                elif mtype == "dev_done":
                    self._commit_device(message, peer.worker_id)
                elif mtype == "result":
                    self._finish_lease(message, peer)
                elif mtype == "batch":
                    self._handle_batch(message, blob, peer)
                elif mtype == "profile":
                    self._store_profile(message, blob)
                elif mtype == "status_req":
                    channel.send(self._status_snapshot())
                else:
                    raise WireError(
                        f"unexpected message type {mtype!r}")
        except (WireError, OSError):
            pass                        # fall through to requeue
        finally:
            requeued = False
            if peer is not None:
                with self._lock:
                    self._unpark(peer)
                    requeued = self._return_leases(peer, peer.held)
                    self._fold_bytes(channel, peer.worker_id)
                    self._peers.remove(peer)
            channel.close()
            if requeued:
                self._answer_parked()

    def _refresh(self, held: Set[int]) -> None:
        """Any frame from a connection refreshes its leases."""
        now = time.monotonic()
        with self._lock:
            st = self._state
            if st is None:
                return
            for lease_id in held:
                lease = st.leases.get(lease_id)
                if lease is not None:
                    lease.last_seen = now

    def _fold_bytes(self, channel: Channel, worker_id: str) -> None:
        """Move the channel's byte counters into the worker row
        (callers hold the lock); counters reset so a later fold never
        double-counts."""
        row = self._workers.get(worker_id)
        if row is None:
            return
        row["bytes_to_worker"] += channel.bytes_out
        row["bytes_from_worker"] += channel.bytes_in
        channel.bytes_out = 0
        channel.bytes_in = 0

    # -- message handlers --------------------------------------------------
    def _grant(self, peer: _Peer) -> bool:
        """Answer a ``lease_req`` with a lease, or with shutdown on
        campaign end; with neither available yet, park it for
        :meth:`_answer_parked` or :meth:`close` to answer.  Returns
        False when the connection should close."""
        with self._lock:
            reply = self._take_work(peer)
            if reply is None:
                if peer.parked_at is None:
                    peer.parked_at = time.monotonic()
                return True
        peer.channel.send(reply)
        return reply["type"] != "shutdown"

    def _serve_blob(self, channel: Channel, message: dict) -> None:
        """Content-addressed blob fetch: the name says what, the sha
        says which version; anything else is ``blob_missing``."""
        name = str(message.get("name", ""))
        want_sha = message.get("sha")
        data: Optional[bytes] = None
        if name.startswith("ckpt:"):
            try:
                _tag, model_key, device = name.split(":", 2)
                if model_key not in MODELS_BY_KEY:
                    raise ValueError(model_key)   # path-shaped names
                path = _ckpt_path(Path(self._campaign["out_dir"]),
                                  model_key, int(device))
                with self._lock:
                    data = path.read_bytes()
            except (ValueError, OSError):
                data = None
        elif name.startswith("sbx:"):
            data = read_store_file(name[len("sbx:"):])
        elif name.startswith("tbx:"):
            data = tracetier.read_store_file(name[len("tbx:"):])
        if data is None or blob_sha(data) != want_sha:
            channel.send({"type": "blob_missing", "name": name})
            return
        channel.send({"type": "blob", "name": name}, blob=data)

    def _handle_batch(self, message: dict, blob: Optional[bytes],
                      peer: _Peer) -> None:
        """Unpack a coalesced frame and dispatch its sub-frames in
        order.  Only report-shaped frames may batch — anything that
        expects a reply (lease_req, blob_get, ping) must go direct,
        and anything else drops the connection."""
        for sub, piece in unpack_batch(message, blob):
            subtype = sub["type"]
            if subtype == "ckpt":
                self._store_checkpoint(sub, piece)
            elif subtype == "dev_done":
                self._commit_device(sub, peer.worker_id)
            elif subtype == "result":
                self._finish_lease(sub, peer)
            elif subtype == "profile":
                self._store_profile(sub, piece)
            else:
                raise WireError(
                    f"batch may not carry {subtype!r} frames")

    def _store_profile(self, message: dict,
                       blob: Optional[bytes]) -> None:
        """Land one remote unit's cProfile dump under the same name
        the local pool writes, so ``--profile`` output is
        transport-agnostic.  Name parts are validated against the
        model registry before becoming a path; dumps are size-capped
        and landed atomically."""
        if blob is None or not blob or len(blob) > _MAX_PROFILE:
            return
        profile_dir = self._campaign.get("profile_dir")
        if profile_dir is None:
            return                      # campaign not profiling
        model_key = message.get("model")
        first = message.get("first")
        if model_key not in MODELS_BY_KEY or \
                not isinstance(first, int) or not 0 <= first < 10**5:
            return
        path = Path(profile_dir) / f"{model_key}-u{first:05d}.prof"
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(path, blob)

    def _pending_device(self, message: dict) -> Optional[int]:
        """The frame's device if the model in flight planned it and has
        no record for it yet, else ``None`` (callers hold the lock)."""
        st = self._state
        device = message.get("device")
        if st is None or not st.active or \
                message.get("model") != st.model or \
                not isinstance(device, int) or \
                device not in st.planned or device in st.records:
            return None
        return device

    def _store_checkpoint(self, message: dict,
                          blob: Optional[bytes]) -> None:
        """Validate and land one device checkpoint through the local
        pool's :func:`~repro.fleet.executor.land_checkpoint` — same
        file, same atomic rename."""
        if blob is None:
            return
        with self._lock:
            device = self._pending_device(message)
            if device is None:
                return
            try:
                parse_checkpoint(blob, self._campaign["config_key"],
                                 device)
            except Exception:
                return                  # fail closed: never land it
            out_dir = Path(self._campaign["out_dir"])
            _shards_dir(out_dir).mkdir(parents=True, exist_ok=True)
            land_checkpoint(out_dir, self._state.model, device, blob)

    def _commit_device(self, message: dict, worker_id: str) -> None:
        """One device finished: commit its record through the local
        pool's :class:`~repro.fleet.executor.FileSink` (append to the
        unit stream, drop the checkpoint) and count it toward model
        completion — only a planned device, under its own record."""
        with self._lock:
            device = self._pending_device(message)
            record = message.get("record")
            first = message.get("first")
            if device is None or not isinstance(record, dict) or \
                    record.get("device") != device or \
                    not isinstance(first, int):
                return
            st = self._state
            FileSink(Path(self._campaign["out_dir"]), st.model,
                     first).commit(device, record)
            st.records[device] = record
            row = self._workers.get(worker_id)
            if row is not None:
                row["devices_done"] += 1

    def _finish_lease(self, message: dict, peer: _Peer) -> None:
        """A unit's ``result``: retire the lease — only one this
        connection holds — and requeue any of its devices that still
        have no committed record, so a worker that skipped a device
        cannot strand it."""
        with self._lock:
            st = self._state
            lease_id = message.get("lease")
            held = lease_id in peer.held
            peer.held.discard(lease_id)
            if st is None or message.get("model") != st.model:
                return
            stats = UnitStats.from_wire(message.get("stats"))
            lease = st.leases.pop(lease_id, None) if held else None
            row = self._workers.get(peer.worker_id)
            if row is not None:
                row["units_run"] += 1
            self._unit_totals.add(stats)
            if lease is None:
                # not a lease this connection holds (it expired and
                # was reassigned): records were already committed
                # per-device; the row only feeds the profile
                st.results.put((stats.devices, time.time(),
                                asdict(stats)))
                return
            requeued = any(device not in st.records
                           for device in lease.devices)
            if requeued:
                self._requeue(st, lease)
            st.results.put((lease.devices, lease.t_submit,
                            asdict(stats)))
        if requeued:
            self._answer_parked()
