"""Socket dispatch: wire framing, blob validation, and loopback
campaigns.

The network layer's contract has two halves.  The wire half is
fail-closed framing and hostile-input hardening: torn, oversized,
garbage, or digest-mismatched frames raise :class:`WireError` and are
never acted on; a handshake with a stale campaign key, skewed
versions, or a failed shared-secret challenge is refused; and
payloads that *deserialize* (checkpoints, ``.sbx`` records) are
loaded with a restricted unpickler, so a crafted pickle is rejected
instead of executed.  The campaign half is transport invariance: a
campaign dispatched over sockets — including one that loses a worker
mid-unit, or loses the coordinator itself — produces byte-identical
output to the in-process ``--jobs`` path.
"""

import hashlib
import json
import os
import pickle
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.fleet.executor import FleetConfig, run_campaign, _ckpt_path
from repro.fleet.net.coordinator import SocketTransport
from repro.fleet.net.protocol import Channel, MAX_FRAME, \
    PROTO_VERSION, WireError, auth_mac, blob_sha, pack_batch, \
    unpack_batch
from repro.fleet.net.worker import FrameBatcher, parse_endpoint, \
    run_worker
from repro.fleet.snapshot import STATE_VERSION, parse_checkpoint
from repro.msp430 import execcache
from repro.safeload import UnsafePayload, safe_loads

REPO = Path(__file__).resolve().parents[1]

#: same small-but-non-trivial campaign the shard tests use: several
#: checkpoint segments per device, rogues present
_CAMPAIGN = dict(devices=4, hours=0.003, models=("mpu",), seed=7,
                 checkpoint_minutes=0.05, rogue_fraction=0.5)


# -- wire framing -----------------------------------------------------------

def _pair():
    left, right = socket.socketpair()
    return Channel(left), Channel(right)


class TestProtocol:
    def test_roundtrip_message_and_blob(self):
        tx, rx = _pair()
        tx.send({"type": "blob", "name": "x"}, blob=b"payload")
        message, blob = rx.recv(timeout=5)
        assert message["type"] == "blob"
        assert blob == b"payload"
        assert message["blob_sha"] == blob_sha(b"payload")
        assert rx.bytes_in == tx.bytes_out > 0

    def test_oversized_length_prefix_rejected(self):
        left, right = socket.socketpair()
        left.sendall(struct.pack(">I", MAX_FRAME + 1))
        with pytest.raises(WireError, match="length"):
            Channel(right).recv(timeout=5)

    def test_garbage_payload_rejected(self):
        left, right = socket.socketpair()
        left.sendall(struct.pack(">I", 4) + b"\xff\xfe\x00\x01")
        with pytest.raises(WireError, match="not valid JSON"):
            Channel(right).recv(timeout=5)

    def test_untyped_message_rejected(self):
        left, right = socket.socketpair()
        payload = json.dumps([1, 2, 3]).encode()
        left.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(WireError, match="typed message"):
            Channel(right).recv(timeout=5)

    def test_torn_frame_rejected(self):
        left, right = socket.socketpair()
        left.sendall(struct.pack(">I", 100) + b"{")
        left.close()
        with pytest.raises(WireError, match="torn"):
            Channel(right).recv(timeout=5)

    def test_blob_digest_mismatch_rejected(self):
        left, right = socket.socketpair()
        message = {"type": "blob", "blob_len": 3,
                   "blob_sha": "0" * 64}
        payload = json.dumps(message).encode()
        left.sendall(struct.pack(">I", len(payload)) + payload
                     + b"abc")
        with pytest.raises(WireError, match="digest mismatch"):
            Channel(right).recv(timeout=5)

    def test_oversized_outgoing_frame_refused(self):
        tx, _rx = _pair()
        with pytest.raises(WireError, match="MAX_FRAME"):
            tx.send({"type": "x", "pad": "a" * MAX_FRAME})

    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:7633") == ("127.0.0.1", 7633)
        from repro.errors import ReproError
        with pytest.raises(ReproError, match="host:port"):
            parse_endpoint("7633")
        with pytest.raises(ReproError, match="integer"):
            parse_endpoint("host:seven")


# -- translation-store transfer validation ----------------------------------

def _sbx_frame(record: dict) -> bytes:
    payload = pickle.dumps(record,
                           protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).digest()[:16]
    return (execcache._MAGIC
            + execcache._HEADER.pack(len(payload), digest) + payload)


class TestStoreTransfer:
    def test_scan_keeps_valid_rejects_torn_tail(self):
        good = _sbx_frame({"pc": 1, "code": "a"})
        torn = _sbx_frame({"pc": 2, "code": "b"})[:-3]
        kept, records, rejected = execcache.scan_frames(good + torn)
        assert (records, rejected) == (1, 1)
        assert kept == good

    def test_scan_rejects_corrupt_payload_digest(self):
        frame = bytearray(_sbx_frame({"pc": 1, "code": "a"}))
        frame[-1] ^= 0xFF
        kept, records, rejected = execcache.scan_frames(bytes(frame))
        assert (kept, records, rejected) == (b"", 0, 1)

    def test_scan_rejects_shapeless_records(self):
        frame = _sbx_frame({"not": "a block record"})
        kept, records, rejected = execcache.scan_frames(frame)
        assert (kept, records, rejected) == (b"", 0, 1)

    def test_import_writes_only_valid_frames(self, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_CACHE_DIR", str(tmp_path))
        name = "0123456789abcdef.sbx"
        good = _sbx_frame({"pc": 1, "code": "a"})
        assert execcache.import_store_file(
            name, good + b"trailing garbage") == 1
        assert (tmp_path / name).read_bytes() == good
        # an existing store is never overwritten by an import
        assert execcache.import_store_file(name, good) == 0

    def test_import_refuses_bad_names_and_empty_scans(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_CACHE_DIR", str(tmp_path))
        good = _sbx_frame({"pc": 1, "code": "a"})
        assert execcache.import_store_file("../evil.sbx", good) == 0
        assert execcache.import_store_file("UPPER.sbx", good) == 0
        assert execcache.import_store_file(
            "0123456789abcdef.sbx", b"pure garbage") == 0
        assert list(tmp_path.glob("*.sbx")) == []


# -- non-executing deserialization ------------------------------------------

class _Exploit:
    """Pickles to a REDUCE of ``os.mkdir(marker)`` — the classic
    ``pickle.loads`` code-execution payload.  Loading it with stock
    pickle creates the marker directory; the restricted loader must
    refuse it with the marker untouched."""

    def __init__(self, marker: str):
        self.marker = marker

    def __reduce__(self):
        return (os.mkdir, (self.marker,))


class TestSafeLoads:
    def test_roundtrips_the_primitive_payloads_we_ship(self):
        value = {"pc": 0x4400, "code": b"\x0f\x12", "pure": True,
                 "steps": [(1, 2, 3.5, None, "info", [4, 5])],
                 "nested": {"a": {"b": (b"c",)}}}
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        assert safe_loads(data) == value

    def test_refuses_global_references_without_executing(
            self, tmp_path):
        marker = tmp_path / "pwned"
        evil = pickle.dumps(_Exploit(str(marker)))
        with pytest.raises(UnsafePayload):
            safe_loads(evil)
        assert not marker.exists()

    def test_scan_frames_never_executes_a_hostile_record(
            self, tmp_path):
        # a well-framed transfer (magic, length, digest all
        # self-consistent — an attacker controls those) whose payload
        # is an exploit pickle: rejected, nothing executed
        marker = tmp_path / "pwned"
        frame = _sbx_frame(_Exploit(str(marker)))
        kept, records, rejected = execcache.scan_frames(frame)
        assert (kept, records, rejected) == (b"", 0, 1)
        assert not marker.exists()

    def test_disk_tier_never_executes_a_hostile_record(self, tmp_path):
        marker = tmp_path / "pwned"
        store = tmp_path / "0123456789abcdef.sbx"
        store.write_bytes(_sbx_frame(_Exploit(str(marker))))
        tier = execcache.DiskTier(store)
        assert (tier.loaded, tier.corrupt) == (0, 1)
        assert not marker.exists()

    def test_parse_checkpoint_never_executes_a_hostile_blob(
            self, tmp_path):
        marker = tmp_path / "pwned"
        evil = pickle.dumps(_Exploit(str(marker)))
        with pytest.raises(UnsafePayload):
            parse_checkpoint(evil, "key", 0)
        assert not marker.exists()
        with pytest.raises(ReproError, match="not a mapping"):
            parse_checkpoint(pickle.dumps([1, 2]), "key", 0)


# -- loopback campaigns -----------------------------------------------------

def _serial_reference(tmp_path):
    out = tmp_path / "reference"
    run_campaign(FleetConfig(**_CAMPAIGN), out, jobs=1)
    return out


class _Coordinator:
    """A socket campaign on a background thread, on an ephemeral
    loopback port."""

    def __init__(self, out, jobs=2, lease_timeout_s=10.0,
                 profile=False, secret=None, cohort=False,
                 rejoin=True, **overrides):
        self.out = Path(out)
        self.transport = SocketTransport(
            lease_timeout_s=lease_timeout_s, heartbeat_s=0.5,
            secret=secret)
        self.error = None
        config = FleetConfig(**{**_CAMPAIGN, **overrides})
        profile_dir = self.out / "profiles" if profile else None

        def _run():
            try:
                run_campaign(config, self.out, jobs=jobs,
                             cohort=cohort, rejoin=rejoin,
                             transport=self.transport,
                             profile_dir=profile_dir)
            except BaseException as error:   # surfaced in join()
                self.error = error

        self.thread = threading.Thread(target=_run, daemon=True)
        self.thread.start()

    def address(self) -> str:
        path = self.out / "coordinator.addr"
        deadline = time.monotonic() + 30
        while not path.exists():
            assert time.monotonic() < deadline, \
                "coordinator never published its address"
            assert self.thread.is_alive() or path.exists(), \
                f"coordinator died early: {self.error}"
            time.sleep(0.02)
        return path.read_text().strip()

    def join(self):
        self.thread.join(timeout=120)
        assert not self.thread.is_alive(), "coordinator hung"
        if self.error is not None:
            raise self.error


def _worker_thread(address, worker_id, codes, **kwargs):
    def _run():
        codes[worker_id] = run_worker(address, worker_id=worker_id,
                                      **kwargs)
    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    return thread


def _raw_connect(address, **overrides):
    """Open one raw connection and send a hello; returns the channel
    and the coordinator's reply."""
    host, port = parse_endpoint(address)
    channel = Channel(socket.create_connection((host, port),
                                               timeout=10))
    hello = {"type": "hello", "proto": PROTO_VERSION,
             "state_version": STATE_VERSION,
             "disk_format": execcache.DISK_FORMAT,
             "campaign": None, "worker": "probe", "host": "test"}
    hello.update(overrides)
    channel.send(hello)
    reply, _ = channel.recv(timeout=10)
    return channel, reply


def _raw_hello(address, **overrides):
    """Open one raw connection, send a hello, return the reply."""
    channel, reply = _raw_connect(address, **overrides)
    channel.close()
    return reply


def _subprocess_env(tmp_path):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    env["REPRO_EXEC_CACHE_DIR"] = str(tmp_path / "subproc-exec")
    env["REPRO_TRACE_CACHE_DIR"] = str(tmp_path / "subproc-trace")
    return env


class TestLoopbackCampaign:
    def test_two_workers_match_local_bytes(self, tmp_path):
        reference = _serial_reference(tmp_path)
        out = tmp_path / "sock"
        coordinator = _Coordinator(out, jobs=2, profile=True)
        address = coordinator.address()
        codes = {}
        workers = [_worker_thread(address, f"w{i}", codes)
                   for i in range(2)]
        coordinator.join()
        for worker in workers:
            worker.join(timeout=30)
        assert codes == {"w0": 0, "w1": 0}
        assert (out / "summary.json").read_bytes() == \
            (reference / "summary.json").read_bytes()
        assert (out / "devices-mpu.jsonl").read_bytes() == \
            (reference / "devices-mpu.jsonl").read_bytes()
        profile = json.loads(
            (out / "profiles" / "coordinator.json").read_text())
        assert profile["transport"] == "socket"
        assert set(profile["workers"]) == {"w0", "w1"}
        for row in profile["workers"].values():
            assert row["bytes_to_worker"] > 0
            assert row["bytes_from_worker"] > 0
            assert row["wait_s"] >= 0.0
        totals = profile["worker_totals"]
        assert totals["workers"] == 2
        assert totals["devices_done"] == _CAMPAIGN["devices"]
        assert totals["units_run"] >= 1
        assert totals["wait_s"] == pytest.approx(
            sum(row["wait_s"] for row in profile["workers"].values()),
            abs=0.01)

    def test_worker_kill_mid_unit_reassigns_lease(self, tmp_path):
        reference = _serial_reference(tmp_path)
        out = tmp_path / "killed"
        coordinator = _Coordinator(out, jobs=2, lease_timeout_s=3.0,
                                   profile=True)
        address = coordinator.address()
        # first worker dies (os._exit) after shipping two checkpoint
        # frames — mid-unit, with a lease held
        crash = subprocess.run(
            [sys.executable, "-m", "repro.cli", "fleet", "worker",
             "--connect", address, "--worker-id", "crashy",
             "--crash-after-ckpts", "2"],
            env=_subprocess_env(tmp_path), capture_output=True,
            timeout=120)
        assert crash.returncode == 3
        codes = {}
        healthy = _worker_thread(address, "healthy", codes)
        coordinator.join()
        healthy.join(timeout=30)
        assert codes == {"healthy": 0}
        assert (out / "summary.json").read_bytes() == \
            (reference / "summary.json").read_bytes()
        assert (out / "devices-mpu.jsonl").read_bytes() == \
            (reference / "devices-mpu.jsonl").read_bytes()
        profile = json.loads(
            (out / "profiles" / "coordinator.json").read_text())
        # the dead worker's lease went back to the queue, and the
        # profile attributes both ends of the story
        assert profile["requeues"] >= 1
        assert {"crashy", "healthy"} <= set(profile["workers"])
        assert profile["workers"]["healthy"]["units_run"] >= 1

    def test_stale_campaign_key_is_refused(self, tmp_path):
        out = tmp_path / "stale"
        coordinator = _Coordinator(out)
        address = coordinator.address()
        reply = _raw_hello(address, campaign="f" * 16)
        assert reply["type"] == "reject"
        assert reply["kind"] == "campaign"
        assert "stale campaign key" in reply["reason"]
        codes = {}
        worker = _worker_thread(address, "w0", codes)
        coordinator.join()
        worker.join(timeout=30)
        assert codes == {"w0": 0}

    def test_version_skew_is_refused(self, tmp_path):
        out = tmp_path / "skew"
        coordinator = _Coordinator(out)
        address = coordinator.address()
        reply = _raw_hello(address, proto=PROTO_VERSION + 1)
        assert reply["type"] == "reject"
        assert reply["kind"] == "version"
        reply = _raw_hello(address, state_version=STATE_VERSION + 1)
        assert reply["kind"] == "version"
        codes = {}
        worker = _worker_thread(address, "w0", codes)
        coordinator.join()
        worker.join(timeout=30)
        assert codes == {"w0": 0}

    def test_garbage_connection_does_not_wedge(self, tmp_path):
        out = tmp_path / "garbage"
        coordinator = _Coordinator(out)
        address = coordinator.address()
        host, port = parse_endpoint(address)
        # a port scanner / confused peer: raw bytes, then vanish
        probe = socket.create_connection((host, port), timeout=10)
        probe.sendall(b"\xff" * 8)
        probe.close()
        codes = {}
        worker = _worker_thread(address, "w0", codes)
        coordinator.join()
        worker.join(timeout=30)
        assert codes == {"w0": 0}

    def test_coordinator_kill_and_resume_is_byte_identical(
            self, tmp_path):
        reference = _serial_reference(tmp_path)
        out = tmp_path / "ckill"
        env = _subprocess_env(tmp_path)
        coordinator = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "fleet", "run",
             "--devices", str(_CAMPAIGN["devices"]),
             "--hours", str(_CAMPAIGN["hours"]),
             "--model", "mpu", "--seed", str(_CAMPAIGN["seed"]),
             "--checkpoint-minutes",
             str(_CAMPAIGN["checkpoint_minutes"]),
             "--rogue-fraction", str(_CAMPAIGN["rogue_fraction"]),
             "--out", str(out), "--jobs", "2",
             "--listen", "127.0.0.1:0"],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            addr_path = out / "coordinator.addr"
            deadline = time.monotonic() + 30
            while not addr_path.exists():
                assert time.monotonic() < deadline
                time.sleep(0.05)
            address = addr_path.read_text().strip()
            worker = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "fleet",
                 "worker", "--connect", address,
                 "--worker-id", "w0", "--retry-limit", "0"],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            try:
                # kill the coordinator once real progress exists —
                # a checkpoint or a committed record on its disk
                shards = out / "shards"
                deadline = time.monotonic() + 60
                while True:
                    assert time.monotonic() < deadline, \
                        "no checkpoint ever appeared"
                    if shards.is_dir() and (
                            list(shards.glob("*.ckpt"))
                            or list(shards.glob("*-u*.jsonl"))):
                        break
                    time.sleep(0.02)
                os.kill(coordinator.pid, signal.SIGKILL)
                coordinator.wait(timeout=30)
            finally:
                worker.terminate()
                worker.wait(timeout=30)
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
                coordinator.wait(timeout=30)
        # resume the very same campaign locally — transports and
        # worker counts are execution details
        run_campaign(FleetConfig(**_CAMPAIGN), out, jobs=1)
        assert (out / "summary.json").read_bytes() == \
            (reference / "summary.json").read_bytes()
        assert (out / "devices-mpu.jsonl").read_bytes() == \
            (reference / "devices-mpu.jsonl").read_bytes()


class _RecordingChannel:
    """Collects coordinator replies without a socket."""

    def __init__(self):
        self.sent = []

    def send(self, message, blob=None, compress=False):
        self.sent.append((message, blob))


class TestCoordinatorHardening:
    def test_transport_rejects_degenerate_timings(self):
        with pytest.raises(ReproError, match="lease timeout"):
            SocketTransport(lease_timeout_s=0)
        with pytest.raises(ReproError, match="heartbeat"):
            SocketTransport(heartbeat_s=0)

    def test_non_loopback_bind_requires_a_secret(self):
        with pytest.raises(ReproError, match="non-loopback"):
            SocketTransport(host="0.0.0.0")
        with pytest.raises(ReproError, match="non-loopback"):
            SocketTransport(host="")          # all interfaces
        SocketTransport(host="0.0.0.0", secret=b"hunter2")
        SocketTransport(host="127.0.0.1")     # loopback stays easy

    def test_blob_names_cannot_escape_the_shards_dir(self, tmp_path):
        out = tmp_path / "out"
        transport = SocketTransport()
        transport._campaign = {"out_dir": str(out)}
        # a legitimate fetch still works…
        path = _ckpt_path(out, "mpu", 1)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"checkpoint bytes")
        channel = _RecordingChannel()
        transport._serve_blob(channel, {
            "name": "ckpt:mpu:1", "sha": blob_sha(b"checkpoint bytes")})
        assert channel.sent[-1] == ({"type": "blob",
                                     "name": "ckpt:mpu:1"},
                                    b"checkpoint bytes")
        # …while a path-shaped model key is refused before any
        # filesystem access (previously it walked out of shards/)
        outside = tmp_path / "secret.bin"
        outside.write_bytes(b"not yours")
        for name in ("ckpt:../../secret.bin:1", "ckpt:evil:1",
                     "ckpt:mpu:not-an-int"):
            channel = _RecordingChannel()
            transport._serve_blob(channel, {
                "name": name, "sha": blob_sha(b"not yours")})
            assert channel.sent == [({"type": "blob_missing",
                                      "name": name}, None)]


# -- event-driven dispatch --------------------------------------------------

def _listening(tmp_path) -> SocketTransport:
    """A coordinator that accepts workers but has queued nothing: the
    tests below queue units themselves, through ``run_units``."""
    config = FleetConfig(**_CAMPAIGN)
    transport = SocketTransport(heartbeat_s=0.5)
    transport.open_campaign({
        "config_dict": asdict(config), "config_key": config.key(),
        "out_dir": str(tmp_path), "cache_mode": "shared",
        "cohort": False, "rejoin": True, "profile_dir": None,
        "say": lambda _line: None})
    return transport


def _joined(transport, worker_id="probe") -> Channel:
    channel, welcome = _raw_connect(
        "%s:%d" % transport.address, worker=worker_id)
    assert welcome["type"] == "welcome"
    return channel


def _dispatch(transport, units):
    """Run ``run_units`` on a thread, as the executor would; the rows
    it yields collect in the returned list."""
    rows = []
    thread = threading.Thread(
        target=lambda: rows.extend(transport.run_units("mpu", units)),
        daemon=True)
    thread.start()
    return thread, rows


def _finish(channel, lease):
    """Report every leased device done, then the unit."""
    for device in lease["devices"]:
        channel.send({"type": "dev_done", "model": lease["model"],
                      "device": device, "first": lease["first"],
                      "lease": lease["lease"],
                      "record": {"device": device}})
    channel.send({"type": "result", "lease": lease["lease"],
                  "model": lease["model"],
                  "stats": {"devices": lease["devices"]}})


def _assert_parked(channel):
    """No reply to a lease_req within 0.3 s, yet the connection is
    live: a ping still gets its pong."""
    with pytest.raises(socket.timeout):
        channel.recv(timeout=0.3)
    channel.send({"type": "ping"})
    assert channel.recv(timeout=5)[0]["type"] == "pong"


class TestParkedLeases:
    def test_lease_req_parks_until_units_are_queued(self, tmp_path):
        transport = _listening(tmp_path)
        channel = _joined(transport)
        try:
            channel.send({"type": "lease_req", "worker": "probe"})
            _assert_parked(channel)
            start = time.monotonic()
            dispatch, rows = _dispatch(transport, [[0, 1]])
            lease, _ = channel.recv(timeout=5)
            assert lease["type"] == "lease"
            assert time.monotonic() - start < 0.5
            assert lease["devices"] == [0, 1]
            _finish(channel, lease)
            dispatch.join(timeout=10)
            assert not dispatch.is_alive()
            assert [sorted(row[2]["records"]) for row in rows] == \
                [[0, 1]]
            stats = transport.worker_stats()
            assert stats["requeues"] == 0
            assert stats["workers"]["probe"]["wait_s"] >= 0.3
        finally:
            channel.close()
            transport.close()

    def test_requeue_wakes_a_parked_worker(self, tmp_path):
        transport = _listening(tmp_path)
        holder = _joined(transport, "holder")
        waiter = _joined(transport, "waiter")
        try:
            dispatch, rows = _dispatch(transport, [[0, 1]])
            holder.send({"type": "lease_req", "worker": "holder"})
            lease, _ = holder.recv(timeout=5)
            assert lease["type"] == "lease"
            waiter.send({"type": "lease_req", "worker": "waiter"})
            _assert_parked(waiter)
            # the holder dies mid-unit: its devices go straight to the
            # parked worker, with no lease deadline to wait out
            holder.close()
            start = time.monotonic()
            relet, _ = waiter.recv(timeout=5)
            assert relet["type"] == "lease"
            assert time.monotonic() - start < 0.5
            assert relet["devices"] == [0, 1]
            _finish(waiter, relet)
            dispatch.join(timeout=10)
            assert not dispatch.is_alive()
            assert transport.worker_stats()["requeues"] == 1
        finally:
            waiter.close()
            transport.close()

    def test_unreachable_parked_worker_requeues_its_lease_at_once(
            self, tmp_path):
        from repro.fleet.net.coordinator import _ModelState, _Peer

        class _Gone:
            def send(self, message, blob=None, compress=False):
                raise OSError("connection reset by peer")

        transport = SocketTransport()
        transport._campaign = {"out_dir": str(tmp_path)}
        peer = _Peer(_Gone(), "gone")
        peer.parked_at = time.monotonic()
        transport._peers.append(peer)
        transport._state = _ModelState("mpu", [[0, 1]], 0.0)
        transport._answer_parked()
        state = transport._state
        assert [unit[1] for unit in state.queue] == [[0, 1]]
        assert state.leases == {} and peer.held == set()
        assert transport._requeues == 1

    def test_close_answers_parked_worker_and_stops_listening(
            self, tmp_path):
        transport = _listening(tmp_path)
        channel = _joined(transport)
        try:
            channel.send({"type": "lease_req", "worker": "probe"})
            _assert_parked(channel)
            start = time.monotonic()
            closer = threading.Thread(target=transport.close,
                                      daemon=True)
            closer.start()
            assert channel.recv(timeout=5)[0]["type"] == "shutdown"
            channel.close()             # the worker exits
            closer.join(timeout=5)
            assert not closer.is_alive()
            assert time.monotonic() - start < 0.5
        finally:
            channel.close()
        with pytest.raises(OSError):
            socket.create_connection(transport.address,
                                     timeout=2).close()

    def test_finished_connections_are_not_tracked(self, tmp_path):
        transport = _listening(tmp_path)
        address = "%s:%d" % transport.address
        try:
            for _ in range(20):
                assert _raw_hello(address, role="status")["type"] == \
                    "status"
            assert len(transport._handlers) <= 5
        finally:
            transport.close()

    def test_many_workers_racing_the_queue_lease_each_unit_once(
            self, tmp_path):
        # more workers than cores, asking before and while units are
        # queued, with a tiny switch interval: every device must be
        # leased exactly once and every worker must get its shutdown
        transport = _listening(tmp_path)
        devices = list(range(24))
        leased = []
        exits = {}
        joined = threading.Barrier(9)

        def work(worker_id):
            channel = _joined(transport, worker_id)
            try:
                joined.wait(timeout=10)
                while True:
                    channel.send({"type": "lease_req",
                                  "worker": worker_id})
                    message, _ = channel.recv(timeout=10)
                    if message["type"] == "shutdown":
                        exits[worker_id] = "shutdown"
                        return
                    leased.extend(message["devices"])
                    _finish(channel, message)
            finally:
                channel.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        workers = [threading.Thread(target=work, args=(f"w{i}",),
                                    daemon=True) for i in range(8)]
        try:
            for worker in workers:
                worker.start()
            # the workers' first lease_reqs race the queueing
            joined.wait(timeout=10)
            dispatch, rows = _dispatch(
                transport, [[device] for device in devices])
            dispatch.join(timeout=30)
            assert not dispatch.is_alive()
        finally:
            transport.close()
            sys.setswitchinterval(interval)
        for worker in workers:
            worker.join(timeout=10)
            assert not worker.is_alive()
        assert sorted(leased) == devices
        assert sorted(device for row in rows
                      for device in row[2]["records"]) == devices
        assert exits == {f"w{i}": "shutdown" for i in range(8)}
        assert transport.worker_stats()["requeues"] == 0

    def test_parked_worker_outlives_the_reply_timeout(
            self, tmp_path, monkeypatch):
        from repro.fleet.net import worker as worker_module
        # while parked only pongs arrive, so the lease wait's deadline
        # must follow the heartbeat cadence, not the reply timeout
        monkeypatch.setattr(worker_module, "REPLY_TIMEOUT_S", 0.3)
        run_units = SocketTransport.run_units

        def late_units(transport, model_key, units):
            time.sleep(1.5)             # the worker parks meanwhile
            yield from run_units(transport, model_key, units)

        monkeypatch.setattr(SocketTransport, "run_units", late_units)
        out = tmp_path / "late"
        coordinator = _Coordinator(out, profile=True)
        address = coordinator.address()
        codes = {}
        worker = _worker_thread(address, "w0", codes)
        coordinator.join()
        worker.join(timeout=30)
        assert codes == {"w0": 0}
        profile = json.loads(
            (out / "profiles" / "coordinator.json").read_text())
        row = profile["workers"]["w0"]
        assert row["reconnects"] == 0
        assert row["devices_done"] == _CAMPAIGN["devices"]
        assert row["wait_s"] > 0.5


class TestSharedSecret:
    def test_secret_gates_admission_and_authed_workers_run(
            self, tmp_path):
        reference = _serial_reference(tmp_path)
        out = tmp_path / "auth"
        secret = b"fleet-secret-7"
        coordinator = _Coordinator(out, secret=secret)
        address = coordinator.address()
        host, port = parse_endpoint(address)
        # a probe is challenged; a wrong mac is rejected as auth-kind
        channel = Channel(socket.create_connection((host, port),
                                                   timeout=10))
        channel.send({"type": "hello", "proto": PROTO_VERSION,
                      "state_version": STATE_VERSION,
                      "disk_format": execcache.DISK_FORMAT,
                      "campaign": None, "worker": "probe",
                      "host": "test"})
        reply, _ = channel.recv(timeout=10)
        assert reply["type"] == "challenge"
        nonce = reply["nonce"]
        assert auth_mac(secret, nonce) != auth_mac(b"guess", nonce)
        channel.send({"type": "auth",
                      "mac": auth_mac(b"guess", nonce)})
        reply, _ = channel.recv(timeout=10)
        assert (reply["type"], reply["kind"]) == ("reject", "auth")
        channel.close()
        # a worker without the secret fails fast (exit 2, no retry)
        assert run_worker(address, worker_id="keyless") == 2
        # workers holding the secret run the campaign to the same bytes
        codes = {}

        def _authed(worker_id):
            def _run():
                codes[worker_id] = run_worker(
                    address, worker_id=worker_id, secret=secret)
            thread = threading.Thread(target=_run, daemon=True)
            thread.start()
            return thread

        workers = [_authed(f"w{i}") for i in range(2)]
        coordinator.join()
        for worker in workers:
            worker.join(timeout=30)
        assert codes == {"w0": 0, "w1": 0}
        assert (out / "summary.json").read_bytes() == \
            (reference / "summary.json").read_bytes()
        assert (out / "devices-mpu.jsonl").read_bytes() == \
            (reference / "devices-mpu.jsonl").read_bytes()


class TestCliValidation:
    def test_jobs_zero_is_refused(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "fleet", "run",
             "--devices", "1", "--hours", "0.001", "--model", "mpu",
             "--jobs", "0", "--out", str(tmp_path / "never")],
            env=_subprocess_env(tmp_path), capture_output=True,
            text=True, timeout=60)
        assert result.returncode == 2
        assert "--jobs must be >= 1" in result.stderr


# -- blob compression -------------------------------------------------------

class TestCompression:
    def test_large_blob_deflates_and_inflates_transparently(self):
        tx, rx = _pair()
        blob = b"amulet checkpoint page " * 500
        tx.send({"type": "blob", "name": "x"}, blob=blob,
                compress=True)
        message, out = rx.recv(timeout=5)
        assert out == blob
        assert message["blob_enc"] == "zlib"
        assert message["blob_raw_sha"] == blob_sha(blob)
        assert tx.bytes_out < len(blob)

    def test_small_and_incompressible_blobs_ship_raw(self):
        tx, rx = _pair()
        tx.send({"type": "blob"}, blob=b"tiny", compress=True)
        message, out = rx.recv(timeout=5)
        assert out == b"tiny"
        assert "blob_enc" not in message
        noise = os.urandom(4096)        # deflate only grows this
        tx.send({"type": "blob"}, blob=noise, compress=True)
        message, out = rx.recv(timeout=5)
        assert out == noise
        assert "blob_enc" not in message

    def _hostile(self, message, blob):
        """One hand-framed message+blob, bypassing Channel.send's
        self-consistent framing — the attacker's view."""
        left, right = socket.socketpair()
        payload = json.dumps(message).encode()
        left.sendall(struct.pack(">I", len(payload)) + payload + blob)
        return Channel(right)

    def test_tampered_raw_digest_fails_closed(self):
        raw = b"secret state " * 100
        packed = zlib.compress(raw)
        channel = self._hostile(
            {"type": "blob", "blob_len": len(packed),
             "blob_sha": blob_sha(packed), "blob_enc": "zlib",
             "blob_raw_len": len(raw), "blob_raw_sha": "0" * 64},
            packed)
        with pytest.raises(WireError, match="digest mismatch"):
            channel.recv(timeout=5)

    def test_understated_raw_length_trips_the_bomb_guard(self):
        # a deflate bomb declares less than it inflates to: the
        # declared length caps the inflater, and the leftover stream
        # fails the exactness check before any digesting happens
        raw = b"b" * 100_000
        packed = zlib.compress(raw)
        channel = self._hostile(
            {"type": "blob", "blob_len": len(packed),
             "blob_sha": blob_sha(packed), "blob_enc": "zlib",
             "blob_raw_len": 64, "blob_raw_sha": blob_sha(raw)},
            packed)
        with pytest.raises(WireError, match="declared length"):
            channel.recv(timeout=5)

    def test_trailing_garbage_after_the_stream_fails_closed(self):
        raw = b"clean payload " * 64
        packed = zlib.compress(raw) + b"#trailing#"
        channel = self._hostile(
            {"type": "blob", "blob_len": len(packed),
             "blob_sha": blob_sha(packed), "blob_enc": "zlib",
             "blob_raw_len": len(raw), "blob_raw_sha": blob_sha(raw)},
            packed)
        with pytest.raises(WireError, match="declared length"):
            channel.recv(timeout=5)

    def test_unknown_encoding_and_bad_lengths_refused(self):
        raw = b"x" * 600
        packed = zlib.compress(raw)
        base = {"type": "blob", "blob_len": len(packed),
                "blob_sha": blob_sha(packed),
                "blob_raw_len": len(raw),
                "blob_raw_sha": blob_sha(raw)}
        channel = self._hostile(dict(base, blob_enc="lz4"), packed)
        with pytest.raises(WireError, match="unknown blob encoding"):
            channel.recv(timeout=5)
        channel = self._hostile(
            dict(base, blob_enc="zlib", blob_raw_len=-1), packed)
        with pytest.raises(WireError, match="outside"):
            channel.recv(timeout=5)


# -- report-frame batching --------------------------------------------------

class TestBatching:
    def test_pack_unpack_roundtrip_over_the_wire(self):
        frames = [({"type": "dev_done", "device": 3}, None),
                  ({"type": "ckpt", "model": "mpu"}, b"alpha"),
                  ({"type": "result", "lease": 9}, b"bravo" * 300)]
        message, blob = pack_batch(frames)
        assert message["type"] == "batch"
        tx, rx = _pair()
        tx.send(message, blob=blob, compress=True)
        received, received_blob = rx.recv(timeout=5)
        out = unpack_batch(received, received_blob)
        assert [(sub["type"], piece) for sub, piece in out] == \
            [("dev_done", None), ("ckpt", b"alpha"),
             ("result", b"bravo" * 300)]

    def test_blobless_batch_has_no_blob(self):
        message, blob = pack_batch([({"type": "a"}, None),
                                    ({"type": "b"}, None)])
        assert blob is None
        assert [sub["type"] for sub, _ in
                unpack_batch(message, blob)] == ["a", "b"]

    def test_unpack_rejects_tampered_slice(self):
        message, blob = pack_batch([({"type": "ckpt"}, b"alpha"),
                                    ({"type": "ckpt"}, b"bravo")])
        evil = bytearray(blob)
        evil[0] ^= 0xFF
        with pytest.raises(WireError, match="digest mismatch"):
            unpack_batch(message, bytes(evil))

    def test_unpack_rejects_overrun_and_unclaimed_bytes(self):
        message, blob = pack_batch([({"type": "ckpt"}, b"alpha")])
        with pytest.raises(WireError, match="unclaimed"):
            unpack_batch(message, blob + b"!")
        with pytest.raises(WireError, match="overrun"):
            unpack_batch(message, blob[:-1])

    def test_unpack_rejects_nested_and_shapeless_frames(self):
        with pytest.raises(WireError, match="malformed"):
            unpack_batch({"type": "batch",
                          "frames": [{"type": "batch"}]}, None)
        with pytest.raises(WireError, match="malformed"):
            unpack_batch({"type": "batch", "frames": ["x"]}, None)
        with pytest.raises(WireError, match="non-empty"):
            unpack_batch({"type": "batch", "frames": []}, None)

    def test_batcher_single_frame_ships_unwrapped_on_age(self):
        tx, rx = _pair()
        batcher = FrameBatcher(tx, max_bytes=1 << 20, max_ms=30,
                               compress=False)
        try:
            batcher.add({"type": "dev_done", "device": 1})
            message, _ = rx.recv(timeout=5)
            assert message["type"] == "dev_done"
            assert batcher.batches_sent == 0
        finally:
            batcher.close()

    def test_batcher_coalesces_on_size(self):
        tx, rx = _pair()
        batcher = FrameBatcher(tx, max_bytes=3 * 256, max_ms=60_000,
                               compress=False)
        try:
            for device in range(3):
                batcher.add({"type": "dev_done", "device": device})
            message, blob = rx.recv(timeout=5)
            assert message["type"] == "batch"
            assert [sub["device"] for sub, _ in
                    unpack_batch(message, blob)] == [0, 1, 2]
            assert batcher.batches_sent == 1
        finally:
            batcher.close()

    def test_direct_flushes_buffered_frames_first(self):
        tx, rx = _pair()
        batcher = FrameBatcher(tx, max_bytes=1 << 20, max_ms=60_000,
                               compress=False)
        try:
            batcher.add({"type": "ckpt", "device": 0}, blob=b"ck")
            batcher.direct({"type": "lease_req"})
            first, first_blob = rx.recv(timeout=5)
            second, _ = rx.recv(timeout=5)
            assert (first["type"], first_blob) == ("ckpt", b"ck")
            assert second["type"] == "lease_req"
        finally:
            batcher.close()

    def test_disabled_batcher_sends_immediately(self):
        tx, rx = _pair()
        batcher = FrameBatcher(tx, max_bytes=0, compress=False)
        try:
            assert not batcher.enabled
            batcher.add({"type": "dev_done", "device": 5})
            message, _ = rx.recv(timeout=5)
            assert message["type"] == "dev_done"
            assert batcher.batches_sent == 0
        finally:
            batcher.close()


class TestHeartbeatJitter:
    def test_intervals_jitter_within_ten_percent(self):
        from repro.fleet.net.worker import _heartbeat

        waits = []

        class _Stop:
            def wait(self, seconds):
                waits.append(seconds)
                return len(waits) >= 50

        class _Null:
            def send(self, message, blob=None, compress=False):
                pass

        _heartbeat(_Null(), 10.0, _Stop())
        assert len(waits) == 50
        assert all(9.0 <= wait <= 11.0 for wait in waits)
        # actually jittered, not a constant at one end of the band
        assert len(set(waits)) > 1


# -- batching / trace tier / status over loopback ---------------------------

class TestBatchedCampaign:
    def test_batch_knobs_do_not_change_bytes(self, tmp_path):
        reference = _serial_reference(tmp_path)
        for name, kwargs in (
                ("unbatched", dict(batch_bytes=0, compress=False)),
                ("tiny-batches", dict(batch_bytes=512, batch_ms=5))):
            out = tmp_path / name
            coordinator = _Coordinator(out)
            address = coordinator.address()
            codes = {}
            workers = [_worker_thread(address, f"w{i}", codes,
                                      **kwargs) for i in range(2)]
            coordinator.join()
            for worker in workers:
                worker.join(timeout=30)
            assert codes == {"w0": 0, "w1": 0}
            assert (out / "summary.json").read_bytes() == \
                (reference / "summary.json").read_bytes()
            assert (out / "devices-mpu.jsonl").read_bytes() == \
                (reference / "devices-mpu.jsonl").read_bytes()

    def test_remote_profile_dumps_land_in_profile_dir(self, tmp_path):
        import pstats
        out = tmp_path / "prof"
        coordinator = _Coordinator(out, profile=True)
        address = coordinator.address()
        codes = {}
        worker = _worker_thread(address, "w0", codes)
        coordinator.join()
        worker.join(timeout=30)
        assert codes == {"w0": 0}
        dumps = sorted((out / "profiles").glob("mpu-u*.prof"))
        assert dumps, "no per-unit profile dumps arrived"
        stats = pstats.Stats(str(dumps[0]))
        assert stats.total_calls > 0


class TestSocketTraceTier:
    def test_warm_tier_ships_to_workers_and_matches_bytes(
            self, tmp_path):
        from repro.fleet import tracetier
        # a cold local cohort run publishes .tbx stores in this
        # process's (test-isolated) trace dir
        reference = tmp_path / "reference"
        run_campaign(FleetConfig(**_CAMPAIGN), reference, jobs=1,
                     cohort=True)
        assert list(tracetier.trace_cache_dir().glob("*.tbx"))
        # a subprocess worker starts with empty caches: the stores
        # must reach it over the sha-verified blob channel
        out = tmp_path / "sock-warm"
        coordinator = _Coordinator(out, cohort=True, profile=True)
        address = coordinator.address()
        env = _subprocess_env(tmp_path)
        worker = subprocess.run(
            [sys.executable, "-m", "repro.cli", "fleet", "worker",
             "--connect", address, "--worker-id", "wt"],
            env=env, capture_output=True, text=True, timeout=120)
        coordinator.join()
        assert worker.returncode == 0, worker.stderr
        assert "imported trace store" in worker.stdout
        assert list(Path(env["REPRO_TRACE_CACHE_DIR"]).glob("*.tbx"))
        assert (out / "summary.json").read_bytes() == \
            (reference / "summary.json").read_bytes()
        assert (out / "devices-mpu.jsonl").read_bytes() == \
            (reference / "devices-mpu.jsonl").read_bytes()
        profile = json.loads(
            (out / "profiles" / "coordinator.json").read_text())
        assert profile["models"]["mpu"]["trace_hits"] > 0


class TestFleetStatus:
    def _cli_status(self, target, tmp_path):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "fleet", "status",
             str(target)],
            env=_subprocess_env(tmp_path), capture_output=True,
            text=True, timeout=60)

    def test_live_then_file_mode(self, tmp_path):
        out = tmp_path / "status"
        coordinator = _Coordinator(out, cohort=True)
        address = coordinator.address()
        # live: no worker yet, the port answers a status observer
        live = self._cli_status(address, tmp_path)
        assert live.returncode == 0, live.stderr
        assert "campaign" in live.stdout
        assert "no workers have connected" in live.stdout
        codes = {}
        worker = _worker_thread(address, "w0", codes)
        coordinator.join()
        worker.join(timeout=30)
        assert codes == {"w0": 0}
        # file: the mirrored status.json outlives the coordinator
        # (with no model in flight; per-worker rows keep the totals)
        status = json.loads((out / "status.json").read_text())
        assert status["model"] is None
        assert status["workers"]["w0"]["devices_done"] == \
            _CAMPAIGN["devices"]
        assert status["cohort"]["cohort_executed"] > 0
        done = self._cli_status(out, tmp_path)
        assert done.returncode == 0, done.stderr
        assert "worker w0" in done.stdout

    def test_missing_status_file_is_a_clear_error(self, tmp_path):
        empty = tmp_path / "not-a-campaign"
        empty.mkdir()
        result = self._cli_status(empty, tmp_path)
        assert result.returncode != 0
        assert "status.json" in result.stderr
