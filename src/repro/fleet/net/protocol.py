"""Wire framing for fleet dispatch: length-prefixed JSONL + blobs.

Every message on a coordinator/worker connection is one **frame**: a
4-byte big-endian length followed by exactly that many bytes of
canonical JSON (sorted keys, no whitespace — one JSON line).  A frame
whose message carries ``blob_len`` is immediately followed by that
many raw bytes (checkpoint payloads, ``.tbx`` trace entries — things
JSON would bloat by a third in base64), and the message's
``blob_sha`` must be the blob's sha-256: the receiver verifies it and
rejects the frame on mismatch, so the blob channel is
content-addressed and fail-closed end to end.

Parsing is fail-closed everywhere: an out-of-range length prefix
(garbage, or a length field claiming gigabytes), an undecodable or
untyped JSON payload, a connection closed mid-frame (torn frame), or
a blob digest mismatch all raise :class:`WireError` — the connection
is abandoned and the peer's lease/retry machinery takes over.  No
partial frame is ever acted on.

Message vocabulary (the ``type`` field):

========  ==========  ===================================================
type      direction   meaning
========  ==========  ===================================================
hello     w -> c      handshake: proto + STATE_VERSION + campaign key
                      (None on first contact) + worker id + role
                      (``worker``, or ``status`` for an observer);
                      a worker holding a secret adds its own nonce
challenge c -> w      a secret is configured: prove you hold it —
                      reply with ``auth`` over the fresh nonce; the
                      ``proof`` over the hello's nonce shows this
                      coordinator holds it too
auth      w -> c      the worker's MAC of the challenge's nonce
welcome   c -> w      handshake accepted: campaign key, config,
                      profile flag, heartbeat, ``.tbx`` trace-entry
                      offers (nothing executable: no ``.sbx``
                      translation store is ever offered)
reject    c -> w      handshake refused (stale campaign key, version
                      mismatch, failed auth) — the reason says which
lease_req w -> c      give me work; answered by ``lease`` or
                      ``shutdown`` once work or campaign end exists
                      (parked until then — pings still get pongs)
lease     c -> w      a work unit: model, device ids, checkpoint shas
shutdown  c -> w      campaign complete; exit cleanly
blob_get  w -> c      fetch a ``ckpt:`` or ``tbx:`` blob by name +
                      expected sha
blob      c -> w      the blob (bytes follow the frame, deflated when
                      that shrinks them)
blob_missing c -> w   no such blob / content changed — run without it
ckpt      w -> c      one device checkpoint (blob follows); also
                      refreshes the lease deadline
dev_done  w -> c      one device's record — the per-device commit
result    w -> c      unit finished: ``asdict`` of its ``UnitStats``
                      (read back field by field, malformed fields zeroed)
profile   w -> c      one unit's cProfile dump (blob follows) when the
                      campaign runs with ``--profile``
batch     w -> c      several coalesced frames in one: ``frames`` holds
                      the sub-messages, one concatenated blob follows
status    c -> any    the live campaign view (workers, queue, rates):
                      the reply to a ``status``-role hello
ping      w -> c      heartbeat (any frame refreshes the deadline)
pong      c -> w      heartbeat echo
========  ==========  ===================================================

Two orthogonal wire-level optimizations ride on the same framing —
both negotiated by nothing more than the protocol version, both
fail-closed, and both invisible in the bytes a campaign writes:

* **blob compression** — every blob of at least 512 bytes travels
  zlib-deflated when that shrinks it, with ``blob_enc="zlib"`` plus
  the raw length and digest, and the receiver inflates under a hard
  cap and verifies the *raw* digest, so a bomb or a tampered stream
  drops the connection, never a bad blob into the pipeline.
* **frame batching** — a worker coalesces several report frames
  (``ckpt``/``dev_done``) into one ``batch`` whose sub-messages
  address slices of a single concatenated blob;
  :func:`unpack_batch` re-verifies every slice digest, so a batch
  is exactly as trustworthy as the frames it replaced.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import re
import socket
import struct
import threading
import zlib
from typing import List, Optional, Tuple

from repro.errors import ReproError

#: bump on any incompatible message/framing change; exchanged (and
#: required equal) in the hello/welcome handshake.  6: authentication
#: is mutual — a secret-holding worker's hello carries a nonce, and
#: the challenge carries the coordinator's proof over it
PROTO_VERSION = 6

#: MAC labels: a worker's ``auth`` answers the coordinator's nonce
#: under one, the coordinator's ``proof`` answers the worker's under
#: the other, so neither side's MAC can be replayed as the other's
WORKER_MAC = "worker"
COORDINATOR_MAC = "coordinator"

_NONCE = re.compile(r"[0-9a-f]{64}")

#: JSON payloads are small (records, leases); anything bigger than
#: this is a corrupt length field or garbage on the port
MAX_FRAME = 4 * 1024 * 1024

#: the welcome frame offers at most this many ``.tbx`` entries, the
#: most recently used: about 120 B of JSON each, so the offers fit
#: in one frame with room to spare however large the trace budget is
MAX_TRACE_OFFERS = 4096

#: blobs carry checkpoints and ``.tbx`` entries (one snapshot each, a
#: few KB, within the trace tier's record bound)
MAX_BLOB = 256 * 1024 * 1024

#: blobs smaller than this are not worth a deflate round-trip
_COMPRESS_MIN = 512

_LENGTH = struct.Struct(">I")


class WireError(ReproError):
    """A frame violated the protocol (torn, oversized, undecodable,
    digest mismatch) — fail closed: drop the connection, never act on
    a partial or unverified frame."""


def blob_sha(data: bytes) -> str:
    """Content address of a blob (hex sha-256)."""
    return hashlib.sha256(data).hexdigest()


def new_nonce() -> str:
    """A fresh per-connection handshake nonce: 64 hex digits."""
    return os.urandom(32).hex()


def is_nonce(value) -> bool:
    """Whether a peer's value has :func:`new_nonce`'s shape — checked
    before a nonce from the wire is MACed."""
    return isinstance(value, str) and _NONCE.fullmatch(value) is not None


def auth_mac(secret: bytes, label: str, nonce: str) -> str:
    """HMAC-SHA256 of ``label:nonce`` under the shared secret: a
    worker's ``auth`` (:data:`WORKER_MAC`, the coordinator's nonce) or
    a coordinator's ``proof`` (:data:`COORDINATOR_MAC`, the worker's
    nonce).  A fresh nonce per connection means a recorded handshake
    replays to nothing."""
    return hmac.new(secret, f"{label}:{nonce}".encode(),
                    hashlib.sha256).hexdigest()


def mac_matches(mac, secret: bytes, label: str, nonce: str) -> bool:
    """Whether a peer's ``mac`` — any JSON value — is
    :func:`auth_mac` of ``nonce``, compared in constant time."""
    return isinstance(mac, str) and hmac.compare_digest(
        mac.encode(errors="replace"),
        auth_mac(secret, label, nonce).encode())


class Channel:
    """One peer's framed view of a connected socket.

    Sends are serialized by an internal lock so a heartbeat thread and
    the simulating thread can share the connection; receives belong to
    a single reader (each side has exactly one).  ``bytes_in`` /
    ``bytes_out`` feed the coordinator's per-worker attribution.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._send_lock = threading.Lock()
        self.bytes_in = 0
        self.bytes_out = 0
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass                      # AF_UNIX socketpair in tests

    def send(self, message: dict, blob: Optional[bytes] = None) -> None:
        """Send one frame (plus its blob, when given) atomically with
        respect to other senders on this channel.

        The blob is deflated when that shrinks it; the frame then
        carries the raw length and digest alongside the wire-form
        ones, and :meth:`recv` inflates and re-verifies transparently
        — callers on either side only ever see raw bytes."""
        if blob is not None:
            message = dict(message)
            if len(blob) >= _COMPRESS_MIN:
                packed = zlib.compress(blob, 6)
                if len(packed) < len(blob):
                    message["blob_enc"] = "zlib"
                    message["blob_raw_len"] = len(blob)
                    message["blob_raw_sha"] = blob_sha(blob)
                    blob = packed
            message["blob_len"] = len(blob)
            message["blob_sha"] = blob_sha(blob)
        payload = json.dumps(message, sort_keys=True,
                             separators=(",", ":")).encode()
        if len(payload) > MAX_FRAME:
            raise WireError(
                f"outgoing frame of {len(payload)} bytes exceeds "
                f"MAX_FRAME ({MAX_FRAME})")
        with self._send_lock:
            self._sock.sendall(_LENGTH.pack(len(payload)) + payload)
            if blob is not None:
                self._sock.sendall(blob)
            self.bytes_out += _LENGTH.size + len(payload) \
                + (len(blob) if blob is not None else 0)

    def recv(self, timeout: Optional[float] = None
             ) -> Tuple[dict, Optional[bytes]]:
        """Receive one complete, verified frame; returns
        ``(message, blob)`` where ``blob`` is ``None`` for blobless
        messages.  Raises :class:`WireError` on any protocol
        violation, ``socket.timeout``/``OSError`` on transport
        failure."""
        self._sock.settimeout(timeout)
        (length,) = _LENGTH.unpack(self._recv_exact(_LENGTH.size))
        if not 0 < length <= MAX_FRAME:
            raise WireError(
                f"frame length {length} outside (0, {MAX_FRAME}] — "
                "garbage or a corrupt length prefix")
        payload = self._recv_exact(length)
        try:
            message = json.loads(payload.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise WireError("frame payload is not valid JSON") from None
        if not isinstance(message, dict) or \
                not isinstance(message.get("type"), str):
            raise WireError("frame payload is not a typed message")
        blob = None
        if "blob_len" in message:
            blob_len = message["blob_len"]
            if not isinstance(blob_len, int) or \
                    not 0 <= blob_len <= MAX_BLOB:
                raise WireError(
                    f"blob length {blob_len!r} outside [0, {MAX_BLOB}]")
            blob = self._recv_exact(blob_len)
            if blob_sha(blob) != message.get("blob_sha"):
                raise WireError(
                    "blob digest mismatch — dropping the frame "
                    "(content-addressed channel is fail-closed)")
            if "blob_enc" in message:
                blob = _inflate_blob(message, blob)
        return message, blob

    def _recv_exact(self, count: int) -> bytes:
        chunks = []
        got = 0
        while got < count:
            chunk = self._sock.recv(min(65536, count - got))
            if not chunk:
                raise WireError(
                    "connection closed mid-frame (torn frame)"
                    if got or chunks else "connection closed")
            chunks.append(chunk)
            got += len(chunk)
        self.bytes_in += count
        return b"".join(chunks)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


def _inflate_blob(message: dict, blob: bytes) -> bytes:
    """Inflate a ``blob_enc="zlib"`` blob, fail-closed: the declared
    raw length is a hard cap (a deflate bomb trips it mid-inflate),
    the stream must end exactly at that length with no trailing
    garbage, and the raw digest must match."""
    if message["blob_enc"] != "zlib":
        raise WireError(
            f"unknown blob encoding {message['blob_enc']!r}")
    raw_len = message.get("blob_raw_len")
    if not isinstance(raw_len, int) or not 0 <= raw_len <= MAX_BLOB:
        raise WireError(
            f"declared raw blob length {raw_len!r} outside "
            f"[0, {MAX_BLOB}]")
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(blob, raw_len)
    except zlib.error as error:
        raise WireError(f"blob inflate failed: {error}") from None
    if not inflater.eof or inflater.unconsumed_tail or \
            inflater.unused_data or len(raw) != raw_len:
        raise WireError(
            "compressed blob does not inflate to exactly its "
            "declared length — bomb or truncation, dropping frame")
    if blob_sha(raw) != message.get("blob_raw_sha"):
        raise WireError(
            "raw blob digest mismatch after inflate — fail closed")
    return raw


def pack_batch(frames: List[Tuple[dict, Optional[bytes]]]
               ) -> Tuple[dict, Optional[bytes]]:
    """Coalesce ``(message, blob)`` frames into one ``batch`` frame.

    Sub-messages with a blob gain ``blob_len``/``blob_sha`` addressing
    their slice of the single concatenated blob; sub-messages without
    one travel untouched.  The result goes out through a normal
    :meth:`Channel.send` (compressed — the slice digests address raw
    bytes, so outer compression is transparent)."""
    subs = []
    blobs = []
    for message, blob in frames:
        if blob is not None:
            message = dict(message)
            message["blob_len"] = len(blob)
            message["blob_sha"] = blob_sha(blob)
            blobs.append(blob)
        subs.append(message)
    combined = b"".join(blobs) if blobs else None
    return {"type": "batch", "frames": subs}, combined


def unpack_batch(message: dict, blob: Optional[bytes]
                 ) -> List[Tuple[dict, Optional[bytes]]]:
    """Split a ``batch`` frame back into its constituent frames,
    re-verifying every sub-blob's digest against its slice — a batch
    is exactly as trustworthy as the frames it replaced.  Raises
    :class:`WireError` on any malformed sub-message, slice overrun,
    digest mismatch, or leftover blob bytes."""
    subs = message.get("frames")
    if not isinstance(subs, list) or not subs:
        raise WireError("batch frame without a non-empty frame list")
    data = blob or b""
    offset = 0
    frames: List[Tuple[dict, Optional[bytes]]] = []
    for sub in subs:
        if not isinstance(sub, dict) or \
                not isinstance(sub.get("type"), str) or \
                sub["type"] == "batch":
            raise WireError("batch contains a malformed sub-message")
        piece = None
        if "blob_len" in sub:
            piece_len = sub["blob_len"]
            if not isinstance(piece_len, int) or \
                    not 0 <= piece_len <= MAX_BLOB or \
                    offset + piece_len > len(data):
                raise WireError(
                    "batch sub-blob overruns the combined blob")
            piece = data[offset:offset + piece_len]
            offset += piece_len
            if blob_sha(piece) != sub.get("blob_sha"):
                raise WireError(
                    "batch sub-blob digest mismatch — fail closed")
        frames.append((sub, piece))
    if offset != len(data):
        raise WireError(
            f"batch blob has {len(data) - offset} unclaimed bytes")
    return frames
