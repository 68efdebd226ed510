"""Multi-host fleet dispatch: socket coordinator and remote workers.

The single-host executor (:mod:`repro.fleet.executor`) already keeps
all resume state per-device and folds telemetry in completion order —
nothing about it cares *where* a work unit runs.  This package adds
the missing transport: the coordinator listens on a TCP socket and
speaks a length-prefixed JSONL protocol, and any number of
``repro fleet worker --connect host:port`` processes (on this host or
any other) lease work units, fetch per-device checkpoints and warm
trace-tier stores over a content-addressed blob channel, run
them through the one unit runner a local worker uses
(:func:`~repro.fleet.executor._run_unit`, over a wire sink instead of
files), and stream results back.

Robustness is the design center, not an afterthought:

* leases carry deadlines — a worker that stops heartbeating (killed,
  wedged, partitioned) has its unit returned to the queue and
  reassigned, which is safe because completion is keyed per-device
  and every record is a pure function of ``(seed, device_id, model)``;
* workers reconnect with exponential backoff plus jitter, and a
  reconnecting worker re-handshakes (campaign key, ``STATE_VERSION``,
  protocol version) so a stale worker can never feed results into the
  wrong campaign;
* every blob (checkpoint, ``.tbx`` trace entry) is requested by
  content hash and verified on receipt — fail-closed, exactly like
  the disk tiers' ingestion — and nothing executable is ever shipped:
  ``.sbx`` translation stores stay on the host that compiled them;
* all persistent state stays on the coordinator's disk in the exact
  same files the local path writes, so a campaign run over sockets is
  byte-identical to a local one and kill-and-resume semantics carry
  over unchanged (kill the coordinator, resume with ``--jobs`` or
  ``--listen`` — either converges to the same bytes).

Pieces:

* :mod:`repro.fleet.net.protocol`    — framing, the blob channel, and
  the :class:`~repro.fleet.net.protocol.Channel` wrapper
* :mod:`repro.fleet.net.coordinator` — :class:`SocketTransport`, the
  executor-facing transport that serves the unit queue over TCP
* :mod:`repro.fleet.net.worker`      — the ``repro fleet worker``
  process: connect, handshake, lease, simulate, stream back
"""

from repro.fleet.net.protocol import Channel, PROTO_VERSION, WireError

__all__ = ["Channel", "PROTO_VERSION", "WireError"]
