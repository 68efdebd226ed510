"""Asynchronous, double-buffered checkpoint flushing.

Fleet workers used to write every checkpoint synchronously: pickle the
snapshot, write it out, ``fsync``-adjacent latency and all, while the
simulation sat idle.  At the default cadence that serialized the
workers behind the disk — the direct cause of the jobs=4 < jobs=2
scaling regression in ``BENCH_fleet.json``.

:class:`AsyncCheckpointWriter` overlaps the two halves instead:

* the **simulating thread** serializes the next snapshot into its own
  buffer (pickling is CPU work that cannot move off-thread cheaply —
  the snapshot aliases live machine state that keeps mutating), then
  hands the finished buffer off and simulates on;
* the **writer thread** flushes the previous buffer through the unit
  sink's ``checkpoint`` — a crash-atomic file write for the local
  pool (:class:`~repro.fleet.executor.FileSink`), a ``ckpt`` frame
  for the socket worker (:class:`~repro.fleet.net.worker.WireSink`).

The hand-off queue holds exactly one buffer, which is what makes this
*double* buffering: at any moment one buffer is being filled and at
most one is being flushed.  When the simulation outruns the sink,
``submit`` blocks until the in-flight flush lands — that blocked time
is recorded as ``stall_s`` and surfaces in the coordinator's profile,
so "checkpoint-bound" shows up as a number instead of a mystery.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Optional


class AsyncCheckpointWriter:
    """Background writer with a one-deep hand-off queue.

    ``flush(key, payload)`` is the one flush path: the writer thread
    calls it for every submitted buffer, so a file sink and a wire
    sink get the same double-buffered overlap and the same
    ``stall_s``/``flushes``/``bytes_written`` accounting.  ``key`` is
    opaque here — the unit runner passes the device id.  A flush that
    raises surfaces on the simulating thread's next call.
    """

    def __init__(self, flush: Callable[[object, bytes], None]):
        self._queue: "queue.Queue[Optional[tuple]]" = \
            queue.Queue(maxsize=1)
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None
        self._flush = flush
        #: completed flushes
        self.flushes = 0
        #: seconds the simulating thread spent blocked on a full
        #: hand-off queue (the sink falling behind the simulation)
        self.stall_s = 0.0
        #: payload bytes flushed
        self.bytes_written = 0

    # -- simulating-thread side ------------------------------------------
    def submit(self, key, payload: bytes) -> None:
        """Queue one serialized checkpoint for flushing; blocks only
        while a previous flush is still in flight."""
        self._raise_pending()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="ckpt-writer", daemon=True)
            self._thread.start()
        start = time.perf_counter()
        self._queue.put((key, payload))
        self.stall_s += time.perf_counter() - start

    def drain(self) -> None:
        """Block until every queued checkpoint has been flushed."""
        self._queue.join()
        self._raise_pending()

    def close(self) -> None:
        """Drain and stop the writer thread."""
        if self._thread is not None:
            self._queue.join()
            self._queue.put(None)
            self._thread.join()
            self._thread = None
        self._raise_pending()

    def __enter__(self) -> "AsyncCheckpointWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _raise_pending(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    # -- writer-thread side ----------------------------------------------
    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                self._queue.task_done()
                return
            key, payload = item
            try:
                self._flush(key, payload)
                self.flushes += 1
                self.bytes_written += len(payload)
            except BaseException as error:   # surfaced on next call
                self._error = error
            finally:
                self._queue.task_done()
