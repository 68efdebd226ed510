"""The host's speed while a repetition runs, measured from outside it.

The benchmark's host is a small VM whose vCPUs other tenants share:
a fixed pure-Python loop runs up to about 2x slower on one vCPU, or on
both, for seconds to minutes at a time.  Two things keep that out of
the end-to-end metrics:

- :func:`pick_cpu` pins ``run.py`` -- and so the repetition it starts
  next, which inherits the mask -- to the vCPU that runs the loop
  fastest right now (the socket workload's repetition unpins itself
  for its timed phase, so coordinator and worker run as a user's
  would);
- :class:`Probe` runs the loop every ``PERIOD_S`` on a thread of
  ``run.py`` itself, pinned to that same vCPU, and records its *thread*
  CPU time with a ``time.monotonic`` stamp.  Thread CPU time grows
  when the core runs slowly, not while the probe waits for the core.
  The probe is a different process from the code under test: it
  shares no interpreter, lock or heap with it, only the vCPU, and it
  times each pass of the loop right after an untimed one, with the
  loop's cache lines warm.

:func:`scaled` turns the seconds a phase measured into reference-host
seconds by the probe's median over that phase.  ``run.py`` reports
both; ``WORKLOADS.md`` (Steadiness) records the check that a slower
or memory-heavier build of the code leaves the probe where it was.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PERIOD_S = 0.05
#: seconds of loop per vCPU when choosing one
PICK_S = 0.1
#: the loop's median thread CPU time on the reference host (a 2-vCPU
#: Intel Sapphire Rapids KVM guest) in a quiet spell
REFERENCE_S = 50e-6
#: the vCPUs this process may use when it starts
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(
    os, "sched_setaffinity") else []


def loop() -> int:
    total = 0
    table = {}
    for i in range(400):
        table[i & 31] = i * 7
        total = (total + table.get(i & 15, 0)) & 0xFFFF
    return total


def pick_cpu() -> str:
    """Pin this process to the vCPU that runs :func:`loop` fastest now;
    returns what it read, for the log."""
    if len(CPUS) < 2:
        return "unpinned"
    readings = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        samples = []
        end = time.perf_counter() + PICK_S
        while time.perf_counter() < end:
            start = time.perf_counter()
            loop()
            samples.append(time.perf_counter() - start)
        readings[cpu] = statistics.median(samples)
    best = min(readings, key=readings.get)
    os.sched_setaffinity(0, {best})
    return f"cpu {best} (" + "/".join(
        f"{1e6 * readings[cpu]:.0f}" for cpu in CPUS) + " us)"


class Probe:
    """``with Probe() as probe:`` samples until the block ends."""

    def __init__(self):
        self.samples = []                  # (monotonic stamp, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="speed-probe", daemon=True)

    def _run(self) -> None:
        while True:
            # the first pass brings the loop's few cache lines back
            # after the code under test evicted them; only the second
            # is timed, so the reading follows the core's speed, not
            # how much memory the code under test touches
            loop()
            start = time.thread_time()
            loop()
            self.samples.append((time.monotonic(),
                                 time.thread_time() - start))
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self) -> "Probe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def median_s(self, span=None) -> float:
        """Median loop time inside ``span`` (monotonic start and end),
        or over every sample when the span caught none."""
        inside = [seconds for stamp, seconds in self.samples
                  if span is None or span[0] <= stamp <= span[1]]
        return statistics.median(inside or
                                 [seconds for _s, seconds in self.samples])


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe read ``probe_s``, in
    reference-host seconds."""
    return seconds * REFERENCE_S / probe_s
