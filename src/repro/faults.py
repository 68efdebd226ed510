"""Named fault points: kill a process at a chosen commit point.

The fleet's crash contract is that ``summary.json`` and every
``devices-<model>.jsonl`` come out byte-identical after a kill at any
point followed by a resume.  Every commit point — each rename, append
and merge that changes what a resume finds on disk — calls
:func:`hit` with its name from :data:`SITES`.

``REPRO_FAULT=site:N`` arms one site: the Nth hit of ``site`` in a
process ends that process with ``os._exit(3)`` (no ``finally``, no
atexit, nothing flushed).  :func:`hit` reads the variable on every
call, so a test may set it just before a worker pool forks, and pool
children, socket workers and the coordinator all see it without any
plumbing.  Counts are per process.  Only tests and CI set the
variable; :func:`check` fails a malformed value before any work.
"""

from __future__ import annotations

import os
import threading
from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ReproError

#: the exit status of a process killed at a fault site
EXIT_CODE = 3

#: every commit point: name -> the state a kill there leaves behind
SITES: Dict[str, str] = {
    "ckpt.before_replace": "checkpoint temp written, not yet renamed",
    "ckpt.after_replace": "checkpoint renamed into place",
    "record.after_append": "record line appended, checkpoint not unlinked",
    "merge.after_replace": "devices-<model>.jsonl written, shards remain",
    "summary.before_replace": "every model merged, no summary.json yet",
    "status.after_replace": "the socket coordinator's status.json written",
    "store.after_append": "a record appended to a .sbx store",
    "wire.after_ckpt": "a worker shipped a ckpt frame, reports flushed",
}

#: hits so far, per (pid, site): a forked child counts from zero
_hits: Dict[Tuple[int, str], int] = {}
_hits_lock = threading.Lock()


@lru_cache(maxsize=8)
def parse(spec: str) -> Tuple[str, int]:
    """``"site:N"`` as ``(site, N)``; an unregistered site or a count
    that is not a positive integer raises :class:`ReproError`."""
    site, _sep, count = spec.rpartition(":")
    if site not in SITES or not count.isdecimal() or int(count) < 1:
        raise ReproError(
            f"REPRO_FAULT={spec!r}: expected SITE:N with N a positive "
            f"integer and SITE one of {', '.join(SITES)}")
    return site, int(count)


def check() -> None:
    """Validate ``REPRO_FAULT`` now, so a typo fails up front instead
    of turning a kill test into a plain run."""
    spec = os.environ.get("REPRO_FAULT")
    if spec:
        parse(spec)


def hit(site: str,
        before_exit: Optional[Callable[[], None]] = None) -> None:
    """Pass commit point ``site``: if ``REPRO_FAULT`` arms it and this
    is its Nth hit in this process, call ``before_exit`` (a sink
    landing what it already reported) and exit with
    :data:`EXIT_CODE`."""
    spec = os.environ.get("REPRO_FAULT")
    if not spec:
        return
    armed, count = parse(spec)
    if site != armed:
        return
    key = (os.getpid(), site)
    with _hits_lock:                   # coordinator threads hit too
        _hits[key] = seen = _hits.get(key, 0) + 1
    if seen == count:
        if before_exit is not None:
            before_exit()
        os._exit(EXIT_CODE)
