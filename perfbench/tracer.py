"""Outside-in tracing: spans around each layer's public entry points.

Nothing in :mod:`repro` knows about this module.  :func:`install`
replaces each traced name *where it is looked up* -- a function bound
into several modules (``state_digest`` in ``fleet.cohort`` and
``fleet.device``; ``parse``, ``analyze`` and ``assemble`` in
``aft.phases``) is patched in each of them, methods on their class --
with a wrapper that records one span: name, start, end, parent span,
and the request the work belongs to (a unit or device, a lease, or an
experiment cell).  Spans stay in memory, one list per thread, until
:func:`snapshot` hands them to the caller, who writes them out after
the run.

A span's self time is its duration minus its children's.  On the
thread that runs the timed phase, the self times of the spans under
the ``harness`` root (including the root's own, the harness time no
wrapper covers) are kept per span name, so the caller can check that
its per-layer metrics cover the traced wall; spans on other threads
(the coordinator's connection handlers, the checkpoint writer, the
worker's batch pump) overlap it and are reported per layer only.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

_clock = time.perf_counter


class Tracer:
    def __init__(self, process: str):
        self.process = process
        #: every thread's span list: [name, start, end, parent, request]
        self.buffers: Dict[str, List[list]] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        #: CohortStats instances created while tracing
        self.cohort_stats: List[object] = []
        #: per-unit stats dicts from the transports' result rows
        self.unit_stats: List[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[tuple] = []

    # -- span recording ---------------------------------------------------
    def _state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans = []
            local.stack = []
            local.request = None
            with self._lock:
                name = threading.current_thread().name
                key = name if name not in self.buffers else \
                    f"{name}-{threading.get_ident()}"
                self.buffers[key] = local.spans
            return local.spans, local.stack

    def open(self, name: str, request: Optional[str] = None) -> list:
        spans, stack = self._state()
        local = self._local
        if request is None:
            request = local.request
        parent = stack[-1] if stack else -1
        span = [name, 0.0, 0.0, parent, request, local.request]
        local.request = request
        stack.append(len(spans))
        spans.append(span)
        span[1] = _clock()
        return span

    def close(self, span: list, name: Optional[str] = None) -> None:
        span[2] = _clock()
        if name is not None:
            span[0] = name
        self._local.stack.pop()
        self._local.request = span.pop()

    def wrap(self, owner, attr: str, name: str, request=None,
             on_exit=None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper.  ``request``
        maps the call's arguments to a request id (or ``None`` to
        inherit the caller's); ``on_exit(args, result)`` may return a
        new span name, or count something."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name, request(args, kwargs)
                               if request is not None else None)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                renamed = on_exit(args, result) if on_exit else None
                tracer.close(span, renamed)

        traced.__wrapped__ = original
        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str,
                       on_item=None) -> None:
        """Span every resumption of a generator method, so the time
        spent inside it between yields nests properly."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)
            while True:
                span = tracer.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                if on_item is not None:
                    on_item(item)
                yield item

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- aggregation --------------------------------------------------------
    def spans(self) -> Dict[str, List[list]]:
        return {thread: [span[:5] for span in spans]
                for thread, spans in self.buffers.items()}

    def layer_times(self) -> Dict[str, dict]:
        """Per span name: calls, inclusive seconds (a span nested in a
        same-named parent, like an experiment's cell, counted once),
        self seconds, and inclusive seconds of the spans directly under
        the ``harness`` root (``top_s``)."""
        totals: Dict[str, dict] = {}
        for spans in self.buffers.values():
            child = [0.0] * len(spans)
            for span in spans:
                if span[3] >= 0:
                    child[span[3]] += span[2] - span[1]
            for index, span in enumerate(spans):
                row = totals.setdefault(
                    span[0], {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                              "top_s": 0.0})
                duration = span[2] - span[1]
                parent = spans[span[3]] if span[3] >= 0 else None
                row["calls"] += 1
                if parent is None or parent[0] != span[0]:
                    row["incl_s"] += duration
                if parent is not None and parent[0] == "harness":
                    row["top_s"] += duration
                row["self_s"] += duration - child[index]
        return totals

    def root_self(self, root: str) -> dict:
        """Wall time of the ``root`` span(s) on their thread, and the
        self time, per span name, of every span beneath them (the root
        included)."""
        wall = 0.0
        self_s: Dict[str, float] = defaultdict(float)
        for spans in self.buffers.values():
            roots = {index for index, span in enumerate(spans)
                     if span[0] == root and span[3] < 0}
            if not roots:
                continue
            child = [0.0] * len(spans)
            for span in spans:
                if span[3] >= 0:
                    child[span[3]] += span[2] - span[1]
            top = {}
            for index, span in enumerate(spans):
                parent = span[3]
                top[index] = index if parent < 0 else top[parent]
                if top[index] in roots:
                    self_s[span[0]] += span[2] - span[1] - child[index]
            wall += sum(spans[index][2] - spans[index][1]
                        for index in roots)
        return {"wall_s": wall, "self_s": dict(self_s)}


# -- installation -------------------------------------------------------------

def _first_device(args, kwargs) -> str:
    return f"unit:{args[1]}:{args[2][0]}"


def install(process: str = "harness") -> Tracer:
    """Wrap every layer's entry points in this process."""
    import repro.aft.phases as phases
    import repro.asm.linker as linker
    import repro.cc.codegen as codegen
    import repro.experiments.code_size as code_size
    import repro.experiments.figure2 as figure2
    import repro.experiments.figure3 as figure3
    import repro.experiments.report as report
    import repro.experiments.table1 as table1
    import repro.fleet.ckptio as ckptio
    import repro.fleet.cohort as cohort
    import repro.fleet.device as device
    import repro.fleet.executor as executor
    import repro.fleet.net.coordinator as coordinator
    import repro.fleet.net.protocol as protocol
    import repro.fleet.net.worker as worker
    import repro.fleet.telemetry as telemetry
    import repro.fleet.tracetier as tracetier
    import repro.kernel.machine as machine
    import repro.kernel.scheduler as scheduler
    import repro.msp430.cpu as cpu
    import repro.msp430.memory as memory

    tracer = Tracer(process)
    counts = tracer.counts
    wrap = tracer.wrap

    # aft / cc / asm
    def count_build(args, result):
        counts["aft.builds"] += 1
        return None

    wrap(phases.AftPipeline, "build", "aft.build", on_exit=count_build)
    wrap(phases, "parse", "cc.parse")
    wrap(phases, "analyze", "cc.sema")
    wrap(codegen.CodeGenerator, "generate", "cc.codegen")
    wrap(phases, "assemble", "asm.assemble")
    wrap(linker.Linker, "place", "asm.link")

    def cached_build(module) -> None:
        # a call that built nothing is a cache hit; its self time is
        # the key hash plus the in-memory or on-disk (pickle) load
        original = module.build_firmware

        def build_firmware(*args, **kwargs):
            span = tracer.open("aft.cache_store")
            before = counts["aft.builds"]
            try:
                return original(*args, **kwargs)
            finally:
                hit = counts["aft.builds"] == before
                if hit:
                    counts["aft.cache_hits"] += 1
                tracer.close(span, "aft.cache_load" if hit else None)

        tracer._patched.append((module, "build_firmware", original))
        module.build_firmware = build_firmware

    for module in (device, table1, figure3, code_size):
        cached_build(module)

    # kernel / msp430
    wrap(machine.AmuletMachine, "__init__", "kernel.machine.new")
    wrap(machine.AmuletMachine, "dispatch", "kernel.machine.dispatch")
    wrap(scheduler.Scheduler, "step", "kernel.scheduler.step")
    wrap(scheduler.Scheduler, "seed_events", "kernel.scheduler.seed")
    wrap(memory.Memory, "delta_since", "msp430.memory.delta_since")
    wrap(memory.Memory, "apply_pages", "msp430.memory.apply_pages")

    run = cpu.Cpu.run

    def cpu_run(self, *args, **kwargs):
        span = tracer.open("msp430.cpu.run")
        insns, cycles = self.instructions, self.cycles
        try:
            return run(self, *args, **kwargs)
        finally:
            counts["msp430.cpu.insns"] += self.instructions - insns
            counts["msp430.cpu.cycles"] += self.cycles - cycles
            tracer.close(span)

    tracer._patched.append((cpu.Cpu, "run", run))
    cpu.Cpu.run = cpu_run

    # fleet
    wrap(device, "make_device", "fleet.device.make")
    for module in (executor, worker):
        wrap(module, "simulate_device", "fleet.device.simulate",
             request=lambda a, k: f"device:{a[0].device_id}")
        wrap(module, "simulate_cohort", "fleet.device.simulate")
        wrap(module, "device_record", "fleet.telemetry.record")
        wrap(module, "checkpoint_bytes", "fleet.snapshot.serialize")
    for module in (executor, coordinator, worker):
        wrap(module, "parse_checkpoint", "fleet.snapshot.parse")
    wrap(device, "snapshot_device", "fleet.snapshot.snapshot")
    for module in (cohort, device):
        wrap(module, "state_digest", "fleet.cohort.digest")
    wrap(cohort.CohortRecorder, "__call__", "fleet.cohort.recorder")
    wrap(cohort.CohortFollower, "__call__", "fleet.cohort.follower")
    wrap(tracetier.TraceTier, "load", "fleet.tracetier.load")
    wrap(tracetier.TraceTier, "publish", "fleet.tracetier.publish")
    wrap(ckptio.AsyncCheckpointWriter, "submit", "fleet.ckptio.stall")
    wrap(ckptio.AsyncCheckpointWriter, "drain", "fleet.ckptio.stall")
    wrap(telemetry.SummaryFold, "add", "fleet.telemetry.fold")
    wrap(telemetry.SummaryFold, "summary", "fleet.telemetry.fold")
    wrap(executor, "run_campaign", "fleet.executor.campaign")
    wrap(executor, "run_unit", "fleet.executor.unit",
         request=_first_device)

    class TracedCohortStats(cohort.CohortStats):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.cohort_stats.append(self)

    for module in (executor, worker):
        tracer._patched.append((module, "CohortStats",
                                module.CohortStats))
        module.CohortStats = TracedCohortStats

    def unit_row(row) -> None:
        tracer.unit_stats.append(row[2]["stats"])

    tracer.wrap_generator(executor.LocalTransport, "run_units",
                          "fleet.executor.run_units", on_item=unit_row)
    tracer.wrap_generator(coordinator.SocketTransport, "run_units",
                          "fleet.net.wait", on_item=unit_row)
    wrap(coordinator.SocketTransport, "close", "fleet.net.close")

    # the wire: frames both ways on the coordinator, send time, batch
    # packing, store imports and idle sleeps on the worker
    send, recv = protocol.Channel.send, protocol.Channel.recv

    def traced_send(self, message, *args, **kwargs):
        with tracer._lock:          # connection threads send too
            counts["fleet.net.frames_out"] += 1
            kind = message.get("type")
            if kind == "lease":
                counts["fleet.net.leases"] += 1
            elif kind == "idle":
                counts["fleet.net.idle_replies"] += 1
        span = tracer.open("fleet.net.send")
        try:
            return send(self, message, *args, **kwargs)
        finally:
            tracer.close(span)

    def traced_recv(self, *args, **kwargs):
        result = recv(self, *args, **kwargs)
        with tracer._lock:
            counts["fleet.net.frames_in"] += 1
        return result

    tracer._patched += [(protocol.Channel, "send", send),
                        (protocol.Channel, "recv", recv)]
    protocol.Channel.send = traced_send
    protocol.Channel.recv = traced_recv

    def count_batch(args, result):
        counts["fleet.net.batches"] += 1
        return None

    wrap(worker, "pack_batch", "fleet.net.pack", on_exit=count_batch)
    wrap(worker, "_import_stores", "fleet.net.import")
    wrap(worker, "_run_lease", "fleet.net.lease",
         request=lambda a, k: f"lease:{a[2]['lease']}")

    class _TimeProxy:
        """``time`` as the worker module sees it, with timed sleeps."""

        def __getattr__(self, attr):
            return getattr(time, attr)

        @staticmethod
        def sleep(seconds):
            span = tracer.open("fleet.net.idle")
            try:
                time.sleep(seconds)
            finally:
                tracer.close(span)

    tracer._patched.append((worker, "time", worker.time))
    worker.time = _TimeProxy()

    # experiments: each table/figure, and each cell as a request (a
    # cell's span shares its experiment's name, so their self times
    # add up per experiment)
    for name in ("run_table1", "run_figure2", "run_figure3",
                 "run_code_size"):
        wrap(report, name, f"experiments.{name[4:]}")
    for module, label in ((table1, "table1"), (figure3, "figure3"),
                          (code_size, "code_size")):
        wrap(module, "measure_model", f"experiments.{label}",
             request=lambda a, k, label=label:
             f"cell:{label}:{a[0].name}")
    wrap(figure2, "profile_suite", "experiments.figure2",
         request=lambda a, k: "cell:figure2:arp")
    return tracer


def snapshot(tracer: Tracer) -> dict:
    """Everything this process measured, as plain data: per-layer
    times, counters, the summed CohortStats, the units' stats rows, the
    execution cache's counters, and the spans themselves."""
    from dataclasses import asdict

    from repro.msp430 import execcache
    cohort: Dict[str, int] = defaultdict(int)
    for stats in tracer.cohort_stats:
        for key, value in asdict(stats).items():
            cohort[key] += value
    cache: Dict[str, int] = defaultdict(int)
    for store in execcache._REGISTRY.values():
        stats = store.stats()
        for key in ("publishes", "block_pulls", "page_pulls", "rejects"):
            cache[key] += stats[key]
        for key in ("loaded", "published", "corrupt"):
            cache[f"disk_{key}"] += stats.get("disk", {}).get(key, 0)
    return {"process": tracer.process,
            "layers": tracer.layer_times(),
            "counts": dict(tracer.counts),
            "cohort": dict(cohort),
            "units": list(tracer.unit_stats),
            "execcache": dict(cache),
            "root": tracer.root_self("harness"),
            "spans": tracer.spans()}
