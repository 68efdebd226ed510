"""Event-driven scheduler with fault-handling policies.

Drives app state machines by delivering events from periodic sources
(sensor samples, clock ticks) and app-armed timers, in timestamp order.
Tracks per-app statistics the profiler consumes, and implements the
restart policies the paper's section 5 floats as future work
("restart policies for applications that trigger a memory access
fault").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import KernelError
from repro.kernel.events import Event, EventQueue, EventType, \
    PeriodicSource
from repro.kernel.machine import AmuletMachine, DispatchResult


class RestartPolicy(enum.Enum):
    #: faulted app is disabled until reboot (the paper's default: the
    #: FAULT handler logs and the app stops)
    DISABLE = "disable"
    #: faulted app keeps receiving events (log-and-continue)
    CONTINUE = "continue"
    #: faulted app is suspended for a cooldown, then resumes
    RESTART_AFTER = "restart-after"


@dataclass
class AppSchedule:
    """An app's event subscriptions."""

    app: str
    sources: List[PeriodicSource] = field(default_factory=list)
    #: handler for app-armed timers (amulet_timer_set)
    timer_handler: Optional[str] = None


@dataclass
class SchedulerStats:
    events_delivered: int = 0
    events_dropped: int = 0
    faults: int = 0
    #: times a suspended app was re-enabled under RESTART_AFTER
    restarts: int = 0
    per_app_cycles: Dict[str, int] = field(default_factory=dict)
    per_app_events: Dict[str, int] = field(default_factory=dict)
    per_app_faults: Dict[str, int] = field(default_factory=dict)
    per_app_restarts: Dict[str, int] = field(default_factory=dict)

    def record(self, result: DispatchResult) -> None:
        self.events_delivered += 1
        self.per_app_cycles[result.app] = \
            self.per_app_cycles.get(result.app, 0) + result.cycles
        self.per_app_events[result.app] = \
            self.per_app_events.get(result.app, 0) + 1
        if result.faulted:
            self.faults += 1
            self.per_app_faults[result.app] = \
                self.per_app_faults.get(result.app, 0) + 1


class Scheduler:
    def __init__(self, machine: AmuletMachine,
                 policy: RestartPolicy = RestartPolicy.DISABLE,
                 restart_cooldown_ms: int = 1000):
        self.machine = machine
        machine.scheduler = self
        self.policy = policy
        self.restart_cooldown_ms = restart_cooldown_ms
        self.queue = EventQueue()
        self.schedules: Dict[str, AppSchedule] = {}
        self.stats = SchedulerStats()
        self.now_ms = 0
        self._suspended_until: Dict[str, int] = {}
        self.trace: List[DispatchResult] = []
        self.keep_trace = False

    # -- configuration ----------------------------------------------------------
    def add_app(self, schedule: AppSchedule) -> None:
        if schedule.app not in self.machine.firmware.apps:
            raise KernelError(f"unknown app {schedule.app!r}")
        self.schedules[schedule.app] = schedule

    def seed_events(self, horizon_ms: int, start_ms: int = 0) -> int:
        """Queue every periodic event in ``[start_ms, horizon_ms)``.

        Window-by-window seeding inserts the same events in the same
        relative (schedule, source, time) order as one full-horizon
        call, so same-timestamp tie-breaks are stable either way."""
        count = 0
        for schedule in self.schedules.values():
            for source in schedule.sources:
                for event in source.events_until(horizon_ms, start_ms):
                    self.queue.push(event)
                    count += 1
        return count

    def arm_app_timer(self, app: str, event_id: int, ticks: int) -> None:
        """Called by the timer service: deliver an APP_TIMER event
        ``ticks`` milliseconds from now."""
        schedule = self.schedules.get(app)
        handler = schedule.timer_handler if schedule else None
        if handler is None:
            return
        self.queue.push(Event(self.now_ms + max(ticks, 1), app, handler,
                              EventType.APP_TIMER, (event_id,)))

    # -- execution ----------------------------------------------------------------
    def _app_available(self, app: str) -> bool:
        state = self.machine.app_state[app]
        if not state.disabled:
            return True
        if self.policy is RestartPolicy.CONTINUE:
            return True
        if self.policy is RestartPolicy.RESTART_AFTER:
            until = self._suspended_until.get(app, 0)
            if self.now_ms >= until:
                state.disabled = False
                self.stats.restarts += 1
                self.stats.per_app_restarts[app] = \
                    self.stats.per_app_restarts.get(app, 0) + 1
                return True
        return False

    def _handle_fault(self, result: DispatchResult) -> None:
        state = self.machine.app_state[result.app]
        if self.policy is RestartPolicy.DISABLE:
            state.disabled = True
        elif self.policy is RestartPolicy.RESTART_AFTER:
            state.disabled = True
            self._suspended_until[result.app] = \
                self.now_ms + self.restart_cooldown_ms

    def _sample_args(self, event: Event) -> Sequence[int]:
        """Sensor events carry live sample values in their arguments
        (delivered to the handler in R13-R15 by the dispatch gate)."""
        if event.args:
            return event.args
        env = self.machine.services.env
        if event.event_type is EventType.ACCEL_SAMPLE:
            return env.accel_sample()
        if event.event_type is EventType.HR_SAMPLE:
            return (env.heart_rate(),)
        if event.event_type is EventType.TEMP_SAMPLE:
            return (env.temperature(),)
        if event.event_type is EventType.LIGHT_SAMPLE:
            return (env.light(),)
        if event.event_type is EventType.BATTERY:
            return (env.battery_percent,)
        if event.event_type is EventType.CLOCK_TICK:
            return ((self.now_ms // 1000) & 0xFFFF,)
        return ()

    def step(self, before_ms: Optional[int] = None
             ) -> Optional[DispatchResult]:
        """Deliver the next queued event; None when the queue is dry.

        With ``before_ms``, events timestamped at or after it stay
        queued and None is returned once no deliverable event remains
        before the boundary — the fleet driver drains one checkpoint
        segment at a time this way."""
        while self.queue:
            if before_ms is not None and \
                    self.queue.peek_time() >= before_ms:
                return None
            event = self.queue.pop()
            self.now_ms = max(self.now_ms, event.time)
            self.machine.services.env.time_ms = self.now_ms
            if not self._app_available(event.app):
                self.stats.events_dropped += 1
                continue
            args = self._sample_args(event)
            result = self.machine.dispatch(event.app, event.handler,
                                           args)
            self.stats.record(result)
            if self.keep_trace:
                self.trace.append(result)
            if result.faulted:
                self._handle_fault(result)
            return result
        return None

    # -- snapshot/restore --------------------------------------------------
    def state_dict(self) -> dict:
        """Dynamic scheduler state: clock, pending events, suspension
        deadlines, and statistics.  Configuration (policy, schedules,
        cooldown) is reconstructed alongside the machine, and the
        optional dispatch trace is diagnostic-only — neither is
        captured."""
        stats = self.stats
        return {
            "now_ms": self.now_ms,
            "queue": self.queue.state_dict(),
            "suspended_until": dict(self._suspended_until),
            "stats": {
                "events_delivered": stats.events_delivered,
                "events_dropped": stats.events_dropped,
                "faults": stats.faults,
                "restarts": stats.restarts,
                "per_app_cycles": dict(stats.per_app_cycles),
                "per_app_events": dict(stats.per_app_events),
                "per_app_faults": dict(stats.per_app_faults),
                "per_app_restarts": dict(stats.per_app_restarts),
            },
        }

    def load_state(self, state: dict) -> None:
        self.now_ms = state["now_ms"]
        self.queue.load_state(state["queue"])
        self._suspended_until = dict(state["suspended_until"])
        s = state["stats"]
        self.stats = SchedulerStats(
            events_delivered=s["events_delivered"],
            events_dropped=s["events_dropped"],
            faults=s["faults"],
            restarts=s["restarts"],
            per_app_cycles=dict(s["per_app_cycles"]),
            per_app_events=dict(s["per_app_events"]),
            per_app_faults=dict(s["per_app_faults"]),
            per_app_restarts=dict(s["per_app_restarts"]),
        )
        self.machine.services.env.time_ms = self.now_ms

    def run(self, horizon_ms: int,
            max_events: Optional[int] = None) -> SchedulerStats:
        """Seed periodic events up to ``horizon_ms`` and drain them."""
        self.seed_events(horizon_ms)
        delivered = 0
        while self.queue:
            if max_events is not None and delivered >= max_events:
                break
            if self.step() is not None:
                delivered += 1
        return self.stats
