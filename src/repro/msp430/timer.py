"""Timer_A-style measurement timer.

Paper section 4.2: *"a hardware timer on the MSP430FR5969 MCU was used to
measure the time of each iteration (with a precision of 16 cycles)"*.

We model a timer whose counter register (``TA0R``-like, default address
0x0340) increments once every 16 CPU cycles, i.e. sourced from the CPU
clock through a /16 divider.  Firmware reads the port like hardware
would; Python harnesses can additionally use :meth:`measure` for exact
cycle deltas when quantization noise is unwanted.

The counter address is a registered I/O port, so the CPU's superblock
compiler never fuses a timer read into a block — the read handler
always sees the exact per-instruction ``cpu.cycles``, making
measurements bit-identical in block and step mode
(``tests/test_timer_cycles.py::TestTimerBlockMode``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

TA0R_ADDRESS = 0x0340

DIVIDER = 16


class CycleTimer:
    """A read-only counter port mapped into peripheral space."""

    def __init__(self, cpu, address: int = TA0R_ADDRESS,
                 divider: int = DIVIDER):
        self.cpu = cpu
        self.address = address
        self.divider = divider
        #: port reads served (monotonic).  The counter value is a
        #: function of the *absolute* cycle count, so any layer that
        #: memoizes execution (the fleet cohort recorder) must know
        #: whether a stretch of code observed the timer — it compares
        #: this before/after to decide.
        self.reads = 0

    def attach(self, memory=None) -> None:
        mem = memory if memory is not None else self.cpu.memory
        mem.add_io(self.address, read=self.read_counter)

    def read_counter(self) -> int:
        """The quantized hardware view: one tick per ``divider`` cycles."""
        self.reads += 1
        return (self.cpu.cycles // self.divider) & 0xFFFF

    class Measurement:
        """Result holder filled in when the context exits."""

        def __init__(self) -> None:
            self.start_cycles = 0
            self.end_cycles = 0
            self.start_ticks = 0
            self.end_ticks = 0
            self.divider = DIVIDER

        @property
        def cycles(self) -> int:
            """Exact elapsed cycles."""
            return self.end_cycles - self.start_cycles

        @property
        def measured_cycles(self) -> int:
            """What firmware would compute from the 16-cycle-granular
            timer: tick delta times divider.  The 16-bit counter wraps,
            so the delta is taken modulo 2^16 — valid for intervals
            under 2^16 ticks (about one million cycles), like the
            paper's per-iteration measurements."""
            delta = (self.end_ticks - self.start_ticks) & 0xFFFF
            return delta * self.divider

    @contextmanager
    def measure(self) -> Iterator["CycleTimer.Measurement"]:
        m = CycleTimer.Measurement()
        m.divider = self.divider
        m.start_cycles = self.cpu.cycles
        m.start_ticks = self.read_counter()
        try:
            yield m
        finally:
            m.end_cycles = self.cpu.cycles
            m.end_ticks = self.read_counter()
