"""AmuletMachine: firmware + CPU + MPU + services, ready to dispatch.

The machine is the kernel's hardware-facing half: it loads a linked
firmware image, wires the MPU and the service/done/fault ports, and
exposes :meth:`dispatch` — deliver one event to one app handler by
running the app's context-switch gate on the simulated CPU, exactly as
the paper's AmuletOS does.

Everything an experiment needs comes back in a :class:`DispatchResult`:
cycles consumed (gate + handler + checks + services), fault records,
and the CPU for further inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import KernelError
from repro.aft.firmware import AppLayout, Firmware
from repro.aft.shadowstack import initialize_shadow_stack
from repro.kernel.advanced_mpu import AdvancedMpu
from repro.kernel.fault import FaultLog, FaultOrigin, FaultRecord
from repro.kernel.services import SensorEnvironment, ServiceRegistry
from repro.msp430.cpu import Cpu, CpuFault, ExecutionLimitExceeded
from repro.msp430.execcache import image_digest, shared_execution_cache
from repro.msp430.memory import MemoryMap
from repro.msp430.mpu import Mpu
from repro.msp430.timer import CycleTimer
from repro.ports import DONE_PORT, FAULT_PORT, SVC_PORT

#: machine prototypes: id(firmware) -> (firmware, pristine 64 KB
#: post-load image, its sha-256).  The first machine built from a
#: firmware runs the assembler-output loader + shadow-stack init and
#: captures the resulting image; every later machine for the same
#: firmware object *clones* that image with one bytearray blit.  The
#: strong firmware reference keeps ids stable; the guard against a
#: recycled id makes a stale hit impossible.
_PROTOTYPES: Dict[int, tuple] = {}


@dataclass
class DispatchResult:
    app: str
    handler: str
    cycles: int
    instructions: int
    faulted: bool
    fault: Optional[FaultRecord] = None
    return_value: int = 0


@dataclass
class AppRuntimeState:
    dispatches: int = 0
    cycles: int = 0
    faults: int = 0
    disabled: bool = False


class AmuletMachine:
    def __init__(self, firmware: Firmware,
                 env: Optional[SensorEnvironment] = None,
                 step_only: bool = False,
                 shared_cache: bool = True):
        self.firmware = firmware
        self.cpu = Cpu()
        # step_only disables superblock dispatch — every instruction
        # goes through Cpu.step() and its _op_* handler, the oracle
        # the template table is checked against; results are
        # bit-identical, only slower (differential tests use this).
        self.cpu.block_mode = not step_only
        self.timer = CycleTimer(self.cpu)
        self.timer.attach()
        self.fault_log = FaultLog()
        self.current_app: Optional[str] = None
        self.scheduler = None            # set by Scheduler on attach
        self.app_state: Dict[str, AppRuntimeState] = {
            name: AppRuntimeState() for name in firmware.apps
        }
        self._pending_fault: Optional[FaultRecord] = None

        # Prototype/clone construction: segment-by-segment loading and
        # shadow-stack init run once per distinct firmware; sibling
        # machines clone the captured image in one blit.  The clone is
        # byte-for-byte what the loader would have produced, so device
        # results are independent of which path built the machine.
        prototype = _PROTOTYPES.get(id(firmware))
        if prototype is None or prototype[0] is not firmware:
            firmware.image.load_into(self.cpu.memory)
            # Reset the InfoMem shadow return-address stack (used when
            # the firmware was built with shadow_stack=True; harmless
            # otherwise — InfoMem is unused by default, paper
            # footnote 3).
            initialize_shadow_stack(self.cpu.memory)
            image = bytes(self.cpu.memory._bytes)
            prototype = (firmware, image, image_digest(image))
            _PROTOTYPES[id(firmware)] = prototype
        else:
            self.cpu.memory.load(0, prototype[1])
        #: pristine post-load image; the delta-checkpoint base and the
        #: shared execution cache's verification reference
        self.base_image: bytes = prototype[1]
        self.base_sha: str = prototype[2]

        config = firmware.config
        self.mpu: Optional[object] = None
        if config.uses_mpu:
            mpu = Mpu()
            mpu.attach(self.cpu.memory)
            if firmware.os_mpu_config is not None:
                mpu.configure(firmware.os_mpu_config)
            self.mpu = mpu
        elif config.advanced_mpu:
            advanced = AdvancedMpu()
            advanced.attach(self.cpu.memory)
            advanced.sysvar_window = self._sysvar_window()
            self.mpu = advanced

        self.services = ServiceRegistry(self, env)
        self.cpu.memory.add_io(SVC_PORT, write=self._on_service)
        self.cpu.memory.add_io(DONE_PORT, write=self._on_done)
        self.cpu.memory.add_io(FAULT_PORT, write=self._on_fault)

        # Attach the process-wide execution cache for this I/O port
        # wiring so sibling devices — including devices running
        # *different* firmware with overlapping bytes (the OS region,
        # shared apps) — share decoded instructions and compiled
        # superblocks, verified by content on every pull.  Done after
        # all port wiring: the port set is the store identity (blocks
        # terminate at port-addressing instructions).  step_only
        # machines stay private — they are the differential tests'
        # pristine reference interpreter.
        if shared_cache and not step_only:
            self.cpu.attach_shared_cache(shared_execution_cache(
                self.cpu.memory.io_addresses()))

    # -- wiring ---------------------------------------------------------------
    def _sysvar_window(self) -> Optional[tuple]:
        names = [self.firmware.api.sysvar_symbol(n)
                 for n in self.firmware.api.sysvars]
        addresses = [self.firmware.symbol(n) for n in names
                     if self.firmware.image.has_symbol(n)]
        if not addresses:
            return None
        return (min(addresses), max(addresses) + 2)

    def _on_service(self, _addr: int, value: int) -> None:
        self.services.dispatch(value)

    def _on_done(self, _addr: int, _value: int) -> None:
        self.cpu.halt()

    def _on_fault(self, _addr: int, _value: int) -> None:
        if self._pending_fault is None:
            self._pending_fault = FaultRecord(
                app=self.current_app, origin=FaultOrigin.SOFTWARE_CHECK,
                pc=self.cpu.regs.pc, address=0, cycle=self.cpu.cycles,
                detail="compiler-inserted check fired")
        self.cpu.halt()

    # -- fault reporting --------------------------------------------------------
    def report_api_pointer_fault(self, address: int) -> None:
        self._pending_fault = FaultRecord(
            app=self.current_app, origin=FaultOrigin.API_POINTER,
            pc=self.cpu.regs.pc, address=address,
            cycle=self.cpu.cycles,
            detail="app-provided pointer outside app region")
        self.cpu.halt()

    def current_app_layout(self) -> Optional[AppLayout]:
        if self.current_app is None:
            return None
        return self.firmware.apps.get(self.current_app)

    # -- snapshot/restore --------------------------------------------------------
    def state_dict(self) -> dict:
        """Dispatch-boundary snapshot of everything architectural: CPU
        registers/counters, the 64 KB memory image, MPU registers
        (lock state included), the fault log, per-app runtime state,
        and OS service state (display/log/storage plus the sensor
        environment's LCG position).

        Only valid *between* dispatches — mid-handler state would also
        need the Python call stack, which is not serializable."""
        if self.current_app is not None or self._pending_fault is not None:
            raise KernelError(
                "machine snapshots are only valid at a dispatch boundary")
        state = {
            "cpu": self.cpu.state_dict(),
            "memory": self.cpu.memory.state_dict(),
            "fault_log": self.fault_log.state_dict(),
            "services": self.services.state_dict(),
            "app_state": {
                name: [s.dispatches, s.cycles, s.faults, s.disabled]
                for name, s in self.app_state.items()},
        }
        if self.mpu is not None:
            state["mpu"] = self.mpu.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this machine.

        The machine must have been constructed from the *same firmware*
        (the fleet layer guarantees that by rebuilding it from the
        deterministic device spec); loading clears every derived cache
        (decoded instructions, superblocks, permission bitmaps), so a
        resumed run is byte-identical to an uninterrupted one."""
        if set(state["app_state"]) != set(self.firmware.apps):
            raise KernelError(
                "snapshot app set does not match this firmware "
                f"(snapshot: {sorted(state['app_state'])}, "
                f"firmware: {sorted(self.firmware.apps)})")
        self.cpu.memory.load_state(state["memory"])
        self.cpu.load_state(state["cpu"])
        if self.mpu is not None:
            self.mpu.load_state(state["mpu"])
        self.fault_log.load_state(state["fault_log"])
        self.services.load_state(state["services"])
        for name, packed in state["app_state"].items():
            app = self.app_state[name]
            app.dispatches, app.cycles, app.faults, app.disabled = packed
        self.current_app = None
        self._pending_fault = None

    # -- sysvar maintenance --------------------------------------------------------
    def set_sysvar(self, name: str, value: int) -> None:
        symbol = self.firmware.api.sysvar_symbol(name)
        address = self.firmware.symbol(symbol)
        with self.cpu.memory.supervisor():
            self.cpu.memory.write_word(address, value & 0xFFFF)

    def read_sysvar(self, name: str) -> int:
        symbol = self.firmware.api.sysvar_symbol(name)
        address = self.firmware.symbol(symbol)
        blob = self.cpu.memory.dump(address, 2)
        return blob[0] | (blob[1] << 8)

    # -- dispatch --------------------------------------------------------------------
    def dispatch(self, app: str, handler: str,
                 args: Sequence[int] = (),
                 max_cycles: int = 20_000_000) -> DispatchResult:
        if app not in self.firmware.apps:
            raise KernelError(f"unknown app {app!r}")
        state = self.app_state[app]
        if state.disabled:
            raise KernelError(f"app {app!r} is disabled after a fault")
        if len(args) > 3:
            raise KernelError("handlers take at most 3 arguments")

        handler_address = self.firmware.handler_address(app, handler)
        gate = self.firmware.dispatch_symbol(app)

        self.current_app = app
        self._pending_fault = None
        cpu = self.cpu
        cpu.halted = False
        cpu.regs.pc = gate
        cpu.regs.sp = self.firmware.layout.os_stack_top
        cpu.regs.write(12, handler_address)
        for index, value in enumerate(args):
            cpu.regs.write(13 + index, value & 0xFFFF)

        start_cycles = cpu.cycles
        start_instructions = cpu.instructions
        fault: Optional[FaultRecord] = None
        try:
            cpu.run(max_cycles=max_cycles)
        except CpuFault as exc:
            origin = (FaultOrigin.MPU
                      if exc.kind.name == "MPU_VIOLATION"
                      else FaultOrigin.BUS)
            fault = FaultRecord(app=app, origin=origin, pc=exc.pc,
                                address=exc.address, cycle=cpu.cycles,
                                detail=exc.detail)
            self.fault_log.log(fault)
            self._recover_to_os()
        except ExecutionLimitExceeded as exc:
            fault = FaultRecord(app=app, origin=FaultOrigin.RUNAWAY,
                                pc=cpu.regs.pc, address=0,
                                cycle=cpu.cycles, detail=str(exc))
            self.fault_log.log(fault)
            self._recover_to_os()

        if self._pending_fault is not None and fault is None:
            fault = self._pending_fault
            self.fault_log.log(fault)
            self._recover_to_os()
        self._pending_fault = None

        cycles = cpu.cycles - start_cycles
        state.dispatches += 1
        state.cycles += cycles
        if fault is not None:
            state.faults += 1
        self.current_app = None
        return DispatchResult(
            app=app, handler=handler, cycles=cycles,
            instructions=cpu.instructions - start_instructions,
            faulted=fault is not None, fault=fault,
            return_value=cpu.regs.read(12))

    def _recover_to_os(self) -> None:
        """After a fault the gate's exit path never ran; restore the OS
        view (MPU config) so the next dispatch starts clean."""
        if isinstance(self.mpu, Mpu) and \
                self.firmware.os_mpu_config is not None:
            self.mpu.configure(self.firmware.os_mpu_config)
        elif isinstance(self.mpu, AdvancedMpu):
            self.mpu.force_os_mode()
        # a fault mid-function leaves unbalanced shadow entries behind
        initialize_shadow_stack(self.cpu.memory)
        self.cpu.halted = True
