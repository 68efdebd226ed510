"""Firmware image container produced by the AFT pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.aft.access import AccessReport
from repro.aft.models import IsolationModel, ModelConfig
from repro.aft.stackdepth import StackEstimate
from repro.asm.linker import Image
from repro.cc.symbols import ApiTable
from repro.kernel.layout import KernelLayout
from repro.msp430.mpu import MpuConfig


@dataclass
class AppLayout:
    """Where one app landed in high FRAM, and its isolation metadata."""

    name: str
    app_id: int
    code_lo: int
    code_hi: int
    seg_lo: int           # D_i == B1: bottom of the data/stack region
    stack_top: int        # initial SP (data starts here)
    seg_hi: int           # B2: end of the data region (16-aligned)
    stack_bytes: int
    handlers: Dict[str, int] = field(default_factory=dict)
    mpu_config: Optional[MpuConfig] = None
    stack_estimate: Optional[StackEstimate] = None
    access: Optional[AccessReport] = None

    @property
    def code_bytes(self) -> int:
        return self.code_hi - self.code_lo

    def contains(self, address: int) -> bool:
        return self.code_lo <= address < self.seg_hi

    def summary(self) -> str:
        return (f"{self.name}: code 0x{self.code_lo:04X}-0x"
                f"{self.code_hi:04X} stack {self.stack_bytes}B "
                f"data/stack 0x{self.seg_lo:04X}-0x{self.seg_hi:04X}")


@dataclass
class Firmware:
    """A linked firmware image plus everything the kernel needs."""

    image: Image
    config: ModelConfig
    layout: KernelLayout
    api: ApiTable
    apps: Dict[str, AppLayout]
    os_mpu_config: Optional[MpuConfig] = None

    @property
    def model(self) -> IsolationModel:
        return self.config.model

    def symbol(self, name: str) -> int:
        return self.image.symbol(name)

    def dispatch_symbol(self, app: str) -> int:
        return self.image.symbol(f"__dispatch_{app}")

    def handler_address(self, app: str, handler: str) -> int:
        layout = self.apps[app]
        if handler not in layout.handlers:
            raise KeyError(
                f"app {app!r} has no handler {handler!r} "
                f"(have {sorted(layout.handlers)})")
        return layout.handlers[handler]

    def app_of_address(self, address: int) -> Optional[str]:
        for name, app in self.apps.items():
            if app.contains(address):
                return name
        return None

    def app_list(self) -> List[AppLayout]:
        return sorted(self.apps.values(), key=lambda a: a.app_id)
