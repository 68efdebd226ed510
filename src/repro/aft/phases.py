"""The four-phase AFT pipeline (paper section 3, "AFT Implementation").

Usage::

    pipeline = AftPipeline(IsolationModel.MPU)
    firmware = pipeline.build([AppSource("pedometer", src, ["on_accel"])])

Phase mapping (see the package docstring for the paper's wording):

1. :meth:`_phase1_analyze` — parse + sema under the model's language
   profile (rejects goto/asm always; pointers/recursion under Feature
   Limited), call graph, access enumeration.
2. :meth:`_phase2_generate` — MiniC → assembly with the model's check
   policy; checks reference placeholder boundary symbols.
3. :meth:`_phase3_sections` — per-app section layout (code < stack <
   data), stack-size estimation, gate/stack-pointer assembly, assembly
   of every translation unit.
4. :meth:`_phase4_link` — placement in high FRAM, boundary-symbol
   computation, relocation patching, final image.

Because phase 2 checks against placeholder boundary symbols that only
phase 4 fills in, an app's phase 1–3 output depends on its source, the
model and the flags alone.  A pipeline given an object ``memo`` keeps
that output (an :class:`AppObject`) per app, so a later build of the
same process that contains the app only links it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.errors import RestrictionError, ToolchainError
from repro.aft.access import AccessReport, enumerate_accesses
from repro.aft.callgraph import CallGraph, build_call_graph
from repro.aft.firmware import AppLayout, Firmware
from repro.aft.models import (
    IsolationModel,
    ModelConfig,
    boundary_symbols,
    model_config,
)
from repro.aft.stackdepth import StackEstimate, estimate_stack
from repro.asm.assembler import assemble
from repro.asm.linker import Linker, LinkScript
from repro.asm.objfile import ObjectFile
from repro.cc.codegen import CodeGenerator, CompiledUnit
from repro.cc.parser import parse
from repro.cc.runtime import runtime_asm
from repro.cc.sema import SemaResult, analyze
from repro.cc.symbols import ApiTable
from repro.kernel.api import amulet_api_table
from repro.kernel.gates import generate_os_asm, mpu_value_symbols
from repro.kernel.layout import DEFAULT_LAYOUT, KernelLayout
from repro.msp430.memory import MemoryMap
from repro.msp430.mpu import MpuConfig, SegmentPermissions


@dataclass
class AppSource:
    """One application handed to the AFT."""

    name: str
    source: str
    handlers: List[str] = field(default_factory=list)
    #: default stack when recursion defeats analysis (bytes)
    recursive_stack: int = 512

    def __post_init__(self) -> None:
        if not self.name.isidentifier() or self.name.startswith("__"):
            raise ToolchainError(f"bad app name {self.name!r}")


@dataclass(frozen=True)
class AppObject:
    """What phases 1–3 leave for phase 4 of one app: its access
    report, its stack estimate and its finished object file (stack
    bytes appended, ``__app_<n>_stack_top`` defined, sections in code <
    stack < data order)."""

    access: AccessReport
    stack: StackEstimate
    obj: ObjectFile


#: an object memo's key for the runtime library's object
_RUNTIME = "runtime"


@dataclass
class AppBuild:
    """Intermediate per-app state threaded through the phases."""

    source: AppSource
    sema: Optional[SemaResult] = None
    graph: Optional[CallGraph] = None
    access: Optional[AccessReport] = None
    unit: Optional[CompiledUnit] = None
    stack: Optional[StackEstimate] = None
    obj: Optional[ObjectFile] = None

    @property
    def name(self) -> str:
        return self.source.name

    @property
    def prefix(self) -> str:
        return f"app_{self.source.name}_"


@dataclass
class AftReport:
    """What the AFT learned; feeds the profiler and the experiments."""

    model: IsolationModel
    apps: Dict[str, AppBuild] = field(default_factory=dict)

    def describe(self) -> str:
        lines = [f"AFT report (model={self.model.display})"]
        for build in self.apps.values():
            access = build.access
            stack = build.stack
            lines.append(
                f"  {build.name}: derefs={access.total_pointer_derefs} "
                f"arrays={access.total_array_accesses} "
                f"api={access.total_api_calls} "
                f"stack={stack.bytes_needed}B"
                f"{' (recursive: default)' if stack.recursive else ''}")
        return "\n".join(lines)


class AftPipeline:
    def __init__(self, model: IsolationModel,
                 api: Optional[ApiTable] = None,
                 layout: Optional[KernelLayout] = None,
                 policy_factory=None,
                 shadow_stack: bool = False,
                 optimize: bool = False,
                 memo: Optional[Dict[object, object]] = None):
        """``policy_factory(app_name, entry_points) -> CheckPolicy``
        overrides the model's check policy; the profiler uses this to
        build counting instrumentation instead of checks.

        ``shadow_stack`` enables the section-5 shadow return-address
        stack in InfoMem (see :mod:`repro.aft.shadowstack`).

        ``optimize`` runs the AST optimizer over each app before
        analysis (see :mod:`repro.cc.optimize`).

        ``memo`` is a dict shared by the builds of one process: it maps
        each app's key (model, flags, name, source, handlers, default
        stack) to its :class:`AppObject`, and holds the runtime
        library's object.  Apps found there skip phases 1–3, so their
        :class:`AppBuild` in :attr:`report` has no ``sema``, ``graph``
        or ``unit``.  The key does not cover a custom API table or
        policy factory, so a memo cannot be combined with either."""
        if memo is not None and (api is not None
                                 or policy_factory is not None):
            raise ToolchainError(
                "an object memo needs the default API and policies")
        self.config: ModelConfig = model_config(model)
        self.api = api if api is not None else amulet_api_table()
        self.layout = layout if layout is not None else DEFAULT_LAYOUT
        self.layout.validate()
        self.policy_factory = policy_factory
        self.shadow_stack = shadow_stack
        self.optimize = optimize
        self.memo = memo
        self.report: Optional[AftReport] = None

    # -- public ------------------------------------------------------------
    def build(self, apps: Sequence[AppSource]) -> Firmware:
        if not apps:
            raise ToolchainError("no applications to build")
        names = [a.name for a in apps]
        if len(set(names)) != len(names):
            raise ToolchainError(f"duplicate app names in {names}")
        builds = [AppBuild(a) for a in apps]
        fresh = [build for build in builds if not self._recall(build)]
        for build in fresh:
            self._phase1_analyze(build)
            self._phase2_generate(build)
        objects = self._phase3_sections(builds, fresh)
        firmware = self._phase4_link(builds, objects)
        self.report = AftReport(
            self.config.model, {b.name: b for b in builds})
        return firmware

    # -- the object memo ----------------------------------------------------
    def _key(self, app: AppSource) -> tuple:
        return (self.config.model, self.shadow_stack, self.optimize,
                app.name, app.source, tuple(app.handlers),
                app.recursive_stack)

    def _recall(self, build: AppBuild) -> bool:
        """Fill ``build`` from the memo; ``False`` if it is not there.
        The linker writes section addresses, so this firmware links a
        copy of the remembered object."""
        known = self.memo.get(self._key(build.source)) \
            if self.memo is not None else None
        if known is None:
            return False
        build.access, build.stack = known.access, known.stack
        build.obj = known.obj.copy_for_link(build.name)
        return True

    def _runtime_object(self) -> ObjectFile:
        """The runtime library's object: assembled once per memo, and
        a copy for every later link."""
        known = self.memo.get(_RUNTIME) if self.memo is not None \
            else None
        if known is not None:
            return known.copy_for_link(_RUNTIME)
        runtime = assemble(runtime_asm(with_fault_stub=False), _RUNTIME)
        if self.memo is not None:
            self.memo[_RUNTIME] = runtime
        return runtime

    # -- phase 1 ----------------------------------------------------------------
    def _phase1_analyze(self, build: AppBuild) -> None:
        unit = parse(build.source.source, filename=build.name)
        if self.optimize:
            from repro.cc.optimize import optimize_unit
            unit = optimize_unit(unit)
        sema = analyze(unit, self.config.profile, self.api,
                       filename=build.name)
        build.sema = sema
        build.graph = build_call_graph(sema)
        build.access = enumerate_accesses(sema)

        for handler in build.source.handlers:
            if handler not in build.graph.functions:
                raise ToolchainError(
                    f"app {build.name!r}: handler {handler!r} is not "
                    f"defined")

        cycle = build.graph.find_cycle()
        if cycle is not None and not self.config.profile.allow_recursion:
            raise RestrictionError(
                f"recursion ({' -> '.join(cycle)}) is not allowed in "
                f"{self.config.profile.name}", 0, 0, build.name)

    # -- phase 2 -----------------------------------------------------------------
    def _phase2_generate(self, build: AppBuild) -> None:
        if self.policy_factory is not None:
            policy = self.policy_factory(
                build.name, set(build.source.handlers))
        else:
            policy = self.config.make_policy(
                build.name, entry_points=set(build.source.handlers))
        if self.shadow_stack:
            from repro.aft.shadowstack import ShadowStackPolicy
            policy = ShadowStackPolicy(policy)
        generator = CodeGenerator(
            checks=policy,
            text_section=f".app.{build.name}.text",
            data_section=f".app.{build.name}.data",
            label_prefix=build.prefix)
        build.unit = generator.generate(build.sema)

    # -- phase 3 ------------------------------------------------------------------
    def _phase3_sections(self, builds: List[AppBuild],
                         fresh: List[AppBuild]) -> List[ObjectFile]:
        """Assembles the runtime, the OS and every app in ``fresh`` (the
        others came from the memo with their object)."""
        objects: List[ObjectFile] = [self._runtime_object()]
        os_asm = generate_os_asm(
            [b.name for b in builds], self.config, self.api, self.layout)
        objects.append(assemble(os_asm, "os"))

        for build in fresh:
            build.stack = estimate_stack(
                build.graph, build.unit.frame_sizes,
                build.source.handlers,
                default_recursive=build.source.recursive_stack)
            obj = assemble(build.unit.asm, build.name)

            text_name = f".app.{build.name}.text"
            stack_name = f".app.{build.name}.stack"
            data_name = f".app.{build.name}.data"
            stack_section = obj.section(stack_name)
            if self.config.separate_stacks:
                stack_bytes = build.stack.bytes_needed
            else:
                # Shared-stack models keep a zero-size placeholder so
                # the boundary math stays uniform.
                stack_bytes = 0
            stack_section.append_bytes(bytes(stack_bytes))
            stack_section.align = 16
            obj.define(f"__app_{build.name}_stack_top", stack_name,
                       stack_bytes, is_global=True)

            # Enforce placement order: code below stack below data
            # (paper: stack tops out just under the data and grows down
            # into execute-only code on overflow).
            text = obj.section(text_name)
            text.align = 16
            data = obj.section(data_name)
            ordered = {text_name: text, stack_name: stack_section,
                       data_name: data}
            for name, section in obj.sections.items():
                if name not in ordered:
                    ordered[name] = section
            obj.sections = ordered
            build.obj = obj
            if self.memo is not None:
                self.memo[self._key(build.source)] = AppObject(
                    build.access, build.stack, obj)
        objects.extend(build.obj for build in builds)
        return objects

    # -- phase 4 --------------------------------------------------------------------
    def _phase4_link(self, builds: List[AppBuild],
                     objects: List[ObjectFile]) -> Firmware:
        script = LinkScript()
        script.region("sram_data", MemoryMap.SRAM_START,
                      MemoryMap.SRAM_START + 0x3FF)
        script.region("fram_os", self.layout.os_base,
                      self.layout.os_limit)
        script.region("fram_apps", self.layout.app_base,
                      self.layout.app_limit)
        script.place_rule(".os.sram", "sram_data")
        script.place_rule(".app.*", "fram_apps")
        script.place_rule("*", "fram_os")

        linker = Linker(script).place(objects)

        # Compute the boundary symbols from the placement.
        extra: Dict[str, int] = {}
        app_layouts: Dict[str, AppLayout] = {}
        for app_id, build in enumerate(builds):
            name = build.name
            obj = build.obj
            text = obj.sections[f".app.{name}.text"]
            stack = obj.sections[f".app.{name}.stack"]
            data = obj.sections[f".app.{name}.data"]
            code_lo = text.address
            code_hi = text.address + text.size
            seg_lo = stack.address
            stack_top = stack.address + stack.size
            seg_hi = (data.address + data.size + 15) & ~15

            bounds = boundary_symbols(name)
            extra[bounds.code_lo] = code_lo
            extra[bounds.code_hi] = code_hi
            extra[bounds.seg_lo] = seg_lo
            extra[bounds.seg_hi] = seg_hi

            mpu_cfg = None
            if self.config.uses_mpu or self.config.advanced_mpu:
                # With the shadow stack enabled, InfoMem (segment 0)
                # must be writable from app-inserted code; stray app
                # pointers into it are still caught by the compiler's
                # lower-bound check.
                info = (SegmentPermissions.parse("RW-")
                        if self.shadow_stack
                        else SegmentPermissions())
                mpu_cfg = MpuConfig(
                    b1=seg_lo, b2=seg_hi,
                    seg1=SegmentPermissions.parse("--X"),
                    seg2=SegmentPermissions.parse("RW-"),
                    seg3=SegmentPermissions.parse("---"),
                    info=info)
                b1_sym, b2_sym, sam_sym = mpu_value_symbols(name)
                extra[b1_sym] = seg_lo >> 4
                extra[b2_sym] = seg_hi >> 4
                extra[sam_sym] = mpu_cfg.sam_value()

            app_layouts[name] = AppLayout(
                name=name, app_id=app_id,
                code_lo=code_lo, code_hi=code_hi, seg_lo=seg_lo,
                stack_top=stack_top, seg_hi=seg_hi,
                stack_bytes=stack.size,
                mpu_config=mpu_cfg,
                stack_estimate=build.stack,
                access=build.access)

        # OS MPU configuration: code execute-only, everything writable
        # above it read-write (paper section 3).
        os_mpu = None
        os_text_end = max(
            (s.address + s.size for o in objects[:2]
             for s in o.sections.values()
             if s.name in (".text",)), default=self.layout.os_base)
        os_b1 = (os_text_end + 15) & ~15
        if self.config.uses_mpu or self.config.advanced_mpu:
            os_mpu = MpuConfig(
                b1=os_b1, b2=self.layout.app_base,
                seg1=SegmentPermissions.parse("--X"),
                seg2=SegmentPermissions.parse("RW-"),
                seg3=SegmentPermissions.parse("RW-"))
            extra["__mpu_os_segb1"] = os_b1 >> 4
            extra["__mpu_os_segb2"] = self.layout.app_base >> 4
            extra["__mpu_os_sam"] = os_mpu.sam_value()

        image = linker.resolve(extra)

        # Resolve handler addresses now that symbols exist.
        for build in builds:
            layout = app_layouts[build.name]
            for handler in build.source.handlers:
                layout.handlers[handler] = image.symbol(
                    f"{build.prefix}{handler}")

        return Firmware(image=image, config=self.config,
                        layout=self.layout, api=self.api,
                        apps=app_layouts, os_mpu_config=os_mpu)
