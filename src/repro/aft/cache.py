"""Content-addressed firmware build cache.

Running the paper's experiment suite rebuilds the same handful of
(application set, isolation model) firmwares dozens of times — the AFT
is deterministic, so every rebuild after the first is wasted work.
:func:`build_firmware` names each build by a hash over

* every app's name, source text, handler list, and recursive-stack
  default,
* the isolation model plus the pipeline flags that change codegen
  (``shadow_stack``, ``optimize``), and
* the store identity every disk tier folds in: the entry format
  version, the interpreter, and the **toolchain version** — a content
  hash over the toolchain's own Python sources, so editing the
  compiler, assembler, linker, or kernel templates invalidates every
  cached image automatically.

Three layers:

* an in-process dict returning the *same* :class:`Firmware` object
  (machines only read firmware, so sharing is safe);
* an in-process object memo that the pipeline fills with each app's
  phase 1–3 output (:class:`~repro.aft.phases.AppObject`: access
  report, stack estimate, finished object file) and the runtime
  library's object, keyed by the model, the flags and the app's name,
  source, handlers and default stack.  Region boundaries are
  link-time symbols, so that output does not depend on the other apps
  of a firmware: a firmware that must be built compiles only the apps
  no earlier build of this process compiled, and links a copy of
  every other app's object; and
* an on-disk layer under ``.cache/firmware/`` at the repo root, shared
  across processes — this is what makes the parallel experiment
  runner's worker processes cheap.  It is a
  :class:`~repro.framestore.StoreLayout` like the ``.sbx`` and
  ``.tbx`` tiers: each ``<name>.pkl`` entry is one self-checking
  frame, written by temp file and rename and LRU-pruned to the
  budget.  An entry is used only when it holds exactly one intact
  frame whose payload unpickles through
  :func:`~repro.safeload.safe_loads` with the firmware's data classes
  as the only resolvable globals; anything else — bit-rot, a torn
  write, a crafted pickle — is rebuilt and overwritten.

Environment knobs: ``REPRO_NO_CACHE=1`` disables all three layers,
``REPRO_CACHE_DIR`` is the on-disk directory itself, and
``REPRO_CACHE_MAX_MB`` bounds it (default 256 MB; 0 or negative
disables pruning).  Builds that use a custom ``policy_factory`` (e.g.
the ARP profiler's counting policies) must not use this module — the
factory is arbitrary code and cannot be part of a content key.
"""

from __future__ import annotations

import pickle
from typing import Dict, Optional, Sequence

from repro.aft.access import AccessReport, FunctionAccessProfile
from repro.aft.firmware import AppLayout, Firmware
from repro.aft.models import FeatureLimitedPolicy, IsolationModel, \
    ModelConfig, MpuPolicy, NoChecksPolicy, SoftwareOnlyPolicy
from repro.aft.phases import AftPipeline, AppSource
from repro.aft.stackdepth import StackEstimate
from repro.asm.linker import Image
from repro.asm.objfile import Relocation, RelocType, Section
from repro.cc.sema import LanguageProfile
from repro.cc.symbols import ApiFunction, ApiTable
from repro.cc.types import CharType, FunctionType, IntType, \
    PointerType, VoidType
from repro.framestore import FrameFormat, StoreLayout
from repro.kernel.layout import KernelLayout
from repro.msp430.mpu import MpuConfig, SegmentPermissions
from repro.safeload import allowlist, safe_loads

#: bump when the pickled :class:`Firmware` layout changes
FIRMWARE_FORMAT = 1

#: a linked firmware pickles to tens of KB; anything claiming more
#: than this is a corrupt length field
_MAX_RECORD = 1 << 24

_FORMAT = FrameFormat(b"FWB1", _MAX_RECORD, ".pkl")

#: ``REPRO_CACHE_DIR`` / ``REPRO_CACHE_MAX_MB``; only the global
#: ``REPRO_NO_CACHE`` switches this tier off
LAYOUT = StoreLayout(_FORMAT, "CACHE", "firmware", default_mb=256,
                     version=FIRMWARE_FORMAT, switch=False)

#: every class a pickled :class:`Firmware` references — the only
#: globals an entry may resolve
_FIRMWARE_CLASSES = allowlist(
    Firmware, AppLayout, ModelConfig, IsolationModel, NoChecksPolicy,
    FeatureLimitedPolicy, SoftwareOnlyPolicy, MpuPolicy, Image,
    Section, Relocation, RelocType, KernelLayout, ApiTable,
    ApiFunction, LanguageProfile, MpuConfig, SegmentPermissions,
    StackEstimate, AccessReport, FunctionAccessProfile, VoidType,
    IntType, CharType, PointerType, FunctionType)

_memory_cache: Dict[str, Firmware] = {}
#: every app's phase 1–3 output, for the builds of this process
#: (:class:`~repro.aft.phases.AppObject`)
_objects: Dict[object, object] = {}


def build_firmware(model: IsolationModel,
                   apps: Sequence[AppSource],
                   shadow_stack: bool = False,
                   optimize: bool = False,
                   persist: bool = True) -> Firmware:
    """Build (or fetch a cached) firmware for ``apps`` under ``model``.

    Byte-identical to ``AftPipeline(model, ...).build(apps)`` — the
    pipeline is deterministic and the key covers all of its inputs.
    ``persist=False`` keeps the result out of the on-disk layer.
    """
    if not LAYOUT.enabled():
        return AftPipeline(model, shadow_stack=shadow_stack,
                           optimize=optimize).build(apps)

    path = LAYOUT.store_path(
        model.name, shadow_stack, optimize,
        tuple((app.name, app.source, tuple(app.handlers),
               app.recursive_stack) for app in apps))
    firmware = _memory_cache.get(path.name)
    if firmware is not None:
        return firmware

    if persist:
        firmware = _load(path)
    if firmware is None:
        firmware = AftPipeline(model, shadow_stack=shadow_stack,
                               optimize=optimize,
                               memo=_objects).build(apps)
        if persist:
            LAYOUT.write_entry(path, pickle.dumps(
                firmware, protocol=pickle.HIGHEST_PROTOCOL))
    _memory_cache[path.name] = firmware
    return firmware


def _load(path) -> Optional[Firmware]:
    """The firmware stored at ``path``, or ``None`` (absent, or not
    exactly one intact frame of allowlisted data)."""
    payload = LAYOUT.read_entry(path)
    if payload is None:
        return None
    try:
        firmware = safe_loads(payload, _FIRMWARE_CLASSES)
    except Exception:
        return None
    return firmware if isinstance(firmware, Firmware) else None


def clear_memory_cache() -> None:
    """Drop the in-process layers (tests use this)."""
    _memory_cache.clear()
    _objects.clear()
