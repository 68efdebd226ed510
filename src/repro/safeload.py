"""Non-executing deserialization for wire-crossing payloads.

``pickle.loads`` is an interpreter, not a parser: a GLOBAL or
STACK_GLOBAL opcode resolves any importable callable by name and
REDUCE calls it, so unpickling attacker-supplied bytes is arbitrary
code execution — the exploit runs *during* load, before any shape
check on the result can reject it.

Every payload this codebase ships across a socket or ingests from a
shared file (device checkpoints, ``.sbx`` translation records) is
built from primitive types only — ``dict``, ``list``, ``tuple``,
``str``, ``bytes``, ``int``, ``float``, ``bool``, ``None`` — which
pickle protocol 2+ encodes with dedicated opcodes that never consult
``find_class``.  :func:`safe_loads` exploits that: it drives a
:class:`pickle.Unpickler` whose global resolution and persistent-id
hooks are disabled, so a payload referencing *any* module-level name
(``os.system``, ``builtins.eval``, an innocuous-looking class) raises
:class:`UnsafePayload` instead of resolving it.  Nothing is ever
imported or called on behalf of the payload.

The trade is symmetric: producers must keep serializing primitives
only (``pickle.dumps`` on the dicts the ``state_dict``/block-record
layers already emit), and in exchange consumers may load bytes from
an untrusted peer with no more risk than ``json.loads``.

One format needs more than primitives: a cached :class:`Firmware`
(:mod:`repro.aft.cache`) is a tree of plain data classes.  Its reader
passes an explicit :func:`allowlist` of those classes; every other
global still raises, so the worst a crafted entry can do is construct
one of the listed data classes with odd field values.
"""

from __future__ import annotations

import io
import pickle
from typing import Dict, Optional, Tuple


class UnsafePayload(pickle.UnpicklingError):
    """The payload tried to resolve a global, class, or persistent id
    — something only an attacker-crafted pickle of our primitive-only
    formats would do.  Subclasses :class:`pickle.UnpicklingError`, so
    generic corrupt-payload handling catches it too."""


#: ``(module, qualified name) -> class`` a payload may reference
Allowlist = Dict[Tuple[str, str], type]


def allowlist(*classes: type) -> Allowlist:
    """The allowlist naming exactly ``classes``."""
    return {(cls.__module__, cls.__qualname__): cls for cls in classes}


class _RestrictedUnpickler(pickle.Unpickler):
    def __init__(self, data: bytes, allowed: Allowlist):
        super().__init__(io.BytesIO(data))
        self._allowed = allowed

    def find_class(self, module: str, name: str):
        cls = self._allowed.get((module, name))
        if cls is None:
            raise UnsafePayload(
                f"payload references global {module}.{name} — not in "
                "this format's allowlist; refusing to resolve it")
        return cls

    def persistent_load(self, pid):
        raise UnsafePayload(
            "payload uses persistent ids — refusing to resolve them")


def safe_loads(data: bytes, allowed: Optional[Allowlist] = None):
    """Deserialize a pickle of primitive values (plus the ``allowed``
    classes); raise :class:`UnsafePayload` the moment the payload
    references anything else resolvable (and therefore callable)."""
    return _RestrictedUnpickler(data, allowed or {}).load()
