"""Maximum-stack-depth estimation (AFT phases 1/3).

The estimate is a safe upper bound for non-recursive apps: each
function contributes its fixed frame (saved FP, locals, saved callee
registers) plus the 2-byte return address of the deepest call it makes,
plus headroom for runtime-helper calls (``__udivmod`` pushes at most 4
bytes and calls one level deep) and temporary spills.

When the call graph is recursive the bound does not exist (the paper:
"the AFT cannot guarantee a large enough stack") and a configurable
default is used instead — under the MPU model a stack overflow then
lands in the execute-only code segment and faults in hardware, which
is exactly the paper's overflow story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set

from repro.aft.callgraph import CallGraph

#: default app stack when recursion defeats static analysis
DEFAULT_RECURSIVE_STACK = 512
#: worst-case extra bytes any function may use transiently
#: (helper call: 2 ret + 2 push; expression spills: 7 words)
TRANSIENT_SLACK = 4 + 2 + 14
#: safety margin added to every estimate
MARGIN = 16


@dataclass
class StackEstimate:
    bytes_needed: int
    recursive: bool
    per_function: Dict[str, int]

    @property
    def exact(self) -> bool:
        return not self.recursive


def estimate_stack(graph: CallGraph,
                   frame_sizes: Dict[str, int],
                   entry_points: Sequence[str],
                   default_recursive: int = DEFAULT_RECURSIVE_STACK
                   ) -> StackEstimate:
    """Upper-bound the stack for an app entered via ``entry_points``."""
    if graph.find_cycle() is not None:
        return StackEstimate(
            bytes_needed=default_recursive, recursive=True,
            per_function={})

    memo: Dict[str, int] = {}

    def depth(name: str) -> int:
        if name in memo:
            return memo[name]
        frame = frame_sizes.get(name, 0)
        deepest_call = 0
        for callee in sorted(graph.callees(name)):
            if callee in graph.functions:
                # 2 bytes of return address plus the callee's own needs
                deepest_call = max(deepest_call, 2 + depth(callee))
            else:
                deepest_call = max(deepest_call, 2)  # API gate / helper
        memo[name] = frame + TRANSIENT_SLACK + deepest_call
        return memo[name]

    total = 0
    for entry in entry_points:
        if entry in graph.functions:
            total = max(total, 2 + depth(entry))
    # Unreachable-but-address-taken functions might still run.
    for name in sorted(graph.address_taken):
        if name in graph.functions:
            total = max(total, 2 + depth(name))
    needed = total + MARGIN
    # MPU boundary granularity: round to 16 bytes.
    needed = (needed + 15) & ~15
    return StackEstimate(bytes_needed=max(needed, 32), recursive=False,
                         per_function=memo)
