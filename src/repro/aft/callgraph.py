"""Call-graph construction and recursion detection (AFT phase 1).

Paper: *"Examination of the application call graph and the stack frame
for each function determines the maximum stack size for each app.  In
the event of recursion, the maximum stack size cannot be determined
and the AFT cannot guarantee a large enough stack."*
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cc.sema import SemaResult


@dataclass
class CallGraph:
    """Direct-call edges between functions defined in one app."""

    edges: Dict[str, Set[str]] = field(default_factory=dict)
    functions: Set[str] = field(default_factory=set)
    #: functions whose address is taken / reachable via fn pointers —
    #: conservatively treated as callable from anywhere in the app
    address_taken: Set[str] = field(default_factory=set)

    def callees(self, name: str) -> Set[str]:
        return self.edges.get(name, set())

    def find_cycle(self) -> Optional[List[str]]:
        """Returns one recursion cycle as a path, or None."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {name: WHITE for name in self.functions}
        stack: List[str] = []

        def visit(node: str) -> Optional[List[str]]:
            color[node] = GRAY
            stack.append(node)
            for callee in sorted(self.callees(node)):
                if callee not in color:
                    continue
                if color[callee] == GRAY:
                    start = stack.index(callee)
                    return stack[start:] + [callee]
                if color[callee] == WHITE:
                    cycle = visit(callee)
                    if cycle is not None:
                        return cycle
            stack.pop()
            color[node] = BLACK
            return None

        for name in sorted(self.functions):
            if color[name] == WHITE:
                cycle = visit(name)
                if cycle is not None:
                    return cycle
        return None

    def reachable_from(self, roots: Sequence[str]) -> Set[str]:
        seen: Set[str] = set()
        work = [r for r in roots if r in self.functions]
        while work:
            node = work.pop()
            if node in seen:
                continue
            seen.add(node)
            for callee in self.callees(node):
                if callee in self.functions and callee not in seen:
                    work.append(callee)
        return seen


def build_call_graph(sema: SemaResult) -> CallGraph:
    graph = CallGraph()
    graph.functions = {f.name for f in sema.unit.functions
                       if f.body is not None}
    for caller, callee in sema.call_edges:
        graph.edges.setdefault(caller, set()).add(callee)

    # Conservative handling of function pointers: any function whose
    # address is taken (outside the callee slot of a direct call) may be
    # the target of any indirect call site.
    from repro.cc import ast as cast
    direct_callee_idents = {
        id(expr.func) for function in sema.unit.functions
        if function.body is not None
        for expr in cast.walk_expressions(function.body)
        if isinstance(expr, cast.Call) and isinstance(expr.func,
                                                      cast.Ident)
    }
    for function in sema.unit.functions:
        if function.body is None:
            continue
        for expr in cast.walk_expressions(function.body):
            if (isinstance(expr, cast.Ident)
                    and id(expr) not in direct_callee_idents
                    and expr.symbol is not None
                    and expr.symbol.is_function):
                graph.address_taken.add(expr.name)

    indirect_sites = {id(call) for call in sema.fn_pointer_calls}
    for function in sema.unit.functions:
        if function.body is None:
            continue
        has_indirect = any(
            id(expr) in indirect_sites
            for expr in cast.walk_expressions(function.body)
            if isinstance(expr, cast.Call))
        if has_indirect:
            for target in graph.address_taken:
                if target in graph.functions:
                    graph.edges.setdefault(function.name,
                                           set()).add(target)
    return graph
