"""MSP430 code generation for MiniC.

Calling convention (matches the MSP430 EABI closely enough for the
paper's purposes):

* arguments 1-4 in ``R12..R15``, further arguments pushed right-to-left
  and popped by the caller; result in ``R12``
* ``R4`` is the frame pointer; ``R4-R10`` are callee-saved,
  ``R11-R15`` caller-saved
* runtime helpers (``__mulhi`` & co.) clobber only ``R12-R15``

Frame layout after the prologue (``PUSH R4; MOV SP, R4``)::

        ...                      higher addresses
        stack arg 2      6(R4)
        stack arg 1      4(R4)
        return address   2(R4)
        saved R4         0(R4)   <- R4
        local/param N   -2(R4)
        ...
        saved callee regs        <- SP

Register allocation is a pseudo-stack: expression temporaries occupy
``R11, R10, ..., R5`` in LIFO order, spilling the deepest temporary to
the hardware stack when more than seven are live.

**Isolation checks** are emitted through a :class:`CheckPolicy`.  The
policies (one per paper memory model) live in :mod:`repro.aft.models`;
the base class here is a no-op so the compiler stands alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import CompileError
from repro.cc import ast
from repro.cc.parser import parse, _const_eval
from repro.cc.sema import FULL_C, LanguageProfile, SemaResult, analyze
from repro.cc.symbols import ApiTable, Symbol, SymbolKind
from repro.cc.types import (
    ArrayType,
    CharType,
    CType,
    FunctionType,
    IntType,
    PointerType,
    StructType,
)

_POOL = ("R11", "R10", "R9", "R8", "R7", "R6", "R5")
_ARG_REGS = ("R12", "R13", "R14", "R15")
# Private ABI refinement: R11 is callee-saved too, so expression
# temporaries survive calls without caller-save bookkeeping.  Every
# function in the system comes from this compiler or from hand-written
# runtime/gate assembly that preserves R4-R11.
_CALLEE_SAVED = frozenset({"R5", "R6", "R7", "R8", "R9", "R10", "R11"})

FAULT_SYMBOL = "__fault"


class CheckPolicy:
    """Isolation-check emission hooks; the default emits nothing
    (the paper's *No Isolation* configuration)."""

    name = "none"

    def data_pointer_check(self, gen: "_FunctionEmitter",
                           reg: str, is_write: bool) -> None:
        """Called with the address register before every load/store
        through a pointer."""

    def fn_pointer_check(self, gen: "_FunctionEmitter", reg: str) -> None:
        """Called with the target register before an indirect call."""

    def array_index_check(self, gen: "_FunctionEmitter", reg: str,
                          length: int) -> None:
        """Called with the index register before a direct array access
        of known length."""

    def return_check(self, gen: "_FunctionEmitter") -> None:
        """Called just before the function epilogue; the return address
        is at ``2(R4)``."""

    def stack_entry_check(self, gen: "_FunctionEmitter") -> None:
        """Called at function entry, after the frame is established."""


@dataclass
class _Value:
    """A live expression temporary on the pseudo-stack."""

    reg: str
    depth: int
    spilled: bool = False


class _RegStack:
    """LIFO register allocator over the scratch pool with spilling."""

    def __init__(self, emitter: "_FunctionEmitter"):
        self.emitter = emitter
        self.stack: List[_Value] = []

    def alloc(self) -> _Value:
        depth = len(self.stack)
        reg = _POOL[depth % len(_POOL)]
        if depth >= len(_POOL):
            victim = self.stack[depth - len(_POOL)]
            assert victim.reg == reg and not victim.spilled
            self.emitter.emit(f"PUSH {reg}")
            victim.spilled = True
        value = _Value(reg, depth)
        self.stack.append(value)
        self.emitter.note_reg_use(reg)
        return value

    def free(self, value: _Value) -> None:
        top = self.stack.pop()
        if top is not value:
            raise CompileError(
                "internal: register stack freed out of order")
        depth = value.depth
        if depth >= len(_POOL):
            revived = self.stack[depth - len(_POOL)]
            assert revived.spilled and revived.reg == value.reg
            self.emitter.emit(f"POP {value.reg}")
            revived.spilled = False

    def assert_empty(self, line: int) -> None:
        if self.stack:
            raise CompileError(
                f"internal: leaked expression temporaries", line)


@dataclass
class CompiledUnit:
    """The output of :func:`compile_unit`."""

    asm: str
    sema: SemaResult
    function_labels: Dict[str, str]
    frame_sizes: Dict[str, int]           # fixed frame bytes per function
    text_section: str
    data_section: str
    string_count: int = 0


class CodeGenerator:
    """Drives per-function emission for one translation unit."""

    def __init__(self,
                 checks: Optional[CheckPolicy] = None,
                 text_section: str = ".text",
                 data_section: str = ".data",
                 label_prefix: str = ""):
        self.checks = checks if checks is not None else CheckPolicy()
        self.text_section = text_section
        self.data_section = data_section
        self.label_prefix = label_prefix
        self._string_labels: Dict[str, str] = {}
        self._data_lines: List[str] = []
        self._text_lines: List[str] = []
        self.frame_sizes: Dict[str, int] = {}
        self.function_labels: Dict[str, str] = {}

    # -- label helpers ------------------------------------------------------
    def mangle(self, name: str) -> str:
        return f"{self.label_prefix}{name}"

    def string_label(self, text: str) -> str:
        if text not in self._string_labels:
            label = f"{self.label_prefix}.str{len(self._string_labels)}"
            self._string_labels[text] = label
        return self._string_labels[text]

    # -- top level ------------------------------------------------------------
    def generate(self, sema: SemaResult) -> CompiledUnit:
        unit = sema.unit
        self._text_lines = [f"        .section {self.text_section}"]
        self._data_lines = [f"        .section {self.data_section}"]

        for function in unit.functions:
            if function.body is None:
                continue
            label = self.mangle(function.name)
            self.function_labels[function.name] = label
            if not function.is_static:
                self._text_lines.append(f"        .global {label}")
            emitter = _FunctionEmitter(self, function, sema)
            self._text_lines.extend(emitter.run())
            self.frame_sizes[function.name] = emitter.frame_size

        for decl in unit.globals:
            self._emit_global(decl)

        for text, label in self._string_labels.items():
            escaped = text.replace("\\", "\\\\").replace('"', '\\"') \
                          .replace("\n", "\\n").replace("\t", "\\t") \
                          .replace("\r", "\\r").replace("\0", "\\0")
            self._data_lines.append(f"{label}:")
            self._data_lines.append(f'        .asciz "{escaped}"')
            self._data_lines.append("        .align 2")

        asm = "\n".join(self._text_lines + [""] + self._data_lines) + "\n"
        return CompiledUnit(
            asm=asm, sema=sema,
            function_labels=dict(self.function_labels),
            frame_sizes=dict(self.frame_sizes),
            text_section=self.text_section,
            data_section=self.data_section,
            string_count=len(self._string_labels))

    def _emit_global(self, decl: ast.VarDecl) -> None:
        lines = self._data_lines
        label = self.mangle(decl.name)
        decl.symbol.label = label
        if not decl.is_static:
            lines.append(f"        .global {label}")
        lines.append("        .align 2")
        lines.append(f"{label}:")
        ctype = decl.ctype
        if decl.init is None:
            lines.append(f"        .space {max(ctype.size, 1)}")
            return
        if isinstance(decl.init, list):
            element = ctype.element if isinstance(ctype, ArrayType) \
                else IntType()
            emitted = 0
            for item in decl.init:
                value = _const_eval(item)
                if value is None:
                    raise CompileError(
                        f"global {decl.name!r} initializer must be "
                        f"constant", decl.line)
                directive = ".byte" if isinstance(element, CharType) \
                    else ".word"
                lines.append(f"        {directive} {value & 0xFFFF}")
                emitted += element.size
            if emitted < ctype.size:
                lines.append(f"        .space {ctype.size - emitted}")
            return
        if isinstance(decl.init, ast.StringLiteral):
            if isinstance(ctype, ArrayType):
                escaped = decl.init.value.replace("\\", "\\\\") \
                    .replace('"', '\\"')
                lines.append(f'        .asciz "{escaped}"')
                pad = ctype.size - (len(decl.init.value) + 1)
                if pad > 0:
                    lines.append(f"        .space {pad}")
                lines.append("        .align 2")
            else:
                string_label = self.string_label(decl.init.value)
                lines.append(f"        .word {string_label}")
            return
        value = _const_eval(decl.init)
        if value is None:
            raise CompileError(
                f"global {decl.name!r} initializer must be constant",
                decl.line)
        if isinstance(ctype, CharType):
            lines.append(f"        .byte {value & 0xFF}")
            lines.append("        .align 2")
        else:
            lines.append(f"        .word {value & 0xFFFF}")


class _FunctionEmitter:
    """Emits one function."""

    def __init__(self, gen: CodeGenerator, function: ast.FunctionDef,
                 sema: SemaResult):
        self.gen = gen
        self.function = function
        self.sema = sema
        self.checks = gen.checks
        self.lines: List[str] = []
        self.regs = _RegStack(self)
        self.used_callee: List[str] = []
        self.local_cursor = 0           # grows downward (positive bytes)
        self.label_counter = 0
        self.break_labels: List[str] = []
        self.continue_labels: List[str] = []
        self.epilogue_label = self._new_label("epilogue")
        self.frame_size = 0

    # -- infrastructure -------------------------------------------------------
    def emit(self, text: str) -> None:
        self.lines.append(f"        {text}")

    def emit_label(self, label: str) -> None:
        self.lines.append(f"{label}:")

    def note_reg_use(self, reg: str) -> None:
        if reg in _CALLEE_SAVED and reg not in self.used_callee:
            self.used_callee.append(reg)

    def _new_label(self, hint: str = "L") -> str:
        self.label_counter += 1
        return (f".L_{self.gen.label_prefix}{self.function.name}"
                f"_{hint}{self.label_counter}")

    def _error(self, message: str, line: int) -> CompileError:
        return CompileError(message, line)

    def _alloc_local(self, size: int, align: int) -> int:
        """Returns a negative FP offset for a new local slot."""
        size = max(size, 1)
        self.local_cursor += size
        if align > 1 and self.local_cursor % align:
            self.local_cursor += align - self.local_cursor % align
        return -self.local_cursor

    # -- driver -------------------------------------------------------------------
    def run(self) -> List[str]:
        function = self.function
        body_lines: List[str] = []

        # Home parameters into stack slots.
        homing: List[str] = []
        for index, param in enumerate(function.params):
            offset = self._alloc_local(max(param.ctype.size, 2),
                                       param.ctype.align)
            param.symbol.frame_offset = offset
            if index < len(_ARG_REGS):
                if isinstance(param.ctype, CharType):
                    homing.append(
                        f"        MOV.B {_ARG_REGS[index]}, "
                        f"{offset}(R4)")
                else:
                    homing.append(
                        f"        MOV {_ARG_REGS[index]}, {offset}(R4)")
            else:
                # Stack argument: copy from the caller's frame so all
                # params are addressable uniformly.
                src_offset = 4 + 2 * (index - len(_ARG_REGS))
                homing.append(
                    f"        MOV {src_offset}(R4), {offset}(R4)")

        # Pre-assign offsets for every local declaration.
        for stmt in ast.walk_statements(function.body):
            if isinstance(stmt, ast.VarDecl):
                offset = self._alloc_local(stmt.ctype.size,
                                           stmt.ctype.align)
                stmt.symbol.frame_offset = offset

        self.lines = []
        self._stmt(function.body)
        self.regs.assert_empty(function.line)
        body_lines = self.lines

        # Prologue / epilogue now that frame size and reg use are known.
        local_bytes = (self.local_cursor + 1) & ~1
        self.frame_size = (4 + local_bytes + 2 * len(self.used_callee))
        out: List[str] = []
        label = self.gen.function_labels[function.name]
        out.append(f"{label}:")
        out.append("        PUSH R4")
        out.append("        MOV SP, R4")
        if local_bytes:
            out.append(f"        SUB #{local_bytes}, SP")
        for reg in self.used_callee:
            out.append(f"        PUSH {reg}")

        # Optional stack-overflow entry check.
        entry_check = _CheckCapture(self)
        self.checks.stack_entry_check(entry_check)
        out.extend(entry_check.lines)

        out.extend(homing)
        out.extend(body_lines)

        out.append(f"{self.epilogue_label}:")
        return_check = _CheckCapture(self)
        self.checks.return_check(return_check)
        out.extend(return_check.lines)
        for reg in reversed(self.used_callee):
            out.append(f"        POP {reg}")
        out.append("        MOV R4, SP")
        out.append("        POP R4")
        out.append("        RET")
        out.append("")
        return out

    # -- statements ------------------------------------------------------------------
    def _stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            for child in stmt.statements:
                self._stmt(child)
        elif isinstance(stmt, ast.VarDecl):
            self._stmt_vardecl(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                value = self._expr(stmt.expr)
                self.regs.free(value)
        elif isinstance(stmt, ast.If):
            else_label = self._new_label("else")
            end_label = self._new_label("endif")
            self._condition(stmt.cond, false_label=else_label)
            self._stmt(stmt.then)
            if stmt.otherwise is not None:
                self.emit(f"JMP {end_label}")
                self.emit_label(else_label)
                self._stmt(stmt.otherwise)
                self.emit_label(end_label)
            else:
                self.emit_label(else_label)
        elif isinstance(stmt, ast.While):
            top = self._new_label("while")
            end = self._new_label("endwhile")
            self.emit_label(top)
            self._condition(stmt.cond, false_label=end)
            self.break_labels.append(end)
            self.continue_labels.append(top)
            self._stmt(stmt.body)
            self.break_labels.pop()
            self.continue_labels.pop()
            self.emit(f"JMP {top}")
            self.emit_label(end)
        elif isinstance(stmt, ast.DoWhile):
            top = self._new_label("do")
            check = self._new_label("docheck")
            end = self._new_label("enddo")
            self.emit_label(top)
            self.break_labels.append(end)
            self.continue_labels.append(check)
            self._stmt(stmt.body)
            self.break_labels.pop()
            self.continue_labels.pop()
            self.emit_label(check)
            self._condition(stmt.cond, false_label=end)
            self.emit(f"JMP {top}")
            self.emit_label(end)
        elif isinstance(stmt, ast.For):
            top = self._new_label("for")
            step_label = self._new_label("forstep")
            end = self._new_label("endfor")
            if stmt.init is not None:
                self._stmt(stmt.init)
            self.emit_label(top)
            if stmt.cond is not None:
                self._condition(stmt.cond, false_label=end)
            self.break_labels.append(end)
            self.continue_labels.append(step_label)
            self._stmt(stmt.body)
            self.break_labels.pop()
            self.continue_labels.pop()
            self.emit_label(step_label)
            if stmt.step is not None:
                value = self._expr(stmt.step)
                self.regs.free(value)
            self.emit(f"JMP {top}")
            self.emit_label(end)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self._expr(stmt.value)
                self.emit(f"MOV {value.reg}, R12")
                self.regs.free(value)
            self.emit(f"JMP {self.epilogue_label}")
        elif isinstance(stmt, ast.Break):
            if not self.break_labels:
                raise self._error("break outside loop/switch", stmt.line)
            self.emit(f"JMP {self.break_labels[-1]}")
        elif isinstance(stmt, ast.Continue):
            if not self.continue_labels:
                raise self._error("continue outside loop", stmt.line)
            self.emit(f"JMP {self.continue_labels[-1]}")
        elif isinstance(stmt, ast.Switch):
            self._stmt_switch(stmt)
        elif isinstance(stmt, ast.LabelStmt):
            self._stmt(stmt.statement)
        else:
            raise self._error(
                f"cannot generate {type(stmt).__name__}", stmt.line)

    def _stmt_vardecl(self, stmt: ast.VarDecl) -> None:
        if stmt.init is None:
            return
        offset = stmt.symbol.frame_offset
        ctype = stmt.ctype
        if isinstance(stmt.init, list):
            element = ctype.element if isinstance(ctype, ArrayType) \
                else IntType()
            cursor = offset
            for item in stmt.init:
                const = _const_eval(item)
                suffix = ".B" if isinstance(element, CharType) else ""
                if const is not None:
                    self.emit(f"MOV{suffix} #{const}, {cursor}(R4)")
                else:
                    value = self._expr(item)
                    self.emit(f"MOV{suffix} {value.reg}, {cursor}(R4)")
                    self.regs.free(value)
                cursor += element.size
            remaining = ctype.size - len(stmt.init) * element.size
            zero_cursor = cursor
            while remaining >= 2:
                self.emit(f"MOV #0, {zero_cursor}(R4)")
                zero_cursor += 2
                remaining -= 2
            if remaining:
                self.emit(f"MOV.B #0, {zero_cursor}(R4)")
            return
        if isinstance(stmt.init, ast.StringLiteral) and \
                isinstance(ctype, ArrayType):
            blob = stmt.init.value.encode("latin1") + b"\0"
            for index, byte in enumerate(blob):
                self.emit(f"MOV.B #{byte}, {offset + index}(R4)")
            return
        value = self._expr(stmt.init)
        suffix = ".B" if isinstance(ctype, CharType) else ""
        self.emit(f"MOV{suffix} {value.reg}, {offset}(R4)")
        self.regs.free(value)

    def _stmt_switch(self, stmt: ast.Switch) -> None:
        value = self._expr(stmt.cond)
        end = self._new_label("endswitch")
        case_labels: List[Tuple[Optional[int], str]] = []
        default_label: Optional[str] = None
        for case_value, _body in stmt.cases:
            label = self._new_label("case")
            case_labels.append((case_value, label))
            if case_value is None:
                default_label = label
        for case_value, label in case_labels:
            if case_value is not None:
                self.emit(f"CMP #{case_value & 0xFFFF}, {value.reg}")
                self.emit(f"JEQ {label}")
        self.regs.free(value)
        self.emit(f"JMP {default_label if default_label else end}")
        self.break_labels.append(end)
        for (case_value, body), (_cv, label) in zip(stmt.cases,
                                                    case_labels):
            self.emit_label(label)
            for child in body:
                self._stmt(child)
        self.break_labels.pop()
        self.emit_label(end)

    # -- conditions (jump-threaded) -----------------------------------------------------
    _SIGNED_INVERSE = {"==": "JNE", "!=": "JEQ", "<": "JGE", ">=": "JL",
                       ">": "JGE", "<=": "JL"}
    _UNSIGNED_INVERSE = {"==": "JNE", "!=": "JEQ", "<": "JHS",
                         ">=": "JLO", ">": "JHS", "<=": "JLO"}

    def _condition(self, expr: ast.Expr, false_label: str) -> None:
        """Emit code that falls through when ``expr`` is true and jumps
        to ``false_label`` when false."""
        if isinstance(expr, ast.Binary) and expr.op in (
                "==", "!=", "<", ">", "<=", ">="):
            self._compare_jump(expr, false_label, invert=True)
            return
        if isinstance(expr, ast.Binary) and expr.op == "&&":
            self._condition(expr.left, false_label)
            self._condition(expr.right, false_label)
            return
        if isinstance(expr, ast.Binary) and expr.op == "||":
            true_label = self._new_label("or_true")
            self._condition_true(expr.left, true_label)
            self._condition(expr.right, false_label)
            self.emit_label(true_label)
            return
        if isinstance(expr, ast.Unary) and expr.op == "!":
            true_label = self._new_label("not_true")
            self._condition(expr.operand, true_label)
            self.emit(f"JMP {false_label}")
            self.emit_label(true_label)
            return
        value = self._expr(expr)
        self.emit(f"TST {value.reg}")
        self.regs.free(value)
        self.emit(f"JEQ {false_label}")

    def _condition_true(self, expr: ast.Expr, true_label: str) -> None:
        """Jump to ``true_label`` when true, else fall through."""
        if isinstance(expr, ast.Binary) and expr.op in (
                "==", "!=", "<", ">", "<=", ">="):
            self._compare_jump(expr, true_label, invert=False)
            return
        value = self._expr(expr)
        self.emit(f"TST {value.reg}")
        self.regs.free(value)
        self.emit(f"JNE {true_label}")

    def _compare_jump(self, expr: ast.Binary, label: str,
                      invert: bool) -> None:
        signed = self._comparison_signed(expr)
        left = self._expr(expr.left)
        right = self._expr(expr.right)
        op = expr.op
        # CMP src, dst computes dst - src: CMP right, left tests left ? right
        self.emit(f"CMP {right.reg}, {left.reg}")
        self.regs.free(right)
        self.regs.free(left)
        table_signed = {"==": "JEQ", "!=": "JNE", "<": "JL",
                        ">=": "JGE"}
        table_unsigned = {"==": "JEQ", "!=": "JNE", "<": "JLO",
                          ">=": "JHS"}
        # normalize > and <= by swapping into < / >= on the flags of
        # CMP right, left is messy; instead use the inverse tables.
        if op in (">", "<="):
            # left > right  <=>  right < left; re-emit with swap.
            # We already emitted CMP right, left; use:
            #   left >  right  -> JL on (right - left)?  Simpler: map via
            #   flags of left-right: > is (not Z) and >=.
            if invert:
                # jump when NOT (left > right)  <=> left <= right
                if op == ">":
                    # left <= right: JEQ or JL
                    jcc = "JL" if signed else "JLO"
                    self.emit(f"JEQ {label}")
                    self.emit(f"{jcc} {label}")
                else:  # op == "<=", jump when left > right
                    skip = self._new_label("cmp")
                    jcc = "JL" if signed else "JLO"
                    self.emit(f"JEQ {skip}")
                    self.emit(f"{'JGE' if signed else 'JHS'} {label}")
                    self.emit_label(skip)
            else:
                if op == ">":
                    # jump when left > right: not equal and >=
                    skip = self._new_label("cmp")
                    self.emit(f"JEQ {skip}")
                    self.emit(f"{'JGE' if signed else 'JHS'} {label}")
                    self.emit_label(skip)
                else:  # <=
                    jcc = "JL" if signed else "JLO"
                    self.emit(f"JEQ {label}")
                    self.emit(f"{jcc} {label}")
            return
        if invert:
            inverse = (self._SIGNED_INVERSE if signed
                       else self._UNSIGNED_INVERSE)
            self.emit(f"{inverse[op]} {label}")
        else:
            table = table_signed if signed else table_unsigned
            self.emit(f"{table[op]} {label}")

    @staticmethod
    def _comparison_signed(expr: ast.Binary) -> bool:
        left = expr.left.ctype.decay()
        right = expr.right.ctype.decay()
        if left.is_pointer or right.is_pointer:
            return False
        def is_signed(t: CType) -> bool:
            if isinstance(t, CharType):
                return True
            return isinstance(t, IntType) and t.signed
        return is_signed(left) and is_signed(right)

    # -- expressions -------------------------------------------------------------------
    def _expr(self, expr: ast.Expr) -> _Value:
        if isinstance(expr, (ast.IntLiteral, ast.CharLiteral)):
            value = self.regs.alloc()
            self.emit(f"MOV #{expr.value & 0xFFFF}, {value.reg}")
            return value
        if isinstance(expr, ast.StringLiteral):
            label = self.gen.string_label(expr.value)
            value = self.regs.alloc()
            self.emit(f"MOV #{label}, {value.reg}")
            return value
        if isinstance(expr, ast.Ident):
            return self._expr_ident(expr)
        if isinstance(expr, ast.Unary):
            return self._expr_unary(expr)
        if isinstance(expr, ast.Postfix):
            return self._expr_incdec(expr.operand, expr.op,
                                     want_old=True, line=expr.line)
        if isinstance(expr, ast.Binary):
            return self._expr_binary(expr)
        if isinstance(expr, ast.Assign):
            return self._expr_assign(expr)
        if isinstance(expr, ast.Conditional):
            return self._expr_conditional(expr)
        if isinstance(expr, ast.Call):
            return self._expr_call(expr)
        if isinstance(expr, ast.Index):
            return self._load_lvalue(expr)
        if isinstance(expr, ast.Member):
            return self._load_lvalue(expr)
        if isinstance(expr, ast.Cast):
            value = self._expr(expr.operand)
            if isinstance(expr.target_type, CharType) and \
                    not isinstance(expr.operand.ctype, CharType):
                self.emit(f"AND #255, {value.reg}")
            return value
        if isinstance(expr, ast.SizeOf):
            target = (expr.target_type if expr.target_type is not None
                      else expr.operand.ctype)
            value = self.regs.alloc()
            self.emit(f"MOV #{target.size}, {value.reg}")
            return value
        raise self._error(f"cannot generate {type(expr).__name__}",
                          expr.line)

    # -- identifiers & lvalues ----------------------------------------------------------
    def _symbol_operand(self, symbol: Symbol) -> str:
        """Direct operand text for a scalar variable, if one exists."""
        if symbol.kind in (SymbolKind.LOCAL, SymbolKind.PARAM):
            return f"{symbol.frame_offset}(R4)"
        if symbol.kind in (SymbolKind.GLOBAL,):
            return f"&{symbol.label or self.gen.mangle(symbol.name)}"
        if symbol.kind is SymbolKind.SYSVAR:
            return f"&{symbol.label}"
        raise CompileError(f"no direct operand for {symbol.kind}")

    def _expr_ident(self, expr: ast.Ident) -> _Value:
        symbol = expr.symbol
        value = self.regs.alloc()
        if symbol.is_function:
            label = self.gen.function_labels.get(
                symbol.name, self.gen.mangle(symbol.name))
            self.emit(f"MOV #{label}, {value.reg}")
            return value
        if isinstance(symbol.ctype, ArrayType) or \
                isinstance(symbol.ctype, StructType):
            # decay / aggregate: produce the address
            self._emit_symbol_address(symbol, value.reg)
            return value
        suffix = ".B" if isinstance(symbol.ctype, CharType) else ""
        self.emit(f"MOV{suffix} {self._symbol_operand(symbol)}, "
                  f"{value.reg}")
        return value

    def _emit_symbol_address(self, symbol: Symbol, reg: str) -> None:
        if symbol.kind in (SymbolKind.LOCAL, SymbolKind.PARAM):
            self.emit(f"MOV R4, {reg}")
            offset = symbol.frame_offset
            if offset:
                self.emit(f"ADD #{offset & 0xFFFF}, {reg}")
        else:
            label = symbol.label or self.gen.mangle(symbol.name)
            self.emit(f"MOV #{label}, {reg}")

    def _addr(self, expr: ast.Expr) -> Tuple[_Value, bool]:
        """Address of an lvalue.  Returns (address value, needs_check):
        ``needs_check`` is True when the address came from app-controlled
        pointer data rather than a direct frame/global reference."""
        if isinstance(expr, ast.Ident):
            value = self.regs.alloc()
            self._emit_symbol_address(expr.symbol, value.reg)
            return value, False
        if isinstance(expr, ast.Unary) and expr.op == "*":
            value = self._expr(expr.operand)
            return value, True
        if isinstance(expr, ast.Index):
            return self._addr_index(expr)
        if isinstance(expr, ast.Member):
            if expr.arrow:
                base = self._expr(expr.base)
                struct = expr.base.ctype.decay().target
                offset = struct.field(expr.name).offset
                if offset:
                    self.emit(f"ADD #{offset}, {base.reg}")
                return base, True
            base, needs_check = self._addr(expr.base)
            struct = expr.base.ctype
            offset = struct.field(expr.name).offset
            if offset:
                self.emit(f"ADD #{offset}, {base.reg}")
            return base, needs_check
        raise self._error(
            f"not an lvalue: {type(expr).__name__}", expr.line)

    def _addr_index(self, expr: ast.Index) -> Tuple[_Value, bool]:
        base_type = expr.base.ctype
        if isinstance(base_type, ArrayType):
            element = base_type.element
            base, _ = self._addr(expr.base)
            index = self._expr(expr.index)
            # Feature-Limited bounds check on the raw index.
            self.checks.array_index_check(self, index.reg,
                                          base_type.length)
            self._scale_by(index, element.size)
            self.emit(f"ADD {index.reg}, {base.reg}")
            self.regs.free(index)
            # The resulting address is app-controlled (dynamic index),
            # so the pointer-style models must check it too.
            return base, True
        element = base_type.decay().target
        base = self._expr(expr.base)
        index = self._expr(expr.index)
        self._scale_by(index, element.size)
        self.emit(f"ADD {index.reg}, {base.reg}")
        self.regs.free(index)
        return base, True

    def _scale_by(self, value: _Value, size: int) -> None:
        if size == 1:
            return
        if size == 2:
            self.emit(f"RLA {value.reg}")
            return
        if size & (size - 1) == 0:
            shift = size.bit_length() - 1
            for _ in range(shift):
                self.emit(f"RLA {value.reg}")
            return
        self._call_helper2("__mulhi", value, size)

    def _load_lvalue(self, expr: ast.Expr) -> _Value:
        address, needs_check = self._addr(expr)
        if isinstance(expr.ctype, (ArrayType, StructType)):
            return address      # decay to address
        if needs_check:
            self.checks.data_pointer_check(self, address.reg,
                                           is_write=False)
        suffix = ".B" if isinstance(expr.ctype, CharType) else ""
        self.emit(f"MOV{suffix} @{address.reg}, {address.reg}")
        return address

    # -- unary ------------------------------------------------------------------------
    def _expr_unary(self, expr: ast.Unary) -> _Value:
        op = expr.op
        if op == "*":
            if isinstance(expr.ctype, FunctionType):
                return self._expr(expr.operand)
            value = self._expr(expr.operand)
            self.checks.data_pointer_check(self, value.reg,
                                           is_write=False)
            suffix = ".B" if isinstance(expr.ctype, CharType) else ""
            self.emit(f"MOV{suffix} @{value.reg}, {value.reg}")
            return value
        if op == "&":
            inner = expr.operand
            if isinstance(inner, ast.Ident) and inner.symbol.is_function:
                return self._expr(inner)
            address, _check = self._addr(inner)
            return address
        if op == "-":
            value = self._expr(expr.operand)
            self.emit(f"INV {value.reg}")
            self.emit(f"INC {value.reg}")
            return value
        if op == "~":
            value = self._expr(expr.operand)
            self.emit(f"INV {value.reg}")
            return value
        if op == "!":
            value = self._expr(expr.operand)
            one = self._new_label("bnot1")
            done = self._new_label("bnotd")
            self.emit(f"TST {value.reg}")
            self.emit(f"JEQ {one}")
            self.emit(f"MOV #0, {value.reg}")
            self.emit(f"JMP {done}")
            self.emit_label(one)
            self.emit(f"MOV #1, {value.reg}")
            self.emit_label(done)
            return value
        if op in ("++", "--"):
            return self._expr_incdec(expr.operand, op, want_old=False,
                                     line=expr.line)
        raise self._error(f"bad unary {op}", expr.line)

    def _expr_incdec(self, target: ast.Expr, op: str, want_old: bool,
                     line: int) -> _Value:
        ctype = target.ctype
        step = ctype.target.size if ctype.is_pointer else 1
        mnemonic = "ADD" if op == "++" else "SUB"
        suffix = ".B" if isinstance(ctype, CharType) else ""

        # Fast path: direct scalar variable.
        if isinstance(target, ast.Ident) and not isinstance(
                target.ctype, (ArrayType, StructType)):
            operand = self._symbol_operand(target.symbol)
            result = self.regs.alloc()
            if want_old:
                self.emit(f"MOV{suffix} {operand}, {result.reg}")
                self.emit(f"{mnemonic}{suffix} #{step}, {operand}")
            else:
                self.emit(f"{mnemonic}{suffix} #{step}, {operand}")
                self.emit(f"MOV{suffix} {operand}, {result.reg}")
            return result

        address, needs_check = self._addr(target)
        if needs_check:
            self.checks.data_pointer_check(self, address.reg,
                                           is_write=True)
        result = self.regs.alloc()
        if want_old:
            self.emit(f"MOV{suffix} @{address.reg}, {result.reg}")
            self.emit(f"{mnemonic}{suffix} #{step}, 0({address.reg})")
        else:
            self.emit(f"{mnemonic}{suffix} #{step}, 0({address.reg})")
            self.emit(f"MOV{suffix} @{address.reg}, {result.reg}")
        # Keep LIFO discipline: result was allocated after address.
        self.emit(f"MOV {result.reg}, {address.reg}")
        self.regs.free(result)
        return address

    # -- binary -----------------------------------------------------------------------
    _SIMPLE_OPS = {"+": "ADD", "-": "SUB", "&": "AND", "|": "BIS",
                   "^": "XOR"}

    def _expr_binary(self, expr: ast.Binary) -> _Value:
        op = expr.op
        if op in ("&&", "||"):
            return self._materialize_condition(expr)
        if op in ("==", "!=", "<", ">", "<=", ">="):
            return self._materialize_condition(expr)

        left_type = expr.left.ctype.decay()
        right_type = expr.right.ctype.decay()

        # Pointer arithmetic.
        if op in ("+", "-") and (left_type.is_pointer
                                 or right_type.is_pointer):
            return self._pointer_arith(expr, left_type, right_type)

        left = self._expr(expr.left)
        if op in self._SIMPLE_OPS:
            const = _const_eval(expr.right)
            if const is not None:
                self.emit(f"{self._SIMPLE_OPS[op]} #{const & 0xFFFF}, "
                          f"{left.reg}")
                return left
            right = self._expr(expr.right)
            self.emit(f"{self._SIMPLE_OPS[op]} {right.reg}, {left.reg}")
            self.regs.free(right)
            return left
        if op == "*":
            const = _const_eval(expr.right)
            if const is not None and const and \
                    const & (const - 1) == 0:
                for _ in range(const.bit_length() - 1):
                    self.emit(f"RLA {left.reg}")
                return left
            right = self._expr(expr.right)
            return self._call_helper("__mulhi", left, right)
        signed = self._comparison_signed(expr)
        if op == "/":
            right = self._expr(expr.right)
            return self._call_helper("__divhi" if signed else "__udivhi",
                                     left, right)
        if op == "%":
            right = self._expr(expr.right)
            return self._call_helper("__remhi" if signed else "__uremhi",
                                     left, right)
        if op in ("<<", ">>"):
            const = _const_eval(expr.right)
            left_signed = (isinstance(expr.left.ctype.decay(), CharType)
                           or (isinstance(expr.left.ctype.decay(),
                                          IntType)
                               and expr.left.ctype.decay().signed))
            if const is not None and 0 <= (const & 15) <= 4:
                count = const & 15
                for _ in range(count):
                    if op == "<<":
                        self.emit(f"RLA {left.reg}")
                    elif left_signed:
                        self.emit(f"RRA {left.reg}")
                    else:
                        self.emit("CLRC")
                        self.emit(f"RRC {left.reg}")
                return left
            right = self._expr(expr.right)
            if op == "<<":
                helper = "__ashlhi"
            else:
                helper = "__ashrhi" if left_signed else "__lshrhi"
            return self._call_helper(helper, left, right)
        raise self._error(f"bad binary {op}", expr.line)

    def _pointer_arith(self, expr: ast.Binary, left_type: CType,
                       right_type: CType) -> _Value:
        op = expr.op
        if left_type.is_pointer and right_type.is_pointer:
            # pointer difference, scaled down
            left = self._expr(expr.left)
            right = self._expr(expr.right)
            self.emit(f"SUB {right.reg}, {left.reg}")
            self.regs.free(right)
            size = left_type.target.size
            if size == 2:
                self.emit(f"RRA {left.reg}")
            elif size != 1:
                return self._call_helper2("__divhi", left, size)
            return left
        if right_type.is_pointer:      # n + p
            pointer_expr, int_expr = expr.right, expr.left
            pointer_type = right_type
        else:
            pointer_expr, int_expr = expr.left, expr.right
            pointer_type = left_type
        pointer = self._expr(pointer_expr)
        index = self._expr(int_expr)
        self._scale_by(index, pointer_type.target.size)
        if op == "+":
            self.emit(f"ADD {index.reg}, {pointer.reg}")
        else:
            self.emit(f"SUB {index.reg}, {pointer.reg}")
        self.regs.free(index)
        return pointer

    def _materialize_condition(self, expr: ast.Expr) -> _Value:
        # Allocate the result *before* branching so any spill push runs
        # on both paths.
        value = self.regs.alloc()
        false_label = self._new_label("cfalse")
        done = self._new_label("cdone")
        self._condition(expr, false_label=false_label)
        self.emit(f"MOV #1, {value.reg}")
        self.emit(f"JMP {done}")
        self.emit_label(false_label)
        self.emit(f"MOV #0, {value.reg}")
        self.emit_label(done)
        return value

    def _expr_conditional(self, expr: ast.Conditional) -> _Value:
        result = self.regs.alloc()
        else_label = self._new_label("terne")
        done = self._new_label("ternd")
        self._condition(expr.cond, false_label=else_label)
        then_value = self._expr(expr.then)
        self.emit(f"MOV {then_value.reg}, {result.reg}")
        self.regs.free(then_value)
        self.emit(f"JMP {done}")
        self.emit_label(else_label)
        else_value = self._expr(expr.otherwise)
        self.emit(f"MOV {else_value.reg}, {result.reg}")
        self.regs.free(else_value)
        self.emit_label(done)
        return result

    # -- assignment --------------------------------------------------------------------
    def _expr_assign(self, expr: ast.Assign) -> _Value:
        target = expr.target
        ctype = target.ctype
        suffix = ".B" if isinstance(ctype, CharType) else ""

        # Fast path: direct scalar variable target.
        direct = (isinstance(target, ast.Ident)
                  and not isinstance(ctype, (ArrayType, StructType)))
        if direct:
            operand = self._symbol_operand(target.symbol)
            value = self._compute_assign_value(expr, load_current=(
                lambda v: self.emit(f"MOV{suffix} {operand}, {v}")))
            self.emit(f"MOV{suffix} {value.reg}, {operand}")
            return value

        if isinstance(ctype, StructType):
            raise self._error("struct assignment is not supported",
                              expr.line)

        value = self._expr(expr.value) if expr.op == "=" else None
        address, needs_check = self._addr(target)
        if needs_check:
            self.checks.data_pointer_check(self, address.reg,
                                           is_write=True)
        if expr.op == "=":
            # value was allocated before address: store, then free
            # address first (LIFO), leaving value as the result.
            self.emit(f"MOV{suffix} {value.reg}, 0({address.reg})")
            self.regs.free(address)
            return value
        # compound: load-current, apply, store
        current = self.regs.alloc()
        self.emit(f"MOV{suffix} @{address.reg}, {current.reg}")
        updated = self._apply_compound(expr, current)
        self.emit(f"MOV{suffix} {updated.reg}, 0({address.reg})")
        self.emit(f"MOV {updated.reg}, {address.reg}")
        self.regs.free(updated)
        return address

    def _compute_assign_value(self, expr: ast.Assign,
                              load_current) -> _Value:
        if expr.op == "=":
            return self._expr(expr.value)
        current = self.regs.alloc()
        load_current(current.reg)
        return self._apply_compound(expr, current)

    def _apply_compound(self, expr: ast.Assign,
                        current: _Value) -> _Value:
        """Apply ``current <op>= value``; returns the updated value
        (same pseudo-stack slot as ``current`` or a replacement)."""
        base_op = expr.op[:-1]
        target_type = expr.target.ctype
        if target_type.is_pointer and base_op in ("+", "-"):
            index = self._expr(expr.value)
            self._scale_by(index, target_type.target.size)
            mnemonic = "ADD" if base_op == "+" else "SUB"
            self.emit(f"{mnemonic} {index.reg}, {current.reg}")
            self.regs.free(index)
            return current
        synthetic = ast.Binary(
            line=expr.line, op=base_op,
            left=_Premade(current, expr.target.ctype),
            right=expr.value)
        synthetic.ctype = expr.target.ctype
        return self._expr_binary_premade(synthetic, current)

    def _expr_binary_premade(self, expr: ast.Binary,
                             left: _Value) -> _Value:
        """Like _expr_binary but the left operand is already in a
        register (used by compound assignment)."""
        op = expr.op
        if op in self._SIMPLE_OPS:
            right = self._expr(expr.right)
            self.emit(f"{self._SIMPLE_OPS[op]} {right.reg}, {left.reg}")
            self.regs.free(right)
            return left
        if op == "*":
            right = self._expr(expr.right)
            return self._call_helper("__mulhi", left, right)
        left_type = expr.left.ctype
        signed = not (isinstance(left_type, IntType)
                      and not left_type.signed)
        if op == "/":
            right = self._expr(expr.right)
            return self._call_helper("__divhi" if signed else "__udivhi",
                                     left, right)
        if op == "%":
            right = self._expr(expr.right)
            return self._call_helper("__remhi" if signed else "__uremhi",
                                     left, right)
        if op == "<<":
            right = self._expr(expr.right)
            return self._call_helper("__ashlhi", left, right)
        if op == ">>":
            right = self._expr(expr.right)
            return self._call_helper("__ashrhi" if signed
                                     else "__lshrhi", left, right)
        raise self._error(f"bad compound op {op}=", expr.line)

    # -- calls ----------------------------------------------------------------------------
    def _call_helper(self, helper: str, left: _Value,
                     right: _Value) -> _Value:
        """left OP right via a runtime helper (clobbers R12-R15 only)."""
        self.emit(f"MOV {left.reg}, R12")
        self.emit(f"MOV {right.reg}, R13")
        self.emit(f"CALL #{helper}")
        self.emit(f"MOV R12, {left.reg}")
        self.regs.free(right)
        return left

    def _call_helper2(self, helper: str, left: _Value,
                      constant: int) -> _Value:
        self.emit(f"MOV {left.reg}, R12")
        self.emit(f"MOV #{constant & 0xFFFF}, R13")
        self.emit(f"CALL #{helper}")
        self.emit(f"MOV R12, {left.reg}")
        return left

    def _expr_call(self, expr: ast.Call) -> _Value:
        # Who are we calling?
        direct_symbol: Optional[Symbol] = None
        if isinstance(expr.func, ast.Ident):
            symbol = expr.func.symbol
            if symbol.kind in (SymbolKind.FUNC, SymbolKind.API):
                direct_symbol = symbol

        stack_args = expr.args[len(_ARG_REGS):]
        if stack_args and any(v.spilled for v in self.regs.stack):
            # Stack-argument pushes would interleave with spill slots.
            raise self._error(
                "expression too complex: >4-argument call nested more "
                "than seven temporaries deep", expr.line)

        target: Optional[_Value] = None
        if direct_symbol is None:
            target = self._expr(expr.func)

        # Stack arguments (5th onward), pushed right-to-left.
        for arg in reversed(stack_args):
            value = self._expr(arg)
            self.emit(f"PUSH {value.reg}")
            self.regs.free(value)

        # Register arguments: evaluate left-to-right into temporaries,
        # then move into R12-R15 (so a later arg's evaluation cannot
        # clobber an earlier arg's register).
        reg_args = expr.args[:len(_ARG_REGS)]
        values = [self._expr(arg) for arg in reg_args]
        for value, arg_reg in zip(values, _ARG_REGS):
            self.emit(f"MOV {value.reg}, {arg_reg}")
        for value in reversed(values):
            self.regs.free(value)

        if direct_symbol is not None:
            if direct_symbol.kind is SymbolKind.API:
                self.emit(f"CALL #{direct_symbol.label}")
            else:
                label = self.gen.function_labels.get(
                    direct_symbol.name,
                    self.gen.mangle(direct_symbol.name))
                self.emit(f"CALL #{label}")
        else:
            self.checks.fn_pointer_check(self, target.reg)
            self.emit(f"CALL {target.reg}")

        if stack_args:
            self.emit(f"ADD #{2 * len(stack_args)}, SP")

        if target is not None:
            self.emit(f"MOV R12, {target.reg}")
            return target
        result = self.regs.alloc()
        self.emit(f"MOV R12, {result.reg}")
        return result


class _Premade(ast.Expr):
    """Wrapper marking an operand already materialized in a register."""

    def __init__(self, value: _Value, ctype: CType):
        super().__init__(line=0, ctype=ctype)
        self.value = value


class _CheckCapture:
    """A tiny emit-capture proxy so prologue/epilogue checks can be
    generated after the body (which determined frame facts)."""

    def __init__(self, emitter: _FunctionEmitter):
        self.emitter = emitter
        self.lines: List[str] = []
        self.function = emitter.function
        self.gen = emitter.gen

    def emit(self, text: str) -> None:
        self.lines.append(f"        {text}")

    def emit_label(self, label: str) -> None:
        self.lines.append(f"{label}:")

    def _new_label(self, hint: str = "L") -> str:
        return self.emitter._new_label(hint)


def compile_unit(source: str,
                 profile: LanguageProfile = FULL_C,
                 api: Optional[ApiTable] = None,
                 checks: Optional[CheckPolicy] = None,
                 label_prefix: str = "",
                 text_section: str = ".text",
                 data_section: str = ".data",
                 optimize: bool = False,
                 filename: str = "<minic>") -> CompiledUnit:
    """Compile MiniC source to MSP430 assembly text.

    ``optimize=True`` runs the AST optimizer (constant folding, branch
    pruning — see :mod:`repro.cc.optimize`) before semantic analysis,
    so all later bookkeeping reflects the simplified program."""
    unit = parse(source, filename)
    if optimize:
        from repro.cc.optimize import optimize_unit
        unit = optimize_unit(unit)
    sema = analyze(unit, profile, api, filename)
    generator = CodeGenerator(checks, text_section, data_section,
                              label_prefix)
    return generator.generate(sema)
