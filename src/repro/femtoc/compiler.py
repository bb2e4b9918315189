"""femtoC — a tiny compiler from the script language to eBPF bytecode.

The paper's containers are written in C and compiled with LLVM's eBPF
backend; this module provides the equivalent authoring experience for the
reproduction: the same source language the script runtimes interpret
(§ ``repro.runtimes.script``) compiles down to verifier-clean eBPF that
runs in a Femto-Container at eBPF speed.

Supported subset:

* ``var`` declarations, assignments, integer arithmetic/bit operations,
  comparisons (unsigned), ``!``/unary ``-``, short-circuit ``&&``/``||``;
* ``if``/``else``, ``while``, ``return``;
* intrinsic calls lowering to bpf helpers (``fetch_global``, ``saul_read``,
  ``now_ms``... see :mod:`repro.femtoc.intrinsics`) plus ``ctx_u8/16/32/64``
  context accessors and ``trace(v)`` (bpf_printf with a rodata format);
* no user-defined functions, strings or heap — exactly the restrictions
  the eBPF target imposes on real Femto-Container C code.

Lowering model: every variable lives in an 8-byte stack slot addressed
off r10; expressions evaluate on a small register stack (r6..r9, the
registers our helpers never clobber); the context pointer is spilled to a
reserved slot in the prologue so it survives helper calls.  Lowering emits
assembler text (``mov r6, 42``, ``jeq r6, 0, else_3``, ``else_3:``) and
:func:`repro.vm.asm.assemble` encodes it and resolves the labels.
"""

from __future__ import annotations

import itertools

from repro.femtoc.errors import CompileError
from repro.femtoc.intrinsics import CTX_ACCESSORS, INTRINSICS
from repro.runtimes.script import nodes
from repro.runtimes.script.parser import parse
from repro.vm import helpers as h
from repro.vm.asm import assemble
from repro.vm.program import Program

#: Expression evaluation registers (helpers never clobber r6..r9).
_EXPR_REGS = (6, 7, 8, 9)

#: Stack layout: [0..7] saved ctx pointer, [8..15] helper scratch,
#: variables from byte 16 upward.
_CTX_SLOT = 0
_SCRATCH_SLOT = 8
_VARS_BASE = 16

_CMP_OPS = {
    "==": "jeq", "!=": "jne", "<": "jlt", ">": "jgt",
    "<=": "jle", ">=": "jge",
}
_ALU_OPS = {
    "+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
    "&": "and", "|": "or", "^": "xor", "<<": "lsh", ">>": "rsh",
}

_TRACE_FORMAT = b"trace: %d\x00"


class Compiler:
    """One compilation unit (the top-level statement list)."""

    def __init__(self, script: nodes.Script, name: str = "femtoc",
                 stack_size: int = 512):
        self.script = script
        self.name = name
        self.lines: list[str] = []
        self.slots: dict[str, int] = {}
        self.stack_size = stack_size
        self._labels = itertools.count()
        self._free_regs = list(_EXPR_REGS)

    # -- register stack ----------------------------------------------------

    def _acquire(self, line: int) -> int:
        if not self._free_regs:
            raise CompileError(
                "expression too deeply nested for the register allocator "
                "(split it with intermediate variables)", line)
        return self._free_regs.pop(0)

    def _release(self, reg: int) -> None:
        self._free_regs.insert(0, reg)

    def _label(self, stem: str) -> str:
        return f"{stem}_{next(self._labels)}"

    # -- variables ----------------------------------------------------------

    def _slot_of(self, name: str, line: int, declare: bool = False) -> int:
        if declare:
            if name in self.slots:
                raise CompileError(f"variable {name!r} already declared", line)
            offset = _VARS_BASE + 8 * len(self.slots)
            if offset + 8 > self.stack_size:
                raise CompileError(
                    f"too many variables for the {self.stack_size} B stack",
                    line)
            self.slots[name] = offset
            return offset
        if name not in self.slots:
            raise CompileError(f"unknown variable {name!r}", line)
        return self.slots[name]

    # -- compilation --------------------------------------------------------

    def compile(self) -> Program:
        emit = self.lines.append
        # Prologue: spill the context pointer so helper calls can't eat it.
        emit(f"stxdw [r10+{_CTX_SLOT}], r1")
        for statement in self.script.body:
            self._statement(statement)
        # Implicit `return 0` when control reaches the end.
        emit("mov r0, 0")
        emit("exit")
        return assemble("\n".join(self.lines), rodata=_TRACE_FORMAT,
                        name=self.name)

    def _statement(self, node: nodes.Node) -> None:
        emit = self.lines.append
        if isinstance(node, nodes.VarDecl):
            offset = self._slot_of(node.name, node.line, declare=True)
            reg = self._expression(
                node.initializer
                if node.initializer is not None
                else nodes.Literal(value=0, line=node.line)
            )
            emit(f"stxdw [r10+{offset}], r{reg}")
            self._release(reg)
        elif isinstance(node, nodes.Assign):
            offset = self._slot_of(node.name, node.line)
            reg = self._expression(node.value)
            emit(f"stxdw [r10+{offset}], r{reg}")
            self._release(reg)
        elif isinstance(node, nodes.Return):
            if node.value is not None:
                reg = self._expression(node.value)
                emit(f"mov r0, r{reg}")
                self._release(reg)
            else:
                emit("mov r0, 0")
            emit("exit")
        elif isinstance(node, nodes.If):
            self._if(node)
        elif isinstance(node, nodes.While):
            self._while(node)
        elif isinstance(node, nodes.ExprStatement):
            reg = self._expression(node.expression)
            self._release(reg)
        elif isinstance(node, nodes.FuncDecl):
            raise CompileError(
                "user-defined functions are not supported by the eBPF "
                "target (inline the logic)", node.line)
        else:
            raise CompileError(
                f"cannot compile {type(node).__name__}", node.line)

    def _if(self, node: nodes.If) -> None:
        emit = self.lines.append
        else_label = self._label("else")
        end_label = self._label("endif")
        cond = self._expression(node.condition)
        emit(f"jeq r{cond}, 0, {else_label}")
        self._release(cond)
        for statement in node.then_body:
            self._statement(statement)
        emit(f"ja {end_label}")
        emit(f"{else_label}:")
        for statement in node.else_body:
            self._statement(statement)
        emit(f"{end_label}:")

    def _while(self, node: nodes.While) -> None:
        emit = self.lines.append
        head = self._label("while")
        end = self._label("endwhile")
        emit(f"{head}:")
        cond = self._expression(node.condition)
        emit(f"jeq r{cond}, 0, {end}")
        self._release(cond)
        for statement in node.body:
            self._statement(statement)
        emit(f"ja {head}")
        emit(f"{end}:")

    # -- expressions --------------------------------------------------------------

    def _expression(self, node: nodes.Node) -> int:
        """Lower an expression; returns the register holding the value."""
        emit = self.lines.append
        if isinstance(node, nodes.Literal):
            reg = self._acquire(node.line)
            value = node.value
            if isinstance(value, bool):
                value = int(value)
            if not isinstance(value, int):
                raise CompileError(
                    "only integer literals compile to eBPF, got "
                    f"{type(node.value).__name__}", node.line)
            if -(1 << 31) <= value < (1 << 31):
                emit(f"mov r{reg}, {value}")
            else:
                emit(f"lddw r{reg}, {value & ((1 << 64) - 1)}")
            return reg
        if isinstance(node, nodes.Name):
            offset = self._slot_of(node.identifier, node.line)
            reg = self._acquire(node.line)
            emit(f"ldxdw r{reg}, [r10+{offset}]")
            return reg
        if isinstance(node, nodes.Unary):
            return self._unary(node)
        if isinstance(node, nodes.Binary):
            return self._binary(node)
        if isinstance(node, nodes.Call):
            return self._call(node)
        if isinstance(node, nodes.Index):
            raise CompileError(
                "indexing compiles only through ctx_u8/16/32/64 accessors",
                node.line)
        raise CompileError(
            f"cannot compile expression {type(node).__name__}", node.line)

    def _unary(self, node: nodes.Unary) -> int:
        emit = self.lines.append
        reg = self._expression(node.operand)
        if node.operator == "-":
            emit(f"neg r{reg}")
        else:  # '!'
            true_label = self._label("not")
            end = self._label("endnot")
            emit(f"jeq r{reg}, 0, {true_label}")
            emit(f"mov r{reg}, 0")
            emit(f"ja {end}")
            emit(f"{true_label}:")
            emit(f"mov r{reg}, 1")
            emit(f"{end}:")
        return reg

    def _binary(self, node: nodes.Binary) -> int:
        emit = self.lines.append
        operator = node.operator
        if operator in ("&&", "||"):
            return self._logical(node)
        left = self._expression(node.left)
        right = self._expression(node.right)
        if operator in _ALU_OPS:
            emit(f"{_ALU_OPS[operator]} r{left}, r{right}")
            self._release(right)
            return left
        if operator in _CMP_OPS:
            true_label = self._label("cmp")
            end = self._label("endcmp")
            emit(f"{_CMP_OPS[operator]} r{left}, r{right}, {true_label}")
            emit(f"mov r{left}, 0")
            emit(f"ja {end}")
            emit(f"{true_label}:")
            emit(f"mov r{left}, 1")
            emit(f"{end}:")
            self._release(right)
            return left
        raise CompileError(f"operator {operator!r} not supported", node.line)

    def _logical(self, node: nodes.Binary) -> int:
        """Short-circuit &&/|| producing 0/1."""
        emit = self.lines.append
        result = self._expression(node.left)
        short = self._label("short")
        end = self._label("endlogic")
        if node.operator == "&&":
            emit(f"jeq r{result}, 0, {short}")
        else:
            emit(f"jne r{result}, 0, {short}")
        self._release(result)
        right = self._expression(node.right)
        if right != result:  # keep the value in one register
            emit(f"mov r{result}, r{right}")
            self._release(right)
            self._free_regs.remove(result)
        # Normalize the surviving operand to 0/1.
        norm_true = self._label("norm")
        emit(f"jne r{result}, 0, {norm_true}")
        emit(f"mov r{result}, 0")
        emit(f"ja {end}")
        emit(f"{norm_true}:")
        emit(f"mov r{result}, 1")
        emit(f"ja {end}")
        emit(f"{short}:")
        emit(f"mov r{result}, {0 if node.operator == '&&' else 1}")
        emit(f"{end}:")
        return result

    # -- calls -------------------------------------------------------------------------

    def _call(self, node: nodes.Call) -> int:
        emit = self.lines.append
        name = node.callee

        if name in CTX_ACCESSORS:
            if len(node.arguments) != 1:
                raise CompileError(f"{name} takes one offset", node.line)
            offset_node = node.arguments[0]
            load = CTX_ACCESSORS[name]
            if isinstance(offset_node, nodes.Literal) \
                    and isinstance(offset_node.value, int) \
                    and 0 <= offset_node.value < (1 << 15):
                # Constant offset: single load off the reloaded pointer.
                reg = self._acquire(node.line)
                emit(f"ldxdw r{reg}, [r10+{_CTX_SLOT}]")
                emit(f"{load} r{reg}, [r{reg}+{offset_node.value}]")
                return reg
            # Computed offset: pointer arithmetic, checked at runtime by
            # the access list like any other memory access.
            offset = self._expression(offset_node)
            base = self._acquire(node.line)
            emit(f"ldxdw r{base}, [r10+{_CTX_SLOT}]")
            emit(f"add r{base}, r{offset}")
            self._release(offset)
            emit(f"{load} r{base}, [r{base}+0]")
            return base

        if name == "trace":
            if len(node.arguments) != 1:
                raise CompileError("trace takes one value", node.line)
            value = self._expression(node.arguments[0])
            emit("lddwr r1, 0")                  # "trace: %d"
            emit(f"mov r2, r{value}")
            emit(f"call {h.BPF_PRINTF}")
            result = self._acquire(node.line)
            emit(f"mov r{result}, r{value}")
            self._release(value)
            return result

        intrinsic = INTRINSICS.get(name)
        if intrinsic is None:
            raise CompileError(f"unknown function {name!r} (user functions "
                               "are not compilable)", node.line)
        if len(node.arguments) != intrinsic.arg_count:
            raise CompileError(
                f"{name} expects {intrinsic.arg_count} argument(s)",
                node.line)
        arg_regs = [self._expression(arg) for arg in node.arguments]
        if intrinsic.form == "fetch":
            emit(f"mov r1, r{arg_regs[0]}")
            emit("mov r2, r10")
            emit(f"add r2, {_SCRATCH_SLOT}")
            emit(f"call {intrinsic.helper_id}")
            result = arg_regs[0]
            emit(f"ldxw r{result}, [r10+{_SCRATCH_SLOT}]")
            return result
        if intrinsic.form == "saul":
            emit(f"mov r1, r{arg_regs[0]}")
            emit("mov r2, r10")
            emit(f"add r2, {_SCRATCH_SLOT}")
            emit(f"call {intrinsic.helper_id}")
            result = arg_regs[0]
            emit(f"ldxh r{result}, [r10+{_SCRATCH_SLOT}]")  # phydat val[0]
            return result
        for index, reg in enumerate(arg_regs, start=1):
            emit(f"mov r{index}, r{reg}")
        for reg in arg_regs[1:]:
            self._release(reg)
        emit(f"call {intrinsic.helper_id}")
        result = arg_regs[0] if arg_regs else self._acquire(node.line)
        emit(f"mov r{result}, r0")
        return result


def compile_source(source: str, name: str = "femtoc",
                   stack_size: int = 512) -> Program:
    """Compile femtoC source text into a verifier-ready eBPF program."""
    return Compiler(parse(source), name=name, stack_size=stack_size).compile()
