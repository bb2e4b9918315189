"""Execution engine of the mini-wasm VM.

A classic structured-control stack machine: operand stack, locals frame,
label stack, one linear memory with bounds-checked accesses (out-of-bounds
traps, it never touches host state).  Like the eBPF interpreter, it counts
what it executes per cost class, through a
:class:`~repro.runtimes.base.RunMeter`; the §6 comparison translates the
counts through a WASM3-like cycle model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.runtimes.base import RunMeter
from repro.runtimes.wasm import isa
from repro.runtimes.wasm.module import Function, Module, PAGE_SIZE, WasmError
from repro.runtimes.wasm.validator import validate

_M32 = (1 << 32) - 1


class WasmTrap(Exception):
    """Runtime trap: the instance aborts, the host survives."""


@dataclass
class _Control:
    """Pre-resolved structure of one function's control flow."""

    end_of: dict[int, int]
    else_of: dict[int, int]


def _resolve_control(function: Function) -> _Control:
    end_of: dict[int, int] = {}
    else_of: dict[int, int] = {}
    stack: list[int] = []
    for position, (opcode, _imm) in enumerate(function.body):
        if opcode in (isa.BLOCK, isa.LOOP, isa.IF):
            stack.append(position)
        elif opcode == isa.ELSE:
            if not stack:
                raise WasmError(f"{function.name}: dangling else")
            else_of[stack[-1]] = position
        elif opcode == isa.END:
            if not stack:
                raise WasmError(f"{function.name}: dangling end")
            opener = stack.pop()
            end_of[opener] = position
    if stack:
        raise WasmError(f"{function.name}: unclosed control structure")
    return _Control(end_of=end_of, else_of=else_of)


def prepare(module: Module) -> tuple[_Control, ...]:
    """Validate ``module`` and resolve its control flow: the per-module
    half of instantiation.  Raises :class:`WasmError` on an invalid
    module."""
    validate(module)
    return tuple(_resolve_control(fn) for fn in module.functions)


class WasmInstance:
    """One instantiated module with its linear memory."""

    #: Interpreter state beyond linear memory (operand stack, frames,
    #: parsed-code image), modelled after WASM3's instance overhead.
    INTERPRETER_STATE_BYTES = 21_800

    def __init__(self, module: Module, max_call_depth: int = 64,
                 control: tuple[_Control, ...] | None = None):
        """``control`` is :func:`prepare`'s result for ``module``, which
        instances of one module share; without it the module is
        prepared (validated) here."""
        self.module = module
        self.memory = bytearray(module.memory_pages * PAGE_SIZE)
        self.max_call_depth = max_call_depth
        self._control = control if control is not None else prepare(module)
        #: The counts of every run given no meter of its own (no budget).
        self.stats = RunMeter()

    # -- memory (bounds-checked) -------------------------------------------

    @property
    def ram_bytes(self) -> int:
        """RAM footprint: linear memory (>= one 64 KiB page) + state."""
        return len(self.memory) + self.INTERPRETER_STATE_BYTES

    def write_memory(self, addr: int, data: bytes) -> None:
        if addr < 0 or addr + len(data) > len(self.memory):
            raise WasmTrap(f"host write of {len(data)} B at {addr} OOB")
        self.memory[addr : addr + len(data)] = data

    def _load(self, addr: int, size: int) -> int:
        if addr < 0 or addr + size > len(self.memory):
            raise WasmTrap(f"load of {size} B at {addr} out of bounds")
        return int.from_bytes(self.memory[addr : addr + size], "little")

    def _store(self, addr: int, size: int, value: int) -> None:
        if addr < 0 or addr + size > len(self.memory):
            raise WasmTrap(f"store of {size} B at {addr} out of bounds")
        self.memory[addr : addr + size] = (value & ((1 << (8 * size)) - 1)) \
            .to_bytes(size, "little")

    # -- execution ---------------------------------------------------------------

    def run(self, args: list[int] | None = None,
            function: int | None = None,
            meter: RunMeter | None = None) -> int:
        """Execute the start (or given) function, counting through
        ``meter`` (default: ``stats``); returns its i32 result."""
        index = self.module.start if function is None else function
        count = (self.stats if meter is None else meter).count
        return self._call(index, [a & _M32 for a in (args or [])], 0, count)

    def _call(self, index: int, args: list[int], depth: int,
              count: Callable[[str], None]) -> int:
        if depth > self.max_call_depth:
            raise WasmTrap("call stack exhausted")
        function = self.module.functions[index]
        control = self._control[index]
        if len(args) != function.n_params:
            raise WasmTrap(
                f"{function.name} expects {function.n_params} args, "
                f"got {len(args)}"
            )
        locals_ = args + [0] * function.n_locals
        stack: list[int] = []
        labels: list[tuple[int, int]] = []  # (target_pc, label_stack_size)
        body = function.body
        pc = 0

        while pc < len(body):
            opcode, immediate = body[pc]
            count(isa.COST_CLASS[opcode])

            if opcode == isa.I32_CONST:
                stack.append(immediate & _M32)
            elif opcode == isa.LOCAL_GET:
                stack.append(locals_[immediate])
            elif opcode == isa.LOCAL_SET:
                locals_[immediate] = stack.pop()
            elif opcode == isa.LOCAL_TEE:
                locals_[immediate] = stack[-1]
            elif opcode in _BINOPS:
                rhs = stack.pop()
                lhs = stack.pop()
                stack.append(_BINOPS[opcode](lhs, rhs))
            elif opcode == isa.I32_EQZ:
                stack.append(1 if stack.pop() == 0 else 0)
            elif opcode in _LOADS:
                addr = stack.pop() + immediate
                stack.append(self._load(addr, _LOADS[opcode]))
            elif opcode in _STORES:
                value = stack.pop()
                addr = stack.pop() + immediate
                self._store(addr, _STORES[opcode], value)
            elif opcode == isa.BLOCK:
                labels.append((control.end_of[pc] + 1, len(stack)))
            elif opcode == isa.LOOP:
                labels.append((pc + 1, len(stack)))
            elif opcode == isa.IF:
                condition = stack.pop()
                labels.append((control.end_of[pc] + 1, len(stack)))
                if not condition:
                    else_pos = control.else_of.get(pc)
                    # Jump into the else branch, or to the END itself (which
                    # then pops the label) when there is no else.
                    pc = else_pos if else_pos is not None \
                        else control.end_of[pc] - 1
            elif opcode == isa.ELSE:
                # Reached from the then-branch: skip to the matching end.
                pc = _find_end_from_else(control, pc)
                labels.pop()
            elif opcode == isa.END:
                if labels:
                    labels.pop()
            elif opcode in (isa.BR, isa.BR_IF):
                take = True
                if opcode == isa.BR_IF:
                    take = bool(stack.pop())
                if take:
                    target, _height = labels[-(immediate + 1)]
                    del labels[len(labels) - immediate - 1 :]
                    pc = target - 1
                    # Branching back to a loop re-enters it: re-push its label.
                    if target > 0 and body[target - 1][0] == isa.LOOP:
                        labels.append((target, len(stack)))
            elif opcode == isa.RETURN:
                return stack.pop() if stack else 0
            elif opcode == isa.CALL:
                callee = self.module.functions[immediate]
                call_args = [stack.pop() for _ in range(callee.n_params)]
                call_args.reverse()
                stack.append(self._call(immediate, call_args, depth + 1,
                                        count))
            elif opcode == isa.DROP:
                stack.pop()
            elif opcode == isa.NOP:
                pass
            elif opcode == isa.UNREACHABLE:
                raise WasmTrap("unreachable executed")
            else:  # pragma: no cover - validator excludes
                raise WasmTrap(f"unhandled opcode 0x{opcode:02x}")
            pc += 1
        return stack.pop() if stack else 0


def _find_end_from_else(control: _Control, else_pc: int) -> int:
    for opener, else_pos in control.else_of.items():
        if else_pos == else_pc:
            return control.end_of[opener]
    raise WasmTrap("else without matching if")


def _div_u(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise WasmTrap("integer divide by zero")
    return lhs // rhs


def _rem_u(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise WasmTrap("integer remainder by zero")
    return lhs % rhs


_BINOPS = {
    isa.I32_ADD: lambda a, b: (a + b) & _M32,
    isa.I32_SUB: lambda a, b: (a - b) & _M32,
    isa.I32_MUL: lambda a, b: (a * b) & _M32,
    isa.I32_DIV_U: _div_u,
    isa.I32_REM_U: _rem_u,
    isa.I32_AND: lambda a, b: a & b,
    isa.I32_OR: lambda a, b: a | b,
    isa.I32_XOR: lambda a, b: a ^ b,
    isa.I32_SHL: lambda a, b: (a << (b & 31)) & _M32,
    isa.I32_SHR_U: lambda a, b: a >> (b & 31),
    isa.I32_EQ: lambda a, b: 1 if a == b else 0,
    isa.I32_NE: lambda a, b: 1 if a != b else 0,
    isa.I32_LT_U: lambda a, b: 1 if a < b else 0,
    isa.I32_GT_U: lambda a, b: 1 if a > b else 0,
    isa.I32_LE_U: lambda a, b: 1 if a <= b else 0,
    isa.I32_GE_U: lambda a, b: 1 if a >= b else 0,
}

_LOADS = {isa.I32_LOAD: 4, isa.I32_LOAD8_U: 1, isa.I32_LOAD16_U: 2}
_STORES = {isa.I32_STORE: 4, isa.I32_STORE8: 1, isa.I32_STORE16: 2}
