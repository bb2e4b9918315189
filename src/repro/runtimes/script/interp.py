"""Tree-walking evaluator for the mini scripting language.

Counts node visits per class through a
:class:`~repro.runtimes.base.RunMeter`, which the §6 profiles translate
into cycles — startup cost comes from the real tokenizer/parser (per
token), run cost from the real tree walk.  Each ``if``, each loop test,
each short-circuit ``&&`` and ``||`` and each ``return`` is one control
count of the meter's N_b budget.

Calls are bounded by a modelled stack of :data:`MAX_STACK_DEPTH`
levels, not by the host's: a run pushes the top level's frame and each
call its function's (the deepest nesting of the body, from the parser,
plus one for the call), and a call that would overflow the stack faults
"call stack exhausted".  So a runaway recursion faults at the same
count whoever calls the interpreter, and since the parser refuses
sources nested past its own bound, the evaluator's host recursion stays
a few hundred frames deep at most.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtimes.base import RunMeter
from repro.runtimes.script import nodes
from repro.runtimes.script.parser import parse

_M64 = (1 << 64) - 1

#: The interpreter's stack, in nesting levels: what the frames of every
#: active call (and of the top level) may take together.
MAX_STACK_DEPTH = 192


class ScriptRuntimeError(Exception):
    """Raised for type errors, unknown names, division by zero..."""


class _ReturnSignal(Exception):
    def __init__(self, value: object):
        self.value = value


@dataclass
class _Function:
    declaration: nodes.FuncDecl


def _len(node: nodes.Call, arguments: list[object]) -> int:
    if len(arguments) != 1:
        raise ScriptRuntimeError(f"line {node.line}: len expects 1 arg")
    value = arguments[0]
    if not isinstance(value, (bytes, bytearray, str)):
        raise ScriptRuntimeError(
            f"line {node.line}: len of {type(value).__name__}")
    return len(value)


#: The functions every script can call that it did not declare, by
#: name.  Each takes the call node and its evaluated arguments, and
#: checks their number and types itself: a bad call is a
#: :class:`ScriptRuntimeError`, never a host exception.
BUILTINS = {"len": _len}


class Interpreter:
    """One script execution context with a global environment."""

    def __init__(self, script: nodes.Script,
                 builtins: dict[str, object] | None = None,
                 meter: RunMeter | None = None):
        """Counts through ``meter``; without one, through a meter with
        no budget."""
        self.script = script
        self.globals: dict[str, object] = dict(builtins or {})
        self.stats = RunMeter() if meter is None else meter
        #: Stack levels the active frames take.
        self.depth = 0

    @classmethod
    def from_source(cls, source: str,
                    builtins: dict[str, object] | None = None,
                    meter: RunMeter | None = None) -> "Interpreter":
        return cls(parse(source), builtins, meter)

    # -- public -----------------------------------------------------------

    def run(self) -> object:
        """Execute the top-level statement list; `return` yields a value.
        A top level or call that overflows the modelled stack is a
        runtime error."""
        self._push(self.script.frame)
        try:
            self._exec_block(self.script.body, self.globals)
        except _ReturnSignal as signal:
            return signal.value
        finally:
            self.depth -= self.script.frame
        return None

    def _push(self, frame: int) -> None:
        depth = self.depth + frame
        if depth > MAX_STACK_DEPTH:
            raise ScriptRuntimeError("call stack exhausted")
        self.depth = depth

    # -- statements -----------------------------------------------------------

    def _exec_block(self, body: list[nodes.Node],
                    env: dict[str, object]) -> None:
        for statement in body:
            self._exec(statement, env)

    def _exec(self, node: nodes.Node, env: dict[str, object]) -> None:
        if isinstance(node, nodes.VarDecl):
            self.stats.count("assign")
            env[node.name] = (
                self._eval(node.initializer, env)
                if node.initializer is not None else None
            )
        elif isinstance(node, nodes.Assign):
            self.stats.count("assign")
            value = self._eval(node.value, env)
            scope = self._scope_of(node.name, env)
            scope[node.name] = value
        elif isinstance(node, nodes.If):
            self.stats.count("control")
            if self._truthy(self._eval(node.condition, env)):
                self._exec_block(node.then_body, env)
            else:
                self._exec_block(node.else_body, env)
        elif isinstance(node, nodes.While):
            while True:
                self.stats.count("control")
                if not self._truthy(self._eval(node.condition, env)):
                    break
                self._exec_block(node.body, env)
        elif isinstance(node, nodes.FuncDecl):
            self.stats.count("assign")
            env[node.name] = _Function(node)
        elif isinstance(node, nodes.Return):
            self.stats.count("control")
            value = (
                self._eval(node.value, env) if node.value is not None else None
            )
            raise _ReturnSignal(value)
        elif isinstance(node, nodes.ExprStatement):
            self._eval(node.expression, env)
        else:
            raise ScriptRuntimeError(
                f"line {node.line}: cannot execute {type(node).__name__}"
            )

    def _scope_of(self, name: str, env: dict[str, object]) -> dict[str, object]:
        if name in env:
            return env
        if name in self.globals:
            return self.globals
        raise ScriptRuntimeError(f"assignment to undeclared name {name!r}")

    # -- expressions ------------------------------------------------------------

    def _eval(self, node: nodes.Node, env: dict[str, object]) -> object:
        if isinstance(node, nodes.Literal):
            self.stats.count("literal")
            return node.value
        if isinstance(node, nodes.Name):
            self.stats.count("name")
            if node.identifier in env:
                return env[node.identifier]
            if node.identifier in self.globals:
                return self.globals[node.identifier]
            raise ScriptRuntimeError(
                f"line {node.line}: unknown name {node.identifier!r}"
            )
        if isinstance(node, nodes.Unary):
            self.stats.count("binop")
            operand = self._eval(node.operand, env)
            if node.operator == "-":
                return -self._int(operand, node)
            return not self._truthy(operand)
        if isinstance(node, nodes.Binary):
            return self._binary(node, env)
        if isinstance(node, nodes.Index):
            self.stats.count("index")
            subject = self._eval(node.subject, env)
            index = self._int(self._eval(node.index, env), node)
            if isinstance(subject, (bytes, bytearray)):
                if not 0 <= index < len(subject):
                    raise ScriptRuntimeError(
                        f"line {node.line}: index {index} out of range"
                    )
                return subject[index]
            if isinstance(subject, str):
                return subject[index]
            raise ScriptRuntimeError(
                f"line {node.line}: {type(subject).__name__} not indexable"
            )
        if isinstance(node, nodes.Call):
            self.stats.count("call")
            return self._call(node, env)
        raise ScriptRuntimeError(
            f"line {node.line}: cannot evaluate {type(node).__name__}"
        )

    def _binary(self, node: nodes.Binary, env: dict[str, object]) -> object:
        operator = node.operator
        if operator == "&&":
            self.stats.count("control")
            return (
                self._truthy(self._eval(node.left, env))
                and self._truthy(self._eval(node.right, env))
            )
        if operator == "||":
            self.stats.count("control")
            return (
                self._truthy(self._eval(node.left, env))
                or self._truthy(self._eval(node.right, env))
            )
        self.stats.count("binop")
        left = self._eval(node.left, env)
        right = self._eval(node.right, env)
        if operator == "==":
            return left == right
        if operator == "!=":
            return left != right
        if operator == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        lhs, rhs = self._int(left, node), self._int(right, node)
        if operator == "+":
            return lhs + rhs
        if operator == "-":
            return lhs - rhs
        if operator == "*":
            return lhs * rhs
        if operator in ("/", "%"):
            if rhs == 0:
                raise ScriptRuntimeError(
                    f"line {node.line}: division by zero"
                )
            return lhs // rhs if operator == "/" else lhs % rhs
        if operator == "<<":
            return (lhs << (rhs & 63)) & _M64
        if operator == ">>":
            return lhs >> (rhs & 63)
        if operator == "&":
            return lhs & rhs
        if operator == "|":
            return lhs | rhs
        if operator == "^":
            return lhs ^ rhs
        if operator == "<":
            return lhs < rhs
        if operator == ">":
            return lhs > rhs
        if operator == "<=":
            return lhs <= rhs
        if operator == ">=":
            return lhs >= rhs
        raise ScriptRuntimeError(
            f"line {node.line}: unknown operator {operator!r}"
        )

    def _call(self, node: nodes.Call, env: dict[str, object]) -> object:
        arguments = [self._eval(arg, env) for arg in node.arguments]
        target = env.get(node.callee, self.globals.get(node.callee))
        if isinstance(target, _Function):
            declaration = target.declaration
            if len(arguments) != len(declaration.parameters):
                raise ScriptRuntimeError(
                    f"line {node.line}: {node.callee} expects "
                    f"{len(declaration.parameters)} args"
                )
            frame = declaration.frame + 1
            self._push(frame)
            try:
                self._exec_block(declaration.body,
                                 dict(zip(declaration.parameters, arguments)))
            except _ReturnSignal as signal:
                return signal.value
            finally:
                self.depth -= frame
            return None
        builtin = BUILTINS.get(node.callee)
        if builtin is not None:
            return builtin(node, arguments)
        raise ScriptRuntimeError(
            f"line {node.line}: unknown function {node.callee!r}"
        )

    # -- helpers -------------------------------------------------------------------

    @staticmethod
    def _truthy(value: object) -> bool:
        return bool(value)

    def _int(self, value: object, node: nodes.Node) -> int:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        raise ScriptRuntimeError(
            f"line {node.line}: expected integer, got {type(value).__name__}"
        )


def run_source(source: str,
               builtins: dict[str, object] | None = None) -> tuple[object, RunMeter]:
    """Parse and execute; returns (result, its unbudgeted meter)."""
    interpreter = Interpreter.from_source(source, builtins)
    result = interpreter.run()
    return result, interpreter.stats
