"""AST node types for the mini scripting language."""

from __future__ import annotations

from dataclasses import dataclass, field


class Node:
    """Base class; every node knows its source line for error messages."""

    line: int = 0


@dataclass
class Literal(Node):
    value: object
    line: int = 0


@dataclass
class Name(Node):
    identifier: str
    line: int = 0


@dataclass
class Unary(Node):
    operator: str
    operand: Node
    line: int = 0


@dataclass
class Binary(Node):
    operator: str
    left: Node
    right: Node
    line: int = 0


@dataclass
class Index(Node):
    subject: Node
    index: Node
    line: int = 0


@dataclass
class Call(Node):
    callee: str
    arguments: list[Node] = field(default_factory=list)
    line: int = 0


@dataclass
class VarDecl(Node):
    name: str
    initializer: Node | None = None
    line: int = 0


@dataclass
class Assign(Node):
    name: str
    value: Node
    line: int = 0


@dataclass
class If(Node):
    condition: Node
    then_body: list[Node] = field(default_factory=list)
    else_body: list[Node] = field(default_factory=list)
    line: int = 0


@dataclass
class While(Node):
    condition: Node
    body: list[Node] = field(default_factory=list)
    line: int = 0


@dataclass
class FuncDecl(Node):
    name: str
    parameters: list[str] = field(default_factory=list)
    body: list[Node] = field(default_factory=list)
    line: int = 0
    #: Stack levels a call pushes: the deepest nesting of the body, set
    #: by the parser (see :data:`~repro.runtimes.script.interp
    #: .MAX_STACK_DEPTH`).
    frame: int = 0


@dataclass
class Return(Node):
    value: Node | None = None
    line: int = 0


@dataclass
class ExprStatement(Node):
    expression: Node = None  # type: ignore[assignment]
    line: int = 0


@dataclass
class Script(Node):
    """A whole program: a statement list."""

    body: list[Node] = field(default_factory=list)
    #: Token count, kept for the startup (parse) cost model.
    token_count: int = 0
    source_bytes: int = 0
    #: Stack levels the top level takes: the deepest nesting of the body.
    frame: int = 0
