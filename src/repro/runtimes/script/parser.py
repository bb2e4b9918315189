"""Recursive-descent / Pratt parser for the mini scripting language.

The parser recurses once per nesting level of the source (parentheses,
operands, blocks), so it refuses a source nested deeper than
:data:`MAX_NESTING` levels as a syntax error, before the host stack
could run out.  It also gives the top level and every function its
*frame*: the deepest nesting of its body, counted over the finished
tree (where a chain like ``a + b + c`` nests one level per operator),
which the interpreter pushes on its modelled stack per call.
"""

from __future__ import annotations

from repro.runtimes.script import nodes
from repro.runtimes.script.lexer import ScriptSyntaxError, Token, tokenize

#: Binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, ">": 4, "<=": 4, ">=": 4,
    "|": 5,
    "^": 6,
    "&": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


#: Nesting levels the parser descends into before it refuses a source.
MAX_NESTING = 64


def _children(node: nodes.Node) -> list:
    """The nodes one level below ``node`` in its frame.  A function
    declaration has none: its body is a frame of its own."""
    if isinstance(node, nodes.Binary):
        return [node.left, node.right]
    if isinstance(node, nodes.Unary):
        return [node.operand]
    if isinstance(node, nodes.Index):
        return [node.subject, node.index]
    if isinstance(node, nodes.Call):
        return node.arguments
    if isinstance(node, nodes.Assign):
        return [node.value]
    if isinstance(node, nodes.VarDecl):
        return [] if node.initializer is None else [node.initializer]
    if isinstance(node, nodes.Return):
        return [] if node.value is None else [node.value]
    if isinstance(node, nodes.ExprStatement):
        return [node.expression]
    if isinstance(node, nodes.If):
        return [node.condition, *node.then_body, *node.else_body]
    if isinstance(node, nodes.While):
        return [node.condition, *node.body]
    return []


def _frame_depth(body: list[nodes.Node]) -> int:
    """The deepest nesting of a statement list, in levels (a statement
    is level 1), walked without recursion."""
    deepest = 0
    pending = [(node, 1) for node in body]
    while pending:
        node, depth = pending.pop()
        deepest = max(deepest, depth)
        pending.extend((child, depth + 1) for child in _children(node))
    return deepest


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.source_bytes = len(source.encode())
        self.nesting = 0

    def _nest(self) -> None:
        """Enter one nesting level; past :data:`MAX_NESTING`, refuse."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ScriptSyntaxError(
                f"nesting deeper than {MAX_NESTING} levels", self.current.line)

    # -- token plumbing ------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def check(self, kind: str, text: str | None = None) -> bool:
        token = self.current
        return token.kind == kind and (text is None or token.text == text)

    def match(self, kind: str, text: str | None = None) -> Token | None:
        if self.check(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        token = self.match(kind, text)
        if token is None:
            wanted = text or kind
            raise ScriptSyntaxError(
                f"expected {wanted!r}, found {self.current.text!r}",
                self.current.line,
            )
        return token

    # -- grammar ---------------------------------------------------------------

    def parse(self) -> nodes.Script:
        body: list[nodes.Node] = []
        while not self.check("eof"):
            body.append(self.statement())
        return nodes.Script(
            body=body,
            token_count=len(self.tokens),
            source_bytes=self.source_bytes,
            frame=_frame_depth(body),
        )

    def block(self) -> list[nodes.Node]:
        self.expect("op", "{")
        self._nest()
        body: list[nodes.Node] = []
        while not self.check("op", "}"):
            if self.check("eof"):
                raise ScriptSyntaxError("unterminated block", self.current.line)
            body.append(self.statement())
        self.expect("op", "}")
        self.nesting -= 1
        return body

    def statement(self) -> nodes.Node:
        token = self.current
        if token.kind == "keyword":
            if token.text == "var":
                return self.var_decl()
            if token.text == "func":
                return self.func_decl()
            if token.text == "if":
                return self.if_statement()
            if token.text == "while":
                return self.while_statement()
            if token.text == "return":
                self.advance()
                value = None
                if not self.check("op", ";"):
                    value = self.expression()
                self.expect("op", ";")
                return nodes.Return(value=value, line=token.line)
        if token.kind == "name" and self.tokens[self.pos + 1].text == "=":
            self.advance()
            self.advance()
            value = self.expression()
            self.expect("op", ";")
            return nodes.Assign(name=token.text, value=value, line=token.line)
        expression = self.expression()
        self.expect("op", ";")
        return nodes.ExprStatement(expression=expression, line=token.line)

    def var_decl(self) -> nodes.VarDecl:
        keyword = self.expect("keyword", "var")
        name = self.expect("name").text
        initializer = None
        if self.match("op", "="):
            initializer = self.expression()
        self.expect("op", ";")
        return nodes.VarDecl(name=name, initializer=initializer,
                             line=keyword.line)

    def func_decl(self) -> nodes.FuncDecl:
        keyword = self.expect("keyword", "func")
        name = self.expect("name").text
        self.expect("op", "(")
        parameters: list[str] = []
        while not self.check("op", ")"):
            parameters.append(self.expect("name").text)
            if not self.match("op", ","):
                break
        self.expect("op", ")")
        body = self.block()
        return nodes.FuncDecl(name=name, parameters=parameters, body=body,
                              line=keyword.line, frame=_frame_depth(body))

    def if_statement(self) -> nodes.If:
        keyword = self.expect("keyword", "if")
        self.expect("op", "(")
        condition = self.expression()
        self.expect("op", ")")
        then_body = self.block()
        else_body: list[nodes.Node] = []
        if self.match("keyword", "else"):
            if self.check("keyword", "if"):
                else_body = [self.if_statement()]
            else:
                else_body = self.block()
        return nodes.If(condition=condition, then_body=then_body,
                        else_body=else_body, line=keyword.line)

    def while_statement(self) -> nodes.While:
        keyword = self.expect("keyword", "while")
        self.expect("op", "(")
        condition = self.expression()
        self.expect("op", ")")
        return nodes.While(condition=condition, body=self.block(),
                           line=keyword.line)

    # -- expressions (Pratt) --------------------------------------------------------

    def expression(self, min_precedence: int = 0) -> nodes.Node:
        self._nest()
        left = self.unary()
        while True:
            token = self.current
            precedence = _PRECEDENCE.get(token.text, 0) \
                if token.kind == "op" else 0
            if precedence <= min_precedence:
                self.nesting -= 1
                return left
            self.advance()
            right = self.expression(precedence)
            left = nodes.Binary(operator=token.text, left=left, right=right,
                                line=token.line)

    def unary(self) -> nodes.Node:
        token = self.current
        if token.kind == "op" and token.text in ("-", "!"):
            self.advance()
            self._nest()
            operand = self.unary()
            self.nesting -= 1
            return nodes.Unary(operator=token.text, operand=operand,
                               line=token.line)
        return self.postfix()

    def postfix(self) -> nodes.Node:
        node = self.primary()
        while True:
            if self.check("op", "["):
                bracket = self.advance()
                index = self.expression()
                self.expect("op", "]")
                node = nodes.Index(subject=node, index=index,
                                   line=bracket.line)
            else:
                return node

    def primary(self) -> nodes.Node:
        token = self.advance()
        if token.kind == "int":
            return nodes.Literal(value=token.value, line=token.line)
        if token.kind == "string":
            return nodes.Literal(value=token.text, line=token.line)
        if token.kind == "keyword" and token.text in ("true", "false"):
            return nodes.Literal(value=token.text == "true", line=token.line)
        if token.kind == "op" and token.text == "(":
            inner = self.expression()
            self.expect("op", ")")
            return inner
        if token.kind == "name":
            if self.check("op", "("):
                self.advance()
                arguments: list[nodes.Node] = []
                while not self.check("op", ")"):
                    arguments.append(self.expression())
                    if not self.match("op", ","):
                        break
                self.expect("op", ")")
                return nodes.Call(callee=token.text, arguments=arguments,
                                  line=token.line)
            return nodes.Name(identifier=token.text, line=token.line)
        raise ScriptSyntaxError(
            f"unexpected token {token.text!r}", token.line
        )


def parse(source: str) -> nodes.Script:
    """Parse source into a :class:`~repro.runtimes.script.nodes.Script`."""
    return Parser(source).parse()
