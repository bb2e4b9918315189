"""Mini scripting language (the MicroPython/RIOTjs-class §6 candidates)."""

from repro.runtimes.script.interp import (
    Interpreter,
    ScriptRuntimeError,
    run_source,
)
from repro.runtimes.script.lexer import ScriptSyntaxError, Token, tokenize
from repro.runtimes.script.parser import parse

__all__ = [
    "Interpreter",
    "ScriptRuntimeError",
    "ScriptSyntaxError",
    "Token",
    "parse",
    "run_source",
    "tokenize",
]
