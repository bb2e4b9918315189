"""Mini scripting language: lexer, parser, evaluator, error handling."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.runtimes.script import (
    Interpreter,
    ScriptRuntimeError,
    ScriptSyntaxError,
    parse,
    run_source,
    tokenize,
)
from repro.runtimes.base import RunMeter
from repro.vm.errors import BranchLimitFault


class TestLexer:
    def test_token_kinds(self):
        tokens = tokenize('var x = 0x1f + 2; # comment\n"str"')
        kinds = [t.kind for t in tokens]
        assert kinds == ["keyword", "name", "op", "int", "op", "int", "op",
                         "string", "eof"]

    def test_hex_and_decimal_values(self):
        tokens = tokenize("0xff 255")
        assert tokens[0].value == 255 and tokens[1].value == 255

    def test_multichar_operators(self):
        tokens = tokenize("a << 2 >= b")
        assert [t.text for t in tokens[:4]] == ["a", "<<", "2", ">="]

    def test_line_numbers(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens[:3]] == [1, 2, 3]

    def test_unterminated_string_raises(self):
        with pytest.raises(ScriptSyntaxError):
            tokenize('"never closed')

    def test_unknown_character_raises(self):
        with pytest.raises(ScriptSyntaxError):
            tokenize("a @ b")


class TestParser:
    def test_precedence(self):
        result, _stats = run_source("return 2 + 3 * 4;")
        assert result == 14

    def test_parentheses_override(self):
        result, _stats = run_source("return (2 + 3) * 4;")
        assert result == 20

    def test_shift_binds_looser_than_add(self):
        result, _stats = run_source("return 1 << 1 + 1;")
        assert result == 4

    def test_comparison_chain(self):
        result, _stats = run_source("return 1 < 2 == true;")
        assert result is True

    def test_missing_semicolon_raises(self):
        with pytest.raises(ScriptSyntaxError, match="expected"):
            parse("return 1")

    def test_unterminated_block_raises(self):
        with pytest.raises(ScriptSyntaxError):
            parse("while (1) { return 1;")


class TestEvaluation:
    def test_variables_and_assignment(self):
        result, _ = run_source("var x = 1; x = x + 41; return x;")
        assert result == 42

    def test_while_loop(self):
        result, _ = run_source("""
var total = 0;
var i = 1;
while (i <= 10) { total = total + i; i = i + 1; }
return total;
""")
        assert result == 55

    def test_if_else_chain(self):
        source = """
var x = {value};
if (x > 10) {{ return 1; }}
else if (x > 5) {{ return 2; }}
else {{ return 3; }}
"""
        assert run_source(source.format(value=20))[0] == 1
        assert run_source(source.format(value=7))[0] == 2
        assert run_source(source.format(value=1))[0] == 3

    def test_function_definition_and_call(self):
        result, _ = run_source("""
func square(x) { return x * x; }
return square(6) + square(1);
""")
        assert result == 37

    def test_recursion(self):
        result, _ = run_source("""
func fact(n) {
  if (n <= 1) { return 1; }
  return n * fact(n - 1);
}
return fact(6);
""")
        assert result == 720

    def test_function_scope_isolated(self):
        result, _ = run_source("""
var x = 1;
func shadow() { var x = 99; return x; }
shadow();
return x;
""")
        assert result == 1

    def test_bytes_indexing_builtin(self):
        result, _ = run_source("return data[1];",
                               builtins={"data": b"\x0a\x0b"})
        assert result == 0x0B

    def test_len_builtin(self):
        result, _ = run_source("return len(data);", builtins={"data": b"abc"})
        assert result == 3

    def test_logical_short_circuit(self):
        result, _ = run_source("""
var hits = 0;
func bump() { hits = hits + 1; return true; }
var r = false && bump();
return hits;
""")
        assert result == 0

    def test_string_concat(self):
        result, _ = run_source('return "ab" + "cd";')
        assert result == "abcd"


class TestRuntimeErrors:
    def test_unknown_name(self):
        with pytest.raises(ScriptRuntimeError, match="unknown name"):
            run_source("return ghost;")

    def test_assignment_to_undeclared(self):
        with pytest.raises(ScriptRuntimeError, match="undeclared"):
            run_source("ghost = 1;")

    def test_division_by_zero(self):
        with pytest.raises(ScriptRuntimeError, match="division by zero"):
            run_source("return 1 / 0;")

    def test_index_out_of_range(self):
        with pytest.raises(ScriptRuntimeError, match="out of range"):
            run_source("return data[9];", builtins={"data": b"ab"})

    def test_wrong_arity(self):
        with pytest.raises(ScriptRuntimeError, match="expects"):
            run_source("func f(a) { return a; } return f(1, 2);")

    def test_unknown_function(self):
        with pytest.raises(ScriptRuntimeError, match="unknown function"):
            run_source("return missing();")

    def test_loop_budget(self):
        interp = Interpreter.from_source("while (true) { }",
                                         meter=RunMeter(branch_limit=100))
        with pytest.raises(BranchLimitFault):
            interp.run()
        assert interp.stats.class_counts["control"] == 101

    def test_type_error_indexing_int(self):
        with pytest.raises(ScriptRuntimeError, match="not indexable"):
            run_source("var x = 1; return x[0];")

    @pytest.mark.parametrize("source", [
        "return len(5);", "return len();", "return len(data, data);"])
    def test_bad_builtin_call(self, source):
        with pytest.raises(ScriptRuntimeError, match="len"):
            run_source(source, builtins={"data": b"ab"})

    def test_builtin_needs_no_host_function(self):
        assert run_source("return len(data) + len(\"xyz\");",
                          builtins={"data": b"ab"})[0] == 5


class TestStats:
    def test_visits_counted_by_class(self):
        _result, stats = run_source("var x = 1; return x + 1;")
        assert stats.class_counts["assign"] == 1
        assert stats.class_counts["binop"] == 1
        assert stats.executed > 3

    @given(n=st.integers(0, 50))
    def test_loop_visits_scale_linearly(self, n):
        source = f"var i = 0; while (i < {n}) {{ i = i + 1; }} return i;"
        result, stats = run_source(source)
        assert result == n
        # one check per iteration, the failing exit check, and the return
        assert stats.class_counts["control"] == n + 2
