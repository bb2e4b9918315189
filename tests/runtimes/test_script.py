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
from repro.deploy import ImageSpec
from repro.runtimes.base import RunMeter, build_vm, container_runtime
from repro.vm import VMConfig
from repro.vm.errors import BranchLimitFault
from repro.vm.verifier import VerifierConfig


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


RUNAWAY = "func f(n) { return f(n + 1); } return f(0);"


def runaway_fault(frames: int) -> tuple[str, int, int]:
    """The fault of :data:`RUNAWAY` through ``build_vm`` under a huge
    N_b, run ``frames`` Python frames below this call."""
    if frames:
        return runaway_fault(frames - 1)
    spec = ImageSpec.from_script(RUNAWAY)
    vm = build_vm(container_runtime("script"), spec.instantiate(),
                  "femto-containers", None, VMConfig(branch_limit=10**6),
                  VerifierConfig())
    with pytest.raises(BranchLimitFault) as caught:
        vm.run()
    stats = caught.value.stats
    return str(caught.value), stats.branches_taken, stats.executed


class TestModelledStack:
    """Call depth is bounded by the interpreter's modelled stack, and
    nesting by the parser, never by the host's recursion limit."""

    def test_runaway_recursion_faults_at_one_count_whatever_the_caller(self):
        shallow = runaway_fault(0)
        assert shallow[0] == "call stack exhausted"
        # The top level's frame (3 levels) plus 37 calls of f (5 each)
        # fill the 192-level stack; each level of f ran one return.
        assert shallow[1] == 38
        assert runaway_fault(100) == shallow

    def test_a_call_that_fits_the_stack_runs(self):
        source = ("func down(n) { if (n == 0) { return 0; } "
                  "return 1 + down(n - 1); } return down(20);")
        assert run_source(source)[0] == 20

    @pytest.mark.parametrize("source", [
        "return " + "(" * 2000 + "1" + ")" * 2000 + ";",
        "return " + "-" * 2000 + "1;",
        "if (true) { " * 2000 + "}" * 2000,
    ], ids=["parentheses", "unary", "blocks"])
    def test_deep_nesting_is_refused_at_parse(self, source):
        with pytest.raises(ScriptSyntaxError, match="nesting deeper"):
            parse(source)
        with pytest.raises(ScriptSyntaxError, match="nesting deeper"):
            ImageSpec.from_script(source).instantiate()

    def test_a_long_operator_chain_overflows_the_stack_not_the_host(self):
        source = "return " + " + ".join(["1"] * 3000) + ";"
        assert parse(source).frame == 3001
        with pytest.raises(ScriptRuntimeError, match="call stack exhausted"):
            run_source(source)

    def test_frames_count_the_deepest_nesting_of_each_body(self):
        script = parse("func g(a) { if (a) { return -a; } return 0; } "
                       "return g(1) + 2;")
        assert script.frame == 4  # return, +, g(1), 1
        # if, its then-block's return, the negation, and a
        assert script.body[0].frame == 4


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
