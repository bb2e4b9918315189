"""Branch semantics and the finite-execution (N_b) enforcement."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.vm import (
    BranchLimitFault,
    CertFCInterpreter,
    Interpreter,
    VMConfig,
    assemble,
    compile_program,
)

from tests.conftest import run_program

U64 = (1 << 64) - 1


def branch_result(op: str, a: int, b: int) -> int:
    """1 when the branch was taken, 0 otherwise."""
    source = f"""
    lddw r1, 0x{a & U64:x}
    lddw r2, 0x{b & U64:x}
    mov r0, 0
    {op} r1, r2, taken
    exit
taken:
    mov r0, 1
    exit
"""
    return run_program(source).value


class TestConditions:
    def test_jeq(self):
        assert branch_result("jeq", 5, 5) == 1
        assert branch_result("jeq", 5, 6) == 0

    def test_jne(self):
        assert branch_result("jne", 5, 6) == 1
        assert branch_result("jne", 5, 5) == 0

    def test_unsigned_comparisons(self):
        assert branch_result("jgt", 6, 5) == 1
        assert branch_result("jgt", 5, 5) == 0
        assert branch_result("jge", 5, 5) == 1
        assert branch_result("jlt", 4, 5) == 1
        assert branch_result("jle", 5, 5) == 1
        # -1 as unsigned is the maximum value.
        assert branch_result("jgt", -1, 1) == 1

    def test_signed_comparisons(self):
        assert branch_result("jsgt", 1, -1) == 1
        assert branch_result("jslt", -2, -1) == 1
        assert branch_result("jsge", -1, -1) == 1
        assert branch_result("jsle", -5, -1) == 1

    def test_jset_tests_bits(self):
        assert branch_result("jset", 0b1010, 0b0010) == 1
        assert branch_result("jset", 0b1010, 0b0101) == 0

    def test_ja_unconditional(self):
        source = """
    mov r0, 0
    ja done
    mov r0, 99
done:
    exit
"""
        assert run_program(source).value == 0

    def test_jump32_truncates_operands(self):
        # In 32 bits, 0x1_00000005 == 5.
        source = """
    lddw r1, 0x100000005
    mov r0, 0
    jeq32 r1, 5, yes
    exit
yes:
    mov r0, 1
    exit
"""
        assert run_program(source).value == 1

    def test_immediate_sign_extended_for_64bit_compare(self):
        assert branch_result("jeq", -1, -1) == 1

    def test_backward_jump_loop(self):
        source = """
    mov r0, 0
    mov r1, 5
loop:
    add r0, 10
    sub r1, 1
    jne r1, 0, loop
    exit
"""
        assert run_program(source).value == 50


class TestFiniteExecution:
    def test_infinite_loop_hits_branch_budget(self):
        program = assemble("""
forever:
    ja forever
""")
        vm = Interpreter(program, config=VMConfig(branch_limit=100))
        with pytest.raises(BranchLimitFault):
            vm.run()
        # The budget bounds the executed instructions too.
        assert vm_last_executed(vm) <= 102

    def test_budget_counts_only_taken_branches(self):
        # 50 not-taken branches cost no budget.
        body = "\n".join("    jeq r1, 1, never" for _ in range(50))
        program = assemble(f"""
    mov r1, 0
{body}
    mov r0, 7
    ja done
never:
    mov r0, 8
done:
    exit
""")
        vm = Interpreter(program, config=VMConfig(branch_limit=2))
        assert vm.run().value == 7

    def test_default_budget_stops_a_long_loop_on_every_engine(self):
        """Under the default ``VMConfig`` a 100,000-iteration loop ends at
        N_b on every engine, at the same pc with the same accounting."""
        program = assemble("""
    mov r0, 0
loop:
    add r0, 1
    jne r0, 100000, loop
    exit
""")
        limit = VMConfig().branch_limit
        observed = {}
        for name, factory in (("interpreter", Interpreter),
                              ("certfc", CertFCInterpreter),
                              ("jit", compile_program)):
            with pytest.raises(BranchLimitFault) as excinfo:
                factory(program).run()
            fault = excinfo.value
            observed[name] = (str(fault), fault.pc, fault.stats)
        stats = observed["interpreter"][2]
        assert stats.branches_taken == limit + 1
        assert stats.executed <= len(program.slots) * (limit + 1)
        assert observed["certfc"] == observed["interpreter"]
        assert observed["jit"] == observed["interpreter"]

    @given(limit=st.integers(1, 50))
    def test_execution_bounded_by_ni_times_nb(self, limit):
        """The paper's bound: executed <= N_i * N_b (+ the final window)."""
        program = assemble("""
loop:
    add r1, 1
    ja loop
""")
        vm = Interpreter(program, config=VMConfig(branch_limit=limit))
        with pytest.raises(BranchLimitFault):
            vm.run()
        n_i = len(program.slots)
        assert vm_last_executed(vm) <= n_i * (limit + 1)


def vm_last_executed(vm: Interpreter) -> int:
    """Executed-instruction count of the last (possibly faulted) run."""
    # run() creates fresh stats per call; re-run capturing them.
    stats_holder = {}
    original = vm._dispatch_loop

    def capture(regs, stats):
        stats_holder["stats"] = stats
        return original(regs, stats)

    vm._dispatch_loop = capture  # type: ignore[method-assign]
    try:
        vm.run()
    except Exception:
        pass
    finally:
        vm._dispatch_loop = original  # type: ignore[method-assign]
    return stats_holder["stats"].executed
