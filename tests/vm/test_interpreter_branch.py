"""Branch semantics and the finite-execution (N_b) enforcement."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FC_HOOK_TIMER, ContainerContract, HostingEngine
from repro.deploy import ImageSpec
from repro.rtos import Kernel
from repro.runtimes.base import build_vm, container_runtime
from repro.runtimes.script import run_source
from repro.runtimes.wasm import WasmInstance, assemble as wasm_assemble
from repro.vm import (
    BranchLimitFault,
    CertFCInterpreter,
    Interpreter,
    VMConfig,
    assemble,
    compile_program,
)
from repro.vm.verifier import VerifierConfig

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


    @settings(deadline=None)
    @given(trips=st.lists(st.integers(0, 12), min_size=1, max_size=3),
           limit=st.integers(1, 40))
    def test_interpreted_run_bounded_by_nb(self, trips, limit):
        """Wasm and script count N_b per run, however deep loops nest: a
        run completes within N_b control counts, with the counts of an
        unbudgeted run, or faults at its (N_b + 1)-th."""
        for runtime, source in (("wasm", nested_wasm(trips)),
                                ("script", nested_script(trips))):
            value, meter = unbudgeted_run(runtime, source)
            assert value == math.prod(trips)
            over = meter.class_counts.get("control", 0) > limit
            for stats, result in budgeted_runs(runtime, source, limit):
                if over:
                    assert result is BranchLimitFault, runtime
                    assert stats.branches_taken == limit + 1, runtime
                else:
                    assert stats.branches_taken <= limit, runtime
                    assert result == value, runtime
                    assert stats.executed == meter.executed
                    assert {kind: count
                            for kind, count in stats.kind_counts.items()
                            if count} == meter.class_counts

    @pytest.mark.parametrize("test", ["n > 0 &&", "n <= 0 ||"])
    def test_short_circuit_is_a_control_count(self, test):
        """A script that recurses through ``&&`` or ``||`` alone, with no
        ``if``, loop or ``return`` on the way, still spends N_b: each
        short-circuit operator is one control count."""
        source = (f"func f(n) {{ {test} f(n - 1) == f(n - 1); }} "
                  "f(12); return 1;")
        for stats, result in budgeted_runs("script", source, 1):
            assert result is BranchLimitFault
            assert stats.branches_taken == 2


def nested_script(trips: list[int]) -> str:
    """``len(trips)`` nested while loops counting their innermost body."""
    lines = ["var s = 0;"]
    for depth, trip in enumerate(trips):
        lines += [f"var i{depth} = 0;", f"while (i{depth} < {trip}) {{"]
    lines.append("s = s + 1;")
    for depth in reversed(range(len(trips))):
        lines += [f"i{depth} = i{depth} + 1;", "}"]
    return "\n".join(lines + ["return s;"])


def nested_wasm(trips: list[int]) -> str:
    """The same loops as :func:`nested_script`, as block/loop pairs; local
    1 is the sum, local 2 + depth the depth's counter."""
    lines = ["module pages=1",
             f"func main params=1 locals={len(trips) + 1}"]
    for depth, trip in enumerate(trips):
        counter = 2 + depth
        lines += ["i32.const 0", f"local.set {counter}", "block", "loop",
                  f"local.get {counter}", f"i32.const {trip}", "i32.ge_u",
                  "br_if 1"]
    lines += ["local.get 1", "i32.const 1", "i32.add", "local.set 1"]
    for depth in reversed(range(len(trips))):
        counter = 2 + depth
        lines += [f"local.get {counter}", "i32.const 1", "i32.add",
                  f"local.set {counter}", "br 0", "end", "end"]
    return "\n".join(lines + ["local.get 1", "return", "end"])


def unbudgeted_run(runtime: str, source: str):
    """(value, meter) of the standalone interpreter, with no budget."""
    if runtime == "script":
        return run_source(source)
    instance = WasmInstance(wasm_assemble(source))
    return instance.run([0]), instance.stats


def budgeted_runs(runtime: str, source: str, limit: int):
    """(stats, value or fault type) of one run under N_b = ``limit``
    through ``build_vm``, then through engine attach and execute."""
    spec = (ImageSpec.from_wasm if runtime == "wasm"
            else ImageSpec.from_script)(source)
    vm = build_vm(container_runtime(runtime), spec.instantiate(),
                  "femto-containers", None, VMConfig(branch_limit=limit),
                  VerifierConfig())
    try:
        result = vm.run()
    except BranchLimitFault as fault:
        yield fault.stats, BranchLimitFault
    else:
        yield result.stats, result.value
    engine = HostingEngine(Kernel())
    container = engine.attach(
        engine.load(spec.instantiate(),
                    contract=ContainerContract(branch_limit=limit)),
        FC_HOOK_TIMER)
    run = engine.execute(container)
    if run.fault is None:
        yield run.stats, run.value
    else:
        assert run.fault.kind == "BranchLimitFault", run.fault
        yield run.stats, BranchLimitFault


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
