"""Multi-block loop folding and fallthrough superblocks in the template JIT.

Every shape is run differentially: the folded JIT must produce
bit-identical return values, per-kind instruction counts, taken-branch
counts — and on faults, identical fault pc/message — to the pre-decoded
interpreter.  Structural assertions on the generated source prove the
folds actually engaged (a differential test alone would also pass if
folding silently never fired).
"""

from __future__ import annotations

import pytest

from repro.vm import (
    BranchLimitFault,
    CertFCInterpreter,
    Interpreter,
    VMConfig,
    assemble,
    compile_program,
)
from repro.workloads.fletcher32 import fletcher32_program

#: Multi-block counted loop: head tests, body falls through, JA backedge.
COUNTED = """
    mov r0, 0
    mov r1, 0
loop:
    jge r1, 10, done
    add r0, 2
    add r1, 1
    ja loop
done:
    exit
"""

#: Loop with an if/else diamond inside — the `odd` arm *falls through*
#: into `join`, exercising the batched-flush superblock extension.
DIAMOND = """
    mov r0, 0
    mov r1, 0
loop:
    jge r1, 8, done
    jset r1, 1, odd
    add r0, 100
    ja join
odd:
    add r0, 1
join:
    add r1, 1
    jlt r1, 99, loop
done:
    exit
"""

#: Nested loops: a self-loop inside a folded multi-block outer loop.
NESTED = """
    mov r0, 0
    mov r1, 0
outer:
    jge r1, 5, done
    mov r2, 0
inner:
    add r0, 1
    add r2, 1
    jlt r2, 3, inner
    add r1, 1
    ja outer
done:
    exit
"""

#: Mid-loop exit: a conditional branch leaves the loop from its middle.
MID_EXIT = """
    mov r0, 0
    mov r1, 0
loop:
    add r0, 1
    jgt r0, 17, out
    add r1, 1
    jlt r1, 1000, loop
out:
    add r0, 1000
    exit
"""

#: NOT foldable: an outside branch jumps into the middle of the loop
#: (two entries), so the single-entry check must reject the fold while
#: execution stays bit-identical.
SIDE_ENTRY = """
    mov r0, 0
    mov r1, 0
    ja middle
loop:
    add r0, 10
middle:
    add r1, 1
    jlt r1, 6, loop
    exit
"""

SHAPES = {
    "counted": COUNTED,
    "diamond": DIAMOND,
    "nested": NESTED,
    "mid_exit": MID_EXIT,
    "side_entry": SIDE_ENTRY,
}


ENGINES = (("interpreter", Interpreter),
           ("certfc", CertFCInterpreter),
           ("jit", compile_program))


def _outcomes(source: str):
    program = assemble(source)
    results = {}
    for name, factory in ENGINES:
        result = factory(program).run()
        results[name] = (result.value, result.stats.kind_counts,
                         result.stats.branches_taken,
                         result.stats.executed)
    return results


@pytest.mark.parametrize("shape", sorted(SHAPES), ids=sorted(SHAPES))
def test_loop_shapes_differential(shape):
    results = _outcomes(SHAPES[shape])
    assert results["jit"] == results["interpreter"], shape
    assert results["certfc"] == results["interpreter"], shape


class TestFoldStructure:
    def test_multi_block_loop_gets_nested_dispatch(self):
        jit = compile_program(assemble(COUNTED))
        assert "_t2" in jit.jit_source  # nested loop dispatch engaged
        assert jit.run().value == 20

    def test_single_entry_violation_prevents_fold(self):
        jit = compile_program(assemble(SIDE_ENTRY))
        assert "_t2" not in jit.jit_source  # two entries: must not fold

    def test_diamond_fallthrough_is_inlined_with_batched_counts(self):
        jit = compile_program(assemble(DIAMOND))
        # The odd->join fallthrough is inlined: its two ALU bumps merge
        # into one batched publish somewhere in the generated code.
        assert "_k_alu += 2" in jit.jit_source

    def test_nested_self_loop_stays_native_inside_fold(self):
        jit = compile_program(assemble(NESTED))
        # Outer fold (nested dispatch) plus the inner native self-loop.
        assert "_t2" in jit.jit_source
        assert jit.jit_source.count("while 1:") >= 3  # top + fold + self


class TestFletcher32FastCopy:
    def test_words_gathered_once_per_entry_and_wrapped_once(self):
        """The unchecked copy of fletcher32's inner loop reads its 16-bit
        words with one ``unpack_from`` at loop entry and iterates two
        unwrapped additions; ``r4``/``r5`` are masked after the loop."""
        source = compile_program(fletcher32_program()).jit_source
        assert source.count("_unpack_from(") == 1
        lines = source.splitlines()
        start = next(i for i, line in enumerate(lines)
                     if line.lstrip().startswith("for r0 in _unpack_from("))
        assert "_mem.span(" in lines[start - 1]  # inside the versioned arm
        depth = len(lines[start]) - len(lines[start].lstrip())
        body = []
        for line in lines[start + 1:]:
            if len(line) - len(line.lstrip()) <= depth:
                break
            body.append(line.strip())
        assert body == ["r4 += r0", "r5 += r4"]
        assert "r4 &= 0xffffffffffffffff" in source
        assert "r7 = r0 & 0xff00" in source  # the spare byte, closed form


class TestFaultParity:
    @pytest.mark.parametrize("shape", sorted(SHAPES), ids=sorted(SHAPES))
    def test_branch_budget_fault_identical_in_folded_loop(self, shape):
        """Every shape aborted at N_b, from the first taken branch to the
        last, faults at the same pc with the same message and the same
        accounting on the interpreter, CertFC and the folded JIT."""
        program = assemble(SHAPES[shape])
        taken = Interpreter(program).run().stats.branches_taken
        assert taken > 1
        for limit in sorted({0, taken // 2, taken - 1}):
            observed = {}
            for name, factory in ENGINES:
                vm = factory(program, config=VMConfig(branch_limit=limit))
                with pytest.raises(BranchLimitFault) as excinfo:
                    vm.run()
                fault = excinfo.value
                observed[name] = (str(fault), fault.pc, fault.stats)
            assert observed["interpreter"][2].branches_taken == limit + 1
            assert observed["certfc"] == observed["interpreter"], limit
            assert observed["jit"] == observed["interpreter"], limit
