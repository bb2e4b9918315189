"""Program container, helper registry, compression, JIT install."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.vm import (
    HelperFault,
    HelperRegistry,
    Instruction,
    Interpreter,
    Program,
    assemble,
    compile_program,
    isa,
)
from repro.vm.compress import analyze, compress, decompress
from repro.vm.instruction import make_wide


class TestProgram:
    def test_code_and_image_size(self):
        program = Program(
            slots=[Instruction(isa.EXIT)], rodata=b"abc", data=b"xy"
        )
        assert program.code_size == 8
        assert program.image_size == 13

    def test_iter_logical_skips_continuations(self):
        slots = [*make_wide(isa.LDDW, dst=0, imm64=1), Instruction(isa.EXIT)]
        program = Program(slots=slots)
        names = [ins.name for _pc, ins in program.iter_logical()]
        assert names == ["lddw", "exit"]


class TestHelperRegistry:
    def test_unknown_helper_faults(self):
        registry = HelperRegistry()
        program = assemble("call 0x7f\n    exit")
        with pytest.raises(HelperFault):
            Interpreter(program, helpers=registry).run()

    def test_helper_return_masked_to_64_bits(self):
        registry = HelperRegistry()
        registry.register(0x30, lambda vm, *args: -1)
        program = assemble("call 0x30\n    exit")
        assert Interpreter(program, helpers=registry).run().value == (1 << 64) - 1

    def test_helper_none_return_becomes_zero(self):
        registry = HelperRegistry()
        registry.register(0x30, lambda vm, *args: None)
        program = assemble("mov r0, 9\n    call 0x30\n    exit")
        assert Interpreter(program, helpers=registry).run().value == 0

    def test_helper_receives_r1_to_r5(self):
        captured = {}

        def spy(vm, r1, r2, r3, r4, r5):
            captured.update(dict(r1=r1, r2=r2, r3=r3, r4=r4, r5=r5))
            return 0

        registry = HelperRegistry()
        registry.register(0x30, spy)
        source = "\n".join(f"    mov r{i}, {i * 10}" for i in range(1, 6))
        Interpreter(assemble(source + "\n    call 0x30\n    exit"),
                    helpers=registry).run()
        assert captured == dict(r1=10, r2=20, r3=30, r4=40, r5=50)

    def test_helper_exception_contained_as_fault(self):
        registry = HelperRegistry()
        registry.register(0x30, lambda vm, *args: 1 // 0)
        program = assemble("call 0x30\n    exit")
        with pytest.raises(HelperFault):
            Interpreter(program, helpers=registry).run()


class TestCompression:
    def test_known_sizes(self):
        # `exit` carries no fields: 3 bytes compressed vs 8 fixed.
        program = Program(slots=[Instruction(isa.EXIT)])
        assert len(compress(program)) == 3

    def test_imm8_and_offset8_forms(self):
        program = assemble("add r1, 5\n    exit")  # imm fits a byte
        stats = analyze(program)
        assert stats.compressed_bytes < stats.original_bytes

    def test_paper_expectation_half_of_instructions_shrink(self):
        """§11: dropping unused fields should save on the order of 40-60 %."""
        from repro.workloads import fletcher32_program

        stats = analyze(fletcher32_program())
        assert 30.0 <= stats.saving_percent <= 70.0

    @settings(max_examples=100)
    @given(
        slots=st.lists(
            st.builds(
                Instruction,
                opcode=st.sampled_from(sorted(isa.VALID_OPCODES - isa.WIDE_OPCODES)),
                dst=st.integers(0, 15),
                src=st.integers(0, 15),
                offset=st.integers(-(1 << 15), (1 << 15) - 1),
                imm=st.integers(-(1 << 31), (1 << 31) - 1),
            ),
            max_size=30,
        )
    )
    def test_lossless_roundtrip_property(self, slots):
        program = Program(slots=slots)
        assert decompress(compress(program)) == slots

    def test_wide_instruction_roundtrip(self):
        program = assemble("lddw r1, 0xdeadbeefcafebabe\n    exit")
        assert decompress(compress(program)) == program.slots


class TestJITInstall:
    def test_install_count_equals_slots(self):
        program = assemble("mov r0, 1\n    lddw r1, 5\n    exit")
        compiled = compile_program(program)
        assert compiled.install_instruction_count == len(program.slots)

    def test_jit_verifies_at_install(self):
        bad = Program(slots=[Instruction(isa.MOV64_IMM, dst=12),
                             Instruction(isa.EXIT)])
        with pytest.raises(Exception):
            compile_program(bad)

    def test_jit_respects_branch_budget(self):
        from repro.vm import BranchLimitFault, VMConfig

        program = assemble("x:\n    ja x")
        compiled = compile_program(program, config=VMConfig(branch_limit=10))
        with pytest.raises(BranchLimitFault):
            compiled.run()


class _RecordingInterpreter(Interpreter):
    """Uses the per-instruction hook CertFC checks through."""

    def __init__(self, program):
        super().__init__(program)
        self.seen: list[tuple[int, int, int]] = []

    def _pre_execute_check(self, ins, regs, pc):
        self.seen.append((pc, ins.opcode, regs[3]))


class TestPreExecuteHook:
    def test_hook_sees_each_executed_instruction_once(self):
        vm = _RecordingInterpreter(assemble("""
    lddw r1, 0xdeadbeef
    ja skip
    mov r0, 99
skip:
    exit
"""))
        vm.run()
        assert [pc for pc, _, _ in vm.seen] == [0, 2, 4]
        assert vm.seen[-1][1] == isa.EXIT

    def test_hook_runs_before_the_instruction(self):
        vm = _RecordingInterpreter(
            assemble("mov r3, 7\n    add r3, 1\n    mov r0, r3\n    exit"))
        assert vm.run().value == 8
        assert [r3 for _, _, r3 in vm.seen] == [0, 7, 8, 8]

    def test_hooked_run_matches_plain_interpreter(self):
        program = assemble("""
    mov r1, 10
    mov r0, 0
loop:
    add r0, r1
    sub r1, 1
    jne r1, 0, loop
    exit
""")
        vm = _RecordingInterpreter(program)
        hooked, plain = vm.run(), Interpreter(program).run()
        assert hooked.value == plain.value == 55
        assert hooked.stats.executed == plain.stats.executed == len(vm.seen)
        vm.run()
        assert len(vm.seen) == 2 * plain.stats.executed
