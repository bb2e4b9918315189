"""Assembler / disassembler tests including the round-trip property."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.vm import AssemblerError, EncodingError, assemble, disassemble, isa
from repro.vm.disasm import disassemble_instruction
from repro.vm.instruction import Instruction, make_wide
from repro.vm.program import Program


class TestAssembler:
    def test_labels_resolve_forward_and_backward(self):
        program = assemble("""
start:
    mov r0, 0
    jeq r0, 1, end
    ja start
end:
    exit
""")
        # jeq at slot 1, end at slot 3 -> offset 1; ja at 2 -> offset -3.
        assert program.slots[1].offset == 1
        assert program.slots[2].offset == -3

    def test_label_on_same_line(self):
        program = assemble("top: mov r0, 1\n    ja top")
        assert program.symbols["top"] == 0

    def test_numeric_branch_offsets(self):
        program = assemble("jeq r1, 0, +1\n    exit\n    exit")
        assert program.slots[0].offset == 1

    def test_helper_call_by_name_and_number(self):
        program = assemble("call bpf_fetch_global\n    call 0x42\n    exit")
        assert program.slots[0].imm == 0x13
        assert program.slots[1].imm == 0x42

    def test_memory_operand_forms(self):
        program = assemble("""
    ldxw r0, [r1]
    ldxw r0, [r1+4]
    ldxw r0, [r1-4]
    exit
""")
        assert [slot.offset for slot in program.slots[:3]] == [0, 4, -4]

    def test_comments_all_styles(self):
        program = assemble("""
    mov r0, 1   ; semicolon
    mov r1, 2   # hash
    mov r2, 3   // slashes
    exit
""")
        assert len(program.slots) == 4

    def test_lddw_occupies_two_slots(self):
        program = assemble("lddw r1, 0x1122334455667788\n    exit")
        assert len(program.slots) == 3
        assert program.slots[1].opcode == 0

    def test_hex_and_negative_immediates(self):
        program = assemble("mov r0, 0xff\n    add r0, -2\n    exit")
        assert program.slots[0].imm == 255
        assert program.slots[1].imm == -2

    def test_unknown_mnemonic_raises(self):
        with pytest.raises(AssemblerError, match="unknown mnemonic"):
            assemble("frobnicate r1\n    exit")

    def test_wrong_operand_count_raises(self):
        with pytest.raises(AssemblerError, match="expects"):
            assemble("mov r0\n    exit")

    def test_unknown_label_raises(self):
        with pytest.raises(AssemblerError, match="unknown branch target"):
            assemble("ja nowhere\n    exit")

    def test_duplicate_label_raises(self):
        with pytest.raises(AssemblerError, match="duplicate"):
            assemble("a:\na:\n    exit")

    def test_bad_register_raises(self):
        with pytest.raises(AssemblerError):
            assemble("mov r99, 1\n    exit")

    @pytest.mark.parametrize("statement, field", [
        ("mov r0, 0x100000000", "immediate"),
        ("ldxw r0, [r1+40000]", "offset"),
        ("ja +70000", "offset"),
    ], ids=["immediate", "offset", "branch"])
    def test_out_of_range_field_names_its_line(self, statement, field):
        with pytest.raises(AssemblerError,
                           match=rf"^line 3: {field} out of range") as info:
            assemble(f"    mov r0, 0\n\n    {statement}\n    exit")
        assert isinstance(info.value.__cause__, EncodingError)

    def test_every_valid_opcode_reassembles(self):
        # The assembler's mnemonics are isa.OPCODE_NAMES inverted, so
        # every opcode's disassembly must come back as that opcode.
        for opcode in sorted(isa.VALID_OPCODES):
            if opcode in isa.WIDE_OPCODES:
                slots = list(make_wide(opcode, dst=1, imm64=8))
            else:
                slots = [Instruction(opcode, dst=1, src=2, imm=16)]
            program = Program(slots=[*slots, Instruction(isa.EXIT)])
            rebuilt = assemble(disassemble(program))
            assert rebuilt.slots[0].opcode == opcode, hex(opcode)


class TestDisassembler:
    def test_single_instruction_forms(self):
        cases = [
            (Instruction(isa.MOV64_IMM, dst=1, imm=5), "mov r1, 5"),
            (Instruction(isa.ADD64_REG, dst=1, src=2), "add r1, r2"),
            (Instruction(isa.NEG64, dst=3), "neg r3"),
            (Instruction(isa.LDXW, dst=0, src=1, offset=4), "ldxw r0, [r1+4]"),
            (Instruction(isa.STXH, dst=10, src=2, offset=-2),
             "stxh [r10-2], r2"),
            (Instruction(isa.STB, dst=1, offset=0, imm=7), "stb [r1], 7"),
            (Instruction(isa.CALL, imm=0x13), "call bpf_fetch_global"),
            (Instruction(isa.EXIT), "exit"),
        ]
        for ins, expected in cases:
            assert disassemble_instruction(ins) == expected

    def test_program_roundtrip_with_branches(self):
        source = """
    mov r0, 0
    mov r1, 10
loop:
    add r0, r1
    sub r1, 1
    jne r1, 0, loop
    jeq r0, 55, good
    mov r0, 0
good:
    exit
"""
        program = assemble(source)
        rebuilt = assemble(disassemble(program))
        assert rebuilt.to_bytes() == program.to_bytes()

    def test_workloads_roundtrip(self):
        from repro.workloads import (
            coap_handler_program,
            fletcher32_program,
            sensor_program,
            thread_counter_program,
        )

        for program in (fletcher32_program(), thread_counter_program(),
                        sensor_program(), coap_handler_program()):
            rebuilt = assemble(disassemble(program))
            assert rebuilt.to_bytes() == program.to_bytes()


# -- property: random template programs round-trip ---------------------------

_REGS = st.integers(0, 9)
_IMM = st.integers(-(1 << 31), (1 << 31) - 1)
_OFF = st.integers(-64, 64)


@st.composite
def template_instruction(draw) -> str:
    kind = draw(st.sampled_from(
        ["alu_imm", "alu_reg", "neg", "endian", "load", "store_imm",
         "store_reg", "call", "lddw"]
    ))
    r1, r2 = draw(_REGS), draw(_REGS)
    if kind == "alu_imm":
        op = draw(st.sampled_from(
            ["add", "sub", "mul", "or", "and", "xor", "mov",
             "add32", "mov32", "xor32"]))
        return f"{op} r{r1}, {draw(_IMM)}"
    if kind == "alu_reg":
        op = draw(st.sampled_from(["add", "sub", "mul", "div", "mov", "arsh"]))
        return f"{op} r{r1}, r{r2}"
    if kind == "neg":
        return f"neg r{r1}"
    if kind == "endian":
        return f"{draw(st.sampled_from(['le', 'be']))} r{r1}, " \
               f"{draw(st.sampled_from([16, 32, 64]))}"
    if kind == "load":
        size = draw(st.sampled_from(["b", "h", "w", "dw"]))
        return f"ldx{size} r{r1}, [r{r2}+{draw(st.integers(0, 64))}]"
    if kind == "store_imm":
        size = draw(st.sampled_from(["b", "h", "w", "dw"]))
        return f"st{size} [r{r1}+{draw(st.integers(0, 64))}], {draw(_IMM)}"
    if kind == "store_reg":
        size = draw(st.sampled_from(["b", "h", "w", "dw"]))
        return f"stx{size} [r{r1}+{draw(st.integers(0, 64))}], r{r2}"
    if kind == "call":
        return f"call 0x{draw(st.integers(0, 255)):x}"
    return f"lddw r{r1}, 0x{draw(st.integers(0, (1 << 64) - 1)):x}"


@given(st.lists(template_instruction(), min_size=0, max_size=30))
def test_roundtrip_property(lines):
    source = "\n".join(f"    {line}" for line in lines) + "\n    exit"
    program = assemble(source)
    rebuilt = assemble(disassemble(program))
    assert rebuilt.to_bytes() == program.to_bytes()
