"""Binary instruction codec tests."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.vm import isa
from repro.vm.errors import EncodingError
from repro.vm.instruction import (
    SLOT_SIZE,
    Instruction,
    decode_program,
    encode_program,
    make_wide,
    wide_imm64,
)

VALID_OPCODES = sorted(isa.VALID_OPCODES)


class TestEncodeDecode:
    def test_slot_is_eight_bytes(self):
        assert len(Instruction(isa.EXIT).encode()) == SLOT_SIZE

    def test_known_encoding_mov_imm(self):
        # mov r3, 0x11223344: opcode b7, regs 03, offset 0, imm LE.
        ins = Instruction(isa.MOV64_IMM, dst=3, imm=0x11223344)
        assert ins.encode() == bytes.fromhex("b703000044332211")

    def test_known_encoding_ldxw(self):
        ins = Instruction(isa.LDXW, dst=2, src=1, offset=-4)
        raw = ins.encode()
        assert raw[0] == 0x61
        assert raw[1] == 0x12  # src in high nibble, dst in low
        assert raw[2:4] == (-4).to_bytes(2, "little", signed=True)

    def test_decode_reverses_fields(self):
        ins = Instruction(isa.JNE_IMM, dst=5, src=0, offset=-7, imm=99)
        assert Instruction.decode(ins.encode()) == ins

    def test_negative_immediate_roundtrip(self):
        ins = Instruction(isa.ADD64_IMM, dst=1, imm=-1)
        decoded = Instruction.decode(ins.encode())
        assert decoded.imm == -1

    def test_unsigned_32bit_immediate_accepted(self):
        ins = Instruction(isa.MOV64_IMM, dst=0, imm=0xFFFFFFFF)
        decoded = Instruction.decode(ins.encode())
        assert decoded.imm == -1  # stored as the same 32-bit pattern

    @given(
        opcode=st.sampled_from(VALID_OPCODES),
        dst=st.integers(0, 15),
        src=st.integers(0, 15),
        offset=st.integers(-(1 << 15), (1 << 15) - 1),
        imm=st.integers(-(1 << 31), (1 << 31) - 1),
    )
    def test_roundtrip_property(self, opcode, dst, src, offset, imm):
        ins = Instruction(opcode, dst=dst, src=src, offset=offset, imm=imm)
        assert Instruction.decode(ins.encode()) == ins


class TestValidation:
    def test_register_field_overflow_rejected(self):
        with pytest.raises(EncodingError):
            Instruction(isa.MOV64_IMM, dst=16)

    def test_offset_overflow_rejected(self):
        with pytest.raises(EncodingError):
            Instruction(isa.JA, offset=1 << 15)

    def test_opcode_overflow_rejected(self):
        with pytest.raises(EncodingError):
            Instruction(0x100)


class TestWide:
    def test_make_wide_splits_imm64(self):
        first, second = make_wide(isa.LDDW, dst=4, imm64=0x1122334455667788)
        assert first.imm == 0x55667788
        assert second.imm == 0x11223344
        assert wide_imm64(first, second) == 0x1122334455667788

    def test_make_wide_negative_wraps(self):
        first, second = make_wide(isa.LDDW, dst=0, imm64=-1)
        assert wide_imm64(first, second) == (1 << 64) - 1

    def test_make_wide_rejects_narrow_opcode(self):
        with pytest.raises(EncodingError):
            make_wide(isa.MOV64_IMM, dst=0, imm64=1)

    def test_wide_name(self):
        first, _second = make_wide(isa.LDDW, dst=0, imm64=5)
        assert first.name == "lddw"


class TestProgramCodec:
    def test_program_roundtrip(self):
        slots = [
            Instruction(isa.MOV64_IMM, dst=0, imm=7),
            *make_wide(isa.LDDW, dst=1, imm64=1 << 40),
            Instruction(isa.EXIT),
        ]
        assert decode_program(encode_program(slots)) == slots

    def test_ragged_bytecode_rejected(self):
        with pytest.raises(EncodingError):
            decode_program(b"\x00" * 7)

    @given(st.binary(min_size=0, max_size=256).map(
        lambda b: b[: len(b) - len(b) % 8]))
    def test_decode_never_crashes_on_aligned_bytes(self, raw):
        slots = decode_program(raw)
        assert len(slots) == len(raw) // 8
