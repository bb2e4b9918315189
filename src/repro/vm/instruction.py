"""Instruction representation and binary codec for the eBPF bytecode."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.vm import isa
from repro.vm.errors import EncodingError

#: struct layout of one 8-byte instruction slot (little endian):
#: opcode u8, regs u8 (dst low nibble / src high nibble), offset i16, imm i32.
_SLOT = struct.Struct("<BBhi")

#: Size in bytes of one instruction slot.
SLOT_SIZE = 8


@dataclass(frozen=True)
class Instruction:
    """One 8-byte eBPF instruction slot.

    Wide (two-slot) instructions such as ``lddw`` are represented as the
    first slot carrying the low 32 bits of the immediate, followed by a
    continuation slot (opcode 0) carrying the high 32 bits, exactly as in
    the binary format.  Helpers below assemble/disassemble the pairs.
    """

    opcode: int
    dst: int = 0
    src: int = 0
    offset: int = 0
    imm: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.opcode <= 0xFF:
            raise EncodingError(f"opcode out of range: {self.opcode}")
        if not 0 <= self.dst <= 0xF or not 0 <= self.src <= 0xF:
            raise EncodingError(
                f"register field out of range: dst={self.dst} src={self.src}"
            )
        if not -(1 << 15) <= self.offset < (1 << 15):
            raise EncodingError(f"offset out of range: {self.offset}")
        if not -(1 << 31) <= self.imm < (1 << 32):
            raise EncodingError(f"immediate out of range: {self.imm}")

    @property
    def name(self) -> str:
        """Canonical mnemonic, or ``data`` for continuation slots."""
        return isa.OPCODE_NAMES.get(self.opcode, "data")

    def encode(self) -> bytes:
        """Encode this slot into its 8-byte binary form."""
        imm = self.imm
        if imm >= 1 << 31:  # allow unsigned 32-bit immediates on input
            imm -= 1 << 32
        return _SLOT.pack(self.opcode, (self.src << 4) | self.dst, self.offset, imm)

    @classmethod
    def decode(cls, raw: bytes | memoryview, index: int = 0) -> "Instruction":
        """Decode the 8-byte slot starting at ``index * 8``."""
        opcode, regs, offset, imm = _SLOT.unpack_from(raw, index * SLOT_SIZE)
        return cls(opcode=opcode, dst=regs & 0xF, src=regs >> 4, offset=offset, imm=imm)


def make_wide(opcode: int, dst: int, imm64: int, src: int = 0) -> tuple[Instruction, Instruction]:
    """Build the two slots of a wide (64-bit immediate) instruction."""
    if opcode not in isa.WIDE_OPCODES:
        raise EncodingError(f"opcode 0x{opcode:02x} is not a wide instruction")
    if imm64 < 0:
        imm64 &= (1 << 64) - 1
    if imm64 >= 1 << 64:
        raise EncodingError(f"64-bit immediate out of range: {imm64}")
    low = imm64 & 0xFFFFFFFF
    high = (imm64 >> 32) & 0xFFFFFFFF
    return (
        Instruction(opcode=opcode, dst=dst, src=src, imm=low),
        Instruction(opcode=0, imm=high),
    )


def wide_imm64(first: Instruction, second: Instruction) -> int:
    """Recombine the 64-bit immediate of a wide instruction pair."""
    low = first.imm & 0xFFFFFFFF
    high = second.imm & 0xFFFFFFFF
    return (high << 32) | low


def encode_program(slots: list[Instruction]) -> bytes:
    """Encode a list of instruction slots into flat bytecode."""
    return b"".join(slot.encode() for slot in slots)


def decode_program(raw: bytes) -> list[Instruction]:
    """Decode flat bytecode into instruction slots.

    Raises :class:`EncodingError` when the text length is not a whole number
    of slots; individual opcodes are *not* validated here (that is the
    verifier's job, mirroring the C implementation's split between loader
    and pre-flight checker).
    """
    if len(raw) % SLOT_SIZE != 0:
        raise EncodingError(
            f"bytecode length {len(raw)} is not a multiple of {SLOT_SIZE}"
        )
    # One pass over the image with a preallocated Struct iterator instead of
    # a fresh unpack_from per slot; images are decoded on every SUIT install.
    return [
        Instruction(opcode=opcode, dst=regs & 0xF, src=regs >> 4,
                    offset=offset, imm=imm)
        for opcode, regs, offset, imm in _SLOT.iter_unpack(raw)
    ]
