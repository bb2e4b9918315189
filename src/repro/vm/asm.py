"""Two-pass text assembler for the eBPF/rBPF instruction set.

The paper's applications are written in C and compiled with LLVM's eBPF
backend; without a C toolchain this assembler is how programs are authored
in the reproduction (see :mod:`repro.workloads` for the paper's example
applications written in this syntax).  It is the one instruction encoder
and label resolver: the femtoC compiler lowers to this text too.  Every
mnemonic resolves through :data:`repro.vm.isa.OPCODE_NAMES`, the table the
disassembler and verifier read, and every error names its source line.

Syntax summary::

    ; comment                         # comment and // comment also work
    entry:                            ; labels end with ':'
        mov   r0, 0                   ; ALU: dst, reg-or-imm
        add32 r1, 42
        neg   r2
        le    r3, 16                  ; byteswap: dst, width
        ldxh  r4, [r1+4]              ; loads: dst, [src+/-offset]
        stxdw [r10+8], r4             ; reg stores: [dst+offset], src
        stw   [r10+16], 7             ; imm stores: [dst+offset], imm
        lddw  r5, 0x1122334455667788  ; wide load (two slots)
        lddwr r6, 0                   ; address of .rodata + imm
        lddwd r7, 8                   ; address of .data + imm
        jeq   r1, 0, done             ; branches: dst, reg-or-imm, target
        ja    entry                   ; targets are labels or +N/-N slots
        call  bpf_fetch_global        ; helpers by name or numeric id
    done:
        exit
"""

from __future__ import annotations

import re

from repro.vm import isa
from repro.vm.errors import AssemblerError, EncodingError
from repro.vm.helpers import HELPER_IDS
from repro.vm.instruction import Instruction, make_wide
from repro.vm.program import Program

_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_MEM_RE = re.compile(r"^\[\s*(r\d+)\s*(?:([+-])\s*(\w+)\s*)?\]$")


def _mnemonic_table() -> dict[str, dict[int, int]]:
    table: dict[str, dict[int, int]] = {}
    for opcode, mnemonic in isa.OPCODE_NAMES.items():
        table.setdefault(mnemonic, {})[opcode & isa.SRC_X] = opcode
    return table


#: Mnemonic -> {source bit: opcode}, the inverse of ``isa.OPCODE_NAMES``.
#: ALU operations and conditional branches have an immediate (``SRC_K``)
#: and a register (``SRC_X``) form; every other mnemonic has one opcode,
#: whose bit 3 may belong to another field (``ldxh``'s size, ``be``).
_OPCODES = _mnemonic_table()
#: Mnemonics whose instruction fills two slots.
_WIDE_MNEMONICS = frozenset(isa.OPCODE_NAMES[op] for op in isa.WIDE_OPCODES)


def _strip_comment(line: str) -> str:
    for marker in (";", "#", "//"):
        idx = line.find(marker)
        if idx >= 0:
            line = line[:idx]
    return line.strip()


def _parse_int(text: str, line_no: int) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise AssemblerError(f"line {line_no}: expected integer, got {text!r}")


def _parse_reg(text: str, line_no: int) -> int:
    if not text.startswith("r") or not text[1:].isdigit():
        raise AssemblerError(f"line {line_no}: expected register, got {text!r}")
    reg = int(text[1:])
    if reg >= 16:
        raise AssemblerError(f"line {line_no}: register field overflow {text!r}")
    return reg


def _parse_mem(text: str, line_no: int) -> tuple[int, int]:
    match = _MEM_RE.match(text)
    if not match:
        raise AssemblerError(
            f"line {line_no}: expected memory operand [rN+off], got {text!r}"
        )
    reg = _parse_reg(match.group(1), line_no)
    offset = 0
    if match.group(3) is not None:
        offset = _parse_int(match.group(3), line_no)
        if match.group(2) == "-":
            offset = -offset
    return reg, offset


def _is_reg(text: str) -> bool:
    return text.startswith("r") and text[1:].isdigit()


class _Statement:
    """One instruction statement with its source position and slot index."""

    __slots__ = ("mnemonic", "operands", "line_no", "slot")

    def __init__(self, mnemonic: str, operands: list[str], line_no: int, slot: int):
        self.mnemonic = mnemonic
        self.operands = operands
        self.line_no = line_no
        self.slot = slot


def assemble(
    source: str,
    rodata: bytes = b"",
    data: bytes = b"",
    name: str = "app",
) -> Program:
    """Assemble eBPF text into a :class:`~repro.vm.program.Program`."""
    statements: list[_Statement] = []
    labels: dict[str, int] = {}
    slot = 0

    for line_no, raw_line in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw_line)
        if not line:
            continue
        while line.endswith(":") or ":" in line.split()[0]:
            head, _, rest = line.partition(":")
            head = head.strip()
            if not _LABEL_RE.match(head):
                raise AssemblerError(f"line {line_no}: bad label {head!r}")
            if head in labels:
                raise AssemblerError(f"line {line_no}: duplicate label {head!r}")
            labels[head] = slot
            line = rest.strip()
            if not line:
                break
        if not line:
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operands = (
            [op.strip() for op in parts[1].split(",")] if len(parts) > 1 else []
        )
        statements.append(_Statement(mnemonic, operands, line_no, slot))
        slot += 2 if mnemonic in _WIDE_MNEMONICS else 1

    slots: list[Instruction] = []
    for stmt in statements:
        try:
            slots.extend(_emit(stmt, labels))
        except EncodingError as exc:  # a field out of range
            raise AssemblerError(f"line {stmt.line_no}: {exc}") from exc
    return Program(slots=slots, rodata=rodata, data=data, name=name,
                   symbols=dict(labels))


def _emit(stmt: _Statement, labels: dict[str, int]) -> list[Instruction]:
    m, ops, ln = stmt.mnemonic, stmt.operands, stmt.line_no

    def need(count: int) -> None:
        if len(ops) != count:
            raise AssemblerError(
                f"line {ln}: {m} expects {count} operand(s), got {len(ops)}"
            )

    def branch_offset(text: str) -> int:
        if text in labels:
            return labels[text] - (stmt.slot + 1)
        if text.startswith(("+", "-")) or text.lstrip("-").isdigit():
            return _parse_int(text, ln)
        raise AssemblerError(f"line {ln}: unknown branch target {text!r}")

    forms = _OPCODES.get(m)
    if forms is None:
        raise AssemblerError(f"line {ln}: unknown mnemonic {m!r}")
    # The immediate form, or the only one; its class picks the syntax.
    opcode = forms.get(isa.SRC_K) or forms[isa.SRC_X]
    cls = opcode & isa.CLS_MASK

    if opcode in isa.WIDE_OPCODES:
        need(2)
        imm = _parse_int(ops[1], ln)
        return list(make_wide(opcode, dst=_parse_reg(ops[0], ln), imm64=imm))
    if opcode == isa.EXIT:
        need(0)
        return [Instruction(opcode)]
    if opcode == isa.CALL:
        need(1)
        helper_id = HELPER_IDS.get(ops[0])
        if helper_id is None:
            helper_id = _parse_int(ops[0], ln)
        return [Instruction(opcode, imm=helper_id)]
    if opcode == isa.JA:
        need(1)
        return [Instruction(opcode, offset=branch_offset(ops[0]))]
    if cls in (isa.CLS_JMP, isa.CLS_JMP32):
        need(3)
        dst = _parse_reg(ops[0], ln)
        offset = branch_offset(ops[2])
        if _is_reg(ops[1]):
            return [Instruction(forms[isa.SRC_X], dst=dst,
                                src=_parse_reg(ops[1], ln), offset=offset)]
        return [Instruction(opcode, dst=dst, offset=offset,
                            imm=_parse_int(ops[1], ln))]
    if cls == isa.CLS_LDX:
        need(2)
        dst = _parse_reg(ops[0], ln)
        src, offset = _parse_mem(ops[1], ln)
        return [Instruction(opcode, dst=dst, src=src, offset=offset)]
    if cls == isa.CLS_STX:
        need(2)
        dst, offset = _parse_mem(ops[0], ln)
        src = _parse_reg(ops[1], ln)
        return [Instruction(opcode, dst=dst, src=src, offset=offset)]
    if cls == isa.CLS_ST:
        need(2)
        dst, offset = _parse_mem(ops[0], ln)
        return [Instruction(opcode, dst=dst, offset=offset,
                            imm=_parse_int(ops[1], ln))]
    if opcode & isa.OP_MASK == isa.ALU_NEG:
        need(1)
        return [Instruction(opcode, dst=_parse_reg(ops[0], ln))]

    # ALU (64 and 32 bit) and byteswaps, whose operand is always a width.
    need(2)
    dst = _parse_reg(ops[0], ln)
    if len(forms) == 2 and _is_reg(ops[1]):
        return [Instruction(forms[isa.SRC_X], dst=dst,
                            src=_parse_reg(ops[1], ln))]
    return [Instruction(opcode, dst=dst, imm=_parse_int(ops[1], ln))]
