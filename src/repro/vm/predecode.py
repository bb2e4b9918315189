"""One-time pre-decoding of instruction slots into flat execution records.

The paper's §11 discussion proposes erasing interpretation overhead by
doing the expensive per-instruction work *once, at install time*.  This
module is the shared first stage of that idea: it flattens every 8-byte
slot of a :class:`~repro.vm.program.Program` into a :class:`Decoded`
record carrying everything the execution engines would otherwise have to
recompute on every visit — the cost-class string, the instruction class
bits, the memory access width, the masked immediate operands, the
resolved branch target, and the fully-resolved 64-bit immediate of wide
(``lddw``/``lddwd``/``lddwr``) instructions including their data-section
base relocation.

Both the interpreter's dispatch loop and the template JIT compiler
consume this table, so the two engines decode bytecode in exactly one
place.  Pre-decoding is purely a *representation* change: it performs no
checks of its own (illegal opcodes simply get ``kind = None`` and fault
when reached), and it never alters instruction accounting.
"""

from __future__ import annotations

from repro.vm import isa
from repro.vm.instruction import Instruction
from repro.vm.memory import DATA_BASE, RODATA_BASE

_M64 = (1 << 64) - 1
_M32 = (1 << 32) - 1


class Decoded:
    """One pre-decoded instruction slot (plain attributes, no behavior)."""

    __slots__ = (
        "ins",        # the original Instruction (for CertFC's checks)
        "opcode",
        "cls",        # opcode & CLS_MASK
        "op",         # opcode & OP_MASK (ALU / JMP operation selector)
        "kind",       # InstructionKind cost class, or None for illegal opcodes
        "dst",
        "src",
        "offset",
        "imm",
        "imm64",      # imm masked to 64 bits (ALU64 / ST immediate operand)
        "use_reg",    # SRC_X bit: operand comes from the source register
        "size",       # memory access width in bytes (0 for non-memory ops)
        "target",     # resolved branch target pc (branches only, else 0)
        "wide_value",  # resolved 64-bit immediate for wide ops (None if truncated)
    )

    def __init__(self, ins: Instruction, pc: int, next_imm: int | None) -> None:
        opcode = ins.opcode
        self.ins = ins
        self.opcode = opcode
        self.cls = opcode & isa.CLS_MASK
        self.op = opcode & isa.OP_MASK
        self.kind = isa.KIND_TABLE[opcode]
        self.dst = ins.dst
        self.src = ins.src
        self.offset = ins.offset
        self.imm = ins.imm
        self.imm64 = ins.imm & _M64
        self.use_reg = bool(opcode & isa.SRC_X)
        self.size = (
            isa.SIZE_TABLE[opcode & isa.SZ_MASK]
            if self.cls in (isa.CLS_LDX, isa.CLS_ST, isa.CLS_STX)
            else 0
        )
        self.target = (
            pc + 1 + ins.offset
            if self.cls in (isa.CLS_JMP, isa.CLS_JMP32)
            else 0
        )
        if opcode in isa.WIDE_OPCODES:
            if next_imm is None:
                self.wide_value = None  # truncated: faults when executed
            else:
                value = ((next_imm & _M32) << 32) | (ins.imm & _M32)
                if opcode == isa.LDDWD:
                    value = (DATA_BASE + value) & _M64
                elif opcode == isa.LDDWR:
                    value = (RODATA_BASE + value) & _M64
                self.wide_value = value
        else:
            self.wide_value = None


def find_leaders(decoded: list[Decoded]) -> tuple[list[int], set[int]]:
    """Basic-block leaders of a pre-decoded program.

    Returns ``(leaders, back_targets)``: the sorted leader pcs and the
    subset that is targeted by a backward branch (loop heads).  The JIT
    uses the latter both to order its dispatch chain hottest-first and to
    seed natural-loop detection.
    """
    leaders = {0}
    back_targets: set[int] = set()
    pc = 0
    n = len(decoded)
    while pc < n:
        d = decoded[pc]
        step = 2 if d.opcode in isa.WIDE_OPCODES else 1
        if (d.cls in (isa.CLS_JMP, isa.CLS_JMP32)
                and d.opcode not in (isa.CALL, isa.EXIT)):
            leaders.add(d.target)
            if d.target <= pc:
                back_targets.add(d.target)
            if d.opcode != isa.JA:
                leaders.add(pc + 1)
        pc += step
    return sorted(leaders), back_targets


class BasicBlock:
    """One straight-line block of a pre-decoded program.

    ``kind`` describes the terminator: ``"exit"`` (program return),
    ``"branch"`` (conditional or unconditional jump at pc ``tpc``, with
    ``term`` holding its :class:`Decoded` record), or ``"fall"`` (the
    block runs into the leader at pc ``tpc``; ``term`` is ``None``).
    """

    __slots__ = ("start", "body", "kind", "tpc", "term")

    def __init__(self, start: int, body: list[int], kind: str, tpc: int,
                 term: Decoded | None) -> None:
        self.start = start
        self.body = body
        self.kind = kind
        self.tpc = tpc
        self.term = term

    def successors(self) -> tuple[int, ...]:
        """Control-flow successor pcs (empty for ``exit`` blocks)."""
        if self.kind == "exit":
            return ()
        if self.kind == "fall":
            return (self.tpc,)
        if self.term.opcode == isa.JA:
            return (self.term.target,)
        return (self.term.target, self.tpc + 1)


def basic_blocks(decoded: list[Decoded],
                 leaders: list[int]) -> dict[int, BasicBlock]:
    """Partition ``decoded`` into :class:`BasicBlock` records by leader."""
    leader_set = set(leaders)
    n = len(decoded)
    blocks: dict[int, BasicBlock] = {}
    for start in leaders:
        body: list[int] = []
        kind, tpc, term = "fall", n, None
        pc = start
        while pc < n:
            d = decoded[pc]
            if d.cls in (isa.CLS_JMP, isa.CLS_JMP32) and d.opcode != isa.CALL:
                kind = "exit" if d.opcode == isa.EXIT else "branch"
                tpc, term = pc, d
                break
            body.append(pc)
            pc += 2 if d.opcode in isa.WIDE_OPCODES else 1
            if pc in leader_set:  # fallthrough edge into the next block
                kind, tpc, term = "fall", pc, None
                break
        blocks[start] = BasicBlock(start, body, kind, tpc, term)
    return blocks


def predecode(slots: list[Instruction]) -> list[Decoded]:
    """Flatten ``slots`` into one :class:`Decoded` record per slot.

    Continuation slots of wide instructions get their own records (with
    ``kind = None``, like any other illegal opcode) so the decoded list
    stays index-compatible with the raw slot list and a jump into the
    middle of a wide instruction faults exactly as before.
    """
    n = len(slots)
    return [
        Decoded(ins, pc, slots[pc + 1].imm if pc + 1 < n else None)
        for pc, ins in enumerate(slots)
    ]
