"""Pre-flight instruction checker (paper §7, "Pre-flight instruction checks").

The checker runs once, when an application is loaded for the first time.
It rejects programs that could not possibly execute safely, so that the
interpreter never needs to re-validate jump targets at runtime:

* every opcode must be a known instruction;
* register fields must name existing registers (r0..r10), and the read-only
  stack pointer r10 must never appear as an ALU/load destination;
* jump targets must land inside the program text and never in the middle of
  a wide (two-slot) instruction;
* ``call`` immediates must reference helpers allowed by the container's
  contract;
* immediate divisors of zero and out-of-range shift amounts are rejected;
* the program must end in ``exit`` (or an unconditional backward jump), and
  its length is bounded by the N_i instruction budget.

Together with the runtime N_b taken-branch budget this bounds every
execution to at most N_i * N_b instructions — the paper's finite-execution
guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memo import seal_hash
from repro.vm import isa
from repro.vm.errors import VerificationError
from repro.vm.program import Program


@dataclass(frozen=True)
class VerifierConfig:
    """Limits and grants applied during pre-flight checking.

    Instances are hashable and key the process-wide image cache (a
    verification verdict is only shareable between attaches that ran
    under the *same* limits and helper grants), so ``allowed_helpers``
    is coerced to a frozenset even when a caller passes a mutable set.
    """

    #: N_i — maximum number of instruction slots in a program.
    max_instructions: int = 4096
    #: Helper ids the container's contract allows it to call.  ``None``
    #: means "any registered helper" (used for trusted local tooling).
    allowed_helpers: frozenset[int] | None = None
    #: When False, the rBPF data-section extension opcodes are rejected
    #: (models the original single-VM rBPF from the PEMWN'20 paper).
    allow_data_extensions: bool = True

    def __post_init__(self) -> None:
        if self.allowed_helpers is not None and not isinstance(
            self.allowed_helpers, frozenset
        ):
            object.__setattr__(
                self, "allowed_helpers", frozenset(self.allowed_helpers)
            )
        seal_hash(self)

    def __hash__(self) -> int:
        return self._hash


@dataclass
class VerificationReport:
    """Static facts gathered while checking; consumed by the engine."""

    instruction_count: int = 0
    branch_count: int = 0
    helper_ids: set[int] = field(default_factory=set)
    max_jump_target: int = 0


def verify(program: Program, config: VerifierConfig | None = None) -> VerificationReport:
    """Check ``program`` and return a report, or raise VerificationError."""
    config = config or VerifierConfig()
    slots = program.slots
    if not slots:
        raise VerificationError("empty program")
    if len(slots) > config.max_instructions:
        raise VerificationError(
            f"program has {len(slots)} slots, exceeding the N_i budget of "
            f"{config.max_instructions}"
        )

    report = VerificationReport()
    # First pass: find the slots that are wide-instruction continuations;
    # they are not valid instruction boundaries (and not valid jump targets).
    continuation = [False] * len(slots)
    pc = 0
    while pc < len(slots):
        ins = slots[pc]
        if ins.opcode in isa.WIDE_OPCODES:
            if pc + 1 >= len(slots):
                raise VerificationError("wide instruction truncated", pc)
            cont = slots[pc + 1]
            if cont.opcode != 0 or cont.dst or cont.src or cont.offset:
                raise VerificationError(
                    "malformed continuation slot of wide instruction", pc + 1
                )
            continuation[pc + 1] = True
            pc += 2
        else:
            pc += 1

    last_pc = 0
    for pc, ins in enumerate(slots):
        if continuation[pc]:
            continue
        last_pc = pc
        report.instruction_count += 1
        op = ins.opcode
        if op not in isa.VALID_OPCODES:
            raise VerificationError(f"unknown opcode 0x{op:02x}", pc)
        if not config.allow_data_extensions and op in (isa.LDDWD, isa.LDDWR):
            raise VerificationError(
                "data-section extension opcodes disabled by configuration", pc
            )

        # Register fields: 4 bits can name 16 registers but only 11 exist.
        if ins.dst >= isa.REG_COUNT or ins.src >= isa.REG_COUNT:
            raise VerificationError(
                f"register field out of range (dst=r{ins.dst}, src=r{ins.src})",
                pc,
            )
        # r10 is read-only: it may base a store address but never receive a
        # register write.
        if ins.dst == isa.REG_STACK and op in isa.REGISTER_WRITE_OPCODES:
            raise VerificationError("write to read-only register r10", pc)

        cls = op & isa.CLS_MASK
        if cls in (isa.CLS_ALU, isa.CLS_ALU64):
            _check_alu(ins, pc)
        elif op in isa.BRANCH_OPCODES:
            report.branch_count += 1
            target = pc + 1 + ins.offset
            if not 0 <= target < len(slots):
                raise VerificationError(
                    f"jump target {target} outside program of {len(slots)} slots",
                    pc,
                )
            if continuation[target]:
                raise VerificationError(
                    f"jump target {target} lands inside a wide instruction", pc
                )
            report.max_jump_target = max(report.max_jump_target, target)
        elif op == isa.CALL:
            helper_id = ins.imm
            if config.allowed_helpers is not None and helper_id not in config.allowed_helpers:
                raise VerificationError(
                    f"helper 0x{helper_id:02x} not allowed by contract", pc
                )
            report.helper_ids.add(helper_id)
        elif op == isa.LDDWD:
            if ins.imm >= max(len(program.data), 1) and ins.imm != 0:
                raise VerificationError(
                    f"lddwd immediate {ins.imm} outside .data section "
                    f"({len(program.data)} bytes)",
                    pc,
                )
        elif op == isa.LDDWR:
            if ins.imm >= max(len(program.rodata), 1) and ins.imm != 0:
                raise VerificationError(
                    f"lddwr immediate {ins.imm} outside .rodata section "
                    f"({len(program.rodata)} bytes)",
                    pc,
                )

    last = slots[last_pc]
    terminates = last.opcode == isa.EXIT or (
        last.opcode == isa.JA and last.offset < 0
    )
    if not terminates:
        raise VerificationError(
            "program may fall through its end (must finish with exit)", last_pc
        )
    return report


def _check_alu(ins, pc: int) -> None:
    """Immediate-operand sanity for ALU instructions."""
    op = ins.opcode & isa.OP_MASK
    is_imm = not ins.opcode & isa.SRC_X
    width = 64 if (ins.opcode & isa.CLS_MASK) == isa.CLS_ALU64 else 32
    if op in (isa.ALU_DIV, isa.ALU_MOD) and is_imm and ins.imm == 0:
        raise VerificationError("division by zero immediate", pc)
    if op in (isa.ALU_LSH, isa.ALU_RSH, isa.ALU_ARSH) and is_imm:
        if not 0 <= ins.imm < width:
            raise VerificationError(
                f"shift amount {ins.imm} out of range for {width}-bit op", pc
            )
    if op == isa.ALU_END and ins.imm not in (16, 32, 64):
        raise VerificationError(f"byteswap width {ins.imm} not in (16, 32, 64)", pc)
