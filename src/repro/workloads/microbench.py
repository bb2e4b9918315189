"""Per-instruction microbenchmarks (paper Fig 8).

For each instruction kind plotted in Fig 8 we generate a pair of programs:
a *measurement* program whose loop body contains ``unroll`` copies of the
target instruction, and a *baseline* with an empty body.  The marginal cost
of one instruction is ``(T_meas - T_base) / (iterations * unroll)`` — the
standard unrolled-loop methodology, executed for real on the instrumented
interpreter so dispatch overhead and loop bookkeeping are measured, not
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.vm.program import Program
from repro.vm.asm import assemble

#: The twelve instructions of Fig 8, in the paper's plotting order.
FIG8_INSTRUCTIONS = (
    ("alu_neg", "ALU negate", "neg r3"),
    ("alu_add", "ALU Add", "add r3, r4"),
    ("alu_add_imm", "ALU Add imm", "add r3, 1"),
    ("alu_mul_imm", "ALU multiply imm", "mul r3, 3"),
    ("alu_rsh_imm", "ALU right shift imm", "rsh r3, 1"),
    ("alu_div_imm", "ALU divide imm", "div r3, 3"),
    ("mem_ldxdw", "MEM load double", "ldxdw r3, [r10+8]"),
    ("mem_stdw_imm", "MEM store double imm", "stdw [r10+8], 42"),
    ("mem_stxdw", "MEM store double", "stxdw [r10+8], r3"),
    ("branch_ja", "Branch always", "ja +0"),
    ("branch_jeq_jump", "Branch equal (jump)", "jeq r5, 0, +0"),
    ("branch_jeq_cont", "Branch equal (continue)", "jeq r5, 1, +0"),
)


@dataclass(frozen=True)
class MicrobenchPair:
    """Measurement and baseline programs for one instruction."""

    key: str
    label: str
    measured: Program
    baseline: Program
    iterations: int
    unroll: int


def _loop_program(body: str, iterations: int, name: str) -> Program:
    source = f"""
    mov r3, 7
    mov r4, 5
    mov r5, 0
    mov r6, {iterations}
loop:
{body}
    sub r6, 1
    jne r6, 0, loop
    mov r0, r3
    exit
"""
    return assemble(source, name=name)


def build_pair(key: str, iterations: int = 64, unroll: int = 16) -> MicrobenchPair:
    """Build the measurement/baseline pair for one Fig 8 instruction."""
    for candidate_key, label, snippet in FIG8_INSTRUCTIONS:
        if candidate_key == key:
            body = "\n".join(f"    {snippet}" for _ in range(unroll))
            return MicrobenchPair(
                key=key,
                label=label,
                measured=_loop_program(body, iterations, f"ubench-{key}"),
                baseline=_loop_program("", iterations, "ubench-baseline"),
                iterations=iterations,
                unroll=unroll,
            )
    raise KeyError(f"unknown microbench instruction {key!r}")


def all_pairs(iterations: int = 64, unroll: int = 16) -> list[MicrobenchPair]:
    """All twelve Fig 8 pairs, in plotting order."""
    return [
        build_pair(key, iterations, unroll)
        for key, _label, _snippet in FIG8_INSTRUCTIONS
    ]
