"""Affine induction facts for the JIT's self-loops (loop versioning).

A self-loop is a basic block whose conditional terminator branches back
to the block itself; the template JIT already folds it into a native
``while``.  Every iteration of that ``while`` still pays a window check
per load and store, its count bumps and a taken-branch budget test.  For
the common counted shape — a counter stepped down by one to zero, and
pointers stepped by a constant — all of those can be decided *once* at
loop entry from the trip count (the loop-versioning move of PREVAIL,
Gershuni et al., PLDI 2019, cut down to single-block loops).

:func:`affine_loop` is the install-time half: a pure analysis of one
block that accepts it when

* the terminator is ``jne rC, 0`` back to the block, and the body changes
  ``rC`` only by one ``sub rC, 1`` (or ``add rC, -1``), so a loop entered
  with ``rC = n >= 1`` runs exactly ``n`` iterations;
* every load and store goes through a base register that the body never
  changes, or changes only by one ``add``/``sub`` of an immediate (64-bit),
  so each access walks an arithmetic progression;
* the body holds no ``call`` and no division by a register — nothing else
  in it can fault.

The returned :class:`AffineLoop` names, per base register, the byte range
``[lo, hi)`` its accesses cover in one iteration relative to the
register's value at the start of that iteration, and the permission bits
they need.  The run-time half lives in the generated code
(:meth:`repro.vm.jit._Codegen.emit_versioned`): it widens each range over
the trip count and asks :meth:`repro.vm.memory.AccessList.span` whether
one region grants all of it.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.vm import isa
from repro.vm.predecode import BasicBlock, Decoded


class BaseRange(NamedTuple):
    """The accesses of one iteration through one base register."""

    reg: int
    #: Signed per-iteration step of the register (0: loop-invariant).
    step: int
    #: ``[lo, hi)`` relative to the register at the start of an iteration.
    lo: int
    hi: int
    #: Permission bits every access needs: 1 READ, 2 WRITE, 3 both.
    perms: int


class AffineLoop(NamedTuple):
    """What loop versioning needs to know about one self-loop body."""

    #: Counter register: stepped by -1, tested by the ``jne rC, 0`` exit.
    counter: int
    #: Induction register -> signed step per iteration (counter included).
    steps: dict[int, int]
    #: pc -> register of each induction update the unchecked copy drops:
    #: the body never reads that register as a value, so it gets a closed
    #: form after the loop instead.
    elided: dict[int, int]
    #: One entry per base register, in first-access order.
    bases: tuple[BaseRange, ...]
    #: Access pc -> its offset from its base at the start of an iteration.
    offsets: dict[int, int]
    #: Cost class -> instructions of that class per iteration (exit
    #: branch included).
    per_iteration: dict[str, int]


def _reads_and_writes(d: Decoded) -> tuple[set[int], set[int], int | None]:
    """Registers ``d`` reads as a value, writes, and uses as an address."""
    cls = d.cls
    if cls in (isa.CLS_ALU64, isa.CLS_ALU):
        if d.op == isa.ALU_END:
            return {d.dst}, {d.dst}, None  # BE sets SRC_X: no source read
        reads = set() if d.op == isa.ALU_MOV else {d.dst}
        if d.use_reg:
            reads.add(d.src)
        return reads, {d.dst}, None
    if cls == isa.CLS_LDX:
        return set(), {d.dst}, d.src
    if cls == isa.CLS_STX:
        return {d.src}, set(), d.dst
    if cls == isa.CLS_ST:
        return set(), set(), d.dst
    if cls == isa.CLS_LD:
        return set(), {d.dst}, None
    return set(), set(), None


def _step(d: Decoded) -> int | None:
    """Signed step of an ``add``/``sub`` of an immediate (64-bit), else None."""
    if d.cls != isa.CLS_ALU64 or d.use_reg:
        return None
    if d.op == isa.ALU_ADD:
        return d.imm  # the signed immediate, sign-extended to 64 bits
    if d.op == isa.ALU_SUB:
        return -d.imm
    return None


def affine_loop(decoded: list[Decoded], block: BasicBlock) -> AffineLoop | None:
    """Versioning facts for the self-loop ``block``, or None if it does
    not have the counted, affine shape (see the module docstring)."""
    term = block.term
    if (block.kind != "branch" or term.target != block.start
            or term.opcode != isa.CLS_JMP | isa.JMP_JNE | isa.SRC_K
            or term.imm64 != 0):
        return None

    writes: dict[int, list[int]] = {}   # register -> pcs writing it
    value_reads: dict[int, list[int]] = {}  # register -> pcs reading it
    accesses: list[tuple[int, int]] = []  # (pc, base register)
    for pc in block.body:
        d = decoded[pc]
        if d.opcode == isa.CALL:
            return None
        if (d.cls in (isa.CLS_ALU64, isa.CLS_ALU) and d.use_reg
                and d.op in (isa.ALU_DIV, isa.ALU_MOD)):
            return None
        reads, written, base = _reads_and_writes(d)
        for reg in reads:
            value_reads.setdefault(reg, []).append(pc)
        for reg in written:
            writes.setdefault(reg, []).append(pc)
        if base is not None:
            accesses.append((pc, base))

    # An induction register has exactly one write, an immediate step.
    steps: dict[int, int] = {}
    update_pc: dict[int, int] = {}
    for reg, pcs in writes.items():
        step = _step(decoded[pcs[0]]) if len(pcs) == 1 else None
        if step is not None:
            steps[reg] = step
            update_pc[reg] = pcs[0]
    counter = term.dst
    if steps.get(counter) != -1:
        return None

    offsets: dict[int, int] = {}
    ranges: dict[int, list[int]] = {}  # base -> [lo, hi, perms]
    for pc, base in accesses:
        if base in writes and base not in steps:
            return None  # the base moves in a way the range cannot follow
        d = decoded[pc]
        offset = d.offset
        if base in steps and update_pc[base] < pc:
            offset += steps[base]  # the access sees the stepped register
        offsets[pc] = offset
        perms = 1 if d.cls == isa.CLS_LDX else 2
        entry = ranges.get(base)
        if entry is None:
            ranges[base] = [offset, offset + d.size, perms]
        else:
            entry[0] = min(entry[0], offset)
            entry[1] = max(entry[1], offset + d.size)
            entry[2] |= perms

    # An update whose register the body reads as a value (beyond the
    # update's own read of it) must stay exact on every iteration.
    elided = {
        update_pc[reg]: reg for reg in steps
        if all(pc == update_pc[reg] for pc in value_reads.get(reg, ()))
    }
    per_iteration: dict[str, int] = {"branch": 1}
    for pc in block.body:
        kind = decoded[pc].kind
        per_iteration[kind] = per_iteration.get(kind, 0) + 1
    return AffineLoop(
        counter=counter,
        steps=steps,
        elided=elided,
        bases=tuple(BaseRange(reg, steps.get(reg, 0), lo, hi, perms)
                    for reg, (lo, hi, perms) in ranges.items()),
        offsets=offsets,
        per_iteration=per_iteration,
    )
