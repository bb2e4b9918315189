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

It also decides how the unchecked copy folds its body:

* ``words`` — four contiguous instructions ``ldxb rA, [rP+k]`` and
  ``ldxb rB, [rP+k+1]`` (either order), ``lsh rB, 8``, ``or rA, rB``
  become one 16-bit read, provided no other instruction in the body
  reads or writes ``rB`` and none after the word writes ``rA``; then
  ``rB`` is ``rA & 0xff00`` after the loop;
* ``gathers`` — with no store in the body, each stepping base's loads form
  one fixed record per iteration, read for all iterations at entry;
  None when the body stores, a base with loads does not step, or loads
  overlap within a record or across records;
* ``deferred`` — registers every write and read of which is a 64-bit
  ``add``/``sub``, other than the counter, the bases and elided updates,
  and not fed by themselves through such adds: their growth over ``n``
  iterations stays polynomial in ``n``, so masking them once after the
  loop is exact and cheap.
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


class Gather(NamedTuple):
    """One base register's loads, read for every iteration at loop entry."""

    reg: int
    step: int
    #: Offset of the record's first byte from the register at the start
    #: of an iteration.
    lo: int
    #: ``struct`` codes of one iteration's record: its loads in address
    #: order, with ``x`` pads between them.
    fields: str
    #: Bytes between one record's end and the next record's start.
    pad: int
    #: Per load, in address order: its pc, and whether the loop header
    #: may bind its register (nothing earlier in the body touches it).
    binds: tuple[tuple[int, bool], ...]


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
    #: First pc of each byte-assembled word -> ``(rA, rB)``; its offset
    #: in ``offsets`` is the low byte's (see :func:`_word`).
    words: dict[int, tuple[int, int]]
    #: The other three pcs of each word: the unchecked copy drops them.
    absorbed: frozenset[int]
    #: Registers the unchecked copy wraps once, after the loop.
    deferred: frozenset[int]
    #: The loads each base register reads for every iteration at loop
    #: entry, or None when the body must index its views per iteration.
    gathers: tuple[Gather, ...] | None


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
    arith: set[int] = set()  # pcs of 64-bit add/sub
    per_iteration: dict[str, int] = {"branch": 1}
    for pc in block.body:
        d = decoded[pc]
        if d.opcode == isa.CALL:
            return None
        per_iteration[d.kind] = per_iteration.get(d.kind, 0) + 1
        if d.cls in (isa.CLS_ALU64, isa.CLS_ALU):
            if d.use_reg and d.op in (isa.ALU_DIV, isa.ALU_MOD):
                return None
            if d.cls == isa.CLS_ALU64 and d.op in (isa.ALU_ADD, isa.ALU_SUB):
                arith.add(pc)
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

    body = block.body
    words: dict[int, tuple[int, int]] = {}
    absorbed: set[int] = set()
    for i in range(3, len(body)):
        if decoded[body[i]].opcode != isa.OR64_REG:
            continue
        group = body[i - 3:i + 1]
        word = None if absorbed & set(group) else _word(decoded, group)
        if word is None:
            continue
        reg_a, reg_b, low = word
        # rB lives only inside the group, and rA holds the word to the
        # end of the iteration, so rB's closed form can be taken from it.
        if (set(writes[reg_b]) | set(value_reads.get(reg_b, ()))
                <= set(group) and max(writes[reg_a]) <= group[3]):
            words[group[0]] = (reg_a, reg_b)
            offsets[group[0]] = offsets[low]
            absorbed.update(group[1:])

    return AffineLoop(
        counter=counter,
        steps=steps,
        elided=elided,
        bases=tuple(BaseRange(reg, steps.get(reg, 0), lo, hi, perms)
                    for reg, (lo, hi, perms) in ranges.items()),
        offsets=offsets,
        per_iteration=per_iteration,
        words=words,
        absorbed=frozenset(absorbed),
        deferred=_deferred(decoded, writes, value_reads, arith,
                           {*ranges, *elided.values(), counter}),
        gathers=_gathers(decoded, body, steps, offsets, words, absorbed,
                         writes, value_reads),
    )


def _word(decoded: list[Decoded],
          group: list[int]) -> tuple[int, int, int] | None:
    """``(rA, rB, pc of the low byte's load)`` when the four instructions
    at ``group`` assemble one little-endian 16-bit word: ``ldxb`` of two
    adjacent bytes off one base (in either order), ``lsh rB, 8`` and
    ``or rA, rB`` (64-bit)."""
    first, second, shift, join = (decoded[pc] for pc in group)
    reg_a, reg_b = join.dst, join.src
    if not (first.opcode == second.opcode == isa.LDXB
            and first.src == second.src
            and shift.opcode == isa.LSH64_IMM and shift.dst == reg_b
            and shift.imm == 8 and join.opcode == isa.OR64_REG
            and reg_a != reg_b and {first.dst, second.dst} == {reg_a, reg_b}):
        return None
    low, high = (0, 1) if first.dst == reg_a else (1, 0)
    if decoded[group[high]].offset != decoded[group[low]].offset + 1:
        return None
    return reg_a, reg_b, group[low]


def _deferred(decoded: list[Decoded], writes: dict[int, list[int]],
              value_reads: dict[int, list[int]], arith: set[int],
              exclude: set[int]) -> frozenset[int]:
    """Registers whose every write in the body is a 64-bit ``add`` or
    ``sub`` and whose every read is an operand of one: reduction mod 2**64
    commutes with both, so they may wrap once after the loop.

    A register fed by itself, directly or through other such registers,
    would double its magnitude every iteration, so it keeps its per-op
    wrap (and so does every register it feeds).
    """
    candidates = {
        reg for reg, pcs in writes.items()
        if reg not in exclude and arith.issuperset(pcs)
        and arith.issuperset(value_reads.get(reg, ()))
    }
    feeds = {reg: {decoded[pc].src for pc in writes[reg]
                   if decoded[pc].use_reg} & candidates
             for reg in candidates}
    settled: set[int] = set()
    while ready := {reg for reg in candidates - settled
                    if feeds[reg] <= settled}:
        settled |= ready
    return frozenset(settled)


_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _gathers(decoded: list[Decoded], body: list[int], steps: dict[int, int],
             offsets: dict[int, int], words: dict[int, tuple[int, int]],
             absorbed: set[int], writes: dict[int, list[int]],
             value_reads: dict[int, list[int]]) -> tuple[Gather, ...] | None:
    """Each base's loads as one record per iteration, or None when the
    body stores (memory could change under the loop), a base does not
    step, or one iteration's loads overlap each other or the next
    iteration's."""
    loads: dict[int, list[tuple[int, int, int]]] = {}  # base -> fields
    binds: dict[int, bool] = {}
    for pc in body:
        d = decoded[pc]
        if d.cls in (isa.CLS_STX, isa.CLS_ST):
            return None
        if pc in words:
            dst, size = words[pc][0], 2
        elif d.cls == isa.CLS_LDX and pc not in absorbed:
            dst, size = d.dst, d.size
        else:
            dst = None
        if dst is not None:
            loads.setdefault(d.src, []).append((offsets[pc], size, pc))
            # No earlier instruction reads or writes it (a loaded
            # register is never a base).
            binds[pc] = min(writes[dst][0],
                            value_reads.get(dst, (pc,))[0]) >= pc
    gathers = []
    for reg, fields in loads.items():
        fields.sort()
        step = steps.get(reg, 0)
        lo = end = fields[0][0]
        codes = ""
        for offset, size, _ in fields:
            if offset < end:
                return None
            codes += (f"{offset - end}x" if offset > end else "") + _CODES[size]
            end = offset + size
        if not step or end - lo > abs(step):
            return None
        gathers.append(Gather(reg, step, lo, codes, abs(step) - (end - lo),
                              tuple((pc, binds[pc]) for *_, pc in fields)))
    return tuple(gathers)
