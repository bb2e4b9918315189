"""Install-time template JIT: eBPF bytecode to generated Python (paper §11).

The discussion section proposes removing interpretation overhead by
transpiling portable eBPF bytecode into native instructions *once, at
install time, on the device*.  This module implements that design point
for the simulation as a real template JIT: a verified program is lowered
into Python **source code** — one ``if _t == <pc>:`` dispatch arm per
basic block, registers as local variables, operands and branch targets
constant-folded from the pre-decoded slot table — then compiled with
:func:`compile`/``exec`` into a single function executed per run.  There
is no per-instruction dispatch at all; the only per-run work the template
leaves behind is exactly what cannot be hoisted:

* **memory checks** — loads and stores go through the access list, whose
  computed addresses the verifier does not bound.  A *versioned loop*
  checks them once instead: a counted self-loop whose accesses walk
  affine pointers (:mod:`repro.vm.induction`) tests, at entry, its trip
  count against the branch budget and each pointer's whole range
  against one region with :meth:`~repro.vm.memory.AccessList.span`, then
  runs an unchecked copy of its body with counts bumped once after the
  loop; any failing test runs the checked loop, which raises the exact
  reference fault.  The counts stay exact, so the modelled device still
  pays for every check: only host time is saved;
* the **N_b taken-branch budget**, enforced at block edges;
* **division-by-register** zero checks and helper-call containment.

Three structural optimizations ride on top of the block template:

* **natural-loop folding** — a conditional branch back to its own block
  becomes a native ``while``, and *multi-block* natural loops (head-only
  entry, contiguous leader interval) fold into a nested dispatch loop
  over just their member blocks, so iterating a loop never re-traverses
  the top-level dispatch chain;
* **fallthrough superblocks** — when a block runs into the next leader,
  the successor is inlined in place (bounded by ``_Codegen.INLINE_CAP``),
  so per-kind counts keep batching across the boundary: no faultable
  instruction intervenes there, hence no flush and no dispatch round-trip.
  A self-loop is never inlined: it keeps one copy in its own arm;
* **folded unchecked bodies** — a versioned loop's unchecked copy gets
  three rewrites, each refused unless the body's facts
  (:func:`~repro.vm.induction.affine_loop`) make it exact:

  - a *byte-assembled word* (``ldxb rA``/``ldxb rB`` of adjacent bytes,
    ``lsh rB, 8``, ``or rA, rB``) is one 16-bit read into ``rA``, and
    ``rB = rA & 0xff00`` after the loop; refused when the bytes are not
    adjacent, anything else in the body touches ``rB``, or ``rA`` is
    written after the word;
  - *read once*: a body without stores reads all iterations' loads at
    entry, one ``unpack_from`` per base, and iterates the values; refused
    when the body stores, a base does not step, or one iteration's loads
    overlap each other or the next iteration's;
  - *wrap once*: a register whose every write and read in the body is a
    64-bit ``add``/``sub`` holds an unbounded int in the loop and is
    masked after it (reduction mod 2**64 commutes with both); refused for
    the counter, address bases, a register any other instruction reads,
    and one fed by itself directly or through other such registers.

  The checked loop under the entry guard is left as it is.

The hot path touches only Python locals.  Per-run state that the
interpreter keeps on objects lives in the template's frame instead:

* **counts** — one local per cost class the program contains
  (``_k_alu``, ``_k_load``, ...) and the taken-branch count ``_br``.
  Counts are always batched per straight-line segment and bumped
  *before* every faultable operation (the N_b budget is checked at block
  edges, so no instruction needs its own count), and a
  ``try``/``finally`` around the dispatch loop publishes the locals to
  ``kind_counts`` and ``branches_taken`` on every way out — return or
  fault — so a faulted run carries exactly the same
  :class:`~repro.vm.interpreter.ExecutionStats` the interpreter would
  have produced.  The locals are also published before each helper call,
  so a helper sees the accounting of the run so far.  The per-platform
  cycle models (Fig. 8, Table 2/4) are engine-independent and never see
  which engine executed the program;
* **memory windows** — a read window and a separate write window
  (``start``, ``end``, ``memoryview`` each) over the last region a
  slow-path access resolved.  A window is filled only after a
  *successful* ``AccessList.load``/``store``, which proves the READ or
  WRITE permission, and both are dropped after every helper call,
  because helpers may map or revoke regions and write VM memory.  A
  memory fault names its instruction: each slow-path call sits on its
  own template line, which :attr:`CompiledTemplate.slow_pcs` maps to its
  pc, so a window hit pays nothing for it.

Faithful to the paper's constraints, compilation happens only after
pre-flight verification (the generated code *relies* on the verifier's
guarantees: in-range jump targets, non-zero immediate divisors, shift
amounts in range, intact wide pairs), and installation charges a one-time
cost (modelled per platform) traded against per-run speedup — the
ablation benchmark ``benchmarks/test_sec11_ablations.py`` measures the
crossover.  The compiled template itself is **pure**: every piece of
per-run state (registers, access list, stats, helper trampoline, branch
budget) is passed in as an argument or lives in the call's own frame
(count locals, memory windows), which is what lets the process-wide
:data:`~repro.vm.imagecache.IMAGE_CACHE` share one template, inside the
image's instance prototype, across all container instances of the same
image (keyed by content hash) — attach re-charges the modelled install
cost, but the host does the expensive transpile/compile work once per
image, not once per instance.
"""

from __future__ import annotations

import struct as _struct
from dataclasses import replace
from typing import Callable

from repro.vm import isa
from repro.vm.imagecache import CompiledTemplate, InstancePrototype
from repro.vm.induction import AffineLoop, BaseRange, affine_loop
from repro.vm.predecode import Decoded, basic_blocks, find_leaders
from repro.vm.errors import (
    BranchLimitFault,
    DivisionFault,
    HelperFault,
    IllegalInstructionFault,
    MemoryFault,
    VMFault,
)
from repro.vm.helpers import HelperRegistry
from repro.vm.interpreter import (
    ExecutionStats,
    Interpreter,
    VMConfig,
)
from repro.vm.memory import AccessList
from repro.vm.program import Program
from repro.vm.verifier import VerifierConfig

_M64 = (1 << 64) - 1
_M32 = (1 << 32) - 1
_H64 = "0xffffffffffffffff"
_H32 = "0xffffffff"


def _s64(value: int) -> int:
    return value - (1 << 64) if value >= (1 << 63) else value


def _s32(value: int) -> int:
    value &= _M32
    return value - (1 << 32) if value >= (1 << 31) else value


# -- runtime support injected into the generated code's globals -------------

def _div_fault(pc: int) -> None:
    raise DivisionFault("division by zero", pc)


def _mod_fault(pc: int) -> None:
    raise DivisionFault("modulo by zero", pc)


def _branch_fault(limit: int, pc: int) -> None:
    raise BranchLimitFault(
        f"taken-branch budget N_b={limit} exhausted", pc
    )


def _bad_target(target: int) -> None:  # pragma: no cover - verifier forbids
    raise IllegalInstructionFault(f"jump to unmapped block at pc {target}")


def _window(mem: AccessList) -> tuple[int, int, memoryview]:
    """Start, end and view of the region the last access resolved."""
    region = mem._mru
    return region.start, region._end, region._view


def _bswap16(value: int) -> int:
    return int.from_bytes((value & 0xFFFF).to_bytes(2, "little"), "big")


def _bswap32(value: int) -> int:
    return int.from_bytes((value & _M32).to_bytes(4, "little"), "big")


def _bswap64(value: int) -> int:
    return int.from_bytes((value & _M64).to_bytes(8, "little"), "big")


_JIT_GLOBALS = {
    "_div_fault": _div_fault,
    "_mod_fault": _mod_fault,
    "_branch_fault": _branch_fault,
    "_bad_target": _bad_target,
    "_window": _window,
    "_bswap16": _bswap16,
    "_bswap32": _bswap32,
    "_bswap64": _bswap64,
    # Width-specialized packers for the inlined memory fast path.
    "_u2": _struct.Struct("<H").unpack_from,
    "_u4": _struct.Struct("<I").unpack_from,
    "_u8": _struct.Struct("<Q").unpack_from,
    "_p2": _struct.Struct("<H").pack_into,
    "_p4": _struct.Struct("<I").pack_into,
    "_p8": _struct.Struct("<Q").pack_into,
    # Versioned loops read every iteration's loads at entry.
    "_unpack_from": _struct.unpack_from,
}

_SIZE_MASK = {1: 0xFF, 2: 0xFFFF, 4: _M32, 8: _M64}

_UNSIGNED_CMP = {
    isa.JMP_JEQ: "==",
    isa.JMP_JNE: "!=",
    isa.JMP_JGT: ">",
    isa.JMP_JGE: ">=",
    isa.JMP_JLT: "<",
    isa.JMP_JLE: "<=",
}

_SIGNED_CMP = {
    isa.JMP_JSGT: ">",
    isa.JMP_JSGE: ">=",
    isa.JMP_JSLT: "<",
    isa.JMP_JSLE: "<=",
}


class _Codegen:
    """Lowers one verified, pre-decoded program to Python source."""

    #: Cap on slots inlined into one dispatch arm by fallthrough-chain
    #: extension (bounds generated-code growth; see :meth:`emit_block`).
    INLINE_CAP = 64

    def __init__(self, decoded: list[Decoded]) -> None:
        self.decoded = decoded
        self.lines: list[str] = []
        self.pending: dict[str, int] = {}
        self.indent = ""
        #: Cost classes this program contains: one count local each.
        self.kinds = sorted(
            {d.kind for d in self.decoded if d.kind is not None}
        )
        #: Memory windows the program needs: read ("_r"), write ("_w").
        self.windows = [window for kind, window in (("load", "_r"),
                                                    ("store", "_w"))
                        if kind in self.kinds]
        self.leaders, self.back_targets = find_leaders(self.decoded)
        self.blocks = basic_blocks(self.decoded, self.leaders)
        self.loops = self.find_loops()
        #: leader -> head of the folded loop it belongs to (heads included).
        self.member_of = {
            member: head
            for head, members in self.loops.items()
            for member in members
        }
        # Emission context: the dispatch variable and the member set of
        # the folded loop currently being emitted (None at top level).
        self.var = "_t"
        self.region: frozenset[int] | None = None
        #: The versioned loop whose unchecked copy is being emitted, and
        #: the body line of each load it reads at entry ("" when none).
        self.unchecked: AffineLoop | None = None
        self.fetch: dict[int, str] = {}
        #: Template line -> pc of the slow-path access on it, and the
        #: (arm line index, pc) pairs of the arm being emitted.
        self.pcs: dict[int, int] = {}
        self.slow: list[tuple[int, int]] = []

    # -- small emission helpers -------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def push_indent(self) -> None:
        self.indent += "    "

    def pop_indent(self) -> None:
        self.indent = self.indent[:-4]

    def count(self, kind: str) -> None:
        if self.unchecked is not None:
            return  # bumped once per loop, from its per-iteration counts
        self.pending[kind] = self.pending.get(kind, 0) + 1

    def flush(self) -> None:
        """Bump the per-kind count locals (before any faultable point)."""
        for kind, n in self.pending.items():
            self.emit(f"_k_{kind} += {n}")
        self.pending.clear()

    # -- loop discovery ----------------------------------------------------

    def find_loops(self) -> dict[int, frozenset[int]]:
        """Foldable natural loops: head -> member leader set.

        A candidate is the contiguous leader interval ``[head, backedge]``
        spanned by a backward branch.  It folds only when the head is the
        loop's sole entry: no block outside the interval may branch or
        fall into any member other than the head (edges *leaving* the
        interval anywhere are fine — they lower to ``break``).  Overlapping
        candidates resolve outermost-first; a rejected inner backward edge
        then simply re-dispatches inside the folded outer loop.
        """
        candidates = []
        for block in self.blocks.values():
            term = block.term
            if block.kind != "branch" or term.target >= block.start:
                continue  # forward edge, or a self-loop (folded per block)
            head, end = term.target, block.tpc
            members = frozenset(
                leader for leader in self.leaders if head <= leader <= end
            )
            if len(members) >= 2:
                candidates.append((head, end, members))

        folded: dict[int, frozenset[int]] = {}
        taken: list[tuple[int, int]] = []
        for head, end, members in sorted(
            candidates, key=lambda c: c[0] - c[1]  # widest interval first
        ):
            if any(h <= end and head <= e for h, e in taken):
                continue  # overlaps an already-folded (wider) region
            head_only_entry = all(
                target == head or target not in members
                for block in self.blocks.values()
                if block.start not in members
                for target in block.successors()
            )
            if head_only_entry:
                folded[head] = members
                taken.append((head, end))
        return folded

    # -- whole-function generation ----------------------------------------

    def generate(self) -> str:
        # Hottest-first dispatch: backward-branch targets (loop heads)
        # come before straight-line blocks, the rest stay in program
        # order.  Members of folded loops are dispatched inside their
        # loop's arm and get no top-level arm of their own.
        covered = {
            member
            for head, members in self.loops.items()
            for member in members
            if member != head
        }
        arms = [
            leader
            for leader in sorted(
                self.leaders,
                key=lambda lpc: (lpc not in self.back_targets, lpc),
            )
            if leader not in covered
        ]
        out = [
            "def _fc_main(_regs, _mem, _stats, _kc, _hc, _call, _blimit):",
            "    _ld = _mem.load",
            "    _st = _mem.store",
        ]
        out.extend(f"    r{i} = _regs[{i}]" for i in range(isa.REG_COUNT))
        out.append("    _br = 0")
        out.extend(f"    _k_{kind} = 0" for kind in self.kinds)
        # Memory windows: empty until a slow-path access succeeds.
        for window in self.windows:
            out.append(f"    {window}s = {window}e = 0")
            out.append(f"    {window}v = None")
        out.append("    _t = 0")
        out.append("    try:")
        out.append("        while 1:")
        for index, leader in enumerate(arms):
            guard = "if" if index == 0 else "elif"
            out.append(f"            {guard} _t == {leader}:")
            self.indent = " " * 16
            self.lines, self.slow = [], []
            if leader in self.loops:
                self.emit_region(leader)
            else:
                self.var, self.region = "_t", None
                self.emit_block(leader)
            for index, pc in self.slow:
                self.pcs[len(out) + index + 1] = pc  # 1-based line number
            out.extend(self.lines)
        out.append("            else:")
        out.append("                _bad_target(_t)")
        # Every exit path (return or fault) publishes the exact counts.
        out.append("    finally:")
        self.indent = " " * 8
        self.lines = []
        self.publish()
        out.extend(self.lines)
        return "\n".join(out) + "\n"

    def publish(self) -> None:
        """Copy the count locals into the run's stats.

        ``kind_counts`` arrives zeroed for every run, so publishing is a
        plain assignment and may repeat (before each helper call, then
        once more on the way out).
        """
        for kind in self.kinds:
            self.emit(f"_kc[{kind!r}] = _k_{kind}")
        self.emit("_stats.branches_taken = _br")

    def goto(self, target: int, prefix: str = "") -> None:
        """Emit a control transfer to ``target`` from the current context.

        Inside a folded loop, edges to fellow members re-enter the native
        ``while`` directly; edges leaving the loop ``break`` out with the
        top-level dispatch variable already set.
        """
        if self.region is not None and target not in self.region:
            self.emit(prefix + f"_t = {target}")
            self.emit(prefix + "break")
        else:
            self.emit(prefix + f"{self.var} = {target}")
            self.emit(prefix + "continue")

    def emit_region(self, head: int) -> None:
        """Fold one multi-block natural loop into a native Python loop.

        The loop body becomes a nested dispatch over just its member
        blocks (head first — it is re-entered on every iteration), so an
        iteration never re-traverses the top-level dispatch chain however
        long that chain is.
        """
        members = self.loops[head]
        self.emit(f"_t2 = {head}")
        self.emit("while 1:")
        self.push_indent()
        inner = [head] + sorted(m for m in members if m != head)
        for index, member in enumerate(inner):
            guard = "if" if index == 0 else "elif"
            self.emit(f"{guard} _t2 == {member}:")
            self.push_indent()
            self.var, self.region = "_t2", members
            self.emit_block(member)
            self.pop_indent()
        self.emit("else:")
        self.emit("    _bad_target(_t2)")
        self.pop_indent()
        self.emit("continue")
        self.var, self.region = "_t", None

    def is_self_loop(self, start: int) -> bool:
        block = self.blocks[start]
        return (block.kind == "branch" and block.term.opcode != isa.JA
                and block.term.target == start)

    def _can_inline(self, target: int, inlined: int) -> bool:
        """May the block at ``target`` be emitted inline (superblock)?

        Never a self-loop: it keeps one copy, in its own dispatch arm,
        however many blocks fall into it.
        """
        if (target not in self.blocks or inlined >= self.INLINE_CAP
                or self.is_self_loop(target)):
            return False
        if self.region is not None:
            # Stay inside the folded loop; never inline its head (back
            # edges need the head's dispatch arm to land on).
            return target in self.region and target not in self.loops
        # At top level, folded-loop members have no dispatch arm and the
        # head must be entered through its region arm — don't duplicate.
        return target not in self.member_of

    def emit_block(self, start: int) -> None:
        decoded = self.decoded
        current = start
        inlined = 0
        while True:
            block = self.blocks[current]
            kind, tpc, td = block.kind, block.tpc, block.term

            # A conditional branch back to this very block is the classic
            # compiled-loop shape: emit it as a native Python loop so
            # iteration costs no dispatch at all.
            self_loop = self.is_self_loop(current)
            versioned = None
            if self_loop:
                # Counts batched from an inlined predecessor must be
                # bumped before the loop, not once per iteration.
                self.flush()
                versioned = affine_loop(decoded, block)
                if versioned is not None:
                    self.emit_versioned(block, versioned)
                    self.emit("else:")
                    self.push_indent()
                self.emit("while 1:")
                self.push_indent()
            for ipc in block.body:
                self.emit_instruction(decoded[ipc], ipc)
            if kind == "exit":
                self.count("exit")
                self.flush()
                self.emit("return r0")
                return
            if kind == "branch":
                self.emit_branch(td, tpc, self_loop=self_loop)
                if self_loop:
                    self.pop_indent()
                    if versioned is not None:
                        self.pop_indent()
                    self.goto(tpc + 1)
                return
            # Fallthrough into another leader: extend the superblock in
            # place when legal, so per-kind counts keep batching across
            # the boundary (no faultable instruction intervenes there)
            # and the edge costs neither a flush nor a dispatch
            # round-trip.  The target keeps its own dispatch arm for its
            # other predecessors.
            if self._can_inline(tpc, inlined):
                inlined += len(self.blocks[tpc].body) + 1
                current = tpc
                continue
            self.flush()
            self.goto(tpc)
            return

    # -- loop versioning ------------------------------------------------------

    @staticmethod
    def span_bounds(base: BaseRange) -> tuple[str, str]:
        """``[lo, hi)`` covered by ``base``'s accesses over ``_n`` iterations.

        The range is computed on unbounded integers, so an address that
        would wrap around 2**64 lands outside every region and the guard
        fails instead of the fast copy reading a wrapped address.
        """
        reg, step = f"r{base.reg}", base.step
        lo, hi = base.lo, base.hi
        if step > 0:
            return (f"{reg}{_plus(lo)}",
                    f"{reg}{_plus(hi - step)} + {step} * _n")
        if step < 0:
            return (f"{reg}{_plus(lo - step)} - {-step} * _n",
                    f"{reg}{_plus(hi)}")
        return f"{reg}{_plus(lo)}", f"{reg}{_plus(hi)}"

    def emit_versioned(self, block, loop: AffineLoop) -> None:
        """Guard a self-loop once at entry, then run an unchecked copy.

        With the trip count ``_n`` read from the counter, the fast copy
        runs only when the loop cannot wrap (``_n >= 1``), cannot exhaust
        the taken-branch budget (``_n - 1`` more taken edges), and every
        base register's whole access range lies in one region granting
        what its accesses need.  The copy then does no window checks,
        count bumps or budget tests per iteration: after the loop it
        bumps each count by its per-iteration count times ``_n`` and sets
        the elided induction registers in closed form, masks the deferred
        ones and sets each word's spare byte register (the folds of the
        module docstring).  The caller emits
        the checked loop under the ``else``, so any failing condition runs
        it and raises the exact reference fault.
        """
        self.emit(f"_n = r{loop.counter}")
        guard = ["_n", "_br + _n <= _blimit + 1"]
        for base in loop.bases:
            lo, hi = self.span_bounds(base)
            guard.append(f"(_g{base.reg} := _mem.span({lo}, {hi}, "
                         f"{base.perms})) is not None")
        self.emit(f"if {' and '.join(guard)}:")
        self.push_indent()
        self.fetch = {}
        by_hand: list[BaseRange] = []
        if loop.gathers:
            header = self.emit_gathers(loop)
        else:
            for base in loop.bases:
                self.emit(f"_v{base.reg} = _g{base.reg}._view")
                self.emit(f"_q{base.reg} = r{base.reg} - _g{base.reg}.start")
            # The first stepping base leads the native loop as a range over
            # its view index; the others step their index by hand.
            by_hand = [base for base in loop.bases if base.step]
            if not by_hand:
                header = "for _ in range(_n):"
            else:
                lead = by_hand.pop(0)
                q, step = f"_q{lead.reg}", lead.step
                header = (f"for {q} in range({q}, {q}{_plus(step)} * _n, "
                          f"{step}):")
        self.emit(header)
        mark = len(self.lines)
        self.push_indent()
        self.unchecked = loop
        for ipc in block.body:
            self.emit_instruction(self.decoded[ipc], ipc)
        self.unchecked = None
        for base in by_hand:
            self.emit(f"_q{base.reg} += {base.step}")
        if len(self.lines) == mark and loop.gathers:
            self.emit("pass")  # the header leaves the last record's values
        self.pop_indent()
        if len(self.lines) == mark:
            self.lines.pop()  # nothing left to iterate: drop the header
        for reg in sorted(loop.elided.values()):
            step = loop.steps[reg]
            if reg == loop.counter:
                self.emit(f"r{reg} = 0")
            elif step:
                self.emit(f"r{reg} = (r{reg}{_plus(step)} * _n) & {_H64}")
        for reg in sorted(loop.deferred):
            self.emit(f"r{reg} &= {_H64}")
        for reg_a, reg_b in loop.words.values():
            self.emit(f"r{reg_b} = r{reg_a} & 0xff00")
        for kind, per in sorted(loop.per_iteration.items()):
            self.emit(f"_k_{kind} += _n" if per == 1
                      else f"_k_{kind} += {per} * _n")
        self.emit("_br += _n - 1")
        self.pop_indent()

    def emit_gathers(self, loop: AffineLoop) -> str:
        """Read every iteration's loads at loop entry; return the header.

        The body stores nothing, so memory cannot change under the loop,
        and the guard proved every byte of each base's range readable:
        one ``unpack_from`` per base reads all ``_n`` records, reversed
        when the base steps down.  The header binds each load's register
        directly when nothing earlier in the body touches it, else a
        ``_w<pc>`` local that the load's place in the body copies.
        """
        targets, streams = [], []
        for gather in loop.gathers:
            reg, step, fields = gather.reg, gather.step, gather.fields
            if gather.pad:
                record = f"{fields}{gather.pad}x"
                fmt = f"'<' + {record!r} * (_n - 1) + {fields!r}"
            elif len(gather.binds) == 1:
                fmt = f"'<%d{fields}' % _n"
            else:
                fmt = f"'<' + {fields!r} * _n"
            start = f"r{reg} - _g{reg}.start{_plus(gather.lo)}"
            if step < 0:
                start += f" - {-step} * (_n - 1)"
            read = (f"_unpack_from({fmt}, _g{reg}._view, {start})"
                    + ("[::-1]" if step < 0 else ""))
            binds = gather.binds if step > 0 else gather.binds[::-1]
            if len(binds) == 1:
                streams.append(read)
            else:
                self.emit(f"_i{reg} = iter({read})")
                streams += [f"_i{reg}"] * len(binds)
            for pc, direct in binds:
                dst = (loop.words[pc][0] if pc in loop.words
                       else self.decoded[pc].dst)
                targets.append(f"r{dst}" if direct else f"_w{pc}")
                self.fetch[pc] = "" if direct else f"r{dst} = _w{pc}"
        if len(streams) == 1:
            return f"for {targets[0]} in {streams[0]}:"
        return f"for {', '.join(targets)} in zip({', '.join(streams)}):"

    def emit_unchecked(self, d, pc: int) -> None:
        """One access of a versioned loop's fast copy: a plain view index.

        ``_q<base>`` is the base register's index into its region's view
        at the start of the iteration; the access's offset from it was
        fixed at install time (:attr:`AffineLoop.offsets`).  A load read
        at loop entry (:meth:`emit_gathers`) is at most a copy, and a
        byte-assembled word is one 16-bit read.
        """
        if pc in self.fetch:
            if self.fetch[pc]:
                self.emit(self.fetch[pc])
            return
        load = d.cls == isa.CLS_LDX
        base = d.src if load else d.dst
        index = f"_q{base}{_plus(self.unchecked.offsets[pc])}"
        view, size = f"_v{base}", d.size
        if pc in self.unchecked.words:
            reg_a = self.unchecked.words[pc][0]
            self.emit(f"r{reg_a} = _u2({view}, {index})[0]")
            return
        if load:
            if size == 1:
                self.emit(f"r{d.dst} = {view}[{index}]")
            else:
                self.emit(f"r{d.dst} = _u{size}({view}, {index})[0]")
            return
        value = f"r{d.src}" if d.cls == isa.CLS_STX else f"{d.imm64:#x}"
        if size == 1:
            self.emit(f"{view}[{index}] = {value} & 0xff")
        else:
            self.emit(f"_p{size}({view}, {index}, "
                      f"{value} & {_SIZE_MASK[size]:#x})")

    # -- straight-line instructions ---------------------------------------

    def emit_instruction(self, d, pc: int) -> None:
        cls = d.cls
        if self.unchecked is not None:
            if pc in self.unchecked.elided or pc in self.unchecked.absorbed:
                return  # closed form after the loop, or part of a word
            if cls in (isa.CLS_LDX, isa.CLS_STX, isa.CLS_ST):
                self.emit_unchecked(d, pc)
                return
        if cls == isa.CLS_ALU64:
            self.count(d.kind)
            self.emit_alu64(d, pc)
        elif cls == isa.CLS_ALU:
            self.count(d.kind)
            self.emit_alu32(d, pc)
        elif cls == isa.CLS_LDX:
            self.count("load")
            self.flush()
            self.emit_load(d, pc)
        elif cls == isa.CLS_STX:
            self.count("store")
            self.flush()
            self.emit_store(d, pc, f"r{d.src}")
        elif cls == isa.CLS_ST:
            self.count("store")
            self.flush()
            self.emit_store(d, pc, f"{d.imm64:#x}")
        elif cls == isa.CLS_LD:  # wide: fully resolved at pre-decode
            self.count("lddw")
            self.emit(f"r{d.dst} = {d.wide_value:#x}")
        elif d.opcode == isa.CALL:
            self.count("call")
            self.flush()
            self.publish()
            self.emit(f"_hc[{d.imm}] = _hc.get({d.imm}, 0) + 1")
            self.emit(f"r0 = _call({d.imm}, {pc}, r1, r2, r3, r4, r5)")
            # Helpers may map or revoke regions: drop every window.
            for window in self.windows:
                self.emit(f"{window}e = 0")
        else:  # pragma: no cover - excluded by verification
            raise IllegalInstructionFault(
                f"cannot transpile opcode 0x{d.opcode:02x}", pc
            )

    @staticmethod
    def addr(base: int, offset: int) -> str:
        if offset == 0:
            return f"r{base}"  # registers are invariantly 64-bit masked
        return f"(r{base} + {offset}) & {_H64}"

    @staticmethod
    def in_window(start: str, end: str, size: int) -> str:
        """Bounds test of ``[_a, _a+size)`` against a local window."""
        if size == 1:
            return f"{start} <= _a < {end}"
        return f"{start} <= _a and _a + {size} <= {end}"

    def refill(self, window: str) -> None:
        """Point ``window`` at the region the slow path just resolved."""
        self.emit(f"    {window}s, {window}e, {window}v = _window(_mem)")

    def emit_load(self, d, pc: int) -> None:
        """A load checked against the run's read window, held in locals.

        ``_rs``/``_re``/``_rv`` (start, end, view) cache one region the
        run has already read from.  An access inside it is served from the
        view directly (a byte load indexes the ``memoryview``); anything
        else takes the out-of-line ``AccessList.load`` path, which runs
        the full bisect + permission check and raises the exact reference
        faults (the template's line of the call names ``pc``).  Only a
        *successful* slow-path load refills the window, so the window
        always holds a region proven to grant READ.
        """
        size = d.size
        dst = f"r{d.dst}"
        self.emit(f"_a = {self.addr(d.src, d.offset)}")
        self.emit(f"if {self.in_window('_rs', '_re', size)}:")
        if size == 1:
            self.emit(f"    {dst} = _rv[_a - _rs]")
        else:
            self.emit(f"    {dst} = _u{size}(_rv, _a - _rs)[0]")
        self.emit("else:")
        self.slow.append((len(self.lines), pc))
        self.emit(f"    {dst} = _ld(_a, {size})")
        self.refill("_r")

    def emit_store(self, d, pc: int, value: str) -> None:
        """A store checked against the run's separate write window.

        Same scheme as :meth:`emit_load` with ``_ws``/``_we``/``_wv``: the
        window is refilled only after a successful ``AccessList.store``,
        which proves WRITE, so a region that was merely read (``.rodata``)
        never enters it and a store there still faults on the permission
        check.
        """
        size = d.size
        masked = f"{value} & {_SIZE_MASK[size]:#x}"
        self.emit(f"_a = {self.addr(d.dst, d.offset)}")
        self.emit(f"if {self.in_window('_ws', '_we', size)}:")
        if size == 1:
            self.emit(f"    _wv[_a - _ws] = {masked}")
        else:
            self.emit(f"    _p{size}(_wv, _a - _ws, {masked})")
        self.emit("else:")
        self.slow.append((len(self.lines), pc))
        self.emit(f"    _st(_a, {size}, {value})")
        self.refill("_w")

    def emit_alu64(self, d, pc: int) -> None:
        dst = f"r{d.dst}"
        op = d.op
        operand = f"r{d.src}" if d.use_reg else f"{d.imm64:#x}"
        if self.unchecked is not None and d.dst in self.unchecked.deferred:
            # Wrapped once after the loop (add or sub by construction).
            self.emit(f"{dst} {'+' if op == isa.ALU_ADD else '-'}= {operand}")
        elif op == isa.ALU_ADD:
            self.emit(f"{dst} = ({dst} + {operand}) & {_H64}")
        elif op == isa.ALU_SUB:
            self.emit(f"{dst} = ({dst} - {operand}) & {_H64}")
        elif op == isa.ALU_MUL:
            self.emit(f"{dst} = ({dst} * {operand}) & {_H64}")
        elif op == isa.ALU_OR:
            self.emit(f"{dst} |= {operand}")
        elif op == isa.ALU_AND:
            self.emit(f"{dst} &= {operand}")
        elif op == isa.ALU_XOR:
            self.emit(f"{dst} ^= {operand}")
        elif op == isa.ALU_MOV:
            self.emit(f"{dst} = {operand}")
        elif op == isa.ALU_NEG:
            self.emit(f"{dst} = (-{dst}) & {_H64}")
        elif op == isa.ALU_LSH:
            self.emit(f"{dst} = ({dst} << {self.shift64(d)}) & {_H64}")
        elif op == isa.ALU_RSH:
            self.emit(f"{dst} >>= {self.shift64(d)}")
        elif op == isa.ALU_ARSH:
            self.emit(f"_x = {dst} - 0x10000000000000000 "
                      f"if {dst} >= 0x8000000000000000 else {dst}")
            self.emit(f"{dst} = (_x >> {self.shift64(d)}) & {_H64}")
        elif op in (isa.ALU_DIV, isa.ALU_MOD):
            sym = "//" if op == isa.ALU_DIV else "%"
            if d.use_reg:
                fault = "_div_fault" if op == isa.ALU_DIV else "_mod_fault"
                self.flush()
                self.emit(f"if not r{d.src}: {fault}({pc})")
                self.emit(f"{dst} = {dst} {sym} r{d.src}")
            else:  # immediate divisor, non-zero by verification
                self.emit(f"{dst} = {dst} {sym} {d.imm64:#x}")
        else:  # pragma: no cover - excluded by verification
            raise IllegalInstructionFault(
                f"cannot transpile ALU op 0x{d.opcode:02x}", pc
            )

    def emit_alu32(self, d, pc: int) -> None:
        dst = f"r{d.dst}"
        op = d.op
        if op == isa.ALU_END:
            if d.opcode == isa.LE:
                self.emit(f"{dst} &= {(1 << d.imm) - 1:#x}")
            else:
                self.emit(f"{dst} = _bswap{d.imm}({dst})")
            return
        operand = (f"(r{d.src} & {_H32})" if d.use_reg
                   else f"{d.imm & _M32:#x}")
        if op == isa.ALU_ADD:
            self.emit(f"{dst} = (({dst} & {_H32}) + {operand}) & {_H32}")
        elif op == isa.ALU_SUB:
            self.emit(f"{dst} = (({dst} & {_H32}) - {operand}) & {_H32}")
        elif op == isa.ALU_MUL:
            self.emit(f"{dst} = (({dst} & {_H32}) * {operand}) & {_H32}")
        elif op == isa.ALU_OR:
            self.emit(f"{dst} = ({dst} & {_H32}) | {operand}")
        elif op == isa.ALU_AND:
            self.emit(f"{dst} = {dst} & {operand}")
        elif op == isa.ALU_XOR:
            self.emit(f"{dst} = ({dst} & {_H32}) ^ {operand}")
        elif op == isa.ALU_MOV:
            self.emit(f"{dst} = {operand}")
        elif op == isa.ALU_NEG:
            self.emit(f"{dst} = (-({dst} & {_H32})) & {_H32}")
        elif op == isa.ALU_LSH:
            self.emit(f"{dst} = (({dst} & {_H32}) << {self.shift32(d)})"
                      f" & {_H32}")
        elif op == isa.ALU_RSH:
            self.emit(f"{dst} = ({dst} & {_H32}) >> {self.shift32(d)}")
        elif op == isa.ALU_ARSH:
            self.emit(f"_x = {dst} & {_H32}")
            self.emit("_x = _x - 0x100000000 if _x >= 0x80000000 else _x")
            self.emit(f"{dst} = (_x >> {self.shift32(d)}) & {_H32}")
        elif op in (isa.ALU_DIV, isa.ALU_MOD):
            sym = "//" if op == isa.ALU_DIV else "%"
            if d.use_reg:
                fault = "_div_fault" if op == isa.ALU_DIV else "_mod_fault"
                self.flush()
                self.emit(f"if not (r{d.src} & {_H32}): {fault}({pc})")
                self.emit(f"{dst} = ({dst} & {_H32}) {sym} "
                          f"(r{d.src} & {_H32})")
            else:
                self.emit(f"{dst} = ({dst} & {_H32}) {sym} "
                          f"{d.imm & _M32:#x}")
        else:  # pragma: no cover - excluded by verification
            raise IllegalInstructionFault(
                f"cannot transpile ALU op 0x{d.opcode:02x}", pc
            )

    @staticmethod
    def shift64(d) -> str:
        return f"(r{d.src} & 63)" if d.use_reg else str(d.imm)

    @staticmethod
    def shift32(d) -> str:
        return f"(r{d.src} & 31)" if d.use_reg else str(d.imm)

    # -- block terminators --------------------------------------------------

    def taken_edge(self, pc: int, target: int, nested: bool) -> None:
        extra = "    " if nested else ""
        self.emit(extra + "_br += 1")
        self.emit(extra + f"if _br > _blimit: _branch_fault(_blimit, {pc})")
        self.goto(target, prefix=extra)

    def emit_branch(self, d, pc: int, self_loop: bool = False) -> None:
        self.count("branch")
        self.flush()
        if d.opcode == isa.JA:
            self.taken_edge(pc, d.target, nested=False)
            return
        wide = d.cls == isa.CLS_JMP
        if wide:
            lhs = f"r{d.dst}"
            rhs = f"r{d.src}" if d.use_reg else f"{d.imm64:#x}"
        else:
            lhs = f"(r{d.dst} & {_H32})"
            rhs = (f"(r{d.src} & {_H32})" if d.use_reg
                   else f"{d.imm & _M32:#x}")
        op = d.op
        if op in _UNSIGNED_CMP:
            cond = f"{lhs} {_UNSIGNED_CMP[op]} {rhs}"
        elif op == isa.JMP_JSET:
            cond = f"{lhs} & {rhs}"
        else:  # signed comparison: reinterpret both operands
            if wide:
                self.emit(f"_x = {lhs} - 0x10000000000000000 "
                          f"if {lhs} >= 0x8000000000000000 else {lhs}")
                if d.use_reg:
                    self.emit(f"_y = {rhs} - 0x10000000000000000 "
                              f"if {rhs} >= 0x8000000000000000 else {rhs}")
                    signed_rhs = "_y"
                else:
                    signed_rhs = str(_s64(d.imm64))
            else:
                self.emit(f"_x = {lhs}")
                self.emit("_x = _x - 0x100000000 if _x >= 0x80000000 else _x")
                if d.use_reg:
                    self.emit(f"_y = {rhs}")
                    self.emit(
                        "_y = _y - 0x100000000 if _y >= 0x80000000 else _y"
                    )
                    signed_rhs = "_y"
                else:
                    signed_rhs = str(_s32(d.imm))
            cond = f"_x {_SIGNED_CMP[op]} {signed_rhs}"
        self.emit(f"if {cond}:")
        if self_loop:
            # Taken edge re-enters the native while; budget still enforced.
            self.emit("    _br += 1")
            self.emit(f"    if _br > _blimit: _branch_fault(_blimit, {pc})")
            self.emit("    continue")
            self.emit("break")
        else:
            self.taken_edge(pc, d.target, nested=True)
            self.goto(pc + 1)


def _plus(value: int) -> str:
    """`` + value`` / `` - |value|`` (empty for 0), for generated code."""
    if value == 0:
        return ""
    return f" + {value}" if value > 0 else f" - {-value}"


def _build_template(program: Program,
                    decoded: list[Decoded]) -> CompiledTemplate:
    """Transpile and compile ``program``'s template from its pre-decoded
    slot table ``decoded`` (the prototype-miss path)."""
    codegen = _Codegen(decoded)
    source = codegen.generate()
    code = compile(source, f"<fc-jit:{program.name}>", "exec")
    namespace = dict(_JIT_GLOBALS)
    exec(code, namespace)
    return CompiledTemplate(
        source=source,
        entry=namespace["_fc_main"],
        slow_pcs=codegen.pcs,
    )


class CompiledProgram(Interpreter):
    """A Femto-Container whose bytecode was template-compiled at install.

    Exposes the same ``run``/accounting surface as :class:`Interpreter`, so
    the hosting engine can treat interpreted and transpiled containers
    uniformly; the cost tables key on ``implementation = "jit"``.
    """

    implementation = "jit"

    @classmethod
    def derive_prototype(cls, program: Program,
                         verifier_config: VerifierConfig | None,
                         config: VMConfig) -> InstancePrototype:
        """Verify, then transpile (the install-time flow): the generated
        code *depends* on the verifier's guarantees, so the JIT verifies
        under the default limits when given none.  The template is pure
        (all per-run state arrives as arguments), so every instance of
        one image, on every engine, runs one compiled function."""
        verified = super().derive_prototype(
            program, verifier_config or VerifierConfig(), config)
        template = _build_template(program, verified.code)
        return replace(verified, code=template,
                       install_instruction_count=len(program.slots))

    # -- compilation -------------------------------------------------------

    @property
    def template(self) -> CompiledTemplate:
        """The image's shared compiled template."""
        return self.prototype.code

    @property
    def jit_source(self) -> str:
        return self.prototype.code.source

    @property
    def _entry(self) -> Callable:
        return self.prototype.code.entry

    @property
    def install_instruction_count(self) -> int:
        """Slots processed by the one-pass transpiler (install-time cost)."""
        return self.prototype.install_instruction_count

    # -- execution -----------------------------------------------------------

    def _call_helper(self, helper_id: int, pc: int, r1: int, r2: int,
                     r3: int, r4: int, r5: int) -> int:
        """The template's ``call``: the helper's result, or a contained
        fault that names the ``call``'s pc."""
        try:
            return self.helpers.call(self, helper_id, r1, r2, r3, r4, r5)
        except VMFault as exc:
            raise exc.at_pc(pc)
        except Exception as exc:  # contain helper implementation bugs
            raise HelperFault(
                f"helper 0x{helper_id:02x} failed: {exc}", pc
            ) from exc

    def _dispatch_loop(self, regs: list[int], stats: ExecutionStats) -> int:
        kind_counts = stats.kind_counts
        template = self.prototype.code
        try:
            return template.entry(
                regs, self.access_list, stats, kind_counts,
                stats.helper_calls, self._call_helper,
                self.config.branch_limit,
            )
        except MemoryFault as exc:
            # A slow-path access faults on its own line of the template.
            line = exc.__traceback__.tb_next.tb_lineno
            raise exc.at_pc(template.slow_pcs.get(line))
        finally:
            stats.executed = sum(kind_counts.values())


def compile_program(
    program: Program,
    helpers: HelperRegistry | None = None,
    config: VMConfig | None = None,
) -> CompiledProgram:
    """Verify then template-compile ``program``; the install-time flow."""
    return CompiledProgram(program, helpers, config)
