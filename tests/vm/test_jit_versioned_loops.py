"""Loop versioning in the template JIT: the fast copy is only taken when safe.

A counted self-loop (``sub rC, 1`` ... ``jne rC, 0``) whose loads and
stores walk affine pointers is checked once at entry: with the trip count
``n``, the JIT runs an unchecked copy of the body only when ``n >= 1``,
the ``n - 1`` taken back edges fit the branch budget, and each pointer's
whole range lies in one region granting what its accesses need.  Anything
else runs the checked loop and raises the exact reference fault.

The property test generates such loops over a grant of random size and
permissions (plus a second pointer over the stack), places the pointer so
its range fits exactly or misses by one byte at either end, and sets the
budget to run out exactly at the last back edge or just after it.  The
interpreter, CertFC and the JIT must agree on the value or fault (class,
pc, message), the full accounting and every byte of memory afterwards;
the JIT must also take the fast copy exactly when the case is safe.

The second property test covers the unchecked copy's folds: bodies of
byte-assembled words (both load orders, and near misses whose bytes are
not adjacent), spare byte registers read elsewhere, accumulators that
enter near 2**64 and are also read by ``rsh``, ``and`` or a store, and
stores into the bytes a later iteration loads.  Every engine must agree
on the value (which folds in every register the body touches) and on
memory, and the JIT must run the folded copy.

Mutation-checked: widening the range guard by one byte at either end, or
dropping the ``n >= 1`` or the budget guard, fails this file; so do
reading once despite a store, deferring the wrap of a register another
instruction reads, dropping the spare byte register's closed form, and
fusing bytes that are not adjacent.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.vm import (
    CertFCInterpreter,
    Interpreter,
    VMConfig,
    VMFault,
    assemble,
    compile_program,
)
from repro.vm.induction import Gather, affine_loop
from repro.vm.memory import GRANT_BASE, Permission
from repro.vm.predecode import basic_blocks, find_leaders, predecode
from repro.workloads.fletcher32 import (
    FLETCHER32_INPUT,
    fletcher32_program,
    fletcher32_reference,
    make_context,
    prepare_vm,
)

ENGINES = (
    ("interpreter", Interpreter),
    ("certfc", CertFCInterpreter),
    ("jit", compile_program),
)

_WIDTHS = {1: "b", 2: "h", 4: "w", 8: "dw"}
_PERMS = (Permission.READ, Permission.WRITE, Permission.READ_WRITE)
#: Where the grant pointer starts relative to its range's exact fit.
_PLACEMENTS = ("fit-lo", "fit-hi", "lo-1", "hi+1", "anywhere")
#: Branch budget relative to the taken edges the run needs.
_BUDGETS = ("one-short", "exact", "one-spare", "ample")
#: The one thing a case gets wrong; every other choice is safe.  "any"
#: draws every choice freely.
_DEFECTS = ("none", "none", "lo-1", "hi+1", "perms", "budget", "zero-trip",
            "any")


@st.composite
def _access(draw) -> tuple[str, int, int, int]:
    """(op, width, offset, base register) of one body access."""
    return (draw(st.sampled_from(["ldx", "stx", "st"])),
            draw(st.sampled_from(sorted(_WIDTHS))),
            draw(st.integers(-8, 8)),
            draw(st.sampled_from([6, 6, 9])))


def _needed(accesses) -> int:
    """Permission bits the grant pointer's accesses need."""
    needed = 0
    for op, _, _, reg in accesses:
        if reg == 6:
            needed |= 1 if op == "ldx" else 2
    return needed


@st.composite
def versioned_case(draw) -> dict:
    accesses = draw(st.lists(_access(), min_size=1, max_size=4))
    defect = draw(st.sampled_from(_DEFECTS))
    if defect == "perms" and draw(st.booleans()):
        # A pointer that both loads and stores needs both bits: a grant
        # with either one alone must fail the guard.
        accesses += [("ldx", *draw(_access())[1:3], 6),
                     ("stx", *draw(_access())[1:3], 6)]
    needed = _needed(accesses)
    granting = [p for p in _PERMS if int(p) & needed == needed]
    lacking = [p for p in _PERMS if int(p) & needed != needed]
    if defect == "any":
        n = draw(st.integers(0, 12))
        perms = draw(st.sampled_from(_PERMS))
        budget = draw(st.sampled_from(_BUDGETS))
        placement = draw(st.sampled_from(_PLACEMENTS))
    else:
        n = 0 if defect == "zero-trip" else draw(st.integers(1, 12))
        perms = draw(st.sampled_from(
            lacking if defect == "perms" and lacking else granting))
        budget = ("one-short" if defect == "budget"
                  else draw(st.sampled_from(_BUDGETS[1:])))
        placement = (defect if defect in ("lo-1", "hi+1")
                     else draw(st.sampled_from(["fit-lo", "fit-hi"])))
    case = {
        "n": n,
        "size": draw(st.integers(8, 64)),
        "perms": perms,
        "accesses": accesses,
        "stride": draw(st.integers(-6, 6)),
        "stack_stride": draw(st.integers(-4, 4)),
        "update_at": draw(st.integers(0, len(accesses))),
        "count_at": draw(st.integers(0, len(accesses))),
        "count_op": draw(st.sampled_from(["sub r8, 1", "add r8, -1"])),
        # Registers the body also reads as a value stay exact.
        "reads_counter": draw(st.booleans()),
        "reads_pointer": draw(st.booleans()),
        "taken_before": draw(st.integers(0, 2)),
        "budget": budget,
        "placement": placement,
        "anywhere": draw(st.integers(-16, 80)),
        "content": draw(st.binary(min_size=128, max_size=128)),
    }
    span = _grant_range(case)
    if defect != "any" and span is not None:
        # Grow the grant to hold the whole walk, so a fitting placement
        # fits and the defect is the only thing wrong with the case.
        case["size"] = max(case["size"], span[1] - span[0])
    return case


def _body(case: dict) -> list[tuple]:
    """The loop body as abstract items, in program order."""
    items: list[tuple] = [("access", *access) for access in case["accesses"]]
    items.insert(case["update_at"], ("step",))
    items.insert(case["count_at"], ("count",))
    return items


def _grant_range(case: dict) -> tuple[int, int] | None:
    """``[lo, hi)`` the grant pointer's accesses cover over ``n``
    iterations (one when ``n == 0``, which only places the pointer),
    relative to its value at loop entry; None when it makes none."""
    lo = hi = None
    pointer = 0
    for _ in range(max(case["n"], 1)):
        for item in _body(case):
            if item[0] == "step":
                pointer += case["stride"]
            elif item[0] == "access" and item[4] == 6:
                start = pointer + item[3]
                end = start + item[2]
                lo = start if lo is None else min(lo, start)
                hi = end if hi is None else max(hi, end)
    return None if lo is None else (lo, hi)


def _pointer(case: dict) -> int:
    """The grant pointer's entry value, relative to the grant's start."""
    span = _grant_range(case)
    placement = case["placement"]
    if span is None or placement == "anywhere":
        return case["anywhere"]
    lo, hi = span
    return {"fit-lo": -lo, "lo-1": -lo - 1,
            "fit-hi": case["size"] - hi, "hi+1": case["size"] - hi + 1,
            }[placement]


def _branch_limit(case: dict) -> int:
    needed = case["taken_before"] + case["n"] - 1
    return max(0, {"one-short": needed - 1, "exact": needed,
                   "one-spare": needed + 1, "ample": 1000}[case["budget"]])


def _source(case: dict) -> str:
    lines = ["mov r0, 0",
             f"lddw r6, {(GRANT_BASE + _pointer(case)) & ((1 << 64) - 1):#x}",
             "mov r9, r10",
             "add r9, 256",
             f"mov r8, {case['n']}"]
    for index in range(case["taken_before"]):
        lines += [f"ja taken{index}", f"taken{index}:"]
    lines.append("loop:")
    for item in _body(case):
        if item[0] == "step":
            lines.append(f"add r6, {case['stride']}")
            lines.append(f"add r9, {case['stack_stride']}")
        elif item[0] == "count":
            lines.append(case["count_op"])
        else:
            _, op, width, offset, reg = item
            mem = f"[r{reg}{offset:+d}]"
            suffix = _WIDTHS[width]
            if op == "ldx":
                lines += [f"ldx{suffix} r7, {mem}", "add r0, r7"]
            elif op == "stx":
                lines.append(f"stx{suffix} {mem}, r0")
            else:
                lines.append(f"st{suffix} {mem}, {-width * 7}")
    if case["reads_counter"]:
        lines.append("add r0, r8")
    if case["reads_pointer"]:
        lines.append("xor r0, r6")
    lines += ["jne r8, 0, loop", "exit"]
    return "\n".join(f"    {line}" for line in lines)


def _fast_path_is_safe(case: dict) -> bool:
    """Would the reference run finish the loop without any fault?"""
    n = case["n"]
    if n < 1 or case["taken_before"] + n - 1 > _branch_limit(case):
        return False
    needed = _needed(case["accesses"])
    if needed == 0:
        return True
    lo, hi = _grant_range(case)
    pointer = _pointer(case)
    return (0 <= pointer + lo and pointer + hi <= case["size"]
            and int(case["perms"]) & needed == needed)


def _observe(vm) -> tuple:
    """Run ``vm``; return its outcome, accounting and every writable byte."""
    dispatch = vm._dispatch_loop

    def capture(regs, stats):
        vm.live_stats = stats  # run() drops the stats when it faults
        return dispatch(regs, stats)

    vm._dispatch_loop = capture
    try:
        outcome = ("value", vm.run().value)
    except VMFault as exc:
        outcome = ("fault", type(exc).__name__, exc.pc, str(exc))
    stats = vm.live_stats
    grant = next(r for r in vm.access_list.regions if r.name == "grant")
    return (outcome, stats.kind_counts, stats.branches_taken,
            stats.executed, stats.helper_calls, bytes(vm.stack.data),
            bytes(grant.data))


def _run_engines(source: str, grant: bytes, perms: Permission,
                 branch_limit: int) -> tuple[tuple, list]:
    """Run ``source`` on every engine over ``grant``; assert they agree.
    Returns the reference observation and what each of the JIT's entry
    guards got from ``AccessList.span``."""
    program = assemble(source)
    config = VMConfig(branch_limit=branch_limit)
    observed = {}
    spans = []
    for name, factory in ENGINES:
        vm = factory(program, config=config)
        vm.access_list.grant_bytes("grant", GRANT_BASE, grant, perms)
        if name == "jit":
            assert "_mem.span(" in vm.jit_source  # the loop is versioned
            query = vm.access_list.span

            def span(lo, hi, perms, query=query):
                spans.append(query(lo, hi, perms))
                return spans[-1]

            vm.access_list.span = span
        observed[name] = _observe(vm)
    reference = observed["interpreter"]
    for name, outcome in observed.items():
        assert outcome == reference, (name, outcome, reference)
    return reference, spans


def _run_case(case: dict) -> tuple:
    """Run ``case`` on every engine; assert they agree and that the JIT
    took the fast copy exactly when it was safe."""
    reference, spans = _run_engines(
        _source(case), case["content"][:case["size"]], case["perms"],
        _branch_limit(case))
    bases = {access[3] for access in case["accesses"]}
    took_fast = len(spans) == len(bases) and None not in spans
    assert took_fast == _fast_path_is_safe(case), (spans, reference[0])
    return reference


@settings(max_examples=200, deadline=None)
@given(case=versioned_case())
def test_versioned_loop_equivalence(case):
    _run_case(case)


# -- the boundaries, pinned ---------------------------------------------------

def _pinned(**overrides) -> dict:
    """A byte-walking load loop over a 32 B grant, fitting exactly."""
    case = {
        "n": 8, "size": 32, "perms": Permission.READ,
        "accesses": [("ldx", 2, 0, 6)], "stride": 4, "stack_stride": 0,
        "update_at": 1, "count_at": 1, "count_op": "sub r8, 1",
        "reads_counter": False, "reads_pointer": False, "taken_before": 1,
        "budget": "exact", "placement": "fit-lo", "anywhere": 0,
        "content": bytes(range(1, 65)),
    }
    case.update(overrides)
    return case


def test_exact_fit_takes_the_fast_copy():
    outcome, kinds, branches, *_ = _run_case(_pinned())
    assert outcome[0] == "value"
    assert kinds["load"] == 8 and branches == 1 + 7


@pytest.mark.parametrize("placement", ["lo-1", "hi+1"])
def test_one_byte_outside_faults_on_the_checked_loop(placement):
    case = _pinned(placement=placement)
    outcome, kinds, *_ = _run_case(case)
    assert outcome[:2] == ("fault", "MemoryFault")
    # lo-1 faults on the first load; hi+1 only on the eighth.
    assert kinds["load"] == (1 if placement == "lo-1" else 8)


def test_store_into_a_read_only_grant_faults():
    case = _pinned(accesses=[("ldx", 1, 0, 6), ("st", 1, 1, 6)],
                   update_at=2, count_at=2)
    outcome, kinds, *_ = _run_case(case)
    assert outcome[:2] == ("fault", "MemoryFault")
    assert "lacks WRITE permission" in outcome[3]
    assert kinds["load"] == 1 and kinds["store"] == 1


def test_zero_trip_count_wraps_until_the_budget_runs_out():
    outcome, _, branches, *_ = _run_case(
        _pinned(n=0, budget="ample", placement="anywhere", stride=0))
    assert outcome[:2] == ("fault", "BranchLimitFault")
    assert branches == 1001


@pytest.mark.parametrize("budget", ["one-short", "exact"])
def test_budget_runs_out_at_the_last_back_edge_or_not(budget):
    outcome, _, branches, *_ = _run_case(_pinned(budget=budget))
    if budget == "exact":
        assert outcome[0] == "value" and branches == 8
    else:
        assert outcome[:2] == ("fault", "BranchLimitFault")
        assert branches == 8  # the 8th taken edge is one over N_b = 7


def test_negative_stride_and_stack_pointer():
    case = _pinned(stride=-3, stack_stride=-4, placement="fit-hi",
                   perms=Permission.READ_WRITE,
                   accesses=[("ldx", 4, 2, 6), ("stx", 8, -8, 9),
                             ("stx", 1, 0, 6)],
                   update_at=2, count_at=0, reads_counter=True)
    outcome, kinds, *_ = _run_case(case)
    assert outcome[0] == "value" and kinds["store"] == 16


# -- the install-time analysis ------------------------------------------------

def _analyse(source: str):
    decoded = predecode(assemble(source).slots)
    leaders, _ = find_leaders(decoded)
    blocks = basic_blocks(decoded, leaders)
    loop = next(block for block in blocks.values() if block.kind == "branch"
                and block.term.target == block.start)
    return affine_loop(decoded, loop)


@pytest.mark.parametrize("body,why", [
    ("ldxb r7, [r6+0]\n add r6, 1\n sub r8, 2", "counter steps by 2"),
    ("ldxb r7, [r6+0]\n add r6, r7\n sub r8, 1", "pointer steps by a register"),
    ("ldxb r6, [r6+0]\n sub r8, 1", "pointer reloaded from memory"),
    ("ldxb r7, [r6+0]\n add r6, 1\n add r6, 1\n sub r8, 1", "two steps"),
    ("call 1\n sub r8, 1", "helper call"),
    ("div r0, r7\n sub r8, 1", "division by a register"),
    ("add32 r6, 1\n ldxb r7, [r6+0]\n sub r8, 1", "32-bit pointer step"),
])
def test_analysis_rejects(body, why):
    source = f"mov r8, 4\nloop:\n {body}\n jne r8, 0, loop\n exit"
    assert _analyse(source) is None, why


def test_analysis_rejects_other_exit_tests():
    for exit_test in ("jgt r8, 0, loop", "jne r8, 1, loop", "jne32 r8, 0, loop"):
        source = (f"mov r8, 4\nloop:\n ldxb r7, [r10-1]\n sub r8, 1\n"
                  f" {exit_test}\n exit")
        assert _analyse(source) is None, exit_test


def test_analysis_facts_for_fletcher32():
    decoded = predecode(fletcher32_program().slots)
    leaders, _ = find_leaders(decoded)
    loop = affine_loop(decoded, basic_blocks(decoded, leaders)[13])
    assert loop.counter == 6
    assert loop.steps == {2: 2, 6: -1}
    assert sorted(loop.elided.values()) == [2, 6]
    [base] = loop.bases
    assert (base.reg, base.step, base.lo, base.hi, base.perms) == (2, 2, 0, 2, 1)
    assert loop.per_iteration == {"branch": 1, "load": 2, "alu": 6}
    # One word (pcs 13-16: ldxb r0; ldxb r7; lsh r7, 8; or r0, r7), the
    # two sums wrapped once, and one 2-byte record per iteration.
    assert loop.words == {13: (0, 7)} and loop.absorbed == {14, 15, 16}
    assert loop.deferred == {4, 5}
    assert loop.gathers == (Gather(2, 2, 0, "H", 0, ((13, True),)),)


# -- fletcher32 takes the fast copy --------------------------------------------

def test_fletcher32_has_one_copy_of_its_inner_loop():
    source = compile_program(fletcher32_program()).jit_source
    # One checked copy (its back-edge budget test names pc 21) and one
    # versioned guard, however many blocks fall into the loop.
    assert source.count("_branch_fault(_blimit, 21)") == 1
    assert source.count("_mem.span(") == 1


def test_fletcher32_runs_its_loop_without_slow_path_loads():
    """Every load the template cannot serve from its read window or a
    versioned loop goes through ``AccessList.load`` (bound per run).  The
    context's first field is the only one per run: the inner loop's 360
    loads run in the fast copy.  Were the loop to fall back to its checked
    copy, its first load would take the slow path too (2 per run)."""
    vm = prepare_vm(compile_program(fletcher32_program()))
    load = vm.access_list.load
    slow = []

    def counting_load(addr, size):
        slow.append(addr)
        return load(addr, size)

    vm.access_list.load = counting_load
    context = make_context()
    for _ in range(5):
        result = vm.run(context=context)
        assert result.value == fletcher32_reference(FLETCHER32_INPUT)
        assert result.stats.kind_counts["load"] == 2 + 360
    assert len(slow) == 5


def test_delay_loop_runs_in_closed_form():
    """A body of nothing but induction updates leaves no loop to run."""
    program = assemble("""
    mov r0, 3
    mov r8, 50
    mov r6, 0
loop:
    add r6, 7
    sub r8, 1
    jne r8, 0, loop
    add r0, r6
    exit
""")
    jit = compile_program(program)
    assert "_mem.span(" not in jit.jit_source  # no base: no range check
    assert "for _ in range(_n):" not in jit.jit_source
    reference, fast = (
        (result.value, result.stats.kind_counts, result.stats.branches_taken)
        for result in (Interpreter(program).run(), jit.run()))
    assert fast == reference
    assert fast[0] == 3 + 7 * 50 and fast[2] == 49


# -- folded bodies: words, read-once and wrap-once ----------------------------

#: Registers a folded body assembles words into and reads back.
_BYTE_REGS = (2, 7, 9)
#: Accumulators, entering anywhere from 0 to just below 2**64.
_ACCS = (4, 5)
_ACC_STARTS = (0, 3, 0xFFFF, (1 << 63) - 2, (1 << 64) - 0x10000,
               (1 << 64) - 3)
_SUFFIX_WIDTH = {suffix: width for width, suffix in _WIDTHS.items()}
_POINTER_ACCESS = re.compile(r"(?:ldx|stx)(dw|b|h|w) .*\[r6([+-]\d+)\]")


@st.composite
def _word_item(draw) -> tuple:
    """``ldxb`` of two bytes (adjacent, or a near miss), ``lsh``, ``or``."""
    reg_a, reg_b = draw(st.permutations(_BYTE_REGS))[:2]
    return ("word", reg_a, reg_b, draw(st.integers(-4, 6)),
            draw(st.sampled_from([0, 0, 0, -2, -1, 1, 2])),
            draw(st.booleans()))


@st.composite
def _fold_item(draw) -> tuple:
    kind = draw(st.sampled_from(["word", "load", "acc", "acc", "acc", "use",
                                 "leak", "leak", "store", "store"]))
    if kind == "word":
        return draw(_word_item())
    if kind == "load":
        return ("load", draw(st.sampled_from(_BYTE_REGS)),
                draw(st.integers(-4, 6)), draw(st.sampled_from([1, 2, 4])))
    acc = ("acc", draw(st.sampled_from(["add", "sub"])),
           draw(st.sampled_from(_ACCS)),
           draw(st.sampled_from([*_BYTE_REGS, *_ACCS, None])))
    if kind == "acc":
        return acc
    if kind == "use":  # a byte register read outside its word
        return ("use", draw(st.sampled_from(_BYTE_REGS)))
    if kind == "leak":  # an accumulator also read by more than add/sub
        return ("leak", draw(st.sampled_from(["rsh", "rsh", "and", "store"])),
                acc, draw(st.integers(1, 63)))
    # None: into the bytes the next iteration's first word reads.
    return ("store", draw(st.sampled_from([1, 2])),
            draw(st.one_of(st.none(), st.integers(-4, 8))),
            draw(st.sampled_from([8, 2])))


def _fold_lines(item: tuple) -> list[str]:
    kind = item[0]
    if kind == "word":
        _, reg_a, reg_b, offset, gap, high_first = item
        loads = [f"ldxb r{reg_a}, [r6{offset:+d}]",
                 f"ldxb r{reg_b}, [r6{offset + 1 + gap:+d}]"]
        if high_first:
            loads.reverse()
        return loads + [f"lsh r{reg_b}, 8", f"or r{reg_a}, r{reg_b}"]
    if kind == "load":
        _, reg, offset, width = item
        return [f"ldx{_WIDTHS[width]} r{reg}, [r6{offset:+d}]"]
    if kind == "acc":
        _, op, acc, src = item
        return [f"{op} r{acc}, {12345 if src is None else f'r{src}'}"]
    if kind == "use":
        return [f"xor r0, r{item[1]}"]
    if kind == "leak":
        _, how, accumulate, k = item
        acc = accumulate[2]
        reads = {"store": [f"stxdw [r10+8], r{acc}"],
                 "rsh": [f"mov r3, r{acc}", f"rsh r3, {k}"],
                 "and": [f"mov r3, {k}", f"and r3, r{acc}"]}[how]
        return _fold_lines(accumulate) + reads + ["add r0, r3"]
    _, width, offset, reg = item
    return [f"stx{_WIDTHS[width]} [r6{offset:+d}], r{reg}"]


@st.composite
def folded_case(draw) -> dict:
    items = draw(st.lists(_fold_item(), max_size=4))
    items.insert(draw(st.integers(0, len(items))), draw(_word_item()))
    return {
        "items": items,
        "stride": draw(st.integers(-6, 6)),
        "update_at": draw(st.integers(0, len(items))),
        "count_at": draw(st.integers(0, len(items))),
        "n": draw(st.integers(1, 16)),
        "starts": draw(st.tuples(st.sampled_from(_ACC_STARTS),
                                 st.sampled_from(_ACC_STARTS))),
        "slack": draw(st.integers(0, 255)),
        "content": draw(st.binary(min_size=256, max_size=256)),
    }


def _fold_body(case: dict) -> list[str]:
    ahead = case["stride"] + next(
        item[3] for item in case["items"] if item[0] == "word")
    body = [_fold_lines(item if item[:1] != ("store",) or item[2] is not None
                        else (*item[:2], ahead, item[3]))
            for item in case["items"]]
    body.insert(case["update_at"], [f"add r6, {case['stride']}"])
    body.insert(case["count_at"], ["sub r8, 1"])
    return [line for lines in body for line in lines]


def _pointer_walk(body: list[str], n: int) -> tuple[int, int]:
    """``[lo, hi)`` the body's ``r6`` accesses cover over ``n``
    iterations, relative to ``r6`` at loop entry."""
    lo, hi, pointer = 1 << 20, -(1 << 20), 0
    for _ in range(n):
        for line in body:
            if line.startswith("add r6,"):
                pointer += int(line.split(",")[1])
            match = _POINTER_ACCESS.match(line)
            if match:
                start = pointer + int(match[2])
                lo = min(lo, start)
                hi = max(hi, start + _SUFFIX_WIDTH[match[1]])
    return lo, hi


def _fold_source(case: dict) -> str:
    """The case's loop over a 256 B grant it fits in, with every register
    the body touches folded into ``r0`` afterwards."""
    body = _fold_body(case)
    lo, hi = _pointer_walk(body, case["n"])
    pointer = min(case["slack"], 256 - (hi - lo)) - lo
    start4, start5 = case["starts"]
    lines = ["mov r0, 0", f"lddw r6, {GRANT_BASE + pointer:#x}",
             f"lddw r4, {start4:#x}", f"lddw r5, {start5:#x}",
             "mov r2, 0x1111", "mov r7, 0x2222", "mov r9, 0x3333",
             "mov r3, 0", f"mov r8, {case['n']}", "loop:", *body,
             "jne r8, 0, loop"]
    for reg in (2, 3, 4, 5, 7, 9):
        lines += ["mul r0, 31", f"xor r0, r{reg}"]
    lines.append("exit")
    return "\n".join(f"    {line}" for line in lines)


def _run_folded(case: dict) -> tuple:
    reference, spans = _run_engines(_fold_source(case), case["content"],
                                    Permission.READ_WRITE, 1000)
    assert spans and None not in spans  # the folded copy ran
    return reference


@settings(max_examples=200, deadline=None)
@given(case=folded_case())
def test_folded_body_equivalence(case):
    _run_folded(case)


def _folded(**overrides) -> dict:
    """fletcher32's inner loop shape over the 256 B grant."""
    case = {
        "items": [("word", 2, 7, 0, 0, False), ("acc", "add", 4, 2),
                  ("acc", "add", 5, 4)],
        "stride": 2, "update_at": 3, "count_at": 3, "n": 16,
        "starts": ((1 << 64) - 3, (1 << 64) - 0x10000), "slack": 0,
        "content": bytes(range(255, -1, -1)),
    }
    case.update(overrides)
    return case


def _folded_loop(case: dict):
    return _analyse(_fold_source(case))


@pytest.mark.parametrize("high_first", [False, True])
def test_word_fuses_in_either_load_order(high_first):
    case = _folded(items=[("word", 2, 7, 1, 0, high_first),
                          ("acc", "add", 4, 2), ("acc", "add", 5, 4)])
    loop = _folded_loop(case)
    assert list(loop.words.values()) == [(2, 7)]
    assert loop.deferred == {4, 5}
    [gather] = loop.gathers
    assert (gather.reg, gather.lo, gather.fields, gather.pad) == (6, 1, "H", 0)
    outcome, kinds, *_ = _run_folded(case)
    assert outcome[0] == "value" and kinds["load"] == 32


@pytest.mark.parametrize("item,why", [
    (("word", 2, 7, 0, 1, False), "bytes one apart"),
    (("word", 2, 7, 0, -2, False), "high byte below the low one"),
    (("word", 2, 7, 0, -1, True), "the same byte twice"),
])
def test_word_refuses_bytes_that_are_not_adjacent(item, why):
    case = _folded(items=[item, ("acc", "add", 4, 2)], stride=4)
    assert _folded_loop(case).words == {}, why
    _run_folded(case)


@pytest.mark.parametrize("use_at", [0, 1])
def test_word_refuses_a_spare_register_read_elsewhere(use_at):
    items = [("word", 2, 7, 0, 0, False), ("acc", "add", 4, 2)]
    items.insert(use_at * 2, ("use", 7))
    case = _folded(items=items)
    assert _folded_loop(case).words == {}
    _run_folded(case)


@pytest.mark.parametrize("leak", [
    *(("leak", how, ("acc", "add", 4, 7), 60)
      for how in ("rsh", "and", "store")),
    ("acc", "add", 4, 4),  # fed by itself: its magnitude would double
])
def test_wrap_once_refuses_other_readers(leak):
    case = _folded(items=[*_folded()["items"], leak])
    assert 4 not in _folded_loop(case).deferred
    outcome, *_ = _run_folded(case)
    assert outcome[0] == "value"


def test_wrap_once_wraps_accumulators_entering_near_two_to_the_64():
    outcome, *_ = _run_folded(_folded(n=100))
    source = compile_program(assemble(_fold_source(_folded()))).jit_source
    assert "r4 += r2" in source and "r5 += r4" in source


@pytest.mark.parametrize("overrides,why", [
    ({"items": [*_folded()["items"], ("store", 1, 2, 8)]},
     "a store into the bytes the next iteration reads"),
    ({"stride": 0}, "a base that does not step"),
    ({"stride": 1}, "records that overlap the next iteration's"),
])
def test_read_once_refused(overrides, why):
    case = _folded(**overrides)
    loop = _folded_loop(case)
    assert loop.gathers is None, why
    assert list(loop.words.values()) == [(2, 7)]  # still one 16-bit read
    _run_folded(case)


def test_read_once_binds_several_loads_per_record():
    """Two loads per iteration, a gap between them, stepping down: one
    gather, reversed, feeding two registers."""
    case = _folded(items=[("load", 9, 4, 2), ("word", 2, 7, 0, 0, True),
                          ("acc", "sub", 4, 2), ("acc", "add", 5, 9)],
                   stride=-8, slack=40)
    [gather] = _folded_loop(case).gathers
    assert (gather.fields, gather.pad) == ("H2xH", 2)
    outcome, *_ = _run_folded(case)
    assert outcome[0] == "value"
