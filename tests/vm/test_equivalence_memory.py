"""Equivalence of interpreter / CertFC / JIT on memory-walking loops.

The JIT serves loads and stores from per-run read and write windows held
in locals, refilled only after a successful slow-path access and dropped
after every helper call.  This file generates loops that load and store
at every width, with signed offsets and positive or negative strides,
over every kind of region a container sees — the stack, the context, the
shared read-only ``.rodata``, ``.data`` and an extra read-only grant —
so the loops run off region ends, into the unmapped gaps between
regions, and into read-only memory.  All engines must agree on the
outcome (value, or fault class, pc and message), the full accounting,
and every byte of writable memory afterwards; a memory fault must name
the pc of its load or store (of the ``call``, when a helper raised it or
no helper answers it).

The pinned tests at the end cover the window rules one by one: a helper
that revokes, rewrites or remaps memory mid-run, a store to a region the
run has only read, and a helper that reads the run's accounting so far.
"""

from __future__ import annotations

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
from repro.vm.helpers import HelperRegistry
from repro.vm.memory import GRANT_BASE, STACK_BASE, Permission

ENGINES = (
    ("interpreter", Interpreter),
    ("certfc", CertFCInterpreter),
    ("jit", compile_program),
)

_WIDTHS = {1: "b", 2: "h", 4: "w", 8: "dw"}

#: How each region's base address reaches a pointer register.
_BASE = {
    "stack": "mov r{reg}, r10",
    "context": "mov r{reg}, r1",
    "rodata": "lddwr r{reg}, 0",
    "data": "lddwd r{reg}, 0",
    "grant": f"lddw r{{reg}}, {GRANT_BASE:#x}",
}

_CONTENT = st.binary(min_size=8, max_size=48)


@st.composite
def _pointer(draw, reg: int, sizes: dict[str, int]) -> list[str]:
    """Point ``r<reg>`` near the start or the end of one region."""
    region = draw(st.sampled_from(sorted(_BASE)))
    size = sizes[region]
    if draw(st.booleans()):
        offset = draw(st.integers(-8, min(size, 24)))
    else:
        offset = draw(st.integers(max(0, size - 24), size + 8))
    return [_BASE[region].format(reg=reg), f"add r{reg}, {offset}"]


@st.composite
def _access(draw) -> str:
    op = draw(st.sampled_from(["ldx", "stx", "st"]))
    suffix = _WIDTHS[draw(st.sampled_from(sorted(_WIDTHS)))]
    mem = f"[r{draw(st.sampled_from([6, 9]))}{draw(st.integers(-12, 12)):+d}]"
    if op == "ldx":
        return f"ldx{suffix} r7, {mem}\n    add r0, r7"
    if op == "stx":
        return f"stx{suffix} {mem}, r0"
    return f"st{suffix} {mem}, {draw(st.integers(-128, 127))}"


@st.composite
def memory_case(draw) -> dict:
    """One memory-walking loop plus the contents of every region."""
    case = {
        "context": draw(_CONTENT),
        "context_perms": draw(st.sampled_from(
            [Permission.READ_WRITE, Permission.READ])),
        "rodata": draw(_CONTENT),
        "data": draw(_CONTENT),
        "grant": draw(_CONTENT),
    }
    sizes = {name: len(case[name])
             for name in ("context", "rodata", "data", "grant")}
    sizes["stack"] = 512
    stride = st.integers(-9, 9)
    lines = ["mov r0, 0",
             *draw(_pointer(6, sizes)),
             *draw(_pointer(9, sizes)),
             f"mov r8, {draw(st.integers(1, 24))}",
             "loop:",
             *draw(st.lists(_access(), min_size=1, max_size=4)),
             f"add r6, {draw(stride)}",
             f"add r9, {draw(stride)}",
             "sub r8, 1",
             "jne r8, 0, loop",
             "exit"]
    case["source"] = "\n".join(f"    {line}" for line in lines)
    return case


def _observe(vm, run) -> tuple:
    """Run ``run(vm)``; return its outcome, accounting and memory."""
    dispatch = vm._dispatch_loop

    def capture(regs, stats):
        # run() drops the stats when it faults; helpers may peek too.
        vm.live_stats = stats
        return dispatch(regs, stats)

    vm._dispatch_loop = capture
    try:
        outcome = ("value", run(vm).value)
    except VMFault as exc:
        outcome = ("fault", type(exc).__name__, exc.pc, str(exc))
    stats = vm.live_stats
    data = vm.data_region.data if vm.data_region is not None else b""
    return (outcome, stats.kind_counts, stats.branches_taken,
            stats.executed, stats.helper_calls, bytes(vm.stack.data),
            bytes(data), vm.context_bytes())


def _assert_engines_agree(observed: dict) -> None:
    reference = observed["interpreter"]
    for name, outcome in observed.items():
        assert outcome == reference, (name, outcome, reference)
    if reference[0][:2] == ("fault", "MemoryFault"):
        assert reference[0][2] is not None  # names its load or store


@settings(max_examples=60, deadline=None)
@given(case=memory_case())
def test_memory_walk_equivalence(case):
    program = assemble(case["source"], rodata=case["rodata"],
                       data=case["data"])
    config = VMConfig(branch_limit=1000)
    observed = {}
    for name, factory in ENGINES:
        vm = factory(program, config=config)
        vm.access_list.grant_bytes("grant", GRANT_BASE, case["grant"],
                                   Permission.READ)
        observed[name] = _observe(vm, lambda vm: vm.run(
            context=case["context"], context_perms=case["context_perms"]))
    _assert_engines_agree(observed)


# -- window invalidation, pinned ---------------------------------------------

HELPER = 0x70


def _observe_with_helper(source: str, helper, rodata: bytes = b"",
                         context: bytes | None = None) -> tuple:
    """Run ``source`` on the interpreter and the JIT with ``helper``
    registered as ``call 0x70``; assert they agree, return the JIT's
    observations."""
    program = assemble(source, rodata=rodata)
    observed = {}
    for name, factory in (("interpreter", Interpreter),
                          ("jit", compile_program)):
        helpers = HelperRegistry()
        helpers.register(HELPER, helper)
        vm = factory(program, helpers)
        vm.access_list.grant_bytes("grant", GRANT_BASE, bytes(range(16)),
                                   Permission.READ)
        observed[name] = _observe(vm, lambda vm: vm.run(context=context))
    _assert_engines_agree(observed)
    return observed["jit"]


def test_helper_revoking_the_read_region_makes_the_next_load_fault():
    def revoke(vm, *_):
        grant = next(r for r in vm.access_list.regions if r.name == "grant")
        vm.access_list.remove(grant)

    outcome, kinds, *_ = _observe_with_helper(f"""
    lddw r6, {GRANT_BASE:#x}
    mov r8, 0
loop:
    ldxb r7, [r6+0]
    add r8, 1
    jne r8, 3, skip
    call {HELPER}
skip:
    jlt r8, 6, loop
    mov r0, r8
    exit
""", revoke)
    assert outcome[:2] == ("fault", "MemoryFault")
    assert "outside all granted regions" in outcome[3]
    assert kinds["load"] == 4 and kinds["call"] == 1


def test_helper_writes_are_seen_by_later_loads():
    def rewrite(vm, *_):
        vm.access_list.write_bytes(STACK_BASE + 8, b"\x5a" * 8)

    outcome, *_ = _observe_with_helper(f"""
    stdw [r10+8], 7
    ldxdw r6, [r10+8]
    call {HELPER}
    ldxdw r7, [r10+8]
    mov r0, r6
    lsh r0, 8
    xor r0, r7
    exit
""", rewrite)
    assert outcome == ("value", (7 << 8) ^ 0x5A5A5A5A5A5A5A5A)


def test_helper_remapping_the_context_is_seen_by_later_loads():
    def remap(vm, *_):
        vm.bind_context(b"\x11" * 16)  # new size: a new region and buffer

    outcome, *_, context = _observe_with_helper(f"""
    mov r6, r1
    ldxw r7, [r6+0]
    stb [r6+4], 0x33
    call {HELPER}
    ldxw r0, [r6+0]
    add r0, r7
    stb [r6+5], 0x22
    exit
""", remap, context=b"\x01\x00\x00\x00" + bytes(4))
    assert outcome == ("value", 0x11111111 + 1)
    assert context == b"\x11" * 5 + b"\x22" + b"\x11" * 10


def test_memory_fault_inside_a_helper_names_the_call():
    def overread(vm, *_):
        vm.access_list.read_bytes(GRANT_BASE + 8, 16)  # the grant is 16 B

    outcome, kinds, *_ = _observe_with_helper(f"""
    mov r6, 1
    call {HELPER}
    exit
""", overread)
    assert outcome[:3] == ("fault", "MemoryFault", 1)
    assert outcome[3] == (f"[pc=1] read of 16 B at {GRANT_BASE + 8:#010x} "
                          "outside all granted regions")
    assert kinds["call"] == 1

    # A call no helper answers names the call too, on every engine.
    program = assemble("mov r6, 1\n    call 0x55\n    exit")
    observed = {name: _observe(factory(program), lambda vm: vm.run())
                for name, factory in ENGINES}
    _assert_engines_agree(observed)
    assert observed["jit"][0] == ("fault", "HelperFault", 1,
                                  "[pc=1] unknown helper id 0x55")


@pytest.mark.parametrize("width", sorted(_WIDTHS))
def test_store_after_rodata_read_still_faults(width):
    suffix = _WIDTHS[width]
    outcome, kinds, *_ = _observe_with_helper(f"""
    stx{suffix} [r10+0], r1
    lddwr r6, 0
    ldx{suffix} r7, [r6+0]
    stx{suffix} [r6+0], r7
    exit
""", lambda vm, *_: 0, rodata=bytes(range(1, 9)))
    assert outcome[:2] == ("fault", "MemoryFault")
    assert "'.rodata' lacks WRITE permission" in outcome[3]
    assert kinds["store"] == 2 and kinds["load"] == 1


def test_helpers_see_the_accounting_of_the_run_so_far():
    seen = []

    def snapshot(vm, *_):
        stats = vm.live_stats
        seen.append((dict(stats.kind_counts), stats.branches_taken))

    _observe_with_helper(f"""
    mov r8, 3
loop:
    ldxb r7, [r10+0]
    call {HELPER}
    sub r8, 1
    jne r8, 0, loop
    exit
""", snapshot)
    interpreter, jit = seen[:3], seen[3:]
    assert jit == interpreter
    assert [kinds["call"] for kinds, _ in jit] == [1, 2, 3]
    assert [branches for _, branches in jit] == [0, 1, 2]
