"""A faulted run is charged for the work it did, on every engine.

A fault carries the counts its run made up to the fault out of the VM,
and the hosting engine prices them with the same cost profile as a
clean run.  Over generated verifier-accepted programs — loops, helper
calls, memory faults, division faults and runaways — every eBPF engine
must report identical counts and outcomes, the clock must move by
exactly ``setup + cost(counts)``, and the charge must stay within the
paper's finite-execution bound: at most ``N_b + 1`` straight-line
stretches of at most ``len(program)`` instructions each, every one at
the highest price a single instruction can have.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FC_HOOK_TIMER, HostingEngine
from repro.core.container import count_vector
from repro.core.policy import ContainerContract
from repro.rtos import Kernel, nrf52840
from repro.vm import Program, assemble
from repro.vm import helpers as h
from repro.vm.imagecache import IMAGE_CACHE
from repro.vm.supervisor import SupervisorConfig

IMPLEMENTATIONS = ("rbpf", "femto-containers", "certfc", "jit")

#: A runaway: every run exhausts the taken-branch budget.
SPIN = "spin:\n    ja spin\n    exit"


@pytest.fixture(autouse=True)
def fresh_cache():
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


@st.composite
def _step(draw, index: int) -> list[str]:
    kind = draw(st.sampled_from(
        ["alu", "loop", "stack", "oob", "div", "helper", "spin"]))
    if kind == "alu":
        return [f"add r0, {draw(st.integers(-99, 99))}"]
    if kind == "loop":
        return [f"mov r8, {draw(st.integers(1, 40))}", f"loop{index}:",
                "add r0, r8", "sub r8, 1", f"jne r8, 0, loop{index}"]
    if kind == "stack":
        return ["stxdw [r10+8], r0", "ldxdw r7, [r10+8]", "add r0, r7"]
    if kind == "oob":
        return [f"lddw r6, {draw(st.sampled_from([0x10, 0x2000_0200])):#x}",
                "ldxw r7, [r6]", "add r0, r7"]
    if kind == "div":
        return [f"mov r9, {draw(st.integers(0, 2))}", "div r0, r9"]
    if kind == "helper":
        return [f"call {h.BPF_NOW_MS:#x}"]
    return [f"spin{index}:", "add r0, 1", f"ja spin{index}"]


@st.composite
def program_source(draw) -> str:
    lines = ["mov r0, 0"]
    for index in range(draw(st.integers(1, 5))):
        lines += draw(_step(index))
    lines.append("exit")
    return "\n".join(f"    {line}" for line in lines)


def _max_instruction_price(cost) -> int:
    """The most one executed instruction can cost under ``cost``."""
    return (cost.dispatch + max(cost.op_cycles.values()) + cost.call_extra
            + max([100, *cost.syscall_cycles.values()]))


def _charged_run(implementation: str, program: Program, branch_limit: int):
    engine = HostingEngine(Kernel(nrf52840()), implementation=implementation)
    container = engine.attach(
        engine.load(program,
                    contract=ContainerContract(branch_limit=branch_limit)),
        FC_HOOK_TIMER)
    clock = engine.kernel.clock
    before = clock.cycles
    run = engine.execute(container, b"\x01\x02")
    return run, clock.cycles - before, container.facts, engine.helpers


@settings(max_examples=60, deadline=None)
@given(source=program_source(), branch_limit=st.sampled_from([4, 32, 256]))
def test_every_run_is_charged_its_counts(source, branch_limit):
    program = assemble(source)
    outcomes = set()
    for implementation in IMPLEMENTATIONS:
        run, charged, facts, helpers = _charged_run(implementation, program,
                                                    branch_limit)
        assert charged == run.cycles
        assert run.cycles == facts.setup_cycles + facts.cost.cycles(
            run.stats, helpers)
        assert run.cycles <= facts.setup_cycles + (
            (branch_limit + 1) * len(program.slots)
            * _max_instruction_price(facts.cost))
        if run.fault is not None:
            assert run.stats.executed >= 1  # the faulting instruction ran
        fault = run.fault
        outcomes.add((run.value,
                      None if fault is None else (fault.kind, fault.pc),
                      count_vector(run.stats)))
    assert len(outcomes) == 1, outcomes


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
def test_runaway_is_charged_its_exhausted_budget(implementation):
    run, charged, facts, helpers = _charged_run(
        implementation, assemble(SPIN), 10_000)
    assert run.fault is not None and run.fault.kind == "BranchLimitFault"
    assert run.stats.executed == run.stats.branches_taken == 10_001
    assert charged == facts.setup_cycles + facts.cost.cycles(run.stats,
                                                             helpers)
    assert charged > 10_001 * facts.cost.dispatch


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
def test_cycle_ceiling_quarantines_a_runaway(implementation):
    """The supervisor sees a runaway's work: its per-run ceiling trips
    long before the fault streak would."""
    engine = HostingEngine(
        Kernel(nrf52840()), implementation=implementation,
        supervisor=SupervisorConfig(cycle_ceiling=10_000, overrun_streak=2,
                                    fault_streak=100))
    container = engine.attach(engine.load(assemble(SPIN), name="spin"),
                              FC_HOOK_TIMER)
    for _ in range(2):
        engine.execute(container)
    health = container.health
    assert health.quarantined and container.hook is None
    assert health.overruns == 2
