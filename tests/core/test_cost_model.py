"""One cost model: the prices a container gets at attach are the board's.

The hosting engine derives each container's :class:`~repro.core.container
.RunFacts` once at attach and prices every run from them and its live
helper registry.  These tests hold that price to a plain walk of the
board's tables — the formula ``Board.vm_execution_cycles`` has always
computed — for every board and engine build, and for generated counts,
including helper ids the registry does not know (charged as
``"trace"``).  A run whose count vector the container has tallied
before reuses the tallied price only while the cost profile and the
registry are the ones it was taken under: every charged run below —
tally hits, hits after a re-register, repeated faults, vectors back
after a fold, containers brought back by ``replace`` or probation — is
held to the table walk.  They also hold the tallied lifetime accounting
to the plain sum of every run's stats.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    FC_HOOK_TIMER,
    AttachError,
    ContainerState,
    HostingEngine,
)
from repro.core.container import MAX_COUNT_VECTORS, count_vector
from repro.rtos import Kernel, all_boards
from repro.rtos.board import IMPLEMENTATIONS
from repro.vm import assemble, isa
from repro.vm.helpers import BPF_FETCH_GLOBAL, BPF_PRINTF, BPF_STORE_GLOBAL
from repro.vm.interpreter import ExecutionStats
from repro.vm.supervisor import SupervisorConfig

#: Registered helpers of different cost keys, plus ids nobody registered.
HELPER_IDS = [BPF_PRINTF, BPF_STORE_GLOBAL, BPF_FETCH_GLOBAL, 0x30, 0x41,
              0x50, 0x60, 0x7E, 0xFF]

#: Loops ``ctx[0]`` times, so each context is its own count vector.
LOOP = """
    ldxdw r2, [r1]
    mov r0, 0
loop:
    jeq r2, 0, done
    add r0, 2
    sub r2, 1
    ja loop
done:
    exit
"""


def table_walk(board, stats: ExecutionStats, implementation: str,
               helpers) -> int:
    """The board's cost tables, walked the long way round."""
    table = board.cost_table(implementation)
    cycles = stats.executed * table.dispatch
    for kind, count in stats.kind_counts.items():
        if count:
            cycles += count * table.op_cycles[kind]
    for helper_id, count in stats.helper_calls.items():
        cost_key = (helpers.table[helper_id].cost_key
                    if helper_id in helpers else "trace")
        cycles += count * (table.call_extra
                           + board.syscall_cycles.get(cost_key, 100))
    return cycles


#: Calls helper 0x7e ``ctx[0]`` times, then faults on an 8 B read past
#: the end of the context (clean with a context of 16 B or more).
CALLER = """
    mov r7, r1
    ldxdw r6, [r1]
loop:
    jeq r6, 0, done
    call 0x7e
    sub r6, 1
    ja loop
done:
    ldxdw r0, [r7+8]
    exit
"""

#: A registered helper's cost keys, each a different syscall price.
COST_KEYS = ("kv", "saul", "coap")


def attached(board, implementation: str):
    engine = HostingEngine(Kernel(board), implementation=implementation)
    container = engine.attach(engine.load(assemble(LOOP)), FC_HOOK_TIMER)
    return engine, container


def summed(runs) -> ExecutionStats:
    """The plain sum of every run's stats."""
    total = ExecutionStats()
    for run in runs:
        total.executed += run.stats.executed
        total.branches_taken += run.stats.branches_taken
        for kind, count in run.stats.kind_counts.items():
            total.kind_counts[kind] = total.kind_counts.get(kind, 0) + count
        for helper_id, count in run.stats.helper_calls.items():
            total.helper_calls[helper_id] = (
                total.helper_calls.get(helper_id, 0) + count)
    return total


stats_strategy = st.builds(
    ExecutionStats,
    executed=st.integers(0, 10_000),
    branches_taken=st.integers(0, 1_000),
    kind_counts=st.dictionaries(st.sampled_from(isa.InstructionKind.ALL),
                                st.integers(0, 1_000)),
    helper_calls=st.dictionaries(st.sampled_from(HELPER_IDS),
                                 st.integers(1, 50)),
)

ENGINES = [attached(board, implementation)
           for board in all_boards() for implementation in IMPLEMENTATIONS]


class TestOneCostModel:
    @settings(max_examples=200, deadline=None)
    @given(stats=stats_strategy)
    def test_attach_time_prices_are_the_board_tables(self, stats):
        for engine, container in ENGINES:
            board, implementation = engine.board, engine.implementation
            expected = table_walk(board, stats, implementation,
                                  engine.helpers)
            facts = container.facts
            assert facts.cost.cycles(stats, engine.helpers) == expected
            assert board.vm_execution_cycles(
                stats, implementation, engine.helpers) == expected
            assert facts.setup_cycles == board.vm_setup_cycles

    def test_unregistered_helper_is_charged_as_trace(self, board_m4):
        engine, container = attached(board_m4, "femto-containers")
        table = board_m4.cost_table("femto-containers")
        stats = ExecutionStats(helper_calls={0x7E: 3})
        assert 0x7E not in engine.helpers
        assert container.facts.cost.cycles(stats) == 3 * (
            table.call_extra + board_m4.syscall_cycles["trace"])

    @pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
    def test_every_charged_run_is_the_table_price(self, any_board,
                                                  implementation):
        engine, container = attached(any_board, implementation)
        # More distinct count vectors than a container tallies unfolded.
        for count in range(MAX_COUNT_VECTORS + 8):
            before = engine.kernel.clock.cycles
            run = engine.execute(container, struct.pack("<QQ", count, 0))
            assert run.ok and run.value == 2 * count
            assert run.cycles == any_board.vm_setup_cycles + table_walk(
                any_board, run.stats, implementation, engine.helpers)
            assert engine.kernel.clock.cycles - before == run.cycles

    def test_re_registered_helper_is_priced_from_the_live_registry(
            self, board_m4):
        engine = HostingEngine(Kernel(board_m4))
        engine.helpers.register(0x7E, lambda vm, *args: 0, cost_key="kv")
        container = engine.attach(engine.load(assemble("""
            call 0x7e
            exit
        """)), FC_HOOK_TIMER)
        first = engine.execute(container)
        engine.helpers.register(0x7E, lambda vm, *args: 0, cost_key="saul")
        second = engine.execute(container)
        assert first.ok and second.ok and first.stats == second.stats
        assert second.cycles == board_m4.vm_setup_cycles + table_walk(
            board_m4, second.stats, "femto-containers", engine.helpers)
        syscall = board_m4.syscall_cycles
        assert second.cycles - first.cycles == syscall["saul"] - syscall["kv"]


class Meter:
    """Runs one container of ``CALLER`` and holds every charged run to
    the table walk under the engine's live registry, and the container's
    lifetime accounting to the plain sum of its runs."""

    def __init__(self, board, implementation: str,
                 supervisor: SupervisorConfig | None = None) -> None:
        self.board = board
        self.implementation = implementation
        self.engine = HostingEngine(Kernel(board), implementation,
                                    supervisor=supervisor)
        self.register("kv")
        self.container = self.engine.attach(
            self.engine.load(assemble(CALLER)), FC_HOOK_TIMER)
        self.runs: list = []

    def register(self, cost_key: str) -> None:
        self.engine.helpers.register(0x7E, lambda vm, *args: 0,
                                     cost_key=cost_key)

    def run(self, calls: int | None, container=None):
        """One run making ``calls`` helper calls (``None``: then fault)."""
        container = container or self.container
        context = (b"" if calls is None
                   else struct.pack("<QQ", calls, 0))
        clock = self.engine.kernel.clock
        before = clock.cycles
        run = self.engine.execute(container, context)
        assert run.ok is (calls is not None)
        assert run.cycles == self.board.vm_setup_cycles + table_walk(
            self.board, run.stats, self.implementation, self.engine.helpers)
        assert clock.cycles - before == run.cycles
        if container is self.container:
            self.runs.append(run)
            assert container.lifetime_stats == summed(self.runs)
            assert container.total_cycles == sum(r.cycles for r in self.runs)
        return run

    def tallied_runs(self, run) -> int:
        """How many runs the tally holds under ``run``'s count vector."""
        return self.container._tally[count_vector(run.stats)].runs


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
class TestTalliedPrice:
    def test_a_tally_hit_is_the_table_price(self, any_board,
                                             implementation):
        meter = Meter(any_board, implementation)
        for _ in range(3):
            run = meter.run(2)
        assert meter.tallied_runs(run) == 3

    def test_a_hit_after_a_re_register_reads_the_live_registry(
            self, board_m4, implementation):
        meter = Meter(board_m4, implementation)
        prices = []
        # Each re-register changes the cost key, or keeps it (a new
        # function under the same key): either way the next run is a
        # tally hit charged from the registry as it is now.
        for cost_key in (*COST_KEYS, COST_KEYS[-1], COST_KEYS[0]):
            meter.register(cost_key)
            prices.append(meter.run(3).cycles)
        assert meter.tallied_runs(meter.runs[-1]) == len(prices)
        assert prices[0] == prices[-1] and prices[2] == prices[3]
        assert len(set(prices)) == len(COST_KEYS)

    def test_a_faulted_run_whose_vector_repeats(self, board_m4,
                                                implementation):
        meter = Meter(board_m4, implementation)
        for cost_key in ("kv", "kv", "saul"):
            meter.register(cost_key)
            fault = meter.run(None)
        assert meter.tallied_runs(fault) == 3
        assert fault.fault.kind == "MemoryFault"
        assert meter.container.fault_count == 3

    def test_a_vector_back_after_a_fold(self, board_m4, implementation):
        meter = Meter(board_m4, implementation)
        meter.run(1)
        # Enough distinct vectors to fold the tally, then the first one
        # again, under the registry before and after a re-register.
        for calls in range(2, MAX_COUNT_VECTORS + 3):
            meter.run(calls)
        assert len(meter.container._tally) < MAX_COUNT_VECTORS
        meter.run(1)
        meter.register("coap")
        meter.run(1)
        assert meter.tallied_runs(meter.runs[-1]) == 2

    def test_a_container_replace_brought_back(self, board_m4,
                                              implementation):
        meter = Meter(board_m4, implementation)
        engine, container = meter.engine, meter.container
        meter.run(2)
        meter.register("saul")
        # A rejected replacement re-attaches the old container, tally
        # and all, under the registry as it is now.
        with pytest.raises(AttachError):
            engine.replace(container, assemble("call 0x55\n    exit"))
        assert container.state is ContainerState.ATTACHED
        meter.run(2)
        assert meter.tallied_runs(meter.runs[-1]) == 2

    def test_a_container_probation_brought_back(self, board_m4,
                                                implementation):
        meter = Meter(board_m4, implementation, SupervisorConfig(
            fault_streak=1, probation_base_us=1_000.0))
        engine, container = meter.engine, meter.container
        meter.run(2)
        meter.run(None)
        assert container.state is ContainerState.DETACHED
        meter.register("coap")
        engine.kernel.run(until_us=engine.kernel.now_us + 2_000.0)
        assert container.state is ContainerState.ATTACHED
        meter.run(2)
        meter.run(None)
        assert meter.tallied_runs(meter.runs[-1]) == 2

    def test_a_container_moved_to_another_board(self, board_m4,
                                                board_esp32,
                                                implementation):
        meter = Meter(board_m4, implementation)
        meter.run(2)
        meter.engine.detach(meter.container)
        # Same registry state, another board: the tallied price was
        # taken under the other board's cost profile.
        other = Meter(board_esp32, implementation)
        other.engine.helpers = meter.engine.helpers
        other.engine.attach(meter.container, FC_HOOK_TIMER)
        other.run(2, meter.container)
        assert meter.tallied_runs(meter.runs[-1]) == 2


class TestLifetimeTally:
    def test_lifetime_stats_is_the_sum_of_every_run(self, board_m4):
        engine, container = attached(board_m4, "femto-containers")
        runs = []
        # Repeated vectors, a fault (a 4 B context: the 8 B load runs off
        # it), and enough distinct vectors to fold the tally repeatedly.
        counts = [1, 2, 1, 1, 2, *range(3 * MAX_COUNT_VECTORS), 1, 2]
        for index, count in enumerate(counts):
            if index == 3:
                runs.append(engine.execute(container, bytes(4)))
            runs.append(engine.execute(container,
                                       struct.pack("<QQ", count, 0)))
            assert container.lifetime_stats == summed(runs)
        assert not runs[3].ok
        assert container.runs == len(runs)
        assert container.total_cycles == sum(run.cycles for run in runs)
