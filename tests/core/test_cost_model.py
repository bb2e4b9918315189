"""One cost model: the prices a container gets at attach are the board's.

The hosting engine derives each container's :class:`~repro.core.container
.RunFacts` once at attach and prices every run from them.  These tests hold that price to a plain walk of the
board's tables — the formula ``Board.vm_execution_cycles`` has always
computed — for every board and engine build, and for generated counts,
including helper ids the registry does not know (charged as
``"trace"``).  They also hold the tallied lifetime accounting to the
plain sum of every run's stats.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FC_HOOK_TIMER, HostingEngine
from repro.core.container import MAX_COUNT_VECTORS
from repro.rtos import Kernel, all_boards
from repro.rtos.board import IMPLEMENTATIONS
from repro.vm import assemble, isa
from repro.vm.helpers import BPF_FETCH_GLOBAL, BPF_PRINTF, BPF_STORE_GLOBAL
from repro.vm.interpreter import ExecutionStats

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


def attached(board, implementation: str):
    engine = HostingEngine(Kernel(board), implementation=implementation)
    container = engine.attach(engine.load(assemble(LOOP)), FC_HOOK_TIMER)
    return engine, container


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
            assert facts.cost.cycles(stats) == expected
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


class TestLifetimeTally:
    @staticmethod
    def _summed(runs) -> ExecutionStats:
        total = ExecutionStats()
        for run in runs:
            total.executed += run.stats.executed
            total.branches_taken += run.stats.branches_taken
            for kind, count in run.stats.kind_counts.items():
                total.kind_counts[kind] = (
                    total.kind_counts.get(kind, 0) + count)
            for helper_id, count in run.stats.helper_calls.items():
                total.helper_calls[helper_id] = (
                    total.helper_calls.get(helper_id, 0) + count)
        return total

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
            assert container.lifetime_stats == self._summed(runs)
        assert not runs[3].ok
        assert container.runs == len(runs)
        assert container.total_cycles == sum(run.cycles for run in runs)
