"""Container supervision: crash-loop quarantine, probation, strike-out.

Every engine runs a per-slot
:class:`~repro.vm.supervisor.ContainerSupervisor` tracking *streaks*:
consecutive contained faults (or consecutive cycle-ceiling overruns)
quarantine the slot with exponential-backoff probation, and three
strikes make the quarantine permanent.  These tests drive the policy
through the public engine API only — attach, execute, and the kernel's
virtual clock for the probation timers.
"""

from __future__ import annotations

import pytest

from repro.core import (
    FC_HOOK_SCHED,
    FC_HOOK_TIMER,
    ContainerState,
    HostingEngine,
)
from repro.core.container import VM_CLASSES
from repro.rtos import Kernel
from repro.vm import assemble
from repro.vm.supervisor import SupervisorConfig

RETURN_7 = "mov r0, 7\n    exit"
CRASHER = "lddw r1, 0xbad0000\n    ldxdw r0, [r1]\n    exit"
#: Faults when the first context u64 is non-zero, clean otherwise.
CONDITIONAL = """
    ldxdw r2, [r1]
    jeq r2, 0, +3
    lddw r1, 0xbad0000
    ldxdw r0, [r1]
    exit
"""

BAD = (1).to_bytes(8, "little")
GOOD = (0).to_bytes(8, "little")


def make_engine(board, **config) -> HostingEngine:
    kernel = Kernel(board)
    return HostingEngine(kernel, supervisor=SupervisorConfig(**config))


class TestFaultStreakQuarantine:
    def test_streak_quarantines_and_detaches(self, board_m4):
        engine = make_engine(board_m4, fault_streak=3)
        container = engine.attach(engine.load(assemble(CRASHER)),
                                  FC_HOOK_TIMER)
        for _ in range(3):
            engine.execute(container)
        assert container.state is ContainerState.DETACHED
        health = engine.supervisor.health(FC_HOOK_TIMER, container.name)
        assert health.quarantined and health.strikes == 1
        assert health.state == "quarantined"
        assert health.rearm_at_us is not None
        assert engine.supervisor.quarantined_slots() \
            == [(FC_HOOK_TIMER, container.name)]

    def test_clean_run_resets_streak(self, board_m4):
        engine = make_engine(board_m4, fault_streak=3)
        container = engine.attach(engine.load(assemble(CONDITIONAL)),
                                  FC_HOOK_TIMER)
        for _ in range(2):
            assert engine.execute(container, context=BAD).fault is not None
        assert engine.execute(container, context=GOOD).ok
        for _ in range(2):
            engine.execute(container, context=BAD)
        # 2 faults, clean, 2 faults: never 3 consecutive — still armed.
        assert container.state is ContainerState.ATTACHED
        assert engine.supervisor.health(FC_HOOK_TIMER,
                                        container.name).strikes == 0

    def test_default_config_quarantines_at_sixteenth_fault(self, board_m4):
        engine = HostingEngine(Kernel(board_m4))
        container = engine.attach(engine.load(assemble(CRASHER)),
                                  FC_HOOK_TIMER)
        for _ in range(15):
            engine.execute(container)
        assert container.state is ContainerState.ATTACHED
        engine.execute(container)
        assert container.state is ContainerState.DETACHED

    @pytest.mark.parametrize("streak", [1, 2, 5, 16])
    def test_quarantines_exactly_at_configured_streak(self, board_m4,
                                                      streak):
        engine = make_engine(board_m4, fault_streak=streak)
        container = engine.attach(engine.load(assemble(CRASHER)),
                                  FC_HOOK_TIMER)
        for _ in range(streak - 1):
            engine.execute(container)
        assert container.state is ContainerState.ATTACHED
        engine.execute(container)
        assert container.state is ContainerState.DETACHED
        assert engine.supervisor.health(FC_HOOK_TIMER,
                                        container.name).quarantined

    @pytest.mark.parametrize("implementation", sorted(VM_CLASSES))
    def test_every_vm_implementation_feeds_the_streak(self, board_m4,
                                                      implementation):
        engine = HostingEngine(Kernel(board_m4),
                               implementation=implementation,
                               supervisor=SupervisorConfig(fault_streak=3))
        container = engine.attach(engine.load(assemble(CONDITIONAL)),
                                  FC_HOOK_TIMER)
        for _ in range(2):
            engine.execute(container, context=BAD)
        assert engine.execute(container, context=GOOD).ok
        for _ in range(3):
            engine.execute(container, context=BAD)
        assert container.state is ContainerState.DETACHED
        health = engine.supervisor.health(FC_HOOK_TIMER, container.name)
        assert health.quarantined and health.strikes == 1


class TestProbation:
    def test_probation_rearms_after_backoff(self, board_m4):
        engine = make_engine(board_m4, fault_streak=2,
                             probation_base_us=1_000.0)
        container = engine.attach(engine.load(assemble(CONDITIONAL)),
                                  FC_HOOK_TIMER)
        for _ in range(2):
            engine.execute(container, context=BAD)
        assert container.state is ContainerState.DETACHED
        engine.kernel.run(until_us=engine.kernel.now_us + 2_000.0)
        assert container.state is ContainerState.ATTACHED
        health = engine.supervisor.health(FC_HOOK_TIMER, container.name)
        assert health.probations == 1 and not health.quarantined
        # And the re-armed container runs again.
        assert engine.execute(container, context=GOOD).ok

    def test_probation_attach_charges_cycles(self, board_m4):
        engine = make_engine(board_m4, fault_streak=1,
                             probation_base_us=1_000.0)
        container = engine.attach(engine.load(assemble(CRASHER)),
                                  FC_HOOK_TIMER)
        engine.execute(container)
        before = engine.kernel.clock.cycles
        engine.kernel.run(until_us=engine.kernel.now_us + 2_000.0)
        # The re-attach pays the verify+install price on the virtual
        # clock — probation is never free.
        assert engine.kernel.clock.cycles > before
        assert container.state is ContainerState.ATTACHED

    def test_backoff_doubles_per_strike(self, board_m4):
        engine = make_engine(board_m4, fault_streak=1, max_strikes=10,
                             probation_base_us=1_000.0,
                             probation_cap_us=3_000.0)
        container = engine.attach(engine.load(assemble(CRASHER)),
                                  FC_HOOK_TIMER)
        delays = []
        for _ in range(3):
            engine.execute(container)  # fault -> quarantine
            health = engine.supervisor.health(FC_HOOK_TIMER, container.name)
            delays.append(health.rearm_at_us - engine.kernel.now_us)
            engine.kernel.run(until_us=health.rearm_at_us + 1.0)
            assert container.state is ContainerState.ATTACHED
        assert delays == [1_000.0, 2_000.0, 3_000.0]  # base, 2x, capped

    def test_permanent_after_max_strikes(self, board_m4):
        engine = make_engine(board_m4, fault_streak=1, max_strikes=3,
                             probation_base_us=1_000.0)
        container = engine.attach(engine.load(assemble(CRASHER)),
                                  FC_HOOK_TIMER)
        for strike in range(3):
            engine.execute(container)
            engine.kernel.run(until_us=engine.kernel.now_us + 60_000.0)
        health = engine.supervisor.health(FC_HOOK_TIMER, container.name)
        assert health.permanent and health.state == "permanent"
        assert health.rearm_at_us is None
        assert container.state is ContainerState.DETACHED
        # No timer will ever bring it back.
        engine.kernel.run(until_us=engine.kernel.now_us + 1_000_000.0)
        assert container.state is ContainerState.DETACHED
        assert engine.supervisor.quarantines == 3


class TestProbationPosition:
    """Probation puts the container back where it ran, not at the end."""

    @staticmethod
    def _three(engine, sick: str):
        return [engine.attach(engine.load(
            assemble(CONDITIONAL if name == sick else RETURN_7), name=name),
            FC_HOOK_TIMER) for name in ("a", "b", "c")]

    @staticmethod
    def _order(engine) -> list[str]:
        return [c.name for c in engine.hook(FC_HOOK_TIMER).containers]

    @pytest.mark.parametrize("sick", ["a", "b", "c"])
    def test_probation_restores_the_run_order(self, board_m4, sick):
        engine = make_engine(board_m4, fault_streak=2,
                             probation_base_us=1_000.0)
        by_name = {c.name: c for c in self._three(engine, sick)}
        for _ in range(2):
            engine.execute(by_name[sick], context=BAD)
        assert sick not in self._order(engine)
        engine.kernel.run(until_us=engine.kernel.now_us + 2_000.0)
        assert self._order(engine) == ["a", "b", "c"]

    def test_position_is_clamped_to_the_shrunken_hook(self, board_m4):
        engine = make_engine(board_m4, fault_streak=1,
                             probation_base_us=1_000.0)
        a, b, c = self._three(engine, "c")
        engine.execute(c, context=BAD)  # quarantined from index 2
        engine.detach(b)
        engine.kernel.run(until_us=engine.kernel.now_us + 2_000.0)
        assert self._order(engine) == ["a", "c"]


class TestSlotOwnership:
    def test_fresh_install_cancels_stale_probation(self, board_m4):
        """A new container taking the slot must kill the old probation
        timer: a rolled-back slot can never be re-poisoned by a timer
        that outlived its rollback."""
        engine = make_engine(board_m4, fault_streak=1,
                             probation_base_us=5_000.0)
        poison = engine.attach(engine.load(assemble(CRASHER), name="app"),
                               FC_HOOK_TIMER)
        engine.execute(poison)
        assert poison.state is ContainerState.DETACHED
        fixed = engine.attach(engine.load(assemble(RETURN_7), name="app"),
                              FC_HOOK_TIMER)
        engine.kernel.run(until_us=engine.kernel.now_us + 60_000.0)
        hook = engine.hook(FC_HOOK_TIMER)
        assert hook.containers == [fixed]
        assert poison.state is ContainerState.DETACHED
        health = engine.supervisor.health(FC_HOOK_TIMER, "app")
        assert health is None or health.container is not poison

    def test_manual_reattach_clears_quarantine(self, board_m4):
        engine = make_engine(board_m4, fault_streak=1,
                             probation_base_us=5_000.0)
        container = engine.attach(engine.load(assemble(CONDITIONAL)),
                                  FC_HOOK_TIMER)
        engine.execute(container, context=BAD)
        assert container.state is ContainerState.DETACHED
        engine.attach(container, FC_HOOK_TIMER)  # operator override
        health = engine.supervisor.health(FC_HOOK_TIMER, container.name)
        assert not health.quarantined
        # The cancelled timer must not fire a duplicate attach.
        engine.kernel.run(until_us=engine.kernel.now_us + 60_000.0)
        assert engine.hook(FC_HOOK_TIMER).containers == [container]


class TestOverrunQuarantine:
    def test_cycle_ceiling_overruns_quarantine(self, board_m4):
        engine = make_engine(board_m4, cycle_ceiling=1, overrun_streak=4)
        container = engine.attach(engine.load(assemble(RETURN_7)),
                                  FC_HOOK_SCHED)
        for _ in range(3):
            engine.execute(container)
        assert container.state is ContainerState.ATTACHED
        engine.execute(container)
        assert container.state is ContainerState.DETACHED
        health = engine.supervisor.health(FC_HOOK_SCHED, container.name)
        assert health.overruns == 4 and health.quarantined

    def test_no_ceiling_means_no_overrun_tracking(self, board_m4):
        engine = make_engine(board_m4)
        container = engine.attach(engine.load(assemble(RETURN_7)),
                                  FC_HOOK_SCHED)
        for _ in range(10):
            engine.execute(container)
        health = engine.supervisor.health(FC_HOOK_SCHED, container.name)
        assert health.overruns == 0
        assert container.state is ContainerState.ATTACHED


class TestCostNeutrality:
    @pytest.mark.parametrize("config", [
        SupervisorConfig(),
        SupervisorConfig(fault_streak=1, cycle_ceiling=10_000,
                         overrun_streak=1),
    ])
    def test_clock_moves_only_by_the_runs_own_cost(self, board_m4, config):
        """Supervision charges nothing on the clean path: the virtual
        clock advances by exactly the modelled cost of the runs, however
        tight the policy watching them."""
        kernel = Kernel(board_m4)
        engine = HostingEngine(kernel, supervisor=config)
        container = engine.attach(engine.load(assemble(RETURN_7)),
                                  FC_HOOK_TIMER)
        before = kernel.clock.cycles
        runs = [engine.execute(container) for _ in range(50)]
        assert kernel.clock.cycles - before == sum(run.cycles for run in runs)


class TestSnapshotExposure:
    def test_runtime_snapshot_includes_quarantined_slot(self, board_m4):
        engine = make_engine(board_m4, fault_streak=1,
                             probation_base_us=60_000_000.0)
        container = engine.attach(engine.load(assemble(CRASHER), name="bad"),
                                  FC_HOOK_TIMER)
        engine.execute(container)
        snapshot = engine.runtime_snapshot()
        key = (FC_HOOK_TIMER, "bad")
        assert key in snapshot  # despite being detached
        assert snapshot[key].health.quarantined
