"""Container supervision: crash-loop quarantine, probation, strike-out.

Every engine runs a per-slot
:class:`~repro.vm.supervisor.ContainerSupervisor` tracking *streaks*:
consecutive contained faults (or consecutive cycle-ceiling overruns)
quarantine the slot with exponential-backoff probation, and three
strikes make the quarantine permanent.  These tests drive the policy
through the public engine API only — attach, execute, and the kernel's
virtual clock for the probation timers.

The supervisor keeps each container's health on the container and holds
only the detained ones itself.  The differential at the end checks it
against the supervisor as it was when health lived in a table keyed by
``(hook name, container name)``, kept verbatim below as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    FC_HOOK_COAP,
    FC_HOOK_SCHED,
    FC_HOOK_TIMER,
    ContainerState,
    Hook,
    HookMode,
    HostingEngine,
)
from repro.core.container import VM_CLASSES
from repro.rtos import Kernel, nrf52840
from repro.rtos.shell import DeviceShell
from repro.vm import assemble
from repro.vm.supervisor import SlotHealth, SupervisorConfig

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
        health = container.health
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
        assert container.health.strikes == 0

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
        assert container.health.quarantined

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
        health = container.health
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
        health = container.health
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
            health = container.health
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
        health = container.health
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
        assert poison not in engine.supervisor.detained

    def test_reattach_to_another_hook_outlives_the_old_deadline(
            self, board_m4):
        """A quarantined container the operator attaches to another hook
        is not attached a second time when its old deadline passes."""
        engine = make_engine(board_m4, fault_streak=1,
                             probation_base_us=5_000.0)
        container = engine.attach(engine.load(assemble(CONDITIONAL)),
                                  FC_HOOK_TIMER)
        engine.execute(container, context=BAD)
        assert container.state is ContainerState.DETACHED
        engine.attach(container, FC_HOOK_COAP)  # operator override
        engine.kernel.run(until_us=engine.kernel.now_us + 60_000.0)
        assert engine.hook(FC_HOOK_TIMER).containers == []
        assert engine.hook(FC_HOOK_COAP).containers == [container]
        assert engine.supervisor.quarantined_slots() == []

    def test_fresh_install_retires_a_permanent_slot(self, board_m4):
        """A permanent slot leaves ``fc list`` and ``slots()`` once a
        fresh container takes it."""
        engine = make_engine(board_m4, fault_streak=1, max_strikes=1)
        shell = DeviceShell(engine)
        poison = engine.attach(engine.load(assemble(CRASHER), name="app"),
                               FC_HOOK_TIMER)
        engine.execute(poison)
        assert list(engine.slots()) == [(poison, FC_HOOK_TIMER)]
        assert shell.execute("fc list").rstrip().endswith("permanent")
        fixed = engine.attach(engine.load(assemble(RETURN_7), name="app"),
                              FC_HOOK_TIMER)
        assert list(engine.slots()) == [(fixed, FC_HOOK_TIMER)]
        rows = shell.execute("fc list").splitlines()[1:]
        assert len(rows) == 1 and rows[0].rstrip().endswith("ok")
        assert engine.supervisor.quarantined_slots() == []

    def test_manual_reattach_clears_quarantine(self, board_m4):
        engine = make_engine(board_m4, fault_streak=1,
                             probation_base_us=5_000.0)
        container = engine.attach(engine.load(assemble(CONDITIONAL)),
                                  FC_HOOK_TIMER)
        engine.execute(container, context=BAD)
        assert container.state is ContainerState.DETACHED
        engine.attach(container, FC_HOOK_TIMER)  # operator override
        health = container.health
        assert not health.quarantined
        # The cancelled timer must not fire a duplicate attach.
        engine.kernel.run(until_us=engine.kernel.now_us + 60_000.0)
        assert engine.hook(FC_HOOK_TIMER).containers == [container]

    def test_manual_reattach_clears_permanent(self, board_m4):
        """An operator re-attach brings a struck-out container back into
        service: it reads ``ok``, not ``permanent``, and keeps its
        strikes, so its next quarantine is permanent at once."""
        engine = make_engine(board_m4, fault_streak=1, max_strikes=1)
        shell = DeviceShell(engine)
        container = engine.attach(engine.load(assemble(CONDITIONAL)),
                                  FC_HOOK_TIMER)
        engine.execute(container, context=BAD)
        assert container.health.state == "permanent"
        engine.attach(container, FC_HOOK_TIMER)  # operator override
        assert container.health.state == "ok"
        rows = shell.execute("fc list").splitlines()[1:]
        assert len(rows) == 1 and rows[0].rstrip().endswith("ok")
        assert container.health.strikes == 1
        engine.execute(container, context=BAD)
        assert container.health.state == "permanent"
        assert container.health.rearm_at_us is None
        assert container.state is ContainerState.DETACHED


class TestSameNamedSiblings:
    def test_crasher_beside_a_clean_namesake_is_quarantined(self):
        """Two containers may share a name on one hook.  Each keeps its
        own streak, so a crash-looper is quarantined at its own third
        fault however often its clean namesake runs in between."""
        engine = HostingEngine(Kernel(nrf52840()),
                               supervisor=SupervisorConfig(fault_streak=3))
        crasher = engine.attach(engine.load(assemble(CRASHER), name="app"),
                                FC_HOOK_SCHED)
        clean = engine.attach(engine.load(assemble(RETURN_7), name="app"),
                              FC_HOOK_SCHED)
        for _ in range(50):
            engine.fire_hook(FC_HOOK_SCHED, bytes(16))
        assert crasher.fault_count == 3
        assert engine.supervisor.quarantines == 1
        assert crasher.state is ContainerState.DETACHED
        assert crasher.health.quarantined and crasher.health.strikes == 1
        assert clean.state is ContainerState.ATTACHED and clean.runs == 50
        assert engine.supervisor.quarantined_slots() \
            == [(FC_HOOK_SCHED, "app")]


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
        health = container.health
        assert health.overruns == 4 and health.quarantined

    def test_no_ceiling_means_no_overrun_tracking(self, board_m4):
        engine = make_engine(board_m4)
        container = engine.attach(engine.load(assemble(RETURN_7)),
                                  FC_HOOK_SCHED)
        for _ in range(10):
            engine.execute(container)
        health = container.health
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
        # Listed with the hook it left, despite being detached.
        assert list(engine.slots()) == [(container, FC_HOOK_TIMER)]
        assert container.health.quarantined


# -- the reference: health in a table keyed by (hook, container name) --------


@dataclass
class RefSlotHealth:
    """Supervision state of one ``(hook, container name)`` slot."""

    hook_name: str
    container: object
    fault_streak: int = 0
    overrun_streak: int = 0
    overruns: int = 0
    strikes: int = 0
    probations: int = 0
    quarantined: bool = False
    permanent: bool = False
    rearm_at_us: float | None = None
    position: int = 0
    _rearm_entry: object = field(default=None, repr=False)


class RefSupervisor:
    """The supervisor before health moved onto the container."""

    def __init__(self, engine, config=None) -> None:
        self.engine = engine
        self.config = config if config is not None else SupervisorConfig()
        self._records: dict[tuple[str, str], RefSlotHealth] = {}
        self.quarantines = 0

    def observe(self, container, run) -> None:
        hook = container.hook
        if hook is None:
            return
        key = (hook.name, container.name)
        record = self._records.get(key)
        if record is None or record.container is not container:
            record = RefSlotHealth(hook.name, container)
            self._records[key] = record
        config = self.config
        if run.fault is not None:
            record.fault_streak += 1
        else:
            record.fault_streak = 0
        ceiling = config.cycle_ceiling
        if ceiling is not None:
            if run.cycles > ceiling:
                record.overrun_streak += 1
                record.overruns += 1
            else:
                record.overrun_streak = 0
        if (record.fault_streak >= config.fault_streak
                or (ceiling is not None
                    and record.overrun_streak >= config.overrun_streak)):
            self._quarantine(record)

    def _quarantine(self, record: RefSlotHealth) -> None:
        record.strikes += 1
        record.fault_streak = 0
        record.overrun_streak = 0
        self.quarantines += 1
        container = record.container
        record.position = container.hook.containers.index(container)
        self.engine.detach(container)
        record.quarantined = True
        if record.strikes >= self.config.max_strikes:
            record.permanent = True
            record.rearm_at_us = None
            return
        delay = min(
            self.config.probation_base_us * 2 ** (record.strikes - 1),
            self.config.probation_cap_us,
        )
        record.rearm_at_us = self.engine.kernel.now_us + delay
        record._rearm_entry = self.engine.kernel.timers.set(
            lambda r=record: self._probation_rearm(r), delay,
        )

    def _probation_rearm(self, record: RefSlotHealth) -> None:
        record._rearm_entry = None
        record.rearm_at_us = None
        if record.permanent or not record.quarantined:
            return
        container = record.container
        key = (record.hook_name, container.name)
        if self._records.get(key) is not record:
            return
        if container.hook is not None:
            record.quarantined = False
            return
        hook = self.engine.hooks.get(record.hook_name)
        if hook is None:
            return
        if any(c.name == container.name for c in hook.containers):
            del self._records[key]
            return
        try:
            self.engine.attach(container, record.hook_name,
                               min(record.position, len(hook.containers)))
        except Exception:
            record.permanent = True
            return
        record.quarantined = False
        record.probations += 1

    def notify_attach(self, container, hook_name: str) -> None:
        key = (hook_name, container.name)
        record = self._records.get(key)
        if record is None:
            return
        if record._rearm_entry is not None:
            self.engine.kernel.timers.cancel(record._rearm_entry)
            record._rearm_entry = None
            record.rearm_at_us = None
        if record.container is container:
            record.quarantined = record.permanent = False
        else:
            del self._records[key]

    def health(self, hook_name: str, name: str) -> RefSlotHealth | None:
        return self._records.get((hook_name, name))

    def quarantined_slots(self) -> list[tuple[str, str]]:
        return sorted(key for key, record in self._records.items()
                      if record.quarantined)


# -- the differential ---------------------------------------------------------

#: The SYNC hooks the differential's containers run on.
DIFF_HOOKS = ("diff.a", "diff.b")
DIFF_PROGRAM = assemble(CONDITIONAL)

CONFIGS = st.builds(
    SupervisorConfig,
    fault_streak=st.integers(1, 4),
    # CONDITIONAL's clean run costs 260 cycles on nrf52840 and its
    # faulting run 358, so a ceiling in between makes only faults
    # overruns and one below both makes every run one.
    cycle_ceiling=st.none() | st.integers(250, 370),
    overrun_streak=st.integers(1, 3),
    probation_base_us=st.sampled_from([1_000.0, 3_000.0]),
    probation_cap_us=st.sampled_from([1_000.0, 4_000.0, 16_000.0]),
    max_strikes=st.integers(1, 4),
)

#: One operator or device step; a container index is taken modulo the
#: number of containers handed out so far.  Fires and runs are drawn
#: most often and fault more often than not, so streaks trip.
FAULTY = st.integers(0, 2).map(bool)
OPS = st.one_of(
    st.tuples(st.just("fire"), st.integers(0, 1), FAULTY),
    st.tuples(st.just("run"), st.integers(0, 7), FAULTY),
    st.tuples(st.just("fire"), st.integers(0, 1), FAULTY),
    # 0: to just past the earliest pending probation deadline.
    st.tuples(st.just("advance"), st.integers(0, 1) | st.integers(0, 20_000)),
    # False: back to its own hook; True: to the other one.
    st.tuples(st.just("reattach"), st.integers(0, 7), st.booleans()),
    st.tuples(st.just("fresh_over"), st.integers(0, 7)),
    st.tuples(st.just("replace"), st.integers(0, 7)),
    st.tuples(st.just("detach"), st.integers(0, 7)),
    st.tuples(st.just("install"), st.integers(0, 1)),
)


def _health_fields(record) -> tuple:
    """A health record's fields; a container never observed reads like
    a fresh record."""
    if record is None:
        record = SlotHealth()
    return (record.fault_streak, record.overrun_streak, record.overruns,
            record.strikes, record.probations, record.quarantined,
            record.permanent, record.rearm_at_us, record.position)


class _Differential:
    """The same steps on an engine with this supervisor and on one with
    the reference.  Every container is uniquely named, except that a
    fresh install or a replace reuses the name of the container whose
    slot it takes (which then leaves the pool): the reference shares
    one record between same-named containers on a hook."""

    def __init__(self, config: SupervisorConfig) -> None:
        self.engines = []
        for reference in (False, True):
            engine = HostingEngine(Kernel(nrf52840()), supervisor=config)
            if reference:
                engine.supervisor = RefSupervisor(engine, config)
            for name in DIFF_HOOKS:
                engine.register_hook(Hook(name, mode=HookMode.SYNC))
            self.engines.append(engine)
        #: Per engine, every container handed out, in the same order.
        self.pools: list[list] = [[], []]
        #: The hook each container was last attached to.
        self.hooks: list[str] = []
        #: Indices of containers whose slot a fresh one took.
        self.retired: set[int] = set()
        for hook in (0, 0, 1):
            self.step(("install", hook))

    def _add(self, containers, hook_name: str) -> None:
        for pool, container in zip(self.pools, containers):
            pool.append(container)
        self.hooks.append(hook_name)

    def step(self, op: tuple) -> None:
        kind, *args = op
        mine = self.pools[0]
        if kind == "install":
            hook_name = DIFF_HOOKS[args[0]]
            name = f"c{len(mine)}"
            self._add([engine.attach(engine.load(DIFF_PROGRAM, name=name),
                                     hook_name)
                       for engine in self.engines], hook_name)
            return
        if kind == "fire":
            for engine in self.engines:
                engine.fire_hook(DIFF_HOOKS[args[0]], BAD if args[1] else GOOD)
            return
        if kind == "advance":
            now = self.engines[0].kernel.now_us
            deadlines = [c.health.rearm_at_us for c in mine
                         if c.health is not None
                         and c.health.rearm_at_us is not None]
            until = (now + args[0] if args[0]
                     else min(deadlines, default=now + 1_000.0) + 1.0)
            for engine in self.engines:
                engine.kernel.run(until_us=until)
            return
        if not mine:
            return
        index = args[0] % len(mine)
        if index in self.retired:
            return
        container = mine[index]
        attached = container.hook is not None
        pair = [pool[index] for pool in self.pools]
        if kind == "run" and attached:
            for engine, c in zip(self.engines, pair):
                engine.execute(c, BAD if args[1] else GOOD)
        elif kind == "reattach" and not attached:
            hook_name = self.hooks[index]
            if args[1]:
                # Health follows a container to another hook, where the
                # reference starts a fresh record: move only containers
                # whose health reads fresh.
                if _health_fields(container.health) \
                        != _health_fields(None):
                    return
                hook_name = DIFF_HOOKS[1 - DIFF_HOOKS.index(hook_name)]
            for engine, c in zip(self.engines, pair):
                engine.attach(c, hook_name)
            self.hooks[index] = hook_name
        elif (kind == "fresh_over"
              and container in self.engines[0].supervisor.detained):
            hook_name = self.hooks[index]
            self.retired.add(index)
            self._add([engine.attach(engine.load(DIFF_PROGRAM,
                                                 name=container.name),
                                     hook_name)
                       for engine in self.engines], hook_name)
        elif kind == "replace" and attached:
            self.retired.add(index)
            self._add([engine.replace(c, DIFF_PROGRAM)
                       for engine, c in zip(self.engines, pair)],
                      self.hooks[index])
        elif kind == "detach" and attached:
            for engine, c in zip(self.engines, pair):
                engine.detach(c)

    def observed(self, side: int) -> tuple:
        engine = self.engines[side]
        health = []
        for index, container in enumerate(self.pools[side]):
            if index in self.retired:
                continue
            if side == 0:
                record = container.health
            else:
                record = engine.supervisor.health(self.hooks[index],
                                                  container.name)
                if record is not None and record.container is not container:
                    record = None  # its first run starts a fresh record
            health.append(_health_fields(record))
        return (
            health,
            [c.state for c in self.pools[side]],
            {name: [c.name for c in engine.hooks[name].containers]
             for name in DIFF_HOOKS},
            engine.supervisor.quarantines,
            engine.supervisor.quarantined_slots(),
            engine.kernel.clock.cycles,
            engine.kernel.now_us,
        )


class TestDifferentialAgainstSlotTable:
    @settings(max_examples=150, deadline=None)
    @given(config=CONFIGS, ops=st.lists(OPS, min_size=20, max_size=60))
    def test_same_health_as_the_slot_keyed_table(self, config, ops):
        differential = _Differential(config)
        for op in ops:
            differential.step(op)
            assert differential.observed(0) == differential.observed(1), op
