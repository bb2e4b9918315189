"""Multi-instance fan-out: one image, K tenants x M instances, one hook."""

from __future__ import annotations

import pytest

from repro.core import FC_HOOK_FANOUT, Hook, HookMode, HostingEngine
from repro.rtos import Kernel, nrf52840
from repro.scenarios import build_fanout_device
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE
from repro.vm.supervisor import SupervisorConfig


@pytest.fixture(autouse=True)
def fresh_cache():
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


class TestFanoutScenario:
    def test_all_instances_attach_and_run(self):
        device = build_fanout_device(tenants=3, instances_per_tenant=4)
        assert len(device.containers) == 12
        assert device.engine.hooks[FC_HOOK_FANOUT].occupied
        runs = device.fire(fires=5, next_pid=2)
        assert runs == 5 * 12
        assert all(c.runs == 5 for c in device.containers)

    def test_one_template_serves_every_instance(self):
        device = build_fanout_device(tenants=2, instances_per_tenant=5,
                                     implementation="jit")
        assert device.shared_templates() == 1
        # One prototype build, then pure hits for 9 more instances.
        assert (IMAGE_CACHE.hits, IMAGE_CACHE.misses) == (9, 1)
        assert len(IMAGE_CACHE) == 1

    def test_fanout_differential_across_engines(self):
        """The same fan-out drive must leave identical global-store state
        and per-container accounting on every engine build."""
        snapshots = {}
        for implementation in ("femto-containers", "certfc", "jit"):
            device = build_fanout_device(
                tenants=2, instances_per_tenant=3,
                implementation=implementation,
            )
            device.fire(fires=4, next_pid=7)
            snapshots[implementation] = (
                dict(device.engine.global_store.snapshot()),
                [c.lifetime_stats.kind_counts for c in device.containers],
                [c.lifetime_stats.executed for c in device.containers],
            )
        reference = snapshots["femto-containers"]
        for implementation, observed in snapshots.items():
            assert observed == reference, implementation


class TestSyncFireMutationSafety:
    """fire_hook iterates the attach list in place; a fault-detach of the
    running container mid-fire must not skip or double-run neighbours."""

    def test_fault_detach_mid_fire_runs_every_container(self):
        engine = HostingEngine(Kernel(nrf52840()),
                               supervisor=SupervisorConfig(fault_streak=1))
        engine.register_hook(Hook(FC_HOOK_FANOUT, mode=HookMode.SYNC))
        crasher = assemble(
            "lddw r1, 0xbad0000\n    ldxdw r0, [r1]\n    exit"
        )
        good = assemble("mov r0, 7\n    exit")
        layout = []
        for index, program in enumerate((good, crasher, good, crasher, good)):
            container = engine.load(program, name=f"c{index}")
            engine.attach(container, FC_HOOK_FANOUT)
            layout.append(container)

        firing = engine.fire_hook(FC_HOOK_FANOUT)
        # Every attached container ran exactly once, in attach order,
        # even though both crashers were detached mid-iteration.
        assert [run.container for run in firing.runs] == layout
        assert [run.ok for run in firing.runs] == [True, False, True, False,
                                                   True]
        survivors = engine.hooks[FC_HOOK_FANOUT].containers
        assert [c.name for c in survivors] == ["c0", "c2", "c4"]
        # Fig 3 semantics: faulted runs contribute the default result.
        assert firing.effective_results == [7, 0, 7, 0, 7]

        # The next fire only reaches the survivors.
        second = engine.fire_hook(FC_HOOK_FANOUT)
        assert [run.container.name for run in second.runs] == ["c0", "c2",
                                                               "c4"]


class TestFaultDetachMatchesReferenceLoop:
    """A SYNC fire behaves as running each attached container in turn.

    Five ``thread_counter`` slots, the middle one replaced by an image
    that faults on every run: the supervisor quarantines it in the
    middle of a fire and, after probation, re-attaches it in place.
    Every observable is compared against the same engine driven by a
    plain loop of :meth:`~repro.core.HostingEngine.execute` calls.
    """

    CRASHER = "lddw r1, 0xbad0000\n    ldxdw r0, [r1]\n    exit"

    def _engine(self) -> tuple[HostingEngine, list]:
        from repro.workloads import thread_counter_program

        engine = HostingEngine(
            Kernel(nrf52840()),
            supervisor=SupervisorConfig(fault_streak=3,
                                        probation_base_us=1_000.0))
        engine.register_hook(Hook(FC_HOOK_FANOUT, mode=HookMode.SYNC))
        containers = [
            engine.attach(engine.load(
                assemble(self.CRASHER) if index == 2
                else thread_counter_program(), name=f"c{index}"),
                FC_HOOK_FANOUT)
            for index in range(5)]
        return engine, containers

    @staticmethod
    def _reference_fire(engine: HostingEngine, context: bytes) -> list:
        hook = engine.hooks[FC_HOOK_FANOUT]
        hook.fires += 1
        engine.kernel.clock.charge(engine.board.hook_dispatch_cycles)
        return [engine.execute(container, context)
                for container in list(hook.containers)]

    @staticmethod
    def _runs(runs) -> list:
        return [(run.container.name, run.value, run.cycles, run.stats,
                 run.fault) for run in runs]

    @staticmethod
    def _state(engine: HostingEngine, containers: list) -> tuple:
        health = {
            c.name: (h.fault_streak, h.overrun_streak, h.overruns,
                     h.strikes, h.probations, h.quarantined, h.permanent,
                     h.rearm_at_us, h.position)
            for c in containers if (h := c.health) is not None}
        return (
            [c.name for c in engine.hooks[FC_HOOK_FANOUT].containers],
            [(c.name, c.runs, c.total_cycles, c.lifetime_stats, c.faults)
             for c in containers],
            health,
            engine.supervisor.quarantined_slots(),
            engine.supervisor.quarantines,
            engine.fault_total,
            engine.kernel.clock.cycles,
            engine.global_store.snapshot(),
        )

    def test_fire_matches_a_loop_of_executes(self):
        (fired, mine), (looped, theirs) = self._engine(), self._engine()
        contexts = [bytes(8) + (pid % 4).to_bytes(8, "little")
                    for pid in range(6)]
        for phase in range(2):
            for context in contexts:
                firing = fired.fire_hook(FC_HOOK_FANOUT, context)
                reference = self._reference_fire(looped, context)
                assert self._runs(firing.runs) == self._runs(reference)
                assert self._state(fired, mine) == self._state(looped, theirs)
            if phase == 0:
                # Quarantined mid-fire at the third fire; four survivors.
                assert [c.name for c in
                        fired.hooks[FC_HOOK_FANOUT].containers] == [
                            "c0", "c1", "c3", "c4"]
                for engine in (fired, looped):
                    engine.kernel.run(until_us=engine.kernel.now_us
                                      + 2_000.0)
                # Probation put it back in the middle.
                assert [c.name for c in
                        fired.hooks[FC_HOOK_FANOUT].containers] == [
                            "c0", "c1", "c2", "c3", "c4"]
                assert self._state(fired, mine) == self._state(looped, theirs)
