"""Canary fleet rollout: bake, fault gating, rollback isolation."""

from __future__ import annotations

import pytest

from repro.core import FC_HOOK_FANOUT, FC_HOOK_TIMER
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    Fleet,
    HookSpec,
    ImageSpec,
    plan,
)
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE

GOOD = "mov r0, 7\n    exit"
BETTER = "mov r0, 8\n    exit"
#: Verifies clean, dereferences an unmapped address at runtime.
POISON = "lddw r1, 0x10\n    ldxb r0, [r1]\n    exit"


@pytest.fixture(autouse=True)
def fresh_cache():
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


def make_spec(source: str, name: str = "release",
              periodic: bool = True) -> DeploymentSpec:
    attachments = [AttachmentSpec(image="app", hook=FC_HOOK_FANOUT,
                                  tenant="ops", name="worker", count=2)]
    if periodic:
        attachments.append(AttachmentSpec(
            image="app", hook=FC_HOOK_TIMER, tenant="ops",
            name="periodic", period_us=200_000.0))
    return DeploymentSpec(
        name=name,
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={"app": ImageSpec.from_program(assemble(source, name="app"))},
        attachments=tuple(attachments),
    )


def fingerprint(device):
    """Observable state of one device: clock plus attached image hashes."""
    return (
        device.kernel.clock.cycles,
        sorted((container.hook.name, container.name,
                container.image_hash)
               for container in device.engine.containers()),
    )


class TestPromotion:
    def test_clean_spec_promotes_fleet_wide(self):
        fleet = Fleet(4)
        fleet.apply(make_spec(GOOD, "base"))
        release = make_spec(BETTER, "v2")
        rollout = fleet.canary_rollout(release, canary_count=1,
                                       bake_us=1_000_000.0, bake_fires=2)
        assert rollout.promoted and not rollout.rolled_back
        assert rollout.fault_deltas == {"dev0": 0}
        assert len(rollout.control) == 3
        assert all(plan(device.engine, release).empty
                   for device in fleet.devices)
        assert fleet.current_spec is release

    def test_promotion_rides_canary_warmed_cache(self):
        fleet = Fleet(4)
        fleet.apply(make_spec(GOOD, "base"))
        rollout = fleet.canary_rollout(make_spec(BETTER, "v2"),
                                       canary_count=1, bake_fires=1)
        # Promotion applies only replaces; the canary already compiled
        # the new image, so control devices never miss the cache.
        assert all(control.cache_misses == 0
                   for control in rollout.control)

    def test_default_canaries_are_a_quarter_of_the_fleet(self):
        fleet = Fleet(8)
        fleet.apply(make_spec(GOOD, "base"))
        rollout = fleet.canary_rollout(make_spec(BETTER, "v2"),
                                       bake_fires=1)
        assert rollout.canary_names == ["dev0", "dev1"]
        assert rollout.promoted

    def test_invalid_parameters_rejected(self):
        fleet = Fleet(2)
        with pytest.raises(ValueError):
            fleet.canary_rollout(make_spec(GOOD), canary_count=0)
        with pytest.raises(ValueError):
            fleet.canary_rollout(make_spec(GOOD), canary_count=3)
        with pytest.raises(ValueError, match="must not be negative"):
            fleet.canary_rollout(make_spec(GOOD), canary_count=1,
                                 bake_us=-5.0)
        with pytest.raises(ValueError, match="must not be negative"):
            fleet.canary_rollout(make_spec(GOOD), canary_count=1,
                                 bake_fires=-1)
        # A zero bake stays legal.
        assert fleet.canary_rollout(make_spec(GOOD), canary_count=1,
                                    bake_us=0.0, bake_fires=0).promoted


class TestRollback:
    def test_runtime_faults_roll_canaries_back(self):
        fleet = Fleet(4)
        base = make_spec(GOOD, "base")
        fleet.apply(base)
        rollout = fleet.canary_rollout(make_spec(POISON, "v2"),
                                       canary_count=1,
                                       bake_us=1_000_000.0, bake_fires=2)
        assert rollout.rolled_back and not rollout.promoted
        assert rollout.fault_deltas["dev0"] > 0
        assert "faults during bake" in rollout.reason
        assert not rollout.control
        # Canary devices reconverged on the baseline.
        assert plan(fleet.devices[0].engine, base).empty
        assert fleet.current_spec is base

    def test_rollback_never_disturbs_control_devices(self):
        fleet = Fleet(5)
        fleet.apply(make_spec(GOOD, "base"))
        before = [fingerprint(device) for device in fleet.devices[2:]]
        rollout = fleet.canary_rollout(make_spec(POISON, "v2"),
                                       canary_count=2,
                                       bake_us=500_000.0, bake_fires=1)
        assert rollout.rolled_back
        assert [fingerprint(device)
                for device in fleet.devices[2:]] == before

    def test_faults_without_periodic_attachment_caught_by_fires(self):
        """A spec with only SYNC attachments still bakes: the rollout
        fires the spec's hooks explicitly."""
        fleet = Fleet(3)
        base = make_spec(GOOD, "base", periodic=False)
        fleet.apply(base)
        rollout = fleet.canary_rollout(
            make_spec(POISON, "v2", periodic=False),
            canary_count=1, bake_us=100_000.0, bake_fires=3)
        assert rollout.rolled_back
        # 2 poisoned workers x 3 fires on the fan-out pad.
        assert rollout.fault_deltas["dev0"] == 6

    def test_thread_mode_backlog_fully_drained_before_gate(self):
        """Regression: THREAD-mode hook firings only *enqueue* runs; the
        gate must not read the fault counters while a large backlog is
        still pending, or tail faults would escape to promotion."""
        fleet = Fleet(2)
        base = DeploymentSpec(
            name="base", tenants=("ops",),
            images={"app": ImageSpec.from_program(
                assemble(GOOD, name="app"))},
            attachments=(AttachmentSpec(
                image="app", hook=FC_HOOK_TIMER, tenant="ops",
                name="w", count=4),),
        )
        fleet.apply(base)
        poisoned = DeploymentSpec(
            name="v2", tenants=("ops",),
            images={"app": ImageSpec.from_program(
                assemble(POISON, name="app"))},
            attachments=(AttachmentSpec(
                image="app", hook=FC_HOOK_TIMER, tenant="ops",
                name="w", count=4),),
        )
        rollout = fleet.canary_rollout(poisoned, canary_count=1,
                                       bake_us=50_000.0, bake_fires=100)
        assert rollout.rolled_back, rollout.reason
        # Every enqueued run executed before the gate (faults stop at
        # the 16-fault detach threshold per slot, not at a drain cap).
        assert rollout.fault_deltas["dev0"] >= 16

    def test_verifier_rejected_spec_aborts_before_bake(self):
        """An image the pre-flight verifier rejects never needs a bake:
        the transactional apply already restored the canary."""
        fleet = Fleet(3)
        base = make_spec(GOOD, "base")
        fleet.apply(base)
        bad = make_spec("mov r10, 1\n    exit", "v2")
        rollout = fleet.canary_rollout(bad, canary_count=1)
        assert rollout.rolled_back and not rollout.promoted
        assert "apply failed on dev0" in rollout.reason
        assert rollout.fault_deltas == {}  # never reached the bake
        assert plan(fleet.devices[0].engine, base).empty

    def test_rollback_without_prior_spec_detaches_everything(self):
        fleet = Fleet(2)
        rollout = fleet.canary_rollout(make_spec(POISON, "v2"),
                                       canary_count=1,
                                       bake_us=300_000.0, bake_fires=1)
        assert rollout.rolled_back
        assert not fleet.devices[0].engine.containers()
        assert fleet.current_spec is None

    def test_tenantless_spec_on_firmware_hook_rolls_back_fully(self):
        """Regression: with no prior spec, the synthesized rollback
        baseline must also own the *firmware* hooks the spec attaches
        to — a tenantless poisoned container on fc.hook.timer must not
        keep running (and faulting) after rolled_back=True."""
        fleet = Fleet(2)
        spec = DeploymentSpec(
            name="tenantless",
            images={"app": ImageSpec.from_program(
                assemble(POISON, name="app"))},
            attachments=(AttachmentSpec(
                image="app", hook=FC_HOOK_TIMER, name="w",
                period_us=100_000.0),),
        )
        rollout = fleet.canary_rollout(spec, canary_count=1,
                                       bake_us=500_000.0)
        assert rollout.rolled_back
        device = fleet.devices[0]
        assert device.engine.containers() == []
        # The periodic cadence died with the slot: no further faults.
        faults_after = device.engine.fault_total
        device.kernel.run(until_us=device.kernel.now_us + 500_000.0)
        assert device.engine.fault_total == faults_after

    def test_promotion_failure_reverts_the_whole_fleet(self):
        """Regression: an apply failure on a *control* device during
        promotion must not escape canary_rollout or leave the fleet
        half-promoted."""
        from repro.core.hooks import Hook

        fleet = Fleet(3)
        base = make_spec(GOOD, "base", periodic=True)
        base = DeploymentSpec(
            name="base", tenants=("ops",), images=base.images,
            attachments=(base.attachments[1],),  # periodic only, no hooks
        )
        fleet.apply(base)
        # dev2's firmware compiles the fan-out pad in THREAD mode: the
        # promoted spec (SYNC) is irreconcilable there.
        fleet.devices[2].engine.register_hook(
            Hook(FC_HOOK_FANOUT, mode=HookMode.THREAD))
        release = make_spec(BETTER, "v2")
        rollout = fleet.canary_rollout(release, canary_count=1,
                                       bake_us=200_000.0, bake_fires=1)
        assert rollout.rolled_back and not rollout.promoted
        assert "promotion failed on dev2" in rollout.reason
        assert rollout.control == []
        assert fleet.current_spec is base
        for device in fleet.devices:
            assert plan(device.engine, base).empty

    def test_faulted_and_detached_container_restored_by_rollback(self):
        """A canary whose poisoned container hit the fault-detach
        threshold during the bake still reconverges on the baseline."""
        fleet = Fleet(2)
        base = make_spec(GOOD, "base")
        fleet.apply(base)
        # 16 faults trip the default SupervisorConfig.fault_streak.
        rollout = fleet.canary_rollout(make_spec(POISON, "v2"),
                                       canary_count=1,
                                       bake_us=100_000.0, bake_fires=20)
        assert rollout.rolled_back
        assert plan(fleet.devices[0].engine, base).empty
        device = fleet.devices[0]
        worker_names = sorted(
            container.name for container in device.engine.containers())
        assert worker_names == ["periodic", "worker-0", "worker-1"]


class TestBakeIsVirtual:
    def test_bake_advances_only_canary_clocks(self):
        fleet = Fleet(3)
        fleet.apply(make_spec(GOOD, "base"))
        fleet.canary_rollout(make_spec(BETTER, "v2"), canary_count=1,
                             bake_us=2_000_000.0, bake_fires=0)
        assert fleet.devices[0].kernel.now_us >= 2_000_000.0
        # Control devices pay their promotion apply, never the bake.
        assert all(device.kernel.now_us < 10_000.0
                   for device in fleet.devices[1:])

    def test_periodic_workload_runs_during_bake(self):
        fleet = Fleet(2)
        fleet.apply(make_spec(GOOD, "base"))
        runs_before = _periodic_runs(fleet.devices[0])
        fleet.canary_rollout(make_spec(BETTER, "v2"), canary_count=1,
                             bake_us=1_000_000.0, bake_fires=0)
        # 200 ms cadence over a 1 s bake: the slot ran several times.
        assert _periodic_runs(fleet.devices[0]) >= runs_before + 4


def _periodic_runs(device) -> int:
    for container in device.engine.containers():
        if container.name == "periodic":
            return container.runs
    return 0
