"""Chaos publish: scripted crashes, loss bursts, stalls — and convergence.

The :class:`~repro.deploy.FaultInjector` drives faults at fixed virtual
timestamps during a :meth:`~repro.deploy.FleetPublisher.publish`; these
tests hold the self-healing contract: crashed devices reboot and
converge (resuming fetches from NVM), wedged devices are outlasted,
loss bursts end and restore the base loss, a device that never comes
back degrades the result to partial convergence instead of raising —
and the whole circus is deterministic, seed for seed.
"""

from __future__ import annotations

import os

import pytest

from repro.core import FC_HOOK_FANOUT
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    BitFlipAt,
    CrashAt,
    DeploymentSpec,
    FaultInjector,
    HookSpec,
    ImageSpec,
    LinkLossBurst,
    PublishOptions,
    StallAt,
    TornWriteAt,
    WearOut,
)
from repro.scenarios import build_fleet_publisher
from repro.suit import UpdateStatus
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE

GOOD = "mov r0, 7\n    exit"


@pytest.fixture(autouse=True)
def fresh_cache():
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


def make_spec(source: str = GOOD, name: str = "release") -> DeploymentSpec:
    return DeploymentSpec(
        name=name,
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={"app": ImageSpec.from_program(assemble(source, name="app"))},
        attachments=(AttachmentSpec(image="app", hook=FC_HOOK_FANOUT,
                                    tenant="ops", name="worker", count=2),),
    )


SCRIPTED_PLAN = [
    CrashAt("dev1", at_us=1_000.0, down_us=300_000.0),
    LinkLossBurst(at_us=2_000.0, duration_us=100_000.0, loss=0.8),
    StallAt("dev3", at_us=1_000.0, duration_us=200_000.0),
    CrashAt("dev2", at_us=5_000.0, down_us=300_000.0),
]


def chaos_publish(plan, devices=4, loss=0.10, options=None):
    publisher = build_fleet_publisher(devices=devices, loss=loss, seed=77)
    publisher.chaos = FaultInjector(plan)
    result = publisher.publish(make_spec(), options)
    return publisher, result


class TestScriptedChaos:
    def test_crashes_bursts_and_stalls_still_converge(self):
        publisher, result = chaos_publish(SCRIPTED_PLAN)
        assert result.ok, result.reason
        assert len(result.rows()) == 4
        by_name = {row.device.name: row for row in result.rows()}
        assert by_name["dev1"].reboots == 1
        assert by_name["dev2"].reboots == 1
        assert by_name["dev0"].reboots == 0
        assert result.total_reboots == 2
        injector = publisher.chaos
        assert (injector.crashes, injector.reboots,
                injector.bursts, injector.stalls) == (2, 2, 1, 1)
        assert injector.quiescent

    def test_rebooted_devices_hold_the_published_sequence(self):
        publisher, result = chaos_publish(SCRIPTED_PLAN)
        for device in publisher.fleet.devices:
            assert device.radio.worker.storage.highest_sequence(
                publisher.slot) == result.sequence_number

    def test_loss_burst_restores_base_loss(self):
        publisher, result = chaos_publish(SCRIPTED_PLAN, loss=0.10)
        assert result.ok
        assert publisher.link.loss == 0.10

    def test_crashing_a_dead_device_is_a_noop(self):
        plan = [CrashAt("dev1", at_us=1_000.0, down_us=400_000.0),
                CrashAt("dev1", at_us=2_000.0, down_us=400_000.0)]
        publisher, result = chaos_publish(plan, loss=0.0)
        assert result.ok
        assert publisher.chaos.crashes == 1  # the second crash hit a corpse


class TestUnreachable:
    def test_device_that_never_reboots_degrades_gracefully(self):
        plan = [CrashAt("dev1", at_us=1_000.0, down_us=None)]
        publisher, result = chaos_publish(
            plan, devices=3, loss=0.0, options=PublishOptions(max_windows=300))
        assert not result.ok
        assert [row.device.name for row in result.unreachable()] == ["dev1"]
        assert "unreachable: dev1" in result.reason
        row = result.unreachable()[0]
        assert row.result.status is UpdateStatus.UNREACHABLE
        assert "trigger attempts" in row.result.message
        # The reachable majority still converged.
        others = [r for r in result.rows() if r.device.name != "dev1"]
        assert all(r.ok for r in others)

    def test_fleet_spec_not_marked_current_on_partial_convergence(self):
        plan = [CrashAt("dev1", at_us=1_000.0, down_us=None)]
        publisher, result = chaos_publish(
            plan, devices=2, loss=0.0, options=PublishOptions(max_windows=300))
        assert publisher.fleet.current_spec is not result.spec


class TestEviction:
    def test_fault_plan_naming_an_evicted_device_is_dropped(self):
        publisher = build_fleet_publisher(devices=3, seed=77)
        publisher.chaos = injector = FaultInjector(
            [CrashAt("dev2", at_us=30_000.0, down_us=100_000.0)])
        publisher.evict_device("dev2")
        result = publisher.publish(make_spec())
        assert result.ok, result.reason
        assert [row.device.name for row in result.rows()] == ["dev0", "dev1"]
        assert injector.crashes == 0
        assert injector.quiescent

    def test_every_fault_kind_for_an_evicted_device_is_dropped(self):
        publisher = build_fleet_publisher(devices=3, seed=77)
        publisher.chaos = injector = FaultInjector([
            CrashAt("dev2", at_us=1_000.0, down_us=300_000.0),
            StallAt("dev2", at_us=1_000.0, duration_us=10_000_000.0),
            TornWriteAt("dev2", at_us=1_000.0),
            BitFlipAt("dev2", at_us=1_000.0),
            WearOut("dev2", at_us=1_000.0),
            CrashAt("dev1", at_us=1_000.0, down_us=300_000.0),
        ])
        publisher.evict_device("dev2")
        result = publisher.publish(make_spec())
        assert result.ok, result.reason
        assert [row.device.name for row in result.rows()] == ["dev0", "dev1"]
        assert (injector.crashes, injector.reboots) == (1, 1)
        assert (injector.stalls, injector.bitflips, injector.wearouts) \
            == (0, 0, 0)
        assert injector.quiescent

    def test_evicting_a_device_that_never_rebooted_resolves_the_plan(self):
        plan = [CrashAt("dev1", at_us=1_000.0, down_us=None)]
        publisher, result = chaos_publish(
            plan, devices=3, loss=0.0, options=PublishOptions(max_windows=300))
        assert not publisher.chaos.quiescent  # dev1 is down for good
        publisher.evict_device("dev1")
        assert publisher.chaos.quiescent
        assert publisher.publish(make_spec(name="next")).ok


class TestStaleResults:
    def test_backlogged_trigger_from_prior_publish_is_not_this_verdict(self):
        """A duplicate re-trigger queued during publish #1 can drain
        during publish #2, appending a SEQUENCE_REPLAY about the *old*
        sequence — it must not be consumed as a device's new verdict."""
        publisher = build_fleet_publisher(devices=3, loss=0.10, seed=1234)
        publisher.chaos = FaultInjector([
            LinkLossBurst(at_us=242_784.0, duration_us=66_873.0, loss=0.68),
            CrashAt("dev1", at_us=279_722.0, down_us=500_000.0),
        ])
        first = publisher.publish(make_spec())
        assert first.ok, first.reason

        publisher.chaos = FaultInjector(
            [CrashAt("dev2", at_us=1_000.0, down_us=None)])
        second = publisher.publish(make_spec(),
                                   PublishOptions(max_windows=300))
        assert [row.device.name
                for row in second.unreachable()] == ["dev2"]
        for row in second.rows():
            if row.device.name != "dev2":
                assert row.ok, (row.device.name, row.result.status)
                assert row.result.status is not UpdateStatus.SEQUENCE_REPLAY


class TestDeterminism:
    def _fingerprint(self, result):
        return [(row.device.name, row.result.status, row.retries,
                 row.reboots) for row in result.rows()]

    def test_same_plan_and_seeds_reproduce_the_same_outcome(self):
        _, first = chaos_publish(SCRIPTED_PLAN)
        IMAGE_CACHE.clear()
        _, second = chaos_publish(SCRIPTED_PLAN)
        assert self._fingerprint(first) == self._fingerprint(second)
        assert first.sequence_number == second.sequence_number


class TestRandomPlan:
    def test_seeded_plan_is_reproducible(self):
        names = ["dev0", "dev1", "dev2"]
        first = FaultInjector.random_plan(names, seed=42,
                                          horizon_us=1_000_000.0)
        again = FaultInjector.random_plan(names, seed=42,
                                          horizon_us=1_000_000.0)
        assert first == again
        assert first != FaultInjector.random_plan(names, seed=43,
                                                  horizon_us=1_000_000.0)

    def test_plan_shape(self):
        names = ["dev0", "dev1"]
        plan = FaultInjector.random_plan(names, seed=7,
                                         horizon_us=2_000_000.0,
                                         crashes=3, bursts=2, stalls=1)
        assert len(plan) == 6
        assert [e.at_us for e in plan] == sorted(e.at_us for e in plan)
        assert all(e.device in names for e in plan
                   if isinstance(e, (CrashAt, StallAt)))
        assert sum(isinstance(e, CrashAt) for e in plan) == 3
        assert sum(isinstance(e, LinkLossBurst) for e in plan) == 2

    def test_random_plan_publish_converges(self):
        # CI sweeps this under several fixed seeds (see the chaos job in
        # .github/workflows/ci.yml); locally it runs one.
        seed = int(os.environ.get("CHAOS_SEED", "11"))
        names = [f"dev{i}" for i in range(4)]
        plan = FaultInjector.random_plan(names, seed=seed,
                                         horizon_us=400_000.0,
                                         crashes=2, bursts=1, stalls=1)
        publisher, result = chaos_publish(plan)
        assert result.ok, result.reason

    def test_default_draw_counts_preserve_pre_pr7_plans(self):
        # The storage-fault draws append after the classic three, so
        # legacy seeds keep producing byte-identical plans by default.
        names = ["dev0", "dev1"]
        plan = FaultInjector.random_plan(names, seed=11,
                                         horizon_us=1_000_000.0)
        widened = FaultInjector.random_plan(names, seed=11,
                                            horizon_us=1_000_000.0,
                                            torn_writes=2, bitflips=1,
                                            wearouts=1)
        assert widened[:len(plan)] != plan or plan == sorted(
            plan, key=lambda e: e.at_us)  # both sorted by time
        classic = [e for e in widened
                   if type(e).__name__ in ("CrashAt", "LinkLossBurst",
                                           "StallAt")]
        assert classic == plan

    def test_random_plan_with_storage_faults_converges(self):
        """The CI chaos job's widened sweep: torn writes, bit flips and
        a wear-out on top of the classic crash/burst/stall mix.  The
        publish must still converge with every device on the published
        sequence and no anti-rollback regression."""
        seed = int(os.environ.get("CHAOS_SEED", "11"))
        names = [f"dev{i}" for i in range(4)]
        plan = FaultInjector.random_plan(names, seed=seed,
                                         horizon_us=400_000.0,
                                         crashes=1, bursts=1, stalls=1,
                                         torn_writes=2, bitflips=2,
                                         wearouts=1)
        publisher, result = chaos_publish(plan)
        assert result.ok, result.reason
        for device in publisher.fleet.devices:
            storage = device.radio.worker.storage
            assert storage.highest_sequence(publisher.slot) \
                == result.sequence_number
            assert all(slot.occupied
                       for slot in storage.slots.values()), device.name
