"""Fleet-wide OTA publish: one signed manifest, N device convergences.

:class:`~repro.deploy.FleetPublisher` signs one spec manifest and fans it
out over a shared radio link to every device's
:class:`~repro.suit.SpecUpdateWorker` trigger endpoint.  These tests hold
the wire-level invariants: per-device anti-rollback, idempotent
republish, per-device virtual-clock charging, and the health-gated
canary stage that never touches untriggered control devices.
"""

from __future__ import annotations

import pytest

from repro.core import FC_HOOK_FANOUT
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    HealthGate,
    HookSpec,
    ImageSpec,
    PublishOptions,
    plan,
)
from repro.scenarios import build_fleet_publisher
from repro.suit import UpdateStatus
from repro.suit.worker import SIG_VERIFY_CYCLES
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


def make_spec(source: str, name: str = "release") -> DeploymentSpec:
    return DeploymentSpec(
        name=name,
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={"app": ImageSpec.from_program(assemble(source, name="app"))},
        attachments=(AttachmentSpec(image="app", hook=FC_HOOK_FANOUT,
                                    tenant="ops", name="worker", count=2),),
    )


class TestPublishRoundTrip:
    def test_one_publish_converges_the_fleet(self):
        publisher = build_fleet_publisher(devices=3)
        spec = make_spec(GOOD, "v1")
        result = publisher.publish(spec)
        assert result.ok
        assert result.sequence_number == 1
        assert [row.result.status for row in result.rows()] \
            == [UpdateStatus.OK] * 3
        assert all(plan(device.engine, spec).empty
                   for device in publisher.fleet.devices)
        assert publisher.fleet.current_spec is spec

    def test_virtual_clock_charged_per_device(self):
        """The radio path charges every device its own signature-check,
        digest and verify+install cycles — cache warmth is wall-clock
        only, exactly the fleet-apply invariant."""
        publisher = build_fleet_publisher(devices=3)
        result = publisher.publish(make_spec(GOOD, "v1"))
        for row in result.rows():
            assert row.cycles_charged >= SIG_VERIFY_CYCLES
        # Identical devices converging off one wire payload charge
        # identical modelled cycles, cold or cache-warm.
        assert len({row.cycles_charged for row in result.rows()}) == 1

    def test_warm_devices_ride_the_image_cache(self):
        publisher = build_fleet_publisher(devices=3)
        result = publisher.publish(make_spec(GOOD, "v1"))
        first, *rest = result.rows()
        assert first.cache_misses > 0
        assert all(row.cache_misses == 0 for row in rest)

    def test_replayed_sequence_refused_fleet_wide(self):
        publisher = build_fleet_publisher(devices=3)
        spec = make_spec(GOOD, "v1")
        publisher.publish(spec)
        replay = publisher.publish(make_spec(BETTER, "v2"),
                                   PublishOptions(sequence_number=1))
        assert not replay.ok
        assert [row.result.status for row in replay.rows()] \
            == [UpdateStatus.SEQUENCE_REPLAY] * 3
        # The refused spec changed nothing anywhere.
        assert all(plan(device.engine, spec).empty
                   for device in publisher.fleet.devices)
        assert publisher.fleet.current_spec is spec

    def test_idempotent_republish_converges_with_zero_actions(self):
        publisher = build_fleet_publisher(devices=3)
        spec = make_spec(GOOD, "v1")
        publisher.publish(spec)
        again = publisher.publish(spec)
        assert again.ok
        assert again.sequence_number == 2
        assert all(row.actions == 0 for row in again.rows())
        assert all("no actions" in row.result.message
                   for row in again.rows())

    def test_bad_signer_refused_without_device_changes(self):
        publisher = build_fleet_publisher(devices=2)
        spec = make_spec(GOOD, "v1")
        publisher.publish(spec)
        forged = publisher.publish(make_spec(BETTER, "v2"),
                                   PublishOptions(signer_seed=bytes(32)))
        assert not forged.ok
        assert [row.result.status for row in forged.rows()] \
            == [UpdateStatus.SIGNATURE_INVALID] * 2
        assert all(plan(device.engine, spec).empty
                   for device in publisher.fleet.devices)

    def test_lossy_link_still_converges(self):
        """CoAP CON retransmission rides out frame loss on the shared
        medium; the publish just takes more virtual time."""
        publisher = build_fleet_publisher(devices=2, loss=0.05)
        result = publisher.publish(make_spec(GOOD, "v1"))
        assert result.ok


class TestCanaryPublish:
    def test_poisoned_publish_rolls_back_over_the_radio(self):
        publisher = build_fleet_publisher(devices=4)
        fleet = publisher.fleet
        base = make_spec(GOOD, "base")
        publisher.publish(base)
        control_results = [len(device.radio.worker.results)
                           for device in fleet.devices[1:]]
        result = publisher.publish(make_spec(POISON, "v2"), PublishOptions(
            canary_count=1, bake_us=200_000.0, bake_fires=2))
        assert result.rolled_back and not result.promoted
        assert "faults during bake" in result.reason
        assert result.fault_deltas["dev0"] > 0
        # The rollback itself travelled over the radio as a *new*
        # sequence (anti-rollback forbids re-announcing the old one).
        rollback_rows = result.rollback
        assert len(rollback_rows) == 1 and rollback_rows[0].ok
        assert publisher.sequence > result.sequence_number
        # Control devices were never even triggered.
        assert [len(device.radio.worker.results)
                for device in fleet.devices[1:]] == control_results
        # And the canary reconverged on the baseline.
        assert plan(fleet.devices[0].engine, base).empty
        assert fleet.current_spec is base

    def test_healthy_canary_publish_promotes(self):
        publisher = build_fleet_publisher(devices=4)
        fleet = publisher.fleet
        publisher.publish(make_spec(GOOD, "base"))
        release = make_spec(BETTER, "v2")
        result = publisher.publish(release, PublishOptions(
            canary_count=1, bake_us=200_000.0, bake_fires=2))
        assert result.promoted and not result.rolled_back
        assert len(result.canary) == 1
        assert len(result.control) == 3
        assert all(plan(device.engine, release).empty
                   for device in fleet.devices)
        assert fleet.current_spec is release
        # Promotion rode the canary-warmed cache.
        assert all(row.cache_misses == 0
                   for row in result.control)

    def test_health_gate_applies_to_canary_publish(self):
        publisher = build_fleet_publisher(devices=3)
        publisher.publish(make_spec(GOOD, "base"))
        result = publisher.publish(make_spec(BETTER, "v2"), PublishOptions(
            canary_count=1, bake_us=100_000.0, bake_fires=2,
            health_gate=HealthGate(cycle_budgets={"worker-0": 1}),
        ))
        assert result.rolled_back
        assert "cycles/run" in result.reason

    def test_partial_canary_refusal_rolls_back_accepted_canaries(self):
        """One canary's firmware cannot reconcile the spec (hook mode
        mismatch); the other accepted it.  The accepted canary must not
        be left running the unbaked spec — it gets the baseline back
        over the air."""
        from repro.core.hooks import Hook

        publisher = build_fleet_publisher(devices=3)
        fleet = publisher.fleet
        base = DeploymentSpec(
            name="base", tenants=("ops",),
            images={"app": ImageSpec.from_program(
                assemble(GOOD, name="app"))},
            attachments=(AttachmentSpec(image="app", hook="fc.hook.timer",
                                        tenant="ops", name="w"),),
        )
        publisher.publish(base)
        # dev1's firmware compiles the fan-out pad in THREAD mode: a
        # SYNC-declaring spec is irreconcilable there.
        fleet.devices[1].engine.register_hook(
            Hook(FC_HOOK_FANOUT, mode=HookMode.THREAD))
        result = publisher.publish(make_spec(BETTER, "v2"),
                                   PublishOptions(canary_count=2))
        assert result.rolled_back
        assert "refused by canaries dev1" in result.reason
        rollback_rows = result.rollback
        assert [row.device.name for row in rollback_rows] == ["dev0"]
        assert rollback_rows[0].ok
        # Both canaries are back on (or still on) the baseline.
        assert plan(fleet.devices[0].engine, base).empty
        assert plan(fleet.devices[1].engine, base).empty
        assert fleet.current_spec is base

    def test_replay_to_canaries_aborts_without_rollback_traffic(self):
        publisher = build_fleet_publisher(devices=3)
        base = make_spec(GOOD, "base")
        publisher.publish(base)
        result = publisher.publish(make_spec(BETTER, "v2"), PublishOptions(
            sequence_number=1, canary_count=1))
        assert result.rolled_back
        assert "refused by canaries" in result.reason
        assert result.rollback == []
        assert plan(publisher.fleet.devices[0].engine, base).empty


class TestRadioEnergy:
    """Publish wiring tracks every device radio in its energy meter."""

    def test_publish_charges_each_device_radio_energy(self):
        publisher = build_fleet_publisher(devices=3)
        result = publisher.publish(make_spec(GOOD, "v1"))
        assert result.ok
        for device in publisher.fleet.devices:
            assert device.meter.report().radio_uj > 0.0

    def test_lossy_fleet_pays_more_radio_energy(self):
        """CoAP retransmissions are real frames: the same publish over a
        lossy link costs measurably more radio energy per device."""
        clean = build_fleet_publisher(devices=2)
        clean.publish(make_spec(GOOD, "v1"))
        clean_uj = sum(d.meter.report().radio_uj
                       for d in clean.fleet.devices)
        IMAGE_CACHE.clear()
        lossy = build_fleet_publisher(devices=2, loss=0.15, seed=5)
        lossy.publish(make_spec(GOOD, "v1"))
        lossy_uj = sum(d.meter.report().radio_uj
                       for d in lossy.fleet.devices)
        assert lossy_uj > clean_uj

    def test_rebooted_device_keeps_one_energy_bill(self):
        """The reboot replaces the radio rig; the meter spans both
        incarnations without double counting."""
        from repro.deploy import CrashAt, FaultInjector

        publisher = build_fleet_publisher(devices=2)
        publisher.chaos = FaultInjector(
            [CrashAt("dev1", at_us=1_000.0, down_us=300_000.0)])
        result = publisher.publish(make_spec(GOOD, "v1"))
        assert result.ok
        victim = publisher.fleet.devices[1]
        assert victim.reboots == 1
        spent = victim.meter.report().radio_uj
        assert spent > 0.0
        assert victim.meter.report().radio_uj == spent  # stable re-read


class TestPerDeviceTelemetry:
    """Each publish row carries the device's own health and energy."""

    def test_rows_carry_fault_and_radio_telemetry(self):
        publisher = build_fleet_publisher(devices=3)
        result = publisher.publish(make_spec(GOOD, "v1"))
        assert result.ok
        for row in result.rows():
            assert row.radio_uj > 0.0
            assert row.fault_delta == 0 and row.quarantined == 0
        assert result.total_fault_delta == 0
        assert result.total_radio_uj == pytest.approx(
            sum(row.radio_uj for row in result.rows()))

    def test_fault_delta_survives_a_mid_publish_reboot(self):
        """The accumulator banks the pre-crash engine's fault count when
        the reboot swaps in a fresh engine."""
        from repro.core import FC_HOOK_TIMER
        from repro.deploy import FaultInjector
        from repro.rtos import PowerFailure

        publisher = build_fleet_publisher(devices=2)
        publisher.chaos = FaultInjector(auto_reboot_us=200_000.0)
        victim = publisher.fleet.devices[1]
        sensor = victim.engine.attach(
            victim.engine.load(assemble(POISON, name="sensor")),
            FC_HOOK_TIMER)
        fired = {"done": False}

        def sabotage(crossed: str) -> None:
            # Mid-pipeline, the resident sensor container faults twice
            # (contained), then the lights go out.
            if crossed == "fetched" and not fired["done"]:
                fired["done"] = True
                for _ in range(2):
                    assert victim.engine.execute(sensor).fault is not None
                raise PowerFailure("crash after contained faults")

        victim.radio.worker.on_step = sabotage
        result = publisher.publish(make_spec(GOOD, "v1"))
        assert fired["done"]
        assert result.ok, result.reason
        row = next(r for r in result.rows() if r.device is victim)
        assert row.reboots == 1
        # The reboot rebuilt the engine (fresh fault_total, no sensor);
        # the row still carries the pre-crash engine's faults.
        assert row.fault_delta == 2


class TestQuarantineAwarePublish:
    """Fleet quarantine-awareness: a device hosting a crash-looping
    container still converges on the publish — its row is upgraded to
    ``QUARANTINED`` (flagged, counted, not failed) so one sick workload
    never blocks or masks a fleet rollout."""

    def _poisoned_publisher(self):
        from repro.vm.supervisor import SupervisorConfig

        publisher = build_fleet_publisher(
            devices=3, supervisor=SupervisorConfig(fault_streak=4))
        sick = publisher.fleet.devices[1]
        # An out-of-spec resident workload (say, a sensor reader from an
        # earlier local install) that crash-loops on its timer hook.
        looper = sick.engine.load(assemble(POISON, name="sensor"))
        sick.engine.attach_periodic(looper, 1_000.0)
        return publisher, sick

    def test_quarantined_device_is_flagged_not_failed(self):
        publisher, sick = self._poisoned_publisher()
        result = publisher.publish(make_spec(GOOD, "v1"))
        assert result.ok, result.reason
        rows = {row.device.name: row for row in result.rows()}
        assert rows["dev1"].result.status is UpdateStatus.QUARANTINED
        assert rows["dev1"].ok
        assert rows["dev1"].quarantined >= 1
        assert rows["dev1"].fault_delta > 0
        assert "sensor" in rows["dev1"].result.message
        assert rows["dev0"].result.status is UpdateStatus.OK
        assert result.quarantined_devices() == [rows["dev1"]]
        # The flagged device still converged onto the published sequence
        # — the spec's own workers are untouched by the quarantine.
        assert sick.radio.worker.storage.highest_sequence(
            publisher.slot) == result.sequence_number
        assert sick.current_spec is result.spec
