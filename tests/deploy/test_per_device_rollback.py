"""Per-device rollback baselines: heterogeneous fleets unwind cleanly.

Regression tests for ROADMAP item 5: a fleet whose devices converged on
*different* specs (device modes — earlier publishes or direct applies)
must roll each canary back to **its own** prior spec, not one
fleet-wide guess.  Covered at both layers:

* :meth:`Fleet.canary_rollout` — the in-process rollout captures
  ``device.current_spec`` before any canary is touched and reverts each
  canary to that capture;
* :meth:`FleetPublisher.publish` — the OTA rollback groups devices by
  baseline identity and signs **one envelope per distinct baseline**,
  each under its own fresh sequence number (anti-rollback forbids
  re-announcing an old one).
"""

from __future__ import annotations

import pytest

from repro.core import FC_HOOK_FANOUT
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    Fleet,
    HookSpec,
    ImageSpec,
    PublishOptions,
    plan,
)
from repro.core.hooks import HookMode
from repro.scenarios import build_fleet_publisher
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


def make_spec(source: str, name: str) -> DeploymentSpec:
    return DeploymentSpec(
        name=name,
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={"app": ImageSpec.from_program(assemble(source, name="app"))},
        attachments=(AttachmentSpec(image="app", hook=FC_HOOK_FANOUT,
                                    tenant="ops", name="worker", count=2),),
    )


class TestFleetPerDeviceBaselines:
    def _heterogeneous_fleet(self):
        fleet = Fleet(3)
        spec_a = make_spec(GOOD, "mode-a")
        spec_b = make_spec(BETTER, "mode-b")
        fleet.apply(spec_a)
        # dev1 runs a second device mode, converged out of band.
        fleet._converge(fleet.devices[1], spec_b)
        return fleet, spec_a, spec_b

    def test_rollback_restores_each_canary_to_its_own_spec(self):
        fleet, spec_a, spec_b = self._heterogeneous_fleet()
        rollout = fleet.canary_rollout(make_spec(POISON, "v2"),
                                       canary_count=2,
                                       bake_us=200_000.0, bake_fires=2)
        assert rollout.rolled_back and not rollout.promoted
        # Each canary is back on *its* mode, not a fleet-wide guess.
        assert fleet.devices[0].current_spec is spec_a
        assert fleet.devices[1].current_spec is spec_b
        assert plan(fleet.devices[0].engine, spec_a).empty
        assert plan(fleet.devices[1].engine, spec_b).empty
        # The control device was never touched.
        assert fleet.devices[2].current_spec is spec_a
        assert plan(fleet.devices[2].engine, spec_a).empty

    def test_explicit_baseline_still_overrides_device_modes(self):
        fleet, spec_a, spec_b = self._heterogeneous_fleet()
        safe = make_spec(GOOD, "safe-mode")
        rollout = fleet.canary_rollout(make_spec(POISON, "v2"),
                                       canary_count=2, baseline=safe,
                                       bake_us=200_000.0, bake_fires=2)
        assert rollout.rolled_back
        # An operator-chosen baseline wins over the per-device capture.
        assert fleet.devices[0].current_spec is safe
        assert fleet.devices[1].current_spec is safe
        assert plan(fleet.devices[1].engine, safe).empty

    def test_homogeneous_fleet_keeps_the_classic_behavior(self):
        fleet = Fleet(3)
        base = make_spec(GOOD, "base")
        fleet.apply(base)
        rollout = fleet.canary_rollout(make_spec(POISON, "v2"),
                                       canary_count=1,
                                       bake_us=200_000.0, bake_fires=2)
        assert rollout.rolled_back
        assert all(device.current_spec is base for device in fleet.devices)


class TestPublisherPerDeviceBaselines:
    def _diverged_publisher(self):
        publisher = build_fleet_publisher(devices=3)
        spec_a = make_spec(GOOD, "mode-a")
        first = publisher.publish(spec_a)
        assert first.ok, first.reason
        # dev1 switches to a second mode out of band (a direct apply —
        # say, a field technician's local reconfiguration).
        spec_b = make_spec(BETTER, "mode-b")
        publisher.fleet._converge(publisher.fleet.devices[1], spec_b)
        return publisher, spec_a, spec_b, first

    def test_ota_rollback_signs_one_envelope_per_baseline(self):
        publisher, spec_a, spec_b, first = self._diverged_publisher()
        result = publisher.publish(make_spec(POISON, "v3"), PublishOptions(
            canary_count=2, bake_us=100_000.0, bake_fires=2))
        assert result.rolled_back and not result.promoted
        rollback = result.rollback
        assert len(rollback) == 2 and all(row.ok for row in rollback)
        devices = publisher.fleet.devices
        # Each canary converged back onto its own mode...
        assert devices[0].current_spec is spec_a
        assert devices[1].current_spec is spec_b
        # ...under its own fresh sequence: two baselines, two envelopes,
        # two distinct sequence numbers above the poisoned publish.
        seqs = [device.radio.worker.storage.highest_sequence(publisher.slot)
                for device in devices[:2]]
        assert seqs[0] != seqs[1]
        assert all(seq > result.sequence_number for seq in seqs)
        # The control device never saw the poison or the rollback.
        bystander = devices[2]
        assert bystander.radio.worker.storage.highest_sequence(
            publisher.slot) == first.sequence_number
        assert bystander.reboots == 0

    def test_shared_baseline_canaries_share_one_rollback_envelope(self):
        publisher = build_fleet_publisher(devices=3)
        first = publisher.publish(make_spec(GOOD, "mode-a"))
        assert first.ok, first.reason
        result = publisher.publish(make_spec(POISON, "v2"), PublishOptions(
            canary_count=2, bake_us=100_000.0, bake_fires=2))
        assert result.rolled_back
        # One shared baseline: a single envelope, one sequence number.
        seqs = {device.radio.worker.storage.highest_sequence(publisher.slot)
                for device in publisher.fleet.devices[:2]}
        assert len(seqs) == 1
        assert seqs.pop() == result.sequence_number + 1
