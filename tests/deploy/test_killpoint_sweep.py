"""Power failure at every pipeline boundary: the publish still converges.

The acceptance sweep of the chaos-hardening PR: a device is power-failed
at *each* of the update worker's :data:`~repro.suit.KILL_POINTS` in
turn, rebooted by the fault injector, and the publish must converge every
time — via re-trigger for crashes before the install hit flash, via
NVM recovery (a ``REBOOTED`` row) for crashes after.  No kill point may
lose anti-rollback state or strand a storage reservation.

PR 7 widens the sweep to **storage faults**: a torn flash write (power
dies mid-program, in either journal phase) armed at each pipeline step,
and bit flips in the persisted slot/sequence records.  Same acceptance
bar: the publish converges, no slot is left dead, and no case loses or
regresses an anti-rollback sequence.
"""

from __future__ import annotations

import pytest

from repro.core import FC_HOOK_FANOUT
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    FaultInjector,
    HookSpec,
    ImageSpec,
)
from repro.rtos import PowerFailure
from repro.scenarios import build_fleet_publisher
from repro.suit import KILL_POINTS, UpdateStatus
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE

GOOD = "mov r0, 7\n    exit"

#: Steps whose crash is only recoverable by a fresh trigger (all state
#: up to there was RAM-only) versus steps where the install already hit
#: flash and the bootloader path finishes the job.
RETRIGGERED_STEPS = ("decoded", "verified", "resolved", "reserved",
                     "fetched", "checked")
RECOVERED_STEPS = ("installed", "activated")


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


def publish_with_kill(step: str):
    """One publish with device 1 power-failed exactly at ``step``."""
    publisher = build_fleet_publisher(devices=2)
    publisher.chaos = FaultInjector(auto_reboot_us=200_000.0)
    victim = publisher.fleet.devices[1]
    fired = {"done": False}

    def killer(crossed: str) -> None:
        if crossed == step and not fired["done"]:
            fired["done"] = True
            raise PowerFailure(f"killed at {step!r}")

    victim.radio.worker.on_step = killer
    result = publisher.publish(make_spec())
    assert fired["done"], f"kill point {step!r} never crossed"
    return publisher, victim, result


@pytest.mark.parametrize("step", KILL_POINTS)
class TestKillPointSweep:
    def test_publish_converges_despite_the_crash(self, step):
        publisher, victim, result = publish_with_kill(step)
        assert result.ok, result.reason
        row = next(r for r in result.rows() if r.device is victim)
        assert row.reboots == 1
        if step in RETRIGGERED_STEPS:
            assert row.result.status is UpdateStatus.OK
            assert row.retries >= 1
        else:
            assert step in RECOVERED_STEPS
            assert row.result.status is UpdateStatus.REBOOTED
        assert publisher.chaos.crashes == 1
        assert publisher.chaos.reboots == 1

    def test_no_crash_point_loses_durable_state(self, step):
        publisher, victim, result = publish_with_kill(step)
        storage = victim.radio.worker.storage
        # Anti-rollback state: the published sequence is in NVM-backed
        # storage, and nothing else — no stranded reservation, no dead
        # slot left behind by the crash.
        assert storage.highest_sequence(publisher.slot) \
            == result.sequence_number
        assert len(storage.slots) == 1
        assert all(slot.occupied for slot in storage.slots.values())
        # The survivor device was never disturbed.
        bystander = publisher.fleet.devices[0]
        assert bystander.reboots == 0
        assert next(r for r in result.rows()
                    if r.device is bystander).result.ok


class TestKillPointList:
    def test_kill_points_cover_the_whole_pipeline(self):
        assert KILL_POINTS == ("decoded", "verified", "resolved", "reserved",
                               "fetched", "checked", "installed", "activated")
        assert set(RETRIGGERED_STEPS) | set(RECOVERED_STEPS) \
            == set(KILL_POINTS)


#: Steps at which a torn write can be armed and still fire: each has at
#: least one later NVM program (a fetch checkpoint or the install
#: commit) in the same pipeline run.  "installed"/"activated" write
#: nothing afterwards, so a tear armed there would never trigger.
TEAR_STEPS = ("decoded", "verified", "resolved", "reserved",
              "fetched", "checked")


def publish_with_tear(step: str, phase: str):
    """One publish with device 1's next flash write torn at ``step``."""
    publisher = build_fleet_publisher(devices=2)
    publisher.chaos = FaultInjector(auto_reboot_us=200_000.0)
    victim = publisher.fleet.devices[1]
    armed = {"done": False}

    def arm(crossed: str) -> None:
        if crossed == step and not armed["done"]:
            armed["done"] = True
            victim.nvm.tear_next_write(phase)

    victim.radio.worker.on_step = arm
    result = publisher.publish(make_spec())
    assert armed["done"], f"tear point {step!r} never crossed"
    return publisher, victim, result


@pytest.mark.parametrize("phase", ["shadow", "commit"])
@pytest.mark.parametrize("step", TEAR_STEPS)
class TestTornWriteSweep:
    def test_converges_with_anti_rollback_intact(self, step, phase):
        publisher, victim, result = publish_with_tear(step, phase)
        assert victim.nvm.torn == 1
        assert result.ok, result.reason
        row = next(r for r in result.rows() if r.device is victim)
        assert row.reboots >= 1
        # The torn record either repaired from its shadow or was
        # re-fetched; either way the device ends on the published
        # sequence with no dead slot behind.
        storage = victim.radio.worker.storage
        assert storage.highest_sequence(publisher.slot) \
            == result.sequence_number
        assert all(slot.occupied for slot in storage.slots.values())
        bystander = publisher.fleet.devices[0]
        assert bystander.reboots == 0
        assert next(r for r in result.rows()
                    if r.device is bystander).result.ok


class TestBitFlipRecovery:
    def test_flipped_seq_record_cannot_regress_the_floor(self):
        from repro.suit.storage import NVM_SEQ_PREFIX

        publisher = build_fleet_publisher(devices=2)
        victim = publisher.fleet.devices[1]
        first = publisher.publish(make_spec())
        assert first.ok, first.reason
        # Radiation hits the anti-rollback record; the device then
        # power-cycles.  The standing replica repairs it on restore.
        assert victim.nvm.bit_flip(NVM_SEQ_PREFIX + publisher.slot)
        publisher.crash_device(victim)
        publisher.reboot_device(victim)
        storage = victim.radio.worker.storage
        assert storage.highest_sequence(publisher.slot) \
            == first.sequence_number

    def test_flipped_slot_record_drops_gracefully_and_reheals(self):
        from repro.suit.storage import NVM_SLOT_PREFIX

        publisher = build_fleet_publisher(devices=2)
        victim = publisher.fleet.devices[1]
        first = publisher.publish(make_spec())
        assert first.ok, first.reason
        # The (single-copy) slot record is lost outright: restore drops
        # it without raising, but the redundant seq record keeps the
        # replay floor.
        assert victim.nvm.bit_flip(NVM_SLOT_PREFIX + publisher.slot)
        publisher.crash_device(victim)
        publisher.reboot_device(victim)
        storage = victim.radio.worker.storage
        assert storage.corrupt_dropped == 1
        assert storage.highest_sequence(publisher.slot) \
            == first.sequence_number
        # The next release re-fetches the image: no dead slot remains.
        second = publisher.publish(make_spec("mov r0, 8\n    exit",
                                             name="release-2"))
        assert second.ok, second.reason
        assert all(slot.occupied for slot in storage.slots.values())
        assert storage.highest_sequence(publisher.slot) \
            == second.sequence_number
