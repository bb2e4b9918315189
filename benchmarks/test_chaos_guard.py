"""Chaos-publish regression guard.

One :meth:`~repro.deploy.FleetPublisher.publish` fans a signed spec out
to N devices while a :class:`~repro.deploy.FaultInjector` crashes two of
them mid-update and the shared radio drops 10% of all frames.  The guard
holds the self-healing convergence invariant:

* **Convergence under chaos** — every device (including both crashed
  ones, which reboot and resume from NVM) converges on the published
  sequence; the publisher's retry machinery pays the bill in re-triggers
  rather than raising.
* **Graceful degradation** — a device that never comes back yields a
  ``converged=False`` result with an ``UNREACHABLE`` row instead of an
  exception, and the reachable majority still converges.
"""

from __future__ import annotations

from repro.core import FC_HOOK_FANOUT
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    CrashAt,
    DeploymentSpec,
    FaultInjector,
    HookSpec,
    ImageSpec,
    PublishOptions,
)
from repro.scenarios import build_fleet_publisher
from repro.suit import UpdateStatus
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE

DEVICES = 4
LOSS = 0.10

SCRIPTED_CRASHES = [
    CrashAt("dev1", at_us=1_000.0, down_us=300_000.0),
    CrashAt("dev2", at_us=5_000.0, down_us=300_000.0),
]


def _spec() -> DeploymentSpec:
    program = assemble("mov r0, 7\n    exit", name="app")
    return DeploymentSpec(
        name="release",
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={"app": ImageSpec.from_program(program)},
        attachments=(AttachmentSpec(image="app", hook=FC_HOOK_FANOUT,
                                    tenant="ops", name="worker", count=2),),
    )


def _chaos_trial() -> None:
    """Lossy publish with two scripted mid-update crashes: must converge."""
    IMAGE_CACHE.clear()
    publisher = build_fleet_publisher(devices=DEVICES, loss=LOSS, seed=77)
    publisher.chaos = FaultInjector(SCRIPTED_CRASHES)
    result = publisher.publish(_spec())
    assert result.ok, result.reason
    assert publisher.chaos.crashes == len(SCRIPTED_CRASHES)
    assert publisher.chaos.reboots == len(SCRIPTED_CRASHES)
    for device in publisher.fleet.devices:
        assert device.radio.worker.storage.highest_sequence(
            publisher.slot) == result.sequence_number
    converged = sum(row.ok for row in result.rows())
    assert converged == DEVICES, (
        f"only {converged}/{DEVICES} devices converged under scripted chaos"
    )
    assert result.total_reboots >= len(SCRIPTED_CRASHES)


def _unreachable_demo() -> None:
    """A device that never reboots degrades the result, never raises."""
    IMAGE_CACHE.clear()
    publisher = build_fleet_publisher(devices=3, loss=0.0, seed=77)
    publisher.chaos = FaultInjector(
        [CrashAt("dev1", at_us=1_000.0, down_us=None)])
    result = publisher.publish(_spec(), PublishOptions(max_windows=300))
    assert not result.ok
    unreachable = result.unreachable()
    assert [row.device.name for row in unreachable] == ["dev1"]
    assert unreachable[0].result.status is UpdateStatus.UNREACHABLE
    others = [row for row in result.rows() if row.device.name != "dev1"]
    assert others and all(row.ok for row in others)


def test_chaos_guard():
    _chaos_trial()
    _unreachable_demo()
    IMAGE_CACHE.clear()  # leave no benchmark state behind for other tests
