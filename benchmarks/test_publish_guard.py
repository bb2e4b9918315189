"""Fleet-publish regression guard.

One :meth:`~repro.deploy.FleetPublisher.publish` signs one manifest and
fans it out to N devices over the shared radio link; every device
independently authenticates, fetches block-wise, and reconciles.  The
guard holds the cache-warm convergence invariant:

* **Warm fan-out** — device 1's apply slice pays the cold host-side
  verify + JIT compile; devices 2..N converge off the *same* publish
  through pure image-cache hits and must be at least 5x faster in wall
  time (the deploy/canary bar, now over the radio path).
* **Wire honesty** — a replayed sequence is refused by every device and
  an idempotent republish converges with zero actions, every trial.
"""

from __future__ import annotations

from repro.core import FC_HOOK_FANOUT
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    HookSpec,
    ImageSpec,
    PublishOptions,
    plan,
)
from repro.scenarios import build_fleet_publisher
from repro.suit import UpdateStatus
from repro.vm.imagecache import IMAGE_CACHE
from repro.workloads.fletcher32 import fletcher32_program

DEVICES = 4
TENANTS = 2
#: Distinct content-addressed images per device (same text, distinct
#: rodata tags): the cold device pays one host-side verify + JIT compile
#: *per image*, the warm devices none at all.
IMAGES = 6

#: Devices 2..N skip the dominant host-side verify+JIT compiles entirely.
WARM_SPEEDUP_BAR = 5.0

_TRIALS = 5


def _spec() -> DeploymentSpec:
    base = ImageSpec.from_program(fletcher32_program())
    images = {
        f"app{index}": ImageSpec(name=f"app{index}", text=base.text,
                                 rodata=b"release-%d" % index)
        for index in range(IMAGES)
    }
    return DeploymentSpec(
        name="release",
        tenants=tuple(f"tenant-{index}" for index in range(TENANTS)),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images=images,
        attachments=tuple(
            AttachmentSpec(image=f"app{index}", hook=FC_HOOK_FANOUT,
                           tenant=f"tenant-{index % TENANTS}",
                           name=f"fc-{index}")
            for index in range(IMAGES)
        ),
    )


def _one_trial() -> list[float]:
    """Cold publish, replay refusal, idempotent republish.

    Returns the per-device convergence walls in fleet order.
    """
    IMAGE_CACHE.clear()
    publisher = build_fleet_publisher(devices=DEVICES)
    spec = _spec()
    rollout = publisher.publish(spec)
    assert rollout.ok, rollout.reason
    assert all(plan(device.engine, spec).empty
               for device in publisher.fleet.devices)
    walls = {row.device.name: row.wall_s for row in rollout.rows()}

    replay = publisher.publish(
        spec, PublishOptions(sequence_number=rollout.sequence_number))
    assert all(row.result.status is UpdateStatus.SEQUENCE_REPLAY
               for row in replay.rows()), "a replayed sequence was accepted"

    republish = publisher.publish(spec)
    assert republish.ok
    assert all(row.actions == 0 for row in republish.rows()), \
        "an identical republish planned actions"

    return [walls[f"dev{index}"] for index in range(DEVICES)]


def test_publish_guard():
    device_walls: list[list[float]] = [[] for _ in range(DEVICES)]
    for _ in range(_TRIALS):
        for index, wall in enumerate(_one_trial()):
            device_walls[index].append(wall)
    IMAGE_CACHE.clear()  # leave no benchmark state behind for other tests

    best = [min(walls) for walls in device_walls]
    cold = best[0]
    speedups = [cold / wall for wall in best[1:]]
    for index, speedup in enumerate(speedups, start=1):
        assert speedup >= WARM_SPEEDUP_BAR, (
            f"dev{index} converged only {speedup:.2f}x faster than the cold "
            f"dev0 off one publish (bar {WARM_SPEEDUP_BAR}x): "
            f"cold={cold * 1e6:.0f}us walls={best[1:]}"
        )
