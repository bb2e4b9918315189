"""Canary-rollout regression guard.

Two invariants of the canary fleet rollout, checked on every trial:

* **Isolation** — a poisoned rollout (image verifies clean, faults at
  runtime) must roll back on the canary subset with *zero* observable
  change on every non-canary device: no actions applied, no cycles
  charged, no image hash moved.
* **Warm promotion** — when the fixed spec bakes clean and promotes, the
  non-canary devices ride the image cache the canary already warmed:
  each promoted device's rollout must be at least 5x faster in wall time
  than the canary's cold rollout (the same bar the deploy guard holds).
"""

from __future__ import annotations

from repro.core import FC_HOOK_FANOUT
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
from repro.workloads.fletcher32 import fletcher32_program

DEVICES = 4
CANARIES = 1
TENANTS = 2
INSTANCES = 2

#: Promoted devices skip the dominant JIT transpile+compile entirely.
PROMOTED_SPEEDUP_BAR = 5.0

_TRIALS = 5

#: Passes the pre-flight verifier, dereferences an unmapped address.
POISON = "lddw r1, 0x10\n    ldxb r0, [r1]\n    exit"


def _spec(name: str, image: ImageSpec) -> DeploymentSpec:
    return DeploymentSpec(
        name=name,
        tenants=tuple(f"tenant-{index}" for index in range(TENANTS)),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={"app": image},
        attachments=tuple(
            AttachmentSpec(image="app", hook=FC_HOOK_FANOUT,
                           tenant=f"tenant-{index}",
                           name=f"fc-{index}-{{i}}", count=INSTANCES)
            for index in range(TENANTS)
        ),
    )


def _fingerprint(device):
    return (
        device.kernel.clock.cycles,
        sorted((c.hook.name, c.name, c.image_hash)
               for c in device.engine.containers()),
    )


def _one_trial() -> tuple[float, list[float]]:
    """Cold fleet, poisoned rollback, then clean promotion.

    Returns (canary cold wall, per-control walls).
    """
    IMAGE_CACHE.clear()
    fleet = Fleet(DEVICES, implementation="jit")
    base_image = ImageSpec.from_program(fletcher32_program())
    base = _spec("base", base_image)
    fleet.apply(base)

    # Poisoned rollout: must roll back without disturbing the controls.
    control = fleet.devices[CANARIES:]
    before = [_fingerprint(device) for device in control]
    poisoned = fleet.canary_rollout(
        _spec("v2", ImageSpec.from_program(
            assemble(POISON, name="poison"))),
        canary_count=CANARIES, bake_us=200_000.0, bake_fires=2,
    )
    assert poisoned.rolled_back and not poisoned.promoted
    assert sum(poisoned.fault_deltas.values()) > 0, \
        "poisoned canary never faulted during the bake"
    assert [_fingerprint(device) for device in control] == before, \
        "rollback disturbed a non-canary device"
    assert plan(fleet.devices[0].engine, base).empty

    # Clean rollout: same program text, new content hash (rodata tag),
    # so the canary pays one cold JIT compile and promotion rides it.
    fixed_image = ImageSpec(name="app",
                            text=base_image.text,
                            rodata=b"release-v2")
    promoted = fleet.canary_rollout(_spec("v2", fixed_image),
                                    canary_count=CANARIES,
                                    bake_us=200_000.0, bake_fires=2)
    assert promoted.promoted, promoted.reason
    assert all(plan(device.engine, _spec("v2", fixed_image)).empty
               for device in fleet.devices)
    return (promoted.canary[0].wall_s,
            [rollout.wall_s for rollout in promoted.control])


def test_canary_guard():
    cold_walls: list[float] = []
    control_walls: list[list[float]] = [[] for _ in range(DEVICES - CANARIES)]
    for _ in range(_TRIALS):
        cold, controls = _one_trial()
        cold_walls.append(cold)
        for index, wall in enumerate(controls):
            control_walls[index].append(wall)
    IMAGE_CACHE.clear()  # leave no benchmark state behind for other tests

    cold = min(cold_walls)
    best = [min(walls) for walls in control_walls]
    speedups = [cold / wall for wall in best]
    for index, speedup in enumerate(speedups, start=CANARIES):
        assert speedup >= PROMOTED_SPEEDUP_BAR, (
            f"dev{index} promotion only {speedup:.2f}x faster than the "
            f"cold canary (bar {PROMOTED_SPEEDUP_BAR}x): "
            f"cold={cold * 1e6:.0f}us walls={best}"
        )
