#!/usr/bin/env python3
"""Over-the-air spec reconciliation + canary fleet rollout.

Two layers on top of the paper's §5/§8 update story:

1. **OTA spec update** — instead of shipping one container image for one
   hook, the maintainer signs a whole :class:`DeploymentSpec` (canonical
   CBOR behind COSE/Ed25519) and the device reconciles *itself* through
   the declarative plan/apply reconciler: tenants created, images
   installed, stale slots detached — one transactional radio-delivered
   apply.
2. **Canary fleet rollout** — an edited spec is staged on a canary
   subset first, baked on the canaries' own virtual clocks, and promoted
   to the rest of the fleet only if the canaries' fault counters stayed
   at zero.  A poisoned image (verifies clean, faults at runtime) rolls
   back on the canaries and never reaches the rest of the fleet.

Run with:  python examples/canary_rollout.py
"""

from repro.core.hooks import FC_HOOK_FANOUT, FC_HOOK_TIMER, HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    Fleet,
    HookSpec,
    ImageSpec,
    plan,
)
from repro.scenarios import build_spec_ota_rig
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE


def make_spec(name: str, worker_image: ImageSpec) -> DeploymentSpec:
    sensor = ImageSpec.from_program(
        assemble("mov r0, 21\n    lsh r0, 1\n    exit", name="sensor"))
    return DeploymentSpec(
        name=name,
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={"worker": worker_image, "sensor": sensor},
        attachments=(
            AttachmentSpec(image="worker", hook=FC_HOOK_FANOUT,
                           tenant="ops", name="worker", count=2),
            AttachmentSpec(image="sensor", hook=FC_HOOK_TIMER,
                           tenant="ops", name="sensor",
                           period_us=250_000.0),
        ),
    )


def main() -> None:
    IMAGE_CACHE.clear()
    good = ImageSpec.from_program(
        assemble("mov r0, 7\n    exit", name="worker-v1"))
    poisoned = ImageSpec.from_program(assemble(
        "lddw r1, 0x10\n    ldxb r0, [r1]\n    exit", name="worker-v2-bad"))
    fixed = ImageSpec.from_program(
        assemble("mov r0, 8\n    exit", name="worker-v2"))

    # -- 1. one device reconciles itself from a radio-delivered spec -------
    rig = build_spec_ota_rig()
    base = make_spec("ota-base", good)
    result = rig.publish(base)
    print(f"OTA spec update: {result.status.value} — {result.message}")
    print("  containers now: "
          f"{sorted(c.name for c in rig.engine.containers())}")
    result = rig.publish(base)  # same spec again: idempotent
    print(f"  republish: {result.status.value} — {result.message}")
    assert result.ok and plan(rig.engine, base).empty

    # -- 2. canary rollout across a fleet ----------------------------------
    fleet = Fleet(6, implementation="jit")
    fleet.apply(make_spec("fleet-base", good))
    print(f"\nfleet of {len(fleet)} devices converged on 'fleet-base'")

    bad = fleet.canary_rollout(make_spec("fleet-v2", poisoned),
                               canary_count=2, bake_us=1_500_000.0,
                               bake_fires=4)
    print(f"poisoned rollout on {', '.join(bad.canary_names)}: "
          f"{'ROLLED BACK' if bad.rolled_back else 'promoted'} "
          f"({bad.reason})")
    assert bad.rolled_back and not bad.control

    release = make_spec("fleet-v2", fixed)
    ok = fleet.canary_rollout(release, canary_count=2,
                              bake_us=1_500_000.0, bake_fires=4)
    print(f"fixed rollout: {'PROMOTED' if ok.promoted else 'rolled back'} "
          f"({ok.reason})")
    assert ok.promoted
    assert all(plan(device.engine, release).empty
               for device in fleet.devices)
    print("\nno bad image ever ran outside the canary subset.")


if __name__ == "__main__":
    main()
