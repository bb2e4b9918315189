#!/usr/bin/env python3
"""Canary fleet rollout: a poisoned spec rolls back, the fix promotes.

A layer on top of the paper's §5/§8 update story.  An edited spec is
staged on a canary subset first, baked on the canaries' own virtual
clocks, and promoted to the rest of the fleet only if the canaries'
fault counters stayed at zero.  A poisoned image (verifies clean,
faults at runtime) rolls back on the canaries and never reaches the
rest of the fleet: the control devices' clocks do not move, and the
canaries re-plan empty against the spec they ran before.

The same staged rollout over the radio, with signed manifests,
anti-rollback and a health gate, is ``python -m repro publish``.

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

    fleet = Fleet(6, implementation="jit")
    base = make_spec("fleet-base", good)
    fleet.apply(base)
    print(f"fleet of {len(fleet)} devices converged on {base.name!r}")

    controls = fleet.devices[2:]
    clocks = [device.kernel.clock.cycles for device in controls]
    bad = fleet.canary_rollout(make_spec("fleet-v2", poisoned),
                               canary_count=2, bake_us=1_500_000.0,
                               bake_fires=4)
    print(f"poisoned rollout on {', '.join(bad.canary_names)}: "
          f"{'ROLLED BACK' if bad.rolled_back else 'promoted'} "
          f"({bad.reason})")
    assert bad.rolled_back and not bad.control
    assert [device.kernel.clock.cycles for device in controls] == clocks, \
        "a control device ran during the poisoned rollout"
    assert all(plan(device.engine, base).empty
               for device in fleet.devices[:2]), \
        "a canary did not reconverge on the base spec"
    print(f"  {len(controls)} control devices untouched; canaries back "
          f"on {base.name!r}")

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
