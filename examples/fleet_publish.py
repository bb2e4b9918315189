#!/usr/bin/env python3
"""Fleet-wide OTA publish with health-gated canaries.

The final layer of the paper's §5 update story: a maintainer signs **one**
spec manifest and :class:`~repro.deploy.FleetPublisher` fans it out over a
shared low-power radio link to every device's
:class:`~repro.suit.SpecUpdateWorker` trigger endpoint.  Each device then
authenticates the envelope itself, enforces its *own* anti-rollback
sequence, fetches the payload block-wise from the maintainer repository,
and reconciles itself transactionally — one publish, N independent
per-device convergences, all riding the content-addressed image cache on
the host side while every device's virtual clock is charged the full
modelled cost.

The walkthrough shows the whole lifecycle:

1. publish v1 fleet-wide and watch devices 2..N converge cache-warm;
2. replay the old sequence number — refused by every device;
3. republish the identical spec — converges with zero actions;
4. canary-publish a cycle-hungry v2 under a strict
   :class:`~repro.deploy.HealthGate` — rolled back over the radio
   without any fault ever firing, controls never even triggered;
5. canary-publish the fixed v2 — baked, judged healthy, promoted.

Run with:  python examples/fleet_publish.py
"""

from repro.core.hooks import FC_HOOK_FANOUT, HookMode
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
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE

#: Burns a bounded loop per run — v1 spins 8 iterations, the "regressed"
#: v2 spins 800 (a 100x cycle regression that never faults), the fixed
#: v2 is lean again.
SPIN = """
    mov r6, {count}
loop:
    sub r6, 1
    jne r6, 0, loop
    mov r0, {value}
    exit
"""


def make_spec(name: str, count: int, value: int) -> DeploymentSpec:
    image = ImageSpec.from_program(
        assemble(SPIN.format(count=count, value=value), name=name))
    return DeploymentSpec(
        name=name,
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={"worker": image},
        attachments=(AttachmentSpec(image="worker", hook=FC_HOOK_FANOUT,
                                    tenant="ops", name="worker", count=2),),
    )


def show(result) -> None:
    for row in result.rows():
        print(f"    {row.device.name:6} {row.role:9} "
              f"{row.result.status.value:17} {row.actions} actions  "
              f"{row.wall_s * 1e3:6.2f} ms wall  "
              f"{row.cache_hits} cache hits/{row.cache_misses} misses")


def main() -> None:
    IMAGE_CACHE.clear()
    publisher = build_fleet_publisher(devices=4)
    fleet = publisher.fleet
    v1 = make_spec("release-v1", count=8, value=7)

    print("1. one signed manifest, four devices, one shared link")
    rollout = publisher.publish(v1)
    show(rollout)
    print("   fleet converged: "
          f"{all(plan(d.engine, v1).empty for d in fleet.devices)}")

    print("\n2. replaying sequence "
          f"{rollout.sequence_number} (anti-rollback, per device)")
    replay = publisher.publish(
        v1, PublishOptions(sequence_number=rollout.sequence_number))
    print("   statuses: "
          + ", ".join(r.result.status.value for r in replay.rows()))

    print("\n3. republishing the identical spec under a new sequence")
    republish = publisher.publish(v1)
    print(f"   converged with "
          f"{sum(r.actions for r in republish.rows())} total actions "
          f"(seq {republish.sequence_number})")

    # The health gate: max 1000 modelled cycles per run for the worker
    # slots, and device-wide agreement is implied by zero faults here.
    gate = HealthGate(cycle_budgets={"worker-0": 1000, "worker-1": 1000})

    print("\n4. canary publish of a 100x cycle regression (never faults)")
    hungry = make_spec("release-v2", count=800, value=8)
    bad = publisher.publish(hungry, PublishOptions(
        canary_count=1, bake_us=300_000.0, bake_fires=3, health_gate=gate))
    show(bad)
    print(f"   -> {'ROLLED BACK' if bad.rolled_back else 'PROMOTED'}: "
          f"{bad.reason}")
    print("   controls untouched: "
          f"{all(plan(d.engine, v1).empty for d in fleet.devices[1:])}")

    print("\n5. canary publish of the lean fix")
    fixed = make_spec("release-v2-fixed", count=8, value=8)
    good = publisher.publish(fixed, PublishOptions(
        canary_count=1, bake_us=300_000.0, bake_fires=3, health_gate=gate))
    show(good)
    print(f"   -> {'PROMOTED' if good.promoted else 'ROLLED BACK'}: "
          f"{good.reason}")
    print("   fleet converged on the fix: "
          f"{all(plan(d.engine, fixed).empty for d in fleet.devices)}")


if __name__ == "__main__":
    main()
