#!/usr/bin/env python3
"""Declarative deployment: one spec, edited and re-applied, then a fleet.

The imperative way to stand up a device is a hand-wired sequence of
``create_tenant`` / ``load`` / ``attach`` calls.  The deployment API
(:mod:`repro.deploy`) replaces that with desired state: a
``DeploymentSpec`` names tenants, content-addressed images and per-hook
attachments; ``plan`` diffs it against the live engine; ``apply``
executes the diff transactionally.  Editing one image and re-applying is
a SUIT-style rollout: the reconciler plans exactly one hot-swap
``replace``, keyed by content hash.

The same spec then drives a four-device fleet.  The process-wide image
cache is keyed by content hash, so device 1 pays the cold verify+JIT
cost and devices 2..4 attach through pure cache hits — while every
device's *virtual* clock is charged the identical full install cost.

Run with:  python examples/declarative_fleet.py
"""

from repro.core import FC_HOOK_FANOUT, HostingEngine
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    Fleet,
    HookSpec,
    ImageSpec,
    apply_spec,
    plan,
)
from repro.rtos import Kernel, nrf52840
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE


def counter_spec(version: int) -> DeploymentSpec:
    """Two tenants x two instances of one tiny counter image."""
    image = ImageSpec.from_program(
        assemble(f"mov r0, {version}\n    exit", name="counter"))
    return DeploymentSpec(
        name="counter-fleet",
        tenants=("tenant-a", "tenant-b"),
        hooks=(HookSpec(FC_HOOK_FANOUT),),
        images={"counter": image},
        attachments=tuple(
            AttachmentSpec(image="counter", hook=FC_HOOK_FANOUT,
                           tenant=tenant, name=f"{tenant}-worker-{{i}}",
                           count=2)
            for tenant in ("tenant-a", "tenant-b")
        ),
    )


def main() -> None:
    IMAGE_CACHE.clear()

    # 1. Converge one device onto the spec, twice (second plan is empty).
    engine = HostingEngine(Kernel(nrf52840()), implementation="jit")
    spec_v1 = counter_spec(version=1)
    result = apply_spec(engine, spec_v1)
    print(f"v1 applied: {len(result.attached)} containers, "
          f"{result.cycles_charged} cycles charged")
    print(f"re-plan of v1: {len(plan(engine, spec_v1).actions)} actions "
          "(idempotent)")

    # 2. Edit the image, re-apply: exactly one replace per instance slot,
    #    hot-swapped by content hash, names preserved.
    spec_v2 = counter_spec(version=2)
    rollout_plan = plan(engine, spec_v2)
    print(f"\nv2 rollout plan ({len(rollout_plan.actions)} actions):")
    print(rollout_plan.describe())
    apply_spec(engine, spec_v2)
    values = {c.name: engine.execute(c).value for c in engine.containers()}
    print("after rollout every instance returns 2: "
          f"{sorted(values.values()) == [2, 2, 2, 2]}")

    # 3. The same spec across a fleet: cold device 1, cache-warm 2..4.
    IMAGE_CACHE.clear()
    fleet = Fleet(4, implementation="jit")
    rollout = fleet.apply(spec_v2)
    print(f"\nfleet of {len(fleet)} devices, "
          f"{len(fleet.containers())} containers total, "
          f"{fleet.total_ram_bytes()} B RAM fleet-wide")
    for row in rollout.rows():
        print(f"  {row.device.name}: {row.wall_s * 1e6:7.0f} us wall, "
              f"{row.cycles_charged} modelled cycles, "
              f"{row.cache_misses} cache misses")
    cycles = rollout.cycles_per_device()
    print("modelled cycles identical on every device: "
          f"{len(set(cycles)) == 1}")


if __name__ == "__main__":
    main()
