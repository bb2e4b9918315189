#!/usr/bin/env python3
"""Fleet scale-out: 1,000 devices behind one maintainer.

Everything the maintainer stack learned in the earlier walkthroughs —
signed spec releases, OTA triggers, per-device convergence — runs here
at fleet scale through one :class:`~repro.deploy.FleetPublisher`:

1. stand up a 1,000-device fleet behind one publisher;
2. sign a release *once* (sequence number, envelope, payload) before
   anything goes on air;
3. :meth:`~repro.deploy.FleetPublisher.publish` fans it out under that
   sequence with the fleet-scale profile
   (:meth:`~repro.deploy.PublishOptions.scale`): ONE multicast trigger
   carrying the integrated payload, a bounded randomized-suppression
   ack sample instead of 1,000 ack storms;
4. a late device is added at runtime, converges off the next publish,
   and a retired device is evicted without disturbing anyone;
5. :meth:`~repro.deploy.FleetPublisher.status` streams one typed row
   per device — cheap enough to call at N=1000.

Run with:  python examples/fleet_scale.py
"""

from repro.core.hooks import FC_HOOK_FANOUT, HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    HookSpec,
    ImageSpec,
    PublishOptions,
)
from repro.scenarios import build_fleet_publisher
from repro.suit.specworker import sign_spec
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE

DEVICES = 1000


def make_spec(name: str, value: int) -> DeploymentSpec:
    base = ImageSpec.from_program(
        assemble(f"mov r0, {value}\n    exit", name=name))
    image = ImageSpec(name=base.name, text=base.text,
                      rodata=bytes([value]) * 1024)
    return DeploymentSpec(
        name=name,
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={"app": image},
        attachments=(AttachmentSpec(image="app", hook=FC_HOOK_FANOUT,
                                    tenant="ops", name="app", count=1),),
    )


def describe(result) -> None:
    rate = len(result.rows()) / result.wall_s
    print(f"   {len(result.rows())} devices converged in "
          f"{result.wall_s:.2f} s wall ({rate:.0f} devices/s)")
    if result.multicast:
        per_device = result.trigger_tx_bytes / len(result.rows())
        print(f"   ONE broadcast trigger: {result.trigger_tx_bytes} B "
              f"total = {per_device:.1f} B/device on the maintainer radio")
        print(f"   suppression ack sample: {len(result.mcast_acks)} of "
              f"{len(result.rows())} devices elected themselves: "
              f"{', '.join(sorted(result.mcast_acks)[:4])}, ...")


def main() -> None:
    IMAGE_CACHE.clear()
    print(f"1. one control plane, {DEVICES} devices")
    publisher = build_fleet_publisher(devices=DEVICES)
    fleet = publisher.fleet
    print(f"   registry holds {len(fleet)} devices, "
          f"first={fleet.devices[0].name} last={fleet.devices[-1].name}")

    print("\n2. sign the release once, before anything goes on air")
    v1 = make_spec("scale-v1", value=7)
    sequence = publisher.sequence + 1
    envelope, payload = sign_spec(v1, sequence, publisher.spec_uri,
                                  publisher.maintainer_seed,
                                  slot=publisher.slot)
    print(f"   {v1.name}@{sequence}: seq {sequence}, "
          f"{len(envelope)} B envelope, {len(payload)} B payload")

    print("\n3. fleet-scale publish: multicast trigger + integrated payload")
    rollout = publisher.publish(
        v1, PublishOptions.scale(sequence_number=sequence))
    assert rollout.ok, rollout.reason
    describe(rollout)

    print("\n4. elastic fleet: register late, evict retired")
    late = publisher.add_device(name="late-joiner")
    stale = next(row for row in publisher.status() if row.name == late.name)
    print(f"   {late.name} registered at index {stale.index}, "
          f"sequence {stale.sequence} (never converged)")
    v2 = make_spec("scale-v2", value=8)
    rollout2 = publisher.publish(v2, PublishOptions.scale(ack_sample=4))
    assert rollout2.ok, rollout2.reason
    describe(rollout2)
    publisher.evict_device(fleet.devices[0].name)
    print(f"   evicted one device; registry now holds {len(fleet)}")

    print("\n5. streamed status, one typed row per device")
    rows = list(publisher.status())
    for row in rows[:3]:
        print(f"   {row.name:10} idx={row.index:4} {row.board:10} "
              f"seq={row.sequence} spec={row.spec} "
              f"reboots={row.reboots} radio={row.radio_uj:.1f} uJ")
    consistent = sum(row.sequence == rollout2.sequence_number
                     for row in rows)
    print(f"   ... {consistent}/{len(rows)} devices at "
          f"{v2.name}@{rollout2.sequence_number} — fleet consistent: "
          f"{consistent == len(rows)}")


if __name__ == "__main__":
    main()
