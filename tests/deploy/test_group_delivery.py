"""A multicast publish pays per device only for the device.

One group frame is one link event: every member that survived the loss
dice hears the sender's one frame object, in join order, and the frame's
CoAP request is decoded once however many servers handle it.  None of
that host-side sharing moves a modelled number: every row of a small
fleet's cold and update publish, at 0% and at 5% loss, is pinned to the
values the one-timer-per-member link and the per-receiver decode
produced.

A device whose kernel is idle sits out its co-run slice, but the
converge loop still consumes one queued verdict per device per window:
a verdict that waits on an idle device is taken in that window, not
left until something wakes the device.
"""

from __future__ import annotations

import random

import pytest

from repro.core import FC_HOOK_FANOUT
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    HookSpec,
    ImageSpec,
    PublishOptions,
)
from repro.deploy.publish import GROUP_ADDR
from repro.net.coap import CoapMessage
from repro.net.link import Link
from repro.scenarios import build_fleet_publisher
from repro.suit.worker import UpdateResult, UpdateStatus
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE

DEVICES = 6
SEED = 7


@pytest.fixture(autouse=True)
def fresh_cache():
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


def release(rng: random.Random, base: ImageSpec) -> DeploymentSpec:
    images = {
        f"app{index}": ImageSpec(name=f"app{index}", text=base.text,
                                 rodata=rng.randbytes(96))
        for index in range(2)
    }
    return DeploymentSpec(
        name="group-release",
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images=images,
        attachments=tuple(
            AttachmentSpec(image=f"app{index}", hook=FC_HOOK_FANOUT,
                           tenant="ops", name=f"fc-{index}", count=1)
            for index in range(2)),
    )


def row_fields(row) -> tuple:
    """Every :class:`~repro.deploy.results.DeviceRow` field but
    ``wall_s`` (host time)."""
    return (row.device.name, row.role, row.result.status.name,
            row.cycles_charged, row.cache_hits, row.cache_misses,
            row.retries, row.reboots, row.fault_delta, row.quarantined,
            row.radio_uj)


#: loss -> one tuple per publish (cold, then update) of each row's
#: fields, in the order the rows finished.
PINNED = {
    0.0: (
        (
            ("dev0", "device", "OK", 6343817, 0, 2, 0, 0, 0, 0, 1876.0),
            ("dev1", "device", "OK", 6343817, 2, 0, 0, 0, 0, 0, 1876.0),
            ("dev2", "device", "OK", 6343817, 2, 0, 0, 0, 0, 0, 1876.0),
            ("dev3", "device", "OK", 6343817, 2, 0, 0, 0, 0, 0, 1876.0),
            ("dev4", "device", "OK", 6343817, 2, 0, 0, 0, 0, 0, 1876.0),
            ("dev5", "device", "OK", 6343817, 2, 0, 0, 0, 0, 0, 1876.0),
        ),
        (
            ("dev0", "device", "OK", 6343468, 0, 2, 0, 0, 0, 0, 1876.0),
            ("dev1", "device", "OK", 6343817, 2, 0, 0, 0, 0, 0, 1876.0),
            ("dev2", "device", "OK", 6343468, 2, 0, 0, 0, 0, 0, 1876.0),
            ("dev3", "device", "OK", 6343817, 2, 0, 0, 0, 0, 0, 1876.0),
            ("dev4", "device", "OK", 6343817, 2, 0, 0, 0, 0, 0, 1876.0),
            ("dev5", "device", "OK", 6343817, 2, 0, 0, 0, 0, 0, 1876.0),
        ),
    ),
    0.05: (
        (
            ("dev1", "device", "OK", 6343817, 0, 2, 0, 0, 0, 0, 1876.0),
            ("dev3", "device", "OK", 6343817, 2, 0, 0, 0, 0, 0, 1876.0),
            ("dev4", "device", "OK", 6343817, 2, 0, 0, 0, 0, 0, 1876.0),
            ("dev5", "device", "OK", 6343817, 2, 0, 0, 0, 0, 0, 1876.0),
            ("dev2", "device", "OK", 135433330, 2, 0, 1, 0, 0, 0, 2005.5),
            ("dev0", "device", "OK", 519433330, 2, 0, 1, 0, 0, 0, 2054.0),
        ),
        (
            ("dev0", "device", "OK", 6343468, 0, 2, 0, 0, 0, 0, 1876.0),
            ("dev2", "device", "OK", 6343468, 2, 0, 0, 0, 0, 0, 1876.0),
            ("dev3", "device", "OK", 6343817, 2, 0, 0, 0, 0, 0, 1876.0),
            ("dev5", "device", "OK", 135433330, 2, 0, 1, 0, 0, 0, 2005.5),
            ("dev1", "device", "OK", 903433330, 2, 0, 1, 0, 0, 0, 2102.5),
            ("dev4", "device", "OK", 1927433330, 2, 0, 1, 0, 0, 0, 2151.0),
        ),
    ),
}


class _GroupTap:
    """Records each group frame, every delivery of one, and every CoAP
    decode of a group frame's request."""

    def __init__(self, monkeypatch) -> None:
        self.frames: list[bytes] = []
        self.deliveries: list[tuple[int, str]] = []
        self.decodes: list[int] = []
        transmit, deliver = Link.transmit, Link._deliver
        decode = CoapMessage.decode.__func__

        def tapped_transmit(link, src, dst_addr, payload):
            if dst_addr == GROUP_ADDR:
                self.frames.append(payload)
            return transmit(link, src, dst_addr, payload)

        def tapped_deliver(link, dst, data, src_addr):
            for index, frame in enumerate(self.frames):
                if data is frame:
                    self.deliveries.append((index, dst.addr))
            return deliver(link, dst, data, src_addr)

        def tapped_decode(cls, raw):
            for index, frame in enumerate(self.frames):
                if raw == frame[4:]:  # the frame's UDP payload
                    self.decodes.append(index)
            return decode(cls, raw)

        monkeypatch.setattr(Link, "transmit", tapped_transmit)
        monkeypatch.setattr(Link, "_deliver", tapped_deliver)
        monkeypatch.setattr(CoapMessage, "decode", classmethod(tapped_decode))


@pytest.mark.parametrize("loss", sorted(PINNED), ids=["lossless", "lossy"])
def test_group_frames_are_decoded_once_in_join_order(loss, monkeypatch):
    tap = _GroupTap(monkeypatch)
    publisher = build_fleet_publisher(devices=DEVICES, loss=loss, seed=SEED)
    rng = random.Random(f"group:{SEED}")
    base = ImageSpec.from_program(assemble("mov r0, 7\n    exit", name="app"))
    rows = []
    for _ in range(2):
        result = publisher.publish(release(rng, base), PublishOptions.scale())
        assert result.ok, result.reason
        rows.append(tuple(row_fields(row) for row in result.rows()))

    assert len(tap.frames) == 2
    members = publisher.link.group_members(GROUP_ADDR)
    for index in range(len(tap.frames)):
        heard = [addr for frame, addr in tap.deliveries if frame == index]
        assert heard, "every group frame reached some member"
        # Join order, each member at most once.
        assert heard == sorted(set(heard), key=members.index)
        assert tap.decodes.count(index) == 1
    if loss:
        # The dice dropped some member, who then converged over unicast.
        assert len(tap.deliveries) < len(tap.frames) * DEVICES
    else:
        assert len(tap.deliveries) == len(tap.frames) * DEVICES
    assert tuple(rows) == PINNED[loss]


class _WindowProbe:
    """Sits where the fault injector sits, polled at the start of every
    co-run window.  In the first window it queues a retryable verdict
    on one device while that device has nothing to run (its group frame
    is still on the air), and it records, per window, how many verdicts
    that device has queued and its clock."""

    idle = True

    def __init__(self, device) -> None:
        self.device = device
        self.queued: list[int] = []
        self.clocks: list[int] = []

    def poll(self, publisher) -> None:
        track = publisher._transport.tracks.get(self.device.name)
        if track is None:
            return
        self.queued.append(len(track.verdicts))
        self.clocks.append(self.device.kernel.clock.cycles)
        if len(self.queued) == 1:
            publisher._report(self.device.name, UpdateResult(
                UpdateStatus.FETCH_FAILED, "transient, injected by the probe"))

    def stalled(self, name: str) -> bool:
        return False

    def forget(self, name: str) -> None:
        pass


def test_a_verdict_queued_on_an_idle_device_is_consumed_in_its_window():
    publisher = build_fleet_publisher(devices=2, seed=SEED)
    rng = random.Random(f"idle:{SEED}")
    base = ImageSpec.from_program(assemble("mov r0, 7\n    exit", name="app"))
    assert publisher.publish(release(rng, base), PublishOptions.scale()).ok
    device = publisher.fleet.devices[0]
    probe = publisher.chaos = _WindowProbe(device)

    result = publisher.publish(release(rng, base), PublishOptions.scale())

    assert result.ok, result.reason
    # Window 1: the device did no work, and the queued verdict was
    # taken in that window anyway.
    assert probe.clocks[0] == probe.clocks[1]
    assert probe.queued[:2] == [0, 0]
    row = next(row for row in result.rows() if row.device is device)
    assert row.result.status is UpdateStatus.OK
    # The retryable verdict re-armed the trigger: the unicast re-POST is
    # a duplicate of the group trigger, which the worker answers with
    # the bonus SEQUENCE_REPLAY after the real outcome.
    assert row.retries == 1
    statuses = [outcome.status for outcome in device.radio.worker.results]
    assert statuses[-2:] == [UpdateStatus.OK, UpdateStatus.SEQUENCE_REPLAY]
    # Converged in window 2, the window the group frame landed in.
    assert len(probe.queued) == 2
