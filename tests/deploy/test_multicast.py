"""Multicast publish: group trigger, suppressed acks, unicast fallback.

The fleet-scale publish path sends ONE broadcast trigger to a CoAP
group address instead of N unicast POSTs.  These tests hold its
contract: group membership on the shared link, the seeded suppression
lottery that bounds the maintainer's ack sample to ~K of N, the
self-healing unicast retry for devices that miss the broadcast,
convergence through a mid-broadcast loss burst, and a device handler
that drops a broadcast body whose unsigned fields are ill-typed.
"""

from __future__ import annotations

import random

import pytest

from repro.core import FC_HOOK_FANOUT
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    FaultInjector,
    HookSpec,
    ImageSpec,
    LinkLossBurst,
    PublishOptions,
)
from repro.deploy.publish import COAP_PORT, GROUP_ADDR, MCAST_TRIGGER_PATH
from repro.net import Interface, Link, coap
from repro.net.coap import CoapMessage
from repro.rtos import Kernel
from repro.scenarios import build_fleet_publisher
from repro.suit import UpdateStatus, cbor
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE

GOOD = "mov r0, 7\n    exit"


@pytest.fixture(autouse=True)
def fresh_cache():
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


def make_spec(source: str, name: str = "release") -> DeploymentSpec:
    return DeploymentSpec(
        name=name,
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={"app": ImageSpec.from_program(assemble(source, name="app"))},
        attachments=(AttachmentSpec(image="app", hook=FC_HOOK_FANOUT,
                                    tenant="ops", name="worker", count=2),),
    )


class TestLinkGroups:
    def make_rig(self, members: int = 3):
        kernel = Kernel()
        link = Link(kernel, seed=5)
        inboxes: dict[str, list[bytes]] = {}
        ifaces = []
        for i in range(members):
            addr = f"dev{i}"
            inboxes[addr] = []
            iface = Interface(addr)
            iface.receive = (
                lambda data, _src, box=inboxes[addr]: box.append(data))
            link.attach(iface)
            link.join("ff15::g", iface)
            ifaces.append(iface)
        return kernel, link, ifaces, inboxes

    def test_broadcast_reaches_every_other_member(self):
        kernel, link, ifaces, inboxes = self.make_rig(3)
        link.transmit(ifaces[0], "ff15::g", b"hello")
        kernel.run(until_us=kernel.now_us + 50_000)
        assert inboxes["dev0"] == []  # the sender does not hear itself
        assert inboxes["dev1"] == [b"hello"]
        assert inboxes["dev2"] == [b"hello"]

    def test_sender_charged_once_for_one_broadcast(self):
        kernel, link, ifaces, inboxes = self.make_rig(4)
        link.transmit(ifaces[0], "ff15::g", b"payload")
        kernel.run(until_us=kernel.now_us + 50_000)
        assert ifaces[0].stats.frames_sent == 1
        assert ifaces[0].stats.bytes_sent == len(b"payload")
        assert link.stats.frames_sent == 1

    def test_leave_stops_delivery_and_is_idempotent(self):
        kernel, link, ifaces, inboxes = self.make_rig(3)
        link.leave("ff15::g", "dev2")
        link.leave("ff15::g", "dev2")  # already gone: no-op
        link.transmit(ifaces[0], "ff15::g", b"x")
        kernel.run(until_us=kernel.now_us + 50_000)
        assert inboxes["dev1"] == [b"x"]
        assert inboxes["dev2"] == []
        assert link.group_members("ff15::g") == ["dev0", "dev1"]

    def test_joining_a_unicast_address_is_rejected(self):
        kernel, link, ifaces, _ = self.make_rig(2)
        with pytest.raises(ValueError, match="unicast"):
            link.join("dev1", ifaces[0])


class TestSuppressionSample:
    def test_ack_sample_is_the_pinned_k_of_n_lottery(self):
        """The maintainer hears exactly the devices whose seeded lottery
        draw clears p = ack_sample/N — replayable from (seed, sequence,
        name) alone, no network state needed."""
        publisher = build_fleet_publisher(devices=24, seed=11)
        options = PublishOptions.scale(ack_sample=6)
        result = publisher.publish(make_spec(GOOD, "v1"), options)
        assert result.ok and result.multicast

        n = len(publisher.fleet.devices)
        permille = min(1000, options.ack_sample * 1000 // n)
        expected = sorted(
            device.name for device in publisher.fleet.devices
            if random.Random(
                f"{publisher.seed}:{result.sequence_number}:{device.name}"
            ).random() * 1000 < permille)
        assert result.mcast_acks == expected
        assert 0 < len(result.mcast_acks) < n  # bounded, not silent

    def test_sample_is_stable_across_identical_runs(self):
        runs = []
        for _ in range(2):
            IMAGE_CACHE.clear()
            publisher = build_fleet_publisher(devices=16, seed=23)
            result = publisher.publish(make_spec(GOOD, "v1"),
                                       PublishOptions.scale(ack_sample=4))
            runs.append(result.mcast_acks)
        assert runs[0] == runs[1]

    def test_small_fleet_all_ack(self):
        """ack_sample >= N degenerates to everyone acking (p = 1000)."""
        publisher = build_fleet_publisher(devices=3, seed=7)
        result = publisher.publish(make_spec(GOOD, "v1"),
                                   PublishOptions.scale(ack_sample=8))
        assert result.mcast_acks == ["dev0", "dev1", "dev2"]

    def test_legacy_publish_never_multicasts(self):
        publisher = build_fleet_publisher(devices=3)
        result = publisher.publish(make_spec(GOOD, "v1"))
        assert not result.multicast
        assert result.mcast_acks == []

    def test_later_unicast_publishes_report_no_stale_acks(self):
        """The ack sample belongs to one broadcast: a canary or unicast
        publish after a multicast one must not report its acks."""
        publisher = build_fleet_publisher(devices=4)
        broadcast = publisher.publish(make_spec(GOOD, "v1"),
                                      PublishOptions.scale())
        assert broadcast.multicast
        assert broadcast.mcast_acks == ["dev0", "dev1", "dev2", "dev3"]

        canary = publisher.publish(
            make_spec(GOOD, "v2"),
            PublishOptions.scale(canary_count=1, bake_us=200_000.0))
        assert canary.ok and not canary.multicast
        assert canary.mcast_acks == []

        unicast = publisher.publish(make_spec(GOOD, "v3"))
        assert unicast.ok and not unicast.multicast
        assert unicast.mcast_acks == []

    def test_canary_subsets_stay_unicast(self):
        """A broadcast cannot address a subset: a canary-staged publish
        keeps the unicast trigger path even under the scale profile."""
        publisher = build_fleet_publisher(devices=4)
        result = publisher.publish(
            make_spec(GOOD, "v1"),
            PublishOptions.scale(canary_count=1, bake_us=200_000.0))
        assert result.ok
        assert not result.multicast


class TestUnicastFallback:
    def test_device_missing_the_broadcast_converges_by_retry(self):
        """A device off the group (radio rebooting during the trigger,
        stale membership) never hears the broadcast; after the grace
        period the PR 6 unicast backoff path picks it up."""
        publisher = build_fleet_publisher(devices=4, seed=11)
        deaf = publisher.fleet.devices[2]
        publisher.link.leave(GROUP_ADDR, deaf.radio.addr)
        result = publisher.publish(
            make_spec(GOOD, "v1"),
            PublishOptions.scale(mcast_grace_us=300_000.0))
        assert result.ok and result.multicast
        retries = {row.device.name: row.retries for row in result.rows()}
        assert retries[deaf.name] >= 1  # fell back to unicast trigger
        assert all(retries[name] == 0 for name in retries
                   if name != deaf.name)

    def test_loss_burst_during_broadcast_still_converges(self):
        """A LinkLossBurst straddling the trigger drops the broadcast
        for some members and mauls their fetches; grace-period retries
        heal all of it."""
        publisher = build_fleet_publisher(devices=5, seed=23)
        publisher.chaos = FaultInjector([
            LinkLossBurst(at_us=0.0, duration_us=120_000.0, loss=0.8),
        ])
        result = publisher.publish(
            make_spec(GOOD, "v1"),
            PublishOptions.scale(mcast_grace_us=300_000.0))
        assert result.ok and result.multicast
        assert all(row.ok for row in result.rows())

    def test_trigger_bytes_accounted(self):
        """One broadcast charges the maintainer one frame regardless of
        N — the measurable airtime edge over N unicast POSTs."""
        publisher = build_fleet_publisher(devices=8, seed=7)
        result = publisher.publish(make_spec(GOOD, "v1"),
                                   PublishOptions.scale())
        assert result.multicast
        assert 0 < result.trigger_tx_bytes < 2_000  # one frame, not 8

        IMAGE_CACHE.clear()
        unicast = build_fleet_publisher(devices=8, seed=7)
        baseline = unicast.publish(make_spec(GOOD, "v1"))
        assert not baseline.multicast
        assert baseline.trigger_tx_bytes > result.trigger_tx_bytes


class TestUnsignedBodyFields:
    """Only the envelope inside a group-trigger body is signed; the
    body's own fields are checked before any device acts on them."""

    @pytest.mark.parametrize("body,queued", [
        ({"e": b"x", "p": "zz"}, False),
        ({"e": "text"}, False),
        ({"e": b"x", "y": "text"}, False),
        ({"e": b"x", "s": "one", "p": 1000}, False),
        ({"e": b"x", "l": "soon", "p": 1000}, False),
        ({"e": b"x", "p": -1}, False),
        ({"e": b"x", "s": 9, "p": 1000, "l": 1000}, True),
    ], ids=["text-permille", "text-envelope", "text-payload",
            "text-sequence", "text-leisure", "negative-permille",
            "well-formed-between-publishes"])
    def test_ill_typed_body_is_dropped_silently(self, body, queued):
        """A stray broadcast between publishes never raises out of the
        device handler into the backhaul kernel.  An ill-typed body is
        dropped and never cached; a well-formed one is queued (its
        junk envelope then ends as MALFORMED) with no ack deadline."""
        publisher = build_fleet_publisher(devices=2, seed=11)
        assert publisher.publish(make_spec(GOOD, "v1"),
                                 PublishOptions.scale()).ok
        cached = set(publisher._release_cache)
        before = {device.name: len(device.radio.worker.results)
                  for device in publisher.fleet.devices}

        message = CoapMessage(mtype=coap.NON, code=coap.POST,
                              payload=cbor.encode(body))
        message.add_uri_path(MCAST_TRIGGER_PATH)
        publisher._mcast_socket.send_to(GROUP_ADDR, COAP_PORT,
                                        message.encode())
        publisher.kernel.run(until_us=publisher.kernel.now_us + 200_000)
        for device in publisher.fleet.devices:
            device.kernel.run(until_us=device.kernel.now_us + 200_000)

        expected = [UpdateStatus.MALFORMED] if queued else []
        for device in publisher.fleet.devices:
            statuses = [result.status for result
                        in device.radio.worker.results[before[device.name]:]]
            assert statuses == expected
        assert (set(publisher._release_cache) != cached) == queued
        assert publisher.publish(make_spec(GOOD, "v2"),
                                 PublishOptions.scale()).ok
