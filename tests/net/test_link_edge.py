"""Link-layer edge cases: fragmentation loss semantics, airtime, accounting."""

from __future__ import annotations

import random

import pytest

from repro.net import Interface, Link, UdpStack
from repro.net.link import FRAME_PAYLOAD


@pytest.fixture
def wire(kernel):
    link = Link(kernel, loss=0.0, seed=1)
    a = link.attach(Interface("a"))
    b = link.attach(Interface("b"))
    return link, UdpStack(a), UdpStack(b)


class TestFragmentation:
    def test_single_frame_below_mtu(self, kernel, wire):
        link, sa, sb = wire
        sb.socket(1)
        sa.socket(2).send_to("b", 1, bytes(FRAME_PAYLOAD - 10))
        kernel.run_until_idle()
        assert link.stats.frames_sent == 1

    def test_fragment_count_scales(self, kernel, wire):
        link, sa, sb = wire
        sb.socket(1)
        sa.socket(2).send_to("b", 1, bytes(FRAME_PAYLOAD * 3))
        kernel.run_until_idle()
        assert link.stats.frames_sent == 4  # 3 full + UDP header spill

    def test_airtime_grows_with_size(self, kernel, wire):
        link, sa, sb = wire
        arrivals = []
        sb.socket(1).on_datagram = lambda dg: arrivals.append(kernel.now_us)
        sa.socket(2).send_to("b", 1, bytes(10))
        kernel.run_until_idle()
        small = arrivals[-1]
        sa.socket(3).send_to("b", 1, bytes(400))
        kernel.run_until_idle()
        large = arrivals[-1] - small
        assert large > small

    def test_any_fragment_loss_kills_the_datagram(self, kernel):
        """Link-layer reassembly has no ARQ: with loss high enough that a
        multi-fragment datagram nearly always loses one frame, almost
        nothing is delivered while single-frame datagrams mostly survive."""
        link = Link(kernel, loss=0.45, seed=13)
        a = link.attach(Interface("a"))
        b = link.attach(Interface("b"))
        sa, sb = UdpStack(a), UdpStack(b)
        got_small, got_big = [], []
        sb.socket(1).on_datagram = lambda dg: got_small.append(1)
        sb.socket(2).on_datagram = lambda dg: got_big.append(1)
        sender_small = sa.socket(3)
        sender_big = sa.socket(4)
        for _ in range(40):
            sender_small.send_to("b", 1, bytes(10))       # 1 fragment
            sender_big.send_to("b", 2, bytes(600))        # 7 fragments
        kernel.run_until_idle()
        assert len(got_small) > len(got_big)
        assert len(got_small) >= 10

    def test_stats_account_bytes(self, kernel, wire):
        link, sa, sb = wire
        sb.socket(1)
        sa.socket(2).send_to("b", 1, bytes(100))
        kernel.run_until_idle()
        assert link.stats.bytes_sent == 104  # payload + UDP header
        assert link.stats.datagrams_delivered == 1


class TestPerInterfaceStats:
    """Each endpoint carries its own traffic counters — the radio-energy
    model charges a *device* for what its own radio did, not a share of
    the whole broadcast domain."""

    def test_sender_and_receiver_count_their_own_sides(self, kernel, wire):
        link, sa, sb = wire
        sb.socket(1)
        sa.socket(2).send_to("b", 1, bytes(50))
        kernel.run_until_idle()
        tx, rx = link.interface("a").stats, link.interface("b").stats
        assert tx.frames_sent == 1
        assert tx.bytes_sent > 50  # payload + UDP header
        assert tx.bytes_received == 0
        assert rx.frames_sent == 0
        assert rx.datagrams_delivered == 1
        assert rx.bytes_received == tx.bytes_sent

    def test_lost_frames_still_charged_to_the_sender(self, kernel):
        link = Link(kernel, loss=0.999, seed=3)
        a = link.attach(Interface("a"))
        link.attach(Interface("b"))
        sa = UdpStack(a)
        sender = sa.socket(2)
        for _ in range(5):
            sender.send_to("b", 1, bytes(10))
        kernel.run_until_idle()
        stats = link.interface("a").stats
        assert stats.frames_sent == 5  # airtime spent whether heard or not
        assert stats.frames_dropped == 5
        assert link.interface("b").stats.bytes_received == 0

    def test_detached_radio_receives_nothing(self, kernel, wire):
        """A frame in flight when the destination powers off lands on the
        dead radio — neither delivered nor counted for the reborn one."""
        link, sa, sb = wire
        sb.socket(1)
        dead = link.interface("b")
        sa.socket(2).send_to("b", 1, bytes(20))
        link.detach("b")  # power-fail while the frame is in the air
        reborn = link.attach(Interface("b"))
        UdpStack(reborn).socket(1)
        kernel.run_until_idle()
        assert dead.stats.datagrams_delivered == 0
        assert reborn.stats.datagrams_delivered == 0
        assert link.stats.datagrams_delivered == 0


class TestLosslessGroupDice:
    """A lossless group transmit advances the loss generator in bulk.

    No roll can drop a frame at loss 0, so the link advances its
    generator with one ``getrandbits(64 * fragments)`` per live member
    instead of one ``random()`` per fragment.  The generator must end in
    the state the per-fragment rolls leave, so a later lossy frame reads
    the same stream and drops the same members.
    """

    MEMBERS = 9

    def rig(self, kernel):
        link = Link(kernel, loss=0.0, seed=77)
        inboxes: dict[str, list[bytes]] = {}
        ifaces = []
        for index in range(self.MEMBERS):
            iface = link.attach(Interface(f"dev{index}"))
            inboxes[iface.addr] = []
            iface.receive = (
                lambda data, _src, box=inboxes[iface.addr]: box.append(data))
            link.join("ff15::g", iface)
            ifaces.append(iface)
        link.detach("dev4")  # a dead member is skipped before the dice
        return link, ifaces, inboxes

    @staticmethod
    def live(ifaces, src):
        return [iface for iface in ifaces
                if iface is not src and iface.receive is not None]

    @pytest.mark.parametrize("size", [1, FRAME_PAYLOAD, FRAME_PAYLOAD * 3 + 1])
    def test_generator_state_matches_per_fragment_draws(self, kernel, size):
        link, ifaces, inboxes = self.rig(kernel)
        reference = random.Random(77)
        fragments = -(-size // FRAME_PAYLOAD)
        for _ in range(3):
            link.transmit(ifaces[0], "ff15::g", bytes(size))
            for _member in self.live(ifaces, ifaces[0]):
                for _ in range(fragments):
                    reference.random()
            assert link._rng.getstate() == reference.getstate()
        kernel.run_until_idle()
        assert link.stats.frames_dropped == 0
        assert all(len(inboxes[f"dev{index}"]) == 3
                   for index in (1, 2, 3, 5, 6, 7, 8))

    def test_following_lossy_burst_drops_the_same_members(self, kernel):
        link, ifaces, inboxes = self.rig(kernel)
        reference = random.Random(77)
        size = FRAME_PAYLOAD * 2 + 5
        fragments = 3
        link.transmit(ifaces[0], "ff15::g", bytes(size))
        for _member in self.live(ifaces, ifaces[0]):
            for _ in range(fragments):
                reference.random()
        kernel.run_until_idle()
        for box in inboxes.values():
            box.clear()

        link.loss = 0.3
        expected = []
        for _ in range(4):
            link.transmit(ifaces[2], "ff15::g", bytes(size))
            for member in self.live(ifaces, ifaces[2]):
                if all(reference.random() >= 0.3 for _ in range(fragments)):
                    expected.append(member.addr)
        kernel.run_until_idle()
        heard = sorted(addr for addr, box in inboxes.items() for _ in box)
        assert heard == sorted(expected)
        assert 0 < link.stats.frames_dropped < 4 * (self.MEMBERS - 2)
        assert link._rng.getstate() == reference.getstate()


class TestLinkWideCounters:
    def test_received_bytes_sum_over_interfaces(self):
        """The link-wide ``bytes_received`` is the sum of every radio's,
        after a lossy unicast publish and a multicast one."""
        from repro.core import FC_HOOK_FANOUT
        from repro.core.hooks import HookMode
        from repro.deploy import (AttachmentSpec, DeploymentSpec, HookSpec,
                                  ImageSpec, PublishOptions)
        from repro.scenarios import build_fleet_publisher
        from repro.vm import assemble

        publisher = build_fleet_publisher(devices=4, loss=0.1, seed=5)
        base = ImageSpec.from_program(assemble("mov r0, 7\n    exit"))
        for index, options in enumerate((PublishOptions.legacy(),
                                         PublishOptions.scale())):
            spec = DeploymentSpec(
                name="release", tenants=("ops",),
                hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
                images={"app": ImageSpec(name="app", text=base.text,
                                         rodata=bytes([index]) * 300)},
                attachments=(AttachmentSpec(image="app", hook=FC_HOOK_FANOUT,
                                            tenant="ops", name="fc"),),
            )
            assert publisher.publish(spec, options).ok
        link = publisher.link
        radios = [device.radio.iface for device in publisher.fleet.devices]
        radios.append(publisher._maint_iface)
        assert link.stats.frames_dropped > 0  # the unicast leg was lossy
        assert link.stats.bytes_received > 0
        assert link.stats.bytes_received == sum(
            radio.stats.bytes_received for radio in radios)
