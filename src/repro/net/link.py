"""Simulated IEEE 802.15.4-class radio link with 6LoWPAN-style fragmentation.

One :class:`Link` connects any number of interfaces (a broadcast domain).
Frames above the 802.15.4 payload MTU are fragmented and reassembled
transparently, each fragment paying its own airtime and loss dice roll —
so large transfers (e.g. SUIT payloads) really behave like low-power
wireless: slower, lossier, retransmitted block by block.

Loss is deterministic given the seed, keeping every experiment repeatable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rtos.kernel import Kernel

#: Usable payload per 802.15.4 frame after MAC/6LoWPAN headers (bytes).
FRAME_PAYLOAD = 96
#: Nominal 802.15.4 air bitrate.
BITRATE_BPS = 250_000
#: Per-frame MAC/PHY overhead (headers, CSMA, turnaround), microseconds.
FRAME_OVERHEAD_US = 1_200.0


@dataclass
class LinkStats:
    frames_sent: int = 0
    frames_dropped: int = 0
    bytes_sent: int = 0
    datagrams_delivered: int = 0
    bytes_received: int = 0


@dataclass
class Interface:
    """One radio endpoint with an address and a receive callback."""

    addr: str
    receive: Callable[[bytes, str], None] | None = None
    link: "Link | None" = None

    def __post_init__(self) -> None:
        #: Per-endpoint traffic counters: everything *this* radio put on
        #: the air (including frames that were then lost) plus everything
        #: it heard.  Retransmissions therefore show up here — and in the
        #: energy model that rides these counters — even though the
        #: application saw a single logical transfer.
        self.stats = LinkStats()

    def send(self, dst_addr: str, payload: bytes) -> None:
        if self.link is None:
            raise RuntimeError(f"interface {self.addr!r} is not attached")
        self.link.transmit(self, dst_addr, payload)


class Link:
    """A shared lossy medium delivering datagrams with airtime latency."""

    def __init__(self, kernel: "Kernel", loss: float = 0.0, seed: int = 1234,
                 latency_us: float = FRAME_OVERHEAD_US):
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss probability out of range: {loss}")
        self.kernel = kernel
        self.loss = loss
        self.latency_us = latency_us
        self._rng = random.Random(seed)
        self._interfaces: dict[str, Interface] = {}
        #: RFC 7390-style group membership: group address → (member
        #: address → member interface).  Kept separate from unicast
        #: addressing so a group address can never shadow a device.
        self._groups: dict[str, dict[str, Interface]] = {}
        self.stats = LinkStats()

    def attach(self, iface: Interface) -> Interface:
        if iface.addr in self._interfaces:
            raise ValueError(f"address {iface.addr!r} already attached")
        iface.link = self
        self._interfaces[iface.addr] = iface
        return iface

    def interface(self, addr: str) -> Interface:
        return self._interfaces[addr]

    def detach(self, addr: str) -> None:
        """Take a radio off the air (device powered down or rebooting).

        The old :class:`Interface` object is neutralized, not just
        forgotten: in-flight datagrams hold a reference to it through
        their delivery timers, and must land on a dead radio — not on
        the rebooted incarnation that later re-attaches under the same
        address.
        """
        iface = self._interfaces.pop(addr, None)
        if iface is not None:
            iface.receive = None
            iface.link = None
        # Group membership is deliberately left alone: the dead
        # interface stays in its groups (skipped at delivery, like any
        # in-flight unicast frame) and a rebooted incarnation replaces
        # it in place when it re-joins, keeping the member order — and
        # therefore the seeded loss-dice order — stable.

    # -- group (multicast) addressing -----------------------------------

    def join(self, group_addr: str, iface: Interface) -> None:
        """Subscribe one interface to a group address.

        Re-joining under the same unicast address (a rebooted device's
        new radio incarnation) replaces the old membership in place.
        """
        if group_addr in self._interfaces:
            raise ValueError(
                f"{group_addr!r} is a unicast address, not a group")
        self._groups.setdefault(group_addr, {})[iface.addr] = iface

    def leave(self, group_addr: str, addr: str) -> None:
        """Unsubscribe one member address from a group (idempotent)."""
        self._groups.get(group_addr, {}).pop(addr, None)

    def group_members(self, group_addr: str) -> list[str]:
        """Member addresses of one group, join order."""
        return list(self._groups.get(group_addr, {}))

    def transmit(self, src: Interface, dst_addr: str, payload: bytes) -> None:
        """Send one datagram; it arrives fragmented, delayed, or not at all.

        The whole datagram is lost if *any* fragment is lost (link-layer
        reassembly has no ARQ here; reliability belongs to CoAP CON/ACK).

        A ``dst_addr`` naming a group delivers to every live member: the
        sender puts the fragments on the air **once** (one airtime cost,
        one set of TX stats — the whole point of multicast), and each
        member rolls its own independent loss dice, because fading is
        per-receiver on a real radio.  Member order — and therefore the
        seeded dice order — is join order.
        """
        fragments = max(1, -(-len(payload) // FRAME_PAYLOAD))
        airtime_us = (
            fragments * self.latency_us
            + (len(payload) + fragments * 21) * 8 / BITRATE_BPS * 1e6
        )
        self.stats.frames_sent += fragments
        self.stats.bytes_sent += len(payload)
        src.stats.frames_sent += fragments
        src.stats.bytes_sent += len(payload)
        data = bytes(payload)
        src_addr = src.addr

        def deliver_to(dst: Interface) -> None:
            if dst.receive is None:
                return  # radio died (detached) while the frames were in flight
            self.stats.datagrams_delivered += 1
            dst.stats.datagrams_delivered += 1
            dst.stats.bytes_received += len(data)
            dst.receive(data, src_addr)

        members = self._groups.get(dst_addr)
        if members is not None:
            # Hot loop (one roll per fragment per member): the dice are
            # drawn exactly as the unicast path draws them, stopping at
            # the first lost fragment.
            random = self._rng.random
            loss = self.loss
            set_timer = self.kernel.timers.set
            for member in members.values():
                if member is src or member.receive is None:
                    # The sender never hears itself; a dead radio is
                    # skipped before the dice, like a missing unicast dst.
                    continue
                for _ in range(fragments):
                    if random() < loss:
                        self.stats.frames_dropped += 1
                        break
                else:
                    set_timer(lambda dst=member: deliver_to(dst), airtime_us)
            return

        dst = self._interfaces.get(dst_addr)
        if dst is None:
            return  # no such destination: the frames vanish into the ether
        for _ in range(fragments):
            if self._rng.random() < self.loss:
                self.stats.frames_dropped += 1
                src.stats.frames_dropped += 1
                return
        self.kernel.timers.set(lambda: deliver_to(dst), airtime_us)
