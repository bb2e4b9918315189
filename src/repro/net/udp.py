"""Minimal UDP layer over the simulated link."""

from __future__ import annotations

import struct
from typing import Callable, NamedTuple

from repro.memo import identity_memo
from repro.net.link import Interface

_HEADER = struct.Struct("<HH")


class Datagram(NamedTuple):
    """One received UDP datagram (immutable; one is built per frame)."""

    src_addr: str
    src_port: int
    dst_port: int
    payload: bytes


def _parse_frame(frame: bytes) -> tuple[int, int, bytes] | None:
    """The ports and payload one frame carries, or ``None`` for a runt."""
    if len(frame) < _HEADER.size:
        return None
    return (*_HEADER.unpack_from(frame), frame[_HEADER.size:])


#: Every member of a group hears the sender's one frame object, so its
#: header is read and its payload sliced once, and every member's
#: datagram carries the same payload object.
_parse = identity_memo(_parse_frame)


class UdpStack:
    """Port demultiplexer bound to one interface."""

    def __init__(self, iface: Interface):
        self.iface = iface
        self._sockets: dict[int, "UdpSocket"] = {}
        iface.receive = self._on_frame

    def socket(self, port: int) -> "UdpSocket":
        if port in self._sockets:
            raise ValueError(f"port {port} already bound on {self.iface.addr}")
        sock = UdpSocket(self, port)
        self._sockets[port] = sock
        return sock

    def _on_frame(self, frame: bytes, src_addr: str) -> None:
        parsed = _parse(frame)
        if parsed is None:
            return  # runt datagram: dropped silently, like real UDP
        src_port, dst_port, payload = parsed
        sock = self._sockets.get(dst_port)
        if sock is None:
            return  # no listener: ICMP-less world, silently dropped
        sock.deliver(Datagram(src_addr, src_port, dst_port, payload))

    def send(self, src_port: int, dst_addr: str, dst_port: int,
             payload: bytes) -> None:
        self.iface.send(dst_addr, _HEADER.pack(src_port, dst_port) + payload)


class UdpSocket:
    """One bound port; delivers datagrams to a callback."""

    def __init__(self, stack: UdpStack, port: int):
        self.stack = stack
        self.port = port
        self.on_datagram: Callable[[Datagram], None] | None = None
        self.received = 0
        self.sent = 0

    def send_to(self, dst_addr: str, dst_port: int, payload: bytes) -> None:
        self.sent += 1
        self.stack.send(self.port, dst_addr, dst_port, payload)

    def deliver(self, datagram: Datagram) -> None:
        self.received += 1
        if self.on_datagram is not None:
            self.on_datagram(datagram)
