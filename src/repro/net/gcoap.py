"""gcoap-style CoAP server and client on the simulated stack.

The server mirrors RIOT's gcoap: resources registered by path, handled in a
dedicated server thread (so CoAP traffic causes real context switches — the
thread-counter example observes them, as on the real OS).  Three resource
flavours exist:

* plain Python handlers (native firmware logic);
* blob resources served block-wise (the SUIT payload store);
* **container resources** — the §8.3 bridge: a GET fires a Femto-Container
  with a :class:`~repro.core.syscalls.CoapResponseContext`, and the PDU the
  container built becomes the response.

The client implements CON retransmission with exponential backoff and
block-wise GET reassembly, both driven by kernel timers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from repro.net import coap
from repro.net.block import BlockOption, slice_block
from repro.net.coap import CoapMessage
from repro.net.udp import Datagram, UdpSocket
from repro.rtos.thread import Wait

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.container import FemtoContainer
    from repro.core.engine import HostingEngine
    from repro.rtos.kernel import Kernel

#: A handler takes the request and returns the response message, or
#: ``None`` to suppress the response (group-addressed NON requests).
Handler = Callable[[CoapMessage, Datagram], "CoapMessage | None"]


@dataclass
class Resource:
    path: str
    handler: Handler
    requests: int = 0


class CoapServer:
    """Device-side CoAP endpoint."""

    def __init__(self, kernel: "Kernel", socket: UdpSocket,
                 threaded: bool = True, name: str = "gcoap"):
        self.kernel = kernel
        self.socket = socket
        self.resources: dict[str, Resource] = {}
        self._dedup: dict[tuple[str, int, int], bytes] = {}
        socket.on_datagram = self._on_datagram
        self._queue = kernel.new_event_queue(f"{name}-rx") if threaded else None
        if threaded:
            self.thread = kernel.create_thread(name, self._server_loop,
                                               priority=6, stack_size=2048)

    # -- registration ----------------------------------------------------------

    def register(self, path: str, handler: Handler) -> Resource:
        resource = Resource(path=path.rstrip("/") or "/", handler=handler)
        self.resources[resource.path] = resource
        return resource

    def register_blob(self, path: str, get_blob: Callable[[], bytes],
                      content_format: int = 42) -> Resource:
        """Serve a byte blob with Block2 slicing (SUIT payload store)."""

        def handler(request: CoapMessage, _dg: Datagram) -> CoapMessage:
            blob = get_blob()
            option = request.option(coap.OPT_BLOCK2)
            block = BlockOption.decode(option) if option else BlockOption(0, False, 5)
            chunk, more = slice_block(blob, block)
            reply = request.reply(coap.CONTENT, payload=chunk)
            reply.add_option(
                coap.OPT_BLOCK2,
                BlockOption(block.num, more, block.szx).encode(),
            )
            reply.add_option(coap.OPT_CONTENT_FORMAT, bytes([content_format]))
            return reply

        return self.register(path, handler)

    def register_container(self, path: str, engine: "HostingEngine",
                           container: "FemtoContainer") -> Resource:
        """§8.3: a container-backed resource.

        The handler fires the container with a fresh PDU context; a faulted
        container yields 5.00 without disturbing the server — fault
        isolation extends to the network surface.
        """
        from repro.core.syscalls import CoapResponseContext

        def handler(request: CoapMessage, _dg: Datagram) -> CoapMessage:
            pdu = CoapResponseContext(token_length=len(request.token))
            run = engine.execute(container, context=struct.pack("<Q", 1),
                                 pdu=pdu)
            if not run.ok or run.value is None:
                return request.reply(coap.INTERNAL_SERVER_ERROR)
            reply = request.reply(pdu.code or coap.CONTENT,
                                  payload=pdu.payload_bytes())
            if pdu.content_format is not None:
                reply.add_option(
                    coap.OPT_CONTENT_FORMAT,
                    bytes([pdu.content_format]) if pdu.content_format else b"",
                )
            return reply

        return self.register(path, handler)

    # -- datagram path -------------------------------------------------------------

    def _on_datagram(self, datagram: Datagram) -> None:
        if self._queue is not None:
            self._queue.post_new("coap-rx", datagram)
        else:
            self._handle(datagram)

    def _server_loop(self, thread):
        while True:
            event = yield Wait(self._queue)
            self._handle(event.payload)

    def _handle(self, datagram: Datagram) -> None:
        try:
            request = CoapMessage.decode(datagram.payload)
        except coap.CoapError:
            return  # malformed input is dropped, never crashes the server
        if request.mtype not in (coap.CON, coap.NON):
            return
        key = (datagram.src_addr, datagram.src_port, request.message_id)
        cached = self._dedup.get(key)
        if cached is not None:  # retransmitted CON: replay the response
            self.socket.send_to(datagram.src_addr, datagram.src_port, cached)
            return
        resource = self.resources.get(request.uri_path)
        if resource is None:
            reply = request.reply(coap.NOT_FOUND)
        else:
            resource.requests += 1
            reply = resource.handler(request, datagram)
        if reply is None:
            # RFC 7390-style group semantics: a handler may suppress its
            # response entirely (multicast NON requests must not trigger
            # N simultaneous replies).  Only meaningful for NON traffic —
            # a suppressed CON would just be retransmitted by the peer.
            return
        raw = reply.encode()
        if request.mtype == coap.CON:
            self._dedup[key] = raw
            if len(self._dedup) > 64:  # bounded exchange cache
                self._dedup.pop(next(iter(self._dedup)))
        self.socket.send_to(datagram.src_addr, datagram.src_port, raw)


@dataclass
class _Pending:
    message: CoapMessage
    dst: tuple[str, int]
    on_response: Callable[[CoapMessage], None]
    on_timeout: Callable[[], None] | None
    retransmits: int = 0
    timer: object = None


class CoapClient:
    """CON client with retransmission and block-wise GET."""

    def __init__(self, kernel: "Kernel", socket: UdpSocket):
        self.kernel = kernel
        self.socket = socket
        # RFC 7252 §4.4: a fresh endpoint must not restart message IDs
        # from a fixed value, or a peer's exchange cache will replay a
        # previous incarnation's responses to it.  Seeding from the
        # virtual clock keeps it deterministic while guaranteeing a
        # rebooted device (same address, monotonic clock) never reuses
        # the MIDs its pre-crash self already burned.
        start = (int(kernel.now_us) & 0x7FFF) + 1
        self._next_mid = start
        self._next_token = start
        self._pending: dict[bytes, _Pending] = {}
        socket.on_datagram = self._on_datagram
        self.timeouts = 0

    def request(
        self,
        dst_addr: str,
        dst_port: int,
        message: CoapMessage,
        on_response: Callable[[CoapMessage], None],
        on_timeout: Callable[[], None] | None = None,
    ) -> None:
        message.message_id = self._next_mid
        self._next_mid = (self._next_mid + 1) & 0xFFFF
        message.token = self._next_token.to_bytes(2, "big")
        self._next_token = (self._next_token + 1) & 0xFFFF
        pending = _Pending(message, (dst_addr, dst_port), on_response,
                           on_timeout)
        self._pending[message.token] = pending
        self._transmit(pending)

    def _transmit(self, pending: _Pending) -> None:
        self.socket.send_to(*pending.dst, pending.message.encode())
        if pending.message.mtype != coap.CON:
            return
        backoff = coap.ACK_TIMEOUT_US * (2 ** pending.retransmits)

        def on_expire() -> None:
            if pending.message.token not in self._pending:
                return
            if pending.retransmits >= coap.MAX_RETRANSMIT:
                del self._pending[pending.message.token]
                self.timeouts += 1
                if pending.on_timeout is not None:
                    pending.on_timeout()
                return
            pending.retransmits += 1
            self._transmit(pending)

        pending.timer = self.kernel.timers.set(on_expire, backoff)

    def _on_datagram(self, datagram: Datagram) -> None:
        try:
            message = CoapMessage.decode(datagram.payload)
        except coap.CoapError:
            return
        pending = self._pending.pop(message.token, None)
        if pending is None:
            return  # stale or duplicate response
        if pending.timer is not None:
            self.kernel.timers.cancel(pending.timer)
        pending.on_response(message)

    # -- block-wise GET --------------------------------------------------------

    def get_blockwise(
        self,
        dst_addr: str,
        dst_port: int,
        path: str,
        on_complete: Callable[[bytes], None],
        on_error: Callable[[str], None] | None = None,
        szx: int = 5,
        max_size: int | None = None,
        on_block: Callable[[int, bytes], None] | None = None,
        resume_from: bytes = b"",
    ) -> None:
        """Fetch a blob block by block, then call ``on_complete``.

        ``max_size`` bounds the reassembly buffer: a transfer that grows
        beyond it is aborted with ``on_error`` instead of completing.  A
        SUIT worker passes the manifest's signed payload size here, so a
        lying repository cannot make a constrained device buffer (or keep
        radio-receiving) more bytes than the manifest promised.

        ``on_block`` is called with each block's number and bytes as it
        lands, letting the caller checkpoint transfer progress (e.g. to
        NVM).  ``resume_from`` pre-seeds the reassembly buffer with bytes
        from an earlier interrupted transfer; only whole already-received
        blocks are reused, so the fetch restarts at the first missing
        block rather than byte zero.
        """
        block_bytes = 1 << (szx + 4)
        whole_blocks = len(resume_from) // block_bytes
        chunks: list[bytes] = [
            resume_from[i * block_bytes:(i + 1) * block_bytes]
            for i in range(whole_blocks)
        ]
        received = whole_blocks * block_bytes

        def fetch(num: int) -> None:
            request = CoapMessage(mtype=coap.CON, code=coap.GET)
            request.add_uri_path(path)
            request.add_option(
                coap.OPT_BLOCK2, BlockOption(num, False, szx).encode()
            )

            def on_response(reply: CoapMessage) -> None:
                nonlocal received
                if reply.code != coap.CONTENT:
                    if on_error is not None:
                        on_error(f"unexpected code {coap.code_string(reply.code)}")
                    return
                received += len(reply.payload)
                if max_size is not None and received > max_size:
                    if on_error is not None:
                        on_error(
                            f"transfer of {path} exceeds the promised "
                            f"{max_size} bytes — aborted"
                        )
                    return
                chunks.append(reply.payload)
                if on_block is not None:
                    on_block(num, reply.payload)
                option = reply.option(coap.OPT_BLOCK2)
                block = BlockOption.decode(option) if option else None
                if block is not None and block.more:
                    fetch(num + 1)
                else:
                    on_complete(b"".join(chunks))

            def on_timeout() -> None:
                if on_error is not None:
                    on_error(f"timeout fetching block {num} of {path}")

            self.request(dst_addr, dst_port, request, on_response, on_timeout)

        fetch(whole_blocks)
