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
block-wise GET reassembly, both driven by kernel timers.  Both sides run
once per simulated frame, so each does per frame only what differs per
frame:

* **Once per blob and block:** a blob resource answers Block2 requests
  from a table of reply tails (Block2 and Content-Format options,
  payload marker, the block's bytes; see :mod:`repro.net.coap`), built
  the first time a block is asked for and dropped when the resource's
  blob becomes another object, so it holds one release's blocks.
* **Once per path, block and size:** a block-wise fetch sends GETs
  whose Uri-Path and Block2 tail is encoded once in a process-wide
  memo, for every device fetching that block.
* **Per frame:** the message ID, token, header and the exchange state —
  each CON still goes through :meth:`CoapClient.request`, its
  retransmissions resend the bytes it encoded first, a retransmission
  timer is a ``partial`` of one client method, and a server answers a
  retransmitted CON from its exchange cache.

The servers of a group share one decode of each group frame: every
member's datagram carries the same payload object, so the request is
decoded once and handed to each handler read-only.  These are host-side
savings only: the bytes sent, and the timers armed (their order and
deadlines), are what the exchange defines.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import partial
from typing import Callable, TYPE_CHECKING

from repro.memo import Memo, identity_memo
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
#: The request is read-only: every member of a group shares it.
Handler = Callable[[CoapMessage, Datagram], "CoapMessage | None"]


def _decode_request(raw: bytes) -> CoapMessage:
    """A request as the servers that heard it share it: its options are
    a tuple, so no handler can change what the others read."""
    request = CoapMessage.decode(raw)
    request.options = tuple(request.options)
    return request


#: Every member of a group gets a datagram with the same payload object,
#: so the request is decoded once, however many servers handle it.
_decode = identity_memo(_decode_request)


#: Reply tails one blob resource keeps: the blocks of one blob at the
#: sizes its clients ask for.
_BLOCK_TABLE_ENTRIES = 1024


def _block_reply(blob: bytes, option: bytes | None, format_value: bytes):
    """The options, payload and encoded tail of the Block2 reply that
    answers ``option`` (block 0 at szx 5 when it is absent or empty)."""
    block = BlockOption.decode(option) if option else BlockOption(0, False, 5)
    chunk, more = slice_block(blob, block)
    block2 = BlockOption(block.num, more, block.szx).encode()
    options = ((coap.OPT_BLOCK2, block2),
               (coap.OPT_CONTENT_FORMAT, format_value))
    return options, chunk, coap.encode_tail(options, chunk)


def _block_get(path: str, num: int, szx: int):
    """The options and encoded tail of the GET for one block of ``path``."""
    options = (*CoapMessage().add_uri_path(path).options,
               (coap.OPT_BLOCK2, BlockOption(num, False, szx).encode()))
    return options, coap.encode_tail(options, b"")


#: GET tails keyed by (path, block number, szx): every device fetching a
#: block of one release sends the same options.
_block_gets = Memo(256)


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
        """Serve a byte blob with Block2 slicing (SUIT payload store).

        Each reply's tail comes from a table keyed by the request's
        Block2 value and scoped to one blob object: the table starts
        over when ``get_blob()`` returns another object."""
        format_value = bytes([content_format])
        table = Memo(_BLOCK_TABLE_ENTRIES)
        served = None

        def handler(request: CoapMessage, _dg: Datagram) -> CoapMessage:
            nonlocal served
            blob = get_blob()
            if blob is not served:
                table.clear()
                served = blob
            option = request.option(coap.OPT_BLOCK2)
            options, chunk, tail = table.get_or_derive(
                option, _block_reply, blob, option, format_value)
            return CoapMessage(coap.ACK, coap.CONTENT, request.message_id,
                               request.token, options, chunk, tail)

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
            request = _decode(datagram.payload)
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


@dataclass(slots=True)
class _Pending:
    message: CoapMessage
    #: The message as first encoded; every retransmission resends it.
    raw: bytes
    dst_addr: str
    dst_port: int
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
        pending = _Pending(message, message.encode(), dst_addr, dst_port,
                           on_response, on_timeout)
        self._pending[message.token] = pending
        self._transmit(pending)

    def _transmit(self, pending: _Pending) -> None:
        self.socket.send_to(pending.dst_addr, pending.dst_port, pending.raw)
        if pending.message.mtype != coap.CON:
            return
        backoff = coap.ACK_TIMEOUT_US * (2 ** pending.retransmits)
        pending.timer = self.kernel.timers.set(partial(self._expire, pending),
                                               backoff)

    def _expire(self, pending: _Pending) -> None:
        """Retransmission timer: resend, or give up after the last try."""
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
        transfer = _BlockFetch(
            self, dst_addr, dst_port, path, on_complete, on_error,
            szx, max_size, on_block,
            [resume_from[i * block_bytes:(i + 1) * block_bytes]
             for i in range(whole_blocks)],
            whole_blocks * block_bytes,
        )
        transfer.fetch(whole_blocks)


@dataclass(slots=True)
class _BlockFetch:
    """One block-wise GET in flight: at most one block is requested at a
    time, so ``num`` is always the block the outstanding request asks
    for."""

    client: CoapClient
    dst_addr: str
    dst_port: int
    path: str
    on_complete: Callable[[bytes], None]
    on_error: Callable[[str], None] | None
    szx: int
    max_size: int | None
    on_block: Callable[[int, bytes], None] | None
    chunks: list[bytes]
    received: int
    num: int = 0

    def fetch(self, num: int) -> None:
        self.num = num
        path, szx = self.path, self.szx
        options, tail = _block_gets.get_or_derive(
            (path, num, szx), _block_get, path, num, szx)
        request = CoapMessage(coap.CON, coap.GET, 0, b"", options, b"", tail)
        self.client.request(self.dst_addr, self.dst_port, request,
                            self.on_response, self.on_timeout)

    def on_response(self, reply: CoapMessage) -> None:
        on_error = self.on_error
        if reply.code != coap.CONTENT:
            if on_error is not None:
                on_error(f"unexpected code {coap.code_string(reply.code)}")
            return
        payload = reply.payload
        self.received += len(payload)
        if self.max_size is not None and self.received > self.max_size:
            if on_error is not None:
                on_error(
                    f"transfer of {self.path} exceeds the promised "
                    f"{self.max_size} bytes — aborted"
                )
            return
        self.chunks.append(payload)
        if self.on_block is not None:
            self.on_block(self.num, payload)
        option = reply.option(coap.OPT_BLOCK2)
        block = BlockOption.decode(option) if option else None
        if block is not None and block.more:
            self.fetch(self.num + 1)
        else:
            self.on_complete(b"".join(self.chunks))

    def on_timeout(self) -> None:
        if self.on_error is not None:
            self.on_error(f"timeout fetching block {self.num} of {self.path}")
