"""Link, UDP, gcoap server/client: loss, retransmission, blockwise, bridge."""

from __future__ import annotations

import pytest

from repro.net import (
    CoapClient,
    CoapServer,
    CoapMessage,
    Interface,
    Link,
    UdpStack,
    coap,
)


@pytest.fixture
def network(kernel):
    link = Link(kernel, loss=0.0, seed=1)
    a = link.attach(Interface("node-a"))
    b = link.attach(Interface("node-b"))
    return link, UdpStack(a), UdpStack(b)


class TestLink:
    def test_delivery_with_latency(self, kernel, network):
        link, stack_a, stack_b = network
        received = []
        sock_b = stack_b.socket(1000)
        sock_b.on_datagram = lambda dg: received.append(
            (dg.payload, kernel.now_us))
        stack_a.socket(2000).send_to("node-b", 1000, b"ping")
        kernel.run_until_idle()
        assert received[0][0] == b"ping"
        assert received[0][1] > 0  # airtime elapsed

    def test_large_datagram_fragments(self, kernel, network):
        link, stack_a, stack_b = network
        received = []
        stack_b.socket(1).on_datagram = lambda dg: received.append(dg.payload)
        payload = bytes(500)
        stack_a.socket(2).send_to("node-b", 1, payload)
        kernel.run_until_idle()
        assert received == [payload]
        assert link.stats.frames_sent >= 6  # fragmented

    def test_lossy_link_drops_deterministically(self, kernel):
        link = Link(kernel, loss=0.5, seed=99)
        a = link.attach(Interface("a"))
        b = link.attach(Interface("b"))
        stack_a, stack_b = UdpStack(a), UdpStack(b)
        received = []
        stack_b.socket(1).on_datagram = lambda dg: received.append(dg.payload)
        sender = stack_a.socket(2)
        for i in range(50):
            sender.send_to("b", 1, bytes([i]))
        kernel.run_until_idle()
        assert 0 < len(received) < 50  # some loss, not total

    def test_unknown_destination_vanishes(self, kernel, network):
        link, stack_a, _stack_b = network
        stack_a.socket(2).send_to("nowhere", 1, b"x")
        kernel.run_until_idle()
        assert link.stats.datagrams_delivered == 0

    def test_duplicate_address_rejected(self, kernel, network):
        link, _a, _b = network
        with pytest.raises(ValueError):
            link.attach(Interface("node-a"))

    def test_unbound_port_dropped(self, kernel, network):
        link, stack_a, _stack_b = network
        stack_a.socket(2).send_to("node-b", 4242, b"x")
        kernel.run_until_idle()  # no listener: no crash


class TestCoapServerClient:
    def test_request_response(self, kernel, network):
        _link, stack_a, stack_b = network
        server = CoapServer(kernel, stack_b.socket(5683))
        server.register("/hello",
                        lambda req, dg: req.reply(coap.CONTENT, b"world"))
        client = CoapClient(kernel, stack_a.socket(40000))
        replies = []
        request = CoapMessage(mtype=coap.CON, code=coap.GET)
        request.add_uri_path("/hello")
        client.request("node-b", 5683, request, replies.append)
        kernel.run_until_idle()
        assert replies[0].payload == b"world"

    def test_not_found(self, kernel, network):
        _link, stack_a, stack_b = network
        CoapServer(kernel, stack_b.socket(5683))
        client = CoapClient(kernel, stack_a.socket(40000))
        replies = []
        request = CoapMessage(mtype=coap.CON, code=coap.GET)
        request.add_uri_path("/missing")
        client.request("node-b", 5683, request, replies.append)
        kernel.run_until_idle()
        assert replies[0].code == coap.NOT_FOUND

    def test_retransmission_recovers_from_loss(self, kernel):
        link = Link(kernel, loss=0.4, seed=3)
        a = link.attach(Interface("a"))
        b = link.attach(Interface("b"))
        stack_a, stack_b = UdpStack(a), UdpStack(b)
        server = CoapServer(kernel, stack_b.socket(5683))
        server.register("/r", lambda req, dg: req.reply(coap.CONTENT, b"ok"))
        client = CoapClient(kernel, stack_a.socket(40000))
        replies = []
        request = CoapMessage(mtype=coap.CON, code=coap.GET)
        request.add_uri_path("/r")
        client.request("b", 5683, request, replies.append)
        kernel.run(until_us=120_000_000)
        assert replies and replies[0].payload == b"ok"

    def test_timeout_after_max_retransmits(self, kernel):
        link = Link(kernel, loss=0.0, seed=1)
        a = link.attach(Interface("a"))
        link.attach(Interface("void"))  # exists but no server
        stack_a = UdpStack(a)
        client = CoapClient(kernel, stack_a.socket(40000))
        outcomes = []
        request = CoapMessage(mtype=coap.CON, code=coap.GET)
        request.add_uri_path("/r")
        client.request("void", 5683, request,
                       on_response=lambda r: outcomes.append("response"),
                       on_timeout=lambda: outcomes.append("timeout"))
        kernel.run(until_us=300_000_000)
        assert outcomes == ["timeout"]
        assert client.timeouts == 1

    def test_duplicate_con_replayed_from_cache(self, kernel, network):
        _link, stack_a, stack_b = network
        hits = []
        server = CoapServer(kernel, stack_b.socket(5683), threaded=False)

        def handler(req, dg):
            hits.append(1)
            return req.reply(coap.CONTENT, b"once")

        server.register("/once", handler)
        raw_replies = []
        sock = stack_a.socket(40000)
        sock.on_datagram = lambda dg: raw_replies.append(dg.payload)
        request = CoapMessage(mtype=coap.CON, code=coap.GET, message_id=5,
                              token=b"\x09")
        request.add_uri_path("/once")
        sock.send_to("node-b", 5683, request.encode())
        kernel.run_until_idle()
        sock.send_to("node-b", 5683, request.encode())  # retransmit
        kernel.run_until_idle()
        assert len(hits) == 1  # handler ran once
        assert len(raw_replies) == 2  # but both requests were answered

    def test_blockwise_get_reassembles(self, kernel, network):
        _link, stack_a, stack_b = network
        blob = bytes(range(256)) * 3  # 768 B
        server = CoapServer(kernel, stack_b.socket(5683))
        server.register_blob("/fw/img", lambda: blob)
        client = CoapClient(kernel, stack_a.socket(40000))
        results = []
        client.get_blockwise("node-b", 5683, "/fw/img", results.append)
        kernel.run_until_idle()
        assert results == [blob]

    def test_container_resource_bridge(self, kernel, engine, network):
        from repro.core import FC_HOOK_COAP
        from repro.workloads import coap_handler_program

        _link, stack_a, stack_b = network
        tenant = engine.create_tenant("A")
        tenant.store.store(0x10, 2155)
        container = engine.load(coap_handler_program(), tenant=tenant)
        engine.attach(container, FC_HOOK_COAP)
        server = CoapServer(kernel, stack_b.socket(5683))
        server.register_container("/sensor/temp", engine, container)
        client = CoapClient(kernel, stack_a.socket(40000))
        replies = []
        request = CoapMessage(mtype=coap.CON, code=coap.GET, token=b"\x01\x02")
        request.add_uri_path("/sensor/temp")
        client.request("node-b", 5683, request, replies.append)
        kernel.run_until_idle()
        assert replies[0].code == coap.CONTENT
        assert replies[0].payload == b"2155"

    def test_faulting_container_resource_returns_500(self, kernel, engine, network):
        from repro.core import FC_HOOK_COAP
        from repro.vm import assemble

        _link, stack_a, stack_b = network
        bad = engine.load(assemble(
            "lddw r1, 0xbad\n    ldxdw r0, [r1]\n    exit"))
        engine.attach(bad, FC_HOOK_COAP)
        server = CoapServer(kernel, stack_b.socket(5683))
        server.register_container("/bad", engine, bad)
        client = CoapClient(kernel, stack_a.socket(40000))
        replies = []
        request = CoapMessage(mtype=coap.CON, code=coap.GET)
        request.add_uri_path("/bad")
        client.request("node-b", 5683, request, replies.append)
        kernel.run_until_idle()
        assert replies[0].code == coap.INTERNAL_SERVER_ERROR


class TestGroupFrameSharing:
    """Every member of a group hears one frame object; the layers above
    parse it once and hand each server the same read-only request."""

    def test_members_share_one_payload_and_one_request(self, kernel):
        link = Link(kernel, loss=0.0, seed=1)
        sender = UdpStack(link.attach(Interface("sender")))
        seen = []
        for index in range(3):
            iface = link.attach(Interface(f"member{index}"))
            link.join("ff15::all", iface)
            server = CoapServer(kernel, UdpStack(iface).socket(5683),
                                threaded=False)
            server.register("/hello", lambda request, datagram: seen.append(
                (request, datagram)))
        message = CoapMessage(mtype=coap.NON, code=coap.POST, payload=b"hi")
        message.add_uri_path("/hello")
        sender.socket(49000).send_to("ff15::all", 5683, message.encode())
        kernel.run_until_idle()
        assert len(seen) == 3
        request, datagram = seen[0]
        assert all(r is request and d.payload is datagram.payload
                   for r, d in seen)
        assert [d.src_addr for _, d in seen] == ["sender"] * 3
        assert request.payload == b"hi"
        assert request.option(coap.OPT_URI_PATH) == b"hello"
        with pytest.raises(AttributeError):
            request.add_option(coap.OPT_CONTENT_FORMAT, b"")

    def test_unicast_frames_are_parsed_per_frame(self, kernel, network):
        link, stack_a, stack_b = network
        received = []
        stack_b.socket(1).on_datagram = received.append
        sender = stack_a.socket(2)
        for _ in range(2):
            sender.send_to("node-b", 1, b"same")
            kernel.run_until_idle()
        assert [dg.payload for dg in received] == [b"same", b"same"]
        assert received[0].payload is not received[1].payload
