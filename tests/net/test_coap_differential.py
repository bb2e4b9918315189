"""CoAP codec differential: the fast codec against the straightforward one.

:class:`~repro.net.coap.CoapMessage` decodes in one pass with short
option headers inline and encodes without sorting a single option.  The
reference below is the codec as it was before those fast paths, kept
verbatim: an option header is always split by nested helpers, options
are always sorted, the message is filled in field by field.  Generated
inputs must give the same answer from both:

* arbitrary bytes (biased towards a valid version nibble, so the option
  walk is reached): the same accept/reject, the same error text, and on
  accept the same fields;
* well-formed messages, with option deltas and lengths across the
  nibble / 13 / 269 boundaries, empty option values and 0-8 byte
  tokens: the same bytes on the air, and a decode that gives the
  message back.

The fast codec parses a message's tail (options, marker, payload) once
and keeps it in a memo keyed by the tail's bytes, and a sender may hand
it a tail encoded once for many messages.  So both kinds of input are
also decoded three ways — cold, as a memo hit under another header, and
under ``memos_disabled()`` — and each answer equals the reference's,
errors included; a message built around a pre-encoded tail puts the
reference's bytes on the air; and a decoded message's options are its
own to change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hypothesis import given, settings, strategies as st

from repro.memo import memos_disabled
from repro.net import coap
from repro.net.coap import COAP_VERSION, CoapError, CoapMessage

# -- the reference codec ------------------------------------------------------


@dataclass
class RefMessage:
    mtype: int = 0
    code: int = 1
    message_id: int = 0
    token: bytes = b""
    options: list[tuple[int, bytes]] = field(default_factory=list)
    payload: bytes = b""

    def add_option(self, number: int, value: bytes) -> "RefMessage":
        self.options.append((number, value))
        return self

    def encode(self) -> bytes:
        if not 0 <= len(self.token) <= 8:
            raise CoapError(f"token length {len(self.token)} out of range")
        out = bytearray()
        out.append((COAP_VERSION << 6) | (self.mtype << 4) | len(self.token))
        out.append(self.code & 0xFF)
        out += self.message_id.to_bytes(2, "big")
        out += self.token
        last_number = 0
        for number, value in sorted(self.options, key=lambda item: item[0]):
            delta = number - last_number
            last_number = number
            out += _ref_encode_option_header(delta, len(value))
            out += value
        if self.payload:
            out.append(0xFF)
            out += self.payload
        return bytes(out)

    @classmethod
    def decode(cls, raw: bytes) -> "RefMessage":
        if len(raw) < 4:
            raise CoapError("message shorter than the base header")
        version = raw[0] >> 6
        if version != COAP_VERSION:
            raise CoapError(f"unsupported CoAP version {version}")
        mtype = (raw[0] >> 4) & 0x3
        tkl = raw[0] & 0xF
        if tkl > 8:
            raise CoapError(f"token length {tkl} is reserved")
        msg = cls(
            mtype=mtype,
            code=raw[1],
            message_id=int.from_bytes(raw[2:4], "big"),
        )
        pos = 4
        if pos + tkl > len(raw):
            raise CoapError("truncated token")
        msg.token = raw[pos : pos + tkl]
        pos += tkl
        number = 0
        while pos < len(raw):
            if raw[pos] == 0xFF:
                payload = raw[pos + 1 :]
                if not payload:
                    raise CoapError("payload marker with empty payload")
                msg.payload = payload
                break
            delta, length, pos = _ref_decode_option_header(raw, pos)
            number += delta
            if pos + length > len(raw):
                raise CoapError("truncated option value")
            msg.add_option(number, raw[pos : pos + length])
            pos += length
        return msg


def _ref_encode_option_header(delta: int, length: int) -> bytes:
    def split(value: int) -> tuple[int, bytes]:
        if value < 13:
            return value, b""
        if value < 269:
            return 13, bytes([value - 13])
        return 14, (value - 269).to_bytes(2, "big")

    delta_nibble, delta_ext = split(delta)
    length_nibble, length_ext = split(length)
    return bytes([(delta_nibble << 4) | length_nibble]) + delta_ext + length_ext


def _ref_decode_option_header(raw: bytes, pos: int) -> tuple[int, int, int]:
    byte = raw[pos]
    pos += 1
    delta, length = byte >> 4, byte & 0xF
    if delta == 15 or length == 15:
        raise CoapError("reserved option nibble 15")

    def extend(nibble: int) -> int:
        nonlocal pos
        if nibble == 13:
            if pos + 1 > len(raw):
                raise CoapError("truncated extended option header")
            value = raw[pos] + 13
            pos += 1
            return value
        if nibble == 14:
            if pos + 2 > len(raw):
                raise CoapError("truncated extended option header")
            value = int.from_bytes(raw[pos : pos + 2], "big") + 269
            pos += 2
            return value
        return nibble

    delta = extend(delta)
    length = extend(length)
    return delta, length, pos


# -- strategies ---------------------------------------------------------------

#: One option header byte, weighted towards the extended and reserved
#: nibbles, followed by up to two extension bytes.
option_header = st.tuples(
    st.sampled_from([0, 1, 5, 11, 12, 13, 14, 15]),
    st.sampled_from([0, 1, 5, 12, 13, 14, 15]),
    st.binary(max_size=2),
).map(lambda t: bytes([(t[0] << 4) | t[1]]) + t[2])

#: Bytes that start like a CoAP message and then go anywhere.
coapish = st.tuples(
    st.integers(0, 3), st.integers(0, 15), st.binary(min_size=3, max_size=3),
    st.binary(max_size=9),
    st.lists(st.one_of(option_header, st.binary(max_size=20),
                       st.just(b"\xff")), max_size=8),
).map(lambda t: bytes([0x40 | (t[0] << 4) | t[1]]) + t[2] + t[3]
      + b"".join(t[4]))

raw_inputs = st.one_of(st.binary(max_size=64), coapish)

#: Option numbers clustered at the delta boundaries the header encodes
#: differently: < 13, 13..268 and 269 and up.
option_number = st.one_of(
    st.integers(0, 14), st.integers(260, 280), st.integers(0, 2000),
    st.sampled_from([11, 12, 23, 27, 268, 269, 65535 + 269]),
)
#: Option values, many exactly at the length boundaries (12/13/14 and
#: 268/269/270 bytes) and many empty.
option_value = st.one_of(
    st.binary(max_size=14),
    st.sampled_from([0, 12, 13, 14, 268, 269, 270]).flatmap(
        lambda size: st.binary(min_size=size, max_size=size)),
)
messages = st.tuples(
    st.integers(0, 3), st.integers(0, 255), st.integers(0, 0xFFFF),
    st.binary(max_size=8),
    st.lists(st.tuples(option_number, option_value), max_size=6),
    st.binary(max_size=40),
)


def fields(message) -> tuple:
    return (message.mtype, message.code, message.message_id, message.token,
            message.options, message.payload)


def outcome(decode, raw: bytes):
    try:
        return "ok", fields(decode(raw))
    except CoapError as exc:
        return "error", str(exc)


@settings(max_examples=600, deadline=None)
@given(raw=raw_inputs)
def test_decode_matches_the_reference(raw):
    assert outcome(CoapMessage.decode, raw) == outcome(RefMessage.decode, raw)


@settings(max_examples=300, deadline=None)
@given(message=messages)
def test_encode_matches_the_reference(message):
    mtype, code, mid, token, options, payload = message
    fast = CoapMessage(mtype, code, mid, token, list(options), payload)
    reference = RefMessage(mtype, code, mid, token, list(options), payload)
    raw = reference.encode()
    assert fast.encode() == raw
    decoded = CoapMessage.decode(raw)
    assert fields(decoded) == fields(RefMessage.decode(raw))
    assert decoded.options == sorted(options, key=lambda item: item[0])
    assert (decoded.token, decoded.payload) == (token, payload)


@settings(max_examples=200, deadline=None)
@given(token=st.binary(min_size=9, max_size=12))
def test_overlong_token_is_refused_alike(token):
    def refusal(message) -> str:
        try:
            message.encode()
        except CoapError as exc:
            return str(exc)
        return "encoded"

    assert refusal(CoapMessage(token=token)) == refusal(RefMessage(token=token))


# -- the tail memo ------------------------------------------------------------


def other_header(raw: bytes) -> bytes:
    """``raw`` with another message ID: the same tail, another frame."""
    if len(raw) < 4:
        return raw
    return raw[:2] + bytes([raw[2] ^ 0x5A, raw[3] ^ 0xA5]) + raw[4:]


def assert_three_ways(raw: bytes) -> None:
    """Cold, as a memo hit under another header, and with every memo
    off, the decode of ``raw`` is the reference's."""
    coap._tails.clear()
    assert outcome(CoapMessage.decode, raw) == outcome(RefMessage.decode, raw)
    stored = len(coap._tails)
    warm = other_header(raw)
    assert outcome(CoapMessage.decode, warm) == outcome(RefMessage.decode,
                                                         warm)
    assert coap._tails.hits == stored  # a stored tail was a hit
    with memos_disabled():
        assert (outcome(CoapMessage.decode, raw)
                == outcome(RefMessage.decode, raw))


@settings(max_examples=400, deadline=None)
@given(raw=raw_inputs)
def test_arbitrary_bytes_decode_alike_cold_warm_and_unshared(raw):
    assert_three_ways(raw)


@settings(max_examples=300, deadline=None)
@given(message=messages)
def test_messages_decode_alike_cold_warm_and_unshared(message):
    mtype, code, mid, token, options, payload = message
    raw = RefMessage(mtype, code, mid, token, list(options), payload).encode()
    assert_three_ways(raw)


@settings(max_examples=300, deadline=None)
@given(message=messages)
def test_a_pre_encoded_tail_sends_the_reference_bytes(message):
    mtype, code, mid, token, options, payload = message
    raw = RefMessage(mtype, code, mid, token, list(options), payload).encode()
    tail = coap.encode_tail(tuple(options), payload)
    assert CoapMessage(mtype, code, mid, token, tuple(options), payload,
                       tail).encode() == raw


@settings(max_examples=200, deadline=None)
@given(message=messages, extra=st.tuples(option_number, option_value))
def test_a_decoded_message_owns_its_options(message, extra):
    mtype, code, mid, token, options, payload = message
    raw = RefMessage(mtype, code, mid, token, list(options), payload).encode()
    first = CoapMessage.decode(raw)
    first.add_option(*extra)
    first.options.reverse()
    first.options[:1] = []
    assert fields(CoapMessage.decode(raw)) == fields(RefMessage.decode(raw))


def test_a_tail_longer_than_a_block_is_parsed_but_not_kept():
    raw = RefMessage(2, 0x45, 7, b"\x01", [(23, b"\x0d")],
                     bytes(range(256)) * 8).encode()
    coap._tails.clear()
    assert outcome(CoapMessage.decode, raw) == outcome(RefMessage.decode, raw)
    assert len(coap._tails) == 0
