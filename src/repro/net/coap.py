"""CoAP message codec and reliability (RFC 7252 subset).

Implements what the paper's update and sensor paths need: the 4-byte
header, tokens, option delta encoding (with the 13/269 extended forms),
payload marker, CON/ACK exchange with binary exponential backoff, and the
Block2 option (RFC 7959) used for SUIT payload fetches.

Every simulated frame is encoded once and decoded once per hop, so the
codec keeps a fast path.  An option header whose delta and length both
fit the 4-bit nibble (< 13, nearly every option this stack sends) is
read and written inline; the 13/269 extended forms and the reserved
nibble 15 go through :func:`_decode_option_header` and
:func:`_encode_option_header`.  Decode is one pass over the buffer and
builds the message with one constructor call; encode sorts the options
only when there is more than one.  The bytes on the air, the fields
decoded and the errors raised are those of the straightforward codec
that ``tests/net/test_coap_differential.py`` keeps as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

COAP_VERSION = 1
COAP_PORT = 5683

# Message types.
CON, NON, ACK, RST = 0, 1, 2, 3

# Method and response codes (class.detail packed as in RFC 7252).


def code(class_: int, detail: int) -> int:
    return (class_ << 5) | detail


GET = code(0, 1)
POST = code(0, 2)
PUT = code(0, 3)
DELETE = code(0, 4)
CREATED = code(2, 1)
CHANGED = code(2, 4)
CONTENT = code(2, 5)
BAD_REQUEST = code(4, 0)
UNAUTHORIZED = code(4, 1)
FORBIDDEN = code(4, 3)
NOT_FOUND = code(4, 4)
INTERNAL_SERVER_ERROR = code(5, 0)

# Option numbers.
OPT_URI_PATH = 11
OPT_CONTENT_FORMAT = 12
OPT_BLOCK2 = 23
OPT_BLOCK1 = 27

#: Retransmission parameters (RFC 7252 §4.8, scaled for simulation).
ACK_TIMEOUT_US = 2_000_000.0
MAX_RETRANSMIT = 4


class CoapError(Exception):
    """Malformed CoAP message."""


def code_string(value: int) -> str:
    """Render a code as the usual dotted form, e.g. 0x45 -> '2.05'."""
    return f"{value >> 5}.{value & 0x1F:02d}"


_option_number = itemgetter(0)


@dataclass(slots=True)
class CoapMessage:
    """One CoAP PDU."""

    mtype: int = CON
    code: int = GET
    message_id: int = 0
    token: bytes = b""
    options: list[tuple[int, bytes]] = field(default_factory=list)
    payload: bytes = b""

    # -- option helpers -----------------------------------------------------

    def add_option(self, number: int, value: bytes) -> "CoapMessage":
        self.options.append((number, value))
        return self

    def add_uri_path(self, path: str) -> "CoapMessage":
        for segment in path.strip("/").split("/"):
            if segment:
                self.add_option(OPT_URI_PATH, segment.encode())
        return self

    def option(self, number: int) -> bytes | None:
        for num, value in self.options:
            if num == number:
                return value
        return None

    @property
    def uri_path(self) -> str:
        return "/" + "/".join([
            value.decode() for num, value in self.options
            if num == OPT_URI_PATH
        ])

    # -- codec ------------------------------------------------------------------

    def encode(self) -> bytes:
        token = self.token
        if len(token) > 8:
            raise CoapError(f"token length {len(token)} out of range")
        out = bytearray()
        out.append((COAP_VERSION << 6) | (self.mtype << 4) | len(token))
        out.append(self.code & 0xFF)
        out += self.message_id.to_bytes(2, "big")
        out += token
        options = self.options
        if len(options) > 1:
            options = sorted(options, key=_option_number)
        last_number = 0
        for number, value in options:
            delta = number - last_number
            last_number = number
            length = len(value)
            if delta < 13 and length < 13:
                out.append((delta << 4) | length)
            else:
                out += _encode_option_header(delta, length)
            out += value
        if self.payload:
            out.append(0xFF)
            out += self.payload
        return bytes(out)

    @classmethod
    def decode(cls, raw: bytes) -> "CoapMessage":
        size = len(raw)
        if size < 4:
            raise CoapError("message shorter than the base header")
        first = raw[0]
        if first >> 6 != COAP_VERSION:
            raise CoapError(f"unsupported CoAP version {first >> 6}")
        tkl = first & 0xF
        if tkl > 8:
            raise CoapError(f"token length {tkl} is reserved")
        pos = 4 + tkl
        if pos > size:
            raise CoapError("truncated token")
        options: list[tuple[int, bytes]] = []
        payload = b""
        number = 0
        while pos < size:
            byte = raw[pos]
            if byte == 0xFF:
                payload = raw[pos + 1:]
                if not payload:
                    raise CoapError("payload marker with empty payload")
                break
            delta = byte >> 4
            length = byte & 0xF
            if delta < 13 and length < 13:
                pos += 1
            else:
                delta, length, pos = _decode_option_header(raw, pos)
            number += delta
            end = pos + length
            if end > size:
                raise CoapError("truncated option value")
            options.append((number, raw[pos:end]))
            pos = end
        return cls((first >> 4) & 0x3, raw[1], (raw[2] << 8) | raw[3],
                   raw[4:4 + tkl], options, payload)

    def reply(self, response_code: int, payload: bytes = b"",
              mtype: int | None = None) -> "CoapMessage":
        """Build a piggybacked (ACK) response to this request."""
        return CoapMessage(ACK if mtype is None else mtype, response_code,
                           self.message_id, self.token, [], payload)


def _split_extended(value: int) -> tuple[int, bytes]:
    """An option delta or length as its nibble and extension bytes."""
    if value < 13:
        return value, b""
    if value < 269:
        return 13, bytes([value - 13])
    return 14, (value - 269).to_bytes(2, "big")


def _encode_option_header(delta: int, length: int) -> bytes:
    delta_nibble, delta_ext = _split_extended(delta)
    length_nibble, length_ext = _split_extended(length)
    return bytes([(delta_nibble << 4) | length_nibble]) + delta_ext + length_ext


def _extended(raw: bytes, pos: int, nibble: int) -> tuple[int, int]:
    """Read one delta or length whose nibble is 13 or 14."""
    if nibble == 13:
        if pos + 1 > len(raw):
            raise CoapError("truncated extended option header")
        return raw[pos] + 13, pos + 1
    if pos + 2 > len(raw):
        raise CoapError("truncated extended option header")
    return int.from_bytes(raw[pos:pos + 2], "big") + 269, pos + 2


def _decode_option_header(raw: bytes, pos: int) -> tuple[int, int, int]:
    """The slow path: an option header with an extended or reserved nibble."""
    byte = raw[pos]
    pos += 1
    delta, length = byte >> 4, byte & 0xF
    if delta == 15 or length == 15:
        raise CoapError("reserved option nibble 15")
    if delta >= 13:
        delta, pos = _extended(raw, pos, delta)
    if length >= 13:
        length, pos = _extended(raw, pos, length)
    return delta, length, pos
