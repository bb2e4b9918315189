"""CoAP message codec and reliability (RFC 7252 subset).

Implements what the paper's update and sensor paths need: the 4-byte
header, tokens, option delta encoding (with the 13/269 extended forms),
payload marker, CON/ACK exchange with binary exponential backoff, and the
Block2 option (RFC 7959) used for SUIT payload fetches.

Every simulated frame is encoded once and decoded once per hop, and a
block-wise fetch sends the same blocks to every device of a fleet: two
messages for one block differ only in their header and token.  So the
codec splits a message in two.

* **Per frame:** the 4-byte header (type, code, message ID) and the
  token are written and read for every message.
* **Once per tail:** the *tail* — options, payload marker and payload —
  is encoded by :func:`encode_tail` once by whoever builds many messages
  with it (a repository's Block2 replies, a fetch's Block2 GETs), and a
  message that carries it in :attr:`CoapMessage.tail` writes only its
  header and token in front.  On receipt, :meth:`CoapMessage.decode`
  parses a tail once: the options and payload come from a
  :class:`~repro.memo.Memo` keyed by the tail's bytes (up to one
  block's worth), so the devices that hear one block share one payload
  object.  A decoded message gets its own options list; the option
  values and the payload are immutable ``bytes``.

Within a tail, an option header whose delta and length both fit the
4-bit nibble (< 13, nearly every option this stack sends) is read and
written inline; the 13/269 extended forms and the reserved nibble 15 go
through :func:`_decode_option_header` and :func:`_encode_option_header`.
Encode sorts the options only when there is more than one.  The bytes on
the air, the fields decoded and the errors raised are those of the
straightforward codec that ``tests/net/test_coap_differential.py`` keeps
as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from repro.memo import Memo

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
    #: :func:`encode_tail` of ``options`` and ``payload``, when the
    #: builder encoded it once for many messages; :meth:`encode` then
    #: writes only the header and token in front of it.  Whoever sets it
    #: leaves ``options`` and ``payload`` as they are.
    tail: bytes | None = field(default=None, compare=False, repr=False)

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
        tail = self.tail
        if tail is None:
            tail = encode_tail(self.options, self.payload)
        return (bytes(((COAP_VERSION << 6) | (self.mtype << 4) | len(token),
                       self.code & 0xFF))
                + self.message_id.to_bytes(2, "big") + token + tail)

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
        tail = raw[pos:]
        if len(tail) > MEMO_TAIL_BYTES:
            options, payload = _decode_tail(tail)
        else:
            options, payload = _tails.get_or_derive(tail, _decode_tail, tail)
        return cls((first >> 4) & 0x3, raw[1], (raw[2] << 8) | raw[3],
                   raw[4:pos], list(options), payload)

    def reply(self, response_code: int, payload: bytes = b"",
              mtype: int | None = None) -> "CoapMessage":
        """Build a piggybacked (ACK) response to this request."""
        return CoapMessage(ACK if mtype is None else mtype, response_code,
                           self.message_id, self.token, [], payload)


def encode_tail(options, payload: bytes) -> bytes:
    """A message's options, payload marker and payload, as encoded after
    its header and token."""
    out = bytearray()
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
    if payload:
        out.append(0xFF)
        out += payload
    return bytes(out)


def _decode_tail(tail: bytes) -> tuple[tuple[tuple[int, bytes], ...], bytes]:
    """The options and payload a message's tail encodes, in one pass."""
    size = len(tail)
    options = []
    payload = b""
    number = 0
    pos = 0
    while pos < size:
        byte = tail[pos]
        if byte == 0xFF:
            payload = tail[pos + 1:]
            if not payload:
                raise CoapError("payload marker with empty payload")
            break
        delta = byte >> 4
        length = byte & 0xF
        if delta < 13 and length < 13:
            pos += 1
        else:
            delta, length, pos = _decode_option_header(tail, pos)
        number += delta
        end = pos + length
        if end > size:
            raise CoapError("truncated option value")
        options.append((number, tail[pos:end]))
        pos = end
    return tuple(options), payload


#: Decoded tails keyed by their bytes: every device that hears one block
#: of a fetch parses it once between them and shares its payload object.
#: Sized for the distinct tails of one publish's exchanges (every block's
#: reply and GET, the triggers and the empty tails of acknowledgements).
_tails = Memo(128)

#: The longest tail the memo keeps: a Block2 reply of the largest block
#: (szx 6, 1,024 bytes) with its options and marker.  A longer message,
#: such as a group trigger carrying a whole payload, reaches each device
#: as one frame object that the receivers already parse once
#: (:mod:`repro.net.gcoap`), so keeping it would only hold its bytes.
MEMO_TAIL_BYTES = 1024 + 16


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
