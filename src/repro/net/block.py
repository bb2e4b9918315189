"""Block-wise transfers (RFC 7959 Block2) for large payloads over CoAP.

SUIT payloads are far larger than one 802.15.4 frame; the update worker
fetches them block by block with the Block2 option, which this module
encodes/decodes and slices.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.net.coap import CoapError


class BlockOption(NamedTuple):
    """Decoded Block2/Block1 option value.

    Immutable like any option value; a named tuple rather than a frozen
    dataclass because one is built per block on either side of every
    block-wise exchange, and a tuple is several times cheaper to make.
    """

    num: int
    more: bool
    szx: int

    @property
    def size(self) -> int:
        return 16 << self.szx

    @property
    def offset(self) -> int:
        return self.num * self.size

    def encode(self) -> bytes:
        if self.num >= 1 << 20:
            raise CoapError(f"block number {self.num} out of range")
        value = (self.num << 4) | (0x8 if self.more else 0) | self.szx
        if value == 0:
            return b""
        length = (value.bit_length() + 7) // 8
        return value.to_bytes(length, "big")

    @classmethod
    def decode(cls, raw: bytes) -> "BlockOption":
        if len(raw) > 3:
            raise CoapError("block option longer than 3 bytes")
        value = int.from_bytes(raw, "big")
        szx = value & 0x7
        if szx == 7:
            raise CoapError("reserved szx 7")
        return cls(value >> 4, bool(value & 0x8), szx)


def slice_block(payload: bytes, block: BlockOption) -> tuple[bytes, bool]:
    """Extract one block; returns (chunk, more_follows)."""
    start = block.offset
    if start > len(payload):
        raise CoapError(
            f"block {block.num} beyond payload of {len(payload)} bytes"
        )
    end = min(start + block.size, len(payload))
    return payload[start:end], end < len(payload)
