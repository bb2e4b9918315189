"""COSE_Sign1 (RFC 9052 subset) over Ed25519, for SUIT authentication."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.suit import cbor, ed25519

#: COSE header parameter and algorithm identifiers.
HEADER_ALG = 1
ALG_EDDSA = -8
#: CBOR tag for COSE_Sign1.
TAG_SIGN1 = 18

#: Host-side verification memo, keyed by the exact (protected header,
#: payload, signature, public key) bytes.  A fleet publish hands the
#: *same* envelope to N simulated devices; the pure-Python Ed25519 math
#: is the dominant host cost of each device's verify, and — like the
#: image cache — sharing it is a wall-clock effect only: every device
#: still charges the full modelled ``SIG_VERIFY_CYCLES`` on its own
#: virtual clock.  Only successful verifications are memoized (a forgery
#: is re-checked every time), and each stored key already passed the
#: header check, so a hit skips the header decode, the ``Sig_structure``
#: encode and Ed25519 alike.
_VERIFY_MEMO: "OrderedDict[tuple[bytes, bytes, bytes, bytes], bool]" = (
    OrderedDict())
_VERIFY_MEMO_MAX = 256


class CoseError(Exception):
    """Malformed or unverifiable COSE structure."""


@dataclass(frozen=True)
class CoseSign1:
    """A COSE_Sign1 message: [protected, unprotected, payload, signature]."""

    protected: bytes
    payload: bytes
    signature: bytes

    @staticmethod
    def _sig_structure(protected: bytes, payload: bytes) -> bytes:
        return cbor.encode(["Signature1", protected, b"", payload])

    @classmethod
    def sign(cls, payload: bytes, seed: bytes) -> "CoseSign1":
        """Sign ``payload`` with an Ed25519 seed key."""
        protected = cbor.encode({HEADER_ALG: ALG_EDDSA})
        signature = ed25519.sign(cls._sig_structure(protected, payload), seed)
        return cls(protected=protected, payload=payload, signature=signature)

    def verify(self, public_key: bytes) -> bool:
        """True when the signature validates under ``public_key``."""
        memo_key = (self.protected, self.payload, self.signature,
                    bytes(public_key))
        if memo_key in _VERIFY_MEMO:
            _VERIFY_MEMO.move_to_end(memo_key)
            return True
        try:
            header = cbor.decode(self.protected)
        except Exception:  # an undecodable header authenticates nothing
            return False
        if not isinstance(header, dict) or header.get(HEADER_ALG) != ALG_EDDSA:
            return False
        message = self._sig_structure(self.protected, self.payload)
        ok = ed25519.verify(message, self.signature, public_key)
        if ok:
            _VERIFY_MEMO[memo_key] = True
            if len(_VERIFY_MEMO) > _VERIFY_MEMO_MAX:
                _VERIFY_MEMO.popitem(last=False)
        return ok

    def encode(self) -> bytes:
        return cbor.encode(
            cbor.Tag(TAG_SIGN1,
                     [self.protected, {}, self.payload, self.signature])
        )

    @classmethod
    def decode(cls, raw: bytes) -> "CoseSign1":
        item = cbor.decode(raw)
        if isinstance(item, cbor.Tag):
            if item.number != TAG_SIGN1:
                raise CoseError(f"unexpected CBOR tag {item.number}")
            item = item.value
        if not isinstance(item, list) or len(item) != 4:
            raise CoseError("COSE_Sign1 must be a 4-element array")
        protected, _unprotected, payload, signature = item
        if not isinstance(protected, bytes) or not isinstance(payload, bytes) \
                or not isinstance(signature, bytes):
            raise CoseError("COSE_Sign1 fields have wrong types")
        return cls(protected=protected, payload=payload, signature=signature)
