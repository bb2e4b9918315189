"""Ed25519 (RFC 8032 vectors) and COSE_Sign1."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.suit import ed25519
from repro.suit.cose import CoseError, CoseSign1

# RFC 8032 §7.1 test vectors (seed, public key, message, signature).
RFC8032_VECTORS = [
    (
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
        "",
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
        "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
    ),
    (
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
        "72",
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
        "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
    ),
    (
        "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
        "af82",
        "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
        "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
    ),
]


class TestRFC8032:
    @pytest.mark.parametrize("seed_hex,pub_hex,msg_hex,sig_hex",
                             RFC8032_VECTORS, ids=["empty", "1byte", "2bytes"])
    def test_public_key_derivation(self, seed_hex, pub_hex, msg_hex, sig_hex):
        assert ed25519.public_key(bytes.fromhex(seed_hex)).hex() == pub_hex

    @pytest.mark.parametrize("seed_hex,pub_hex,msg_hex,sig_hex",
                             RFC8032_VECTORS, ids=["empty", "1byte", "2bytes"])
    def test_signature_matches_vector(self, seed_hex, pub_hex, msg_hex, sig_hex):
        signature = ed25519.sign(bytes.fromhex(msg_hex),
                                 bytes.fromhex(seed_hex))
        assert signature.hex() == sig_hex

    @pytest.mark.parametrize("seed_hex,pub_hex,msg_hex,sig_hex",
                             RFC8032_VECTORS, ids=["empty", "1byte", "2bytes"])
    def test_vector_verifies(self, seed_hex, pub_hex, msg_hex, sig_hex):
        assert ed25519.verify(bytes.fromhex(msg_hex),
                              bytes.fromhex(sig_hex),
                              bytes.fromhex(pub_hex))


class TestSignVerify:
    SEED = bytes(range(32))

    def test_sign_verify_roundtrip(self):
        public = ed25519.public_key(self.SEED)
        signature = ed25519.sign(b"femto-containers", self.SEED)
        assert ed25519.verify(b"femto-containers", signature, public)

    def test_tampered_message_fails(self):
        public = ed25519.public_key(self.SEED)
        signature = ed25519.sign(b"original", self.SEED)
        assert not ed25519.verify(b"tampered", signature, public)

    def test_tampered_signature_fails(self):
        public = ed25519.public_key(self.SEED)
        signature = bytearray(ed25519.sign(b"msg", self.SEED))
        signature[0] ^= 1
        assert not ed25519.verify(b"msg", bytes(signature), public)

    def test_wrong_key_fails(self):
        other = ed25519.public_key(bytes(range(1, 33)))
        signature = ed25519.sign(b"msg", self.SEED)
        assert not ed25519.verify(b"msg", signature, other)

    def test_malformed_inputs_return_false(self):
        public = ed25519.public_key(self.SEED)
        assert not ed25519.verify(b"m", b"short", public)
        assert not ed25519.verify(b"m", bytes(64), b"badkey")
        # s >= L is rejected.
        bad = ed25519.sign(b"m", self.SEED)[:32] + b"\xff" * 32
        assert not ed25519.verify(b"m", bad, public)

    def test_bad_seed_length_raises(self):
        with pytest.raises(ValueError):
            ed25519.sign(b"m", b"short")
        with pytest.raises(ValueError):
            ed25519.public_key(b"short")

    @settings(max_examples=10, deadline=None)
    @given(message=st.binary(max_size=64), seed=st.binary(min_size=32, max_size=32))
    def test_roundtrip_property(self, message, seed):
        assert ed25519.verify(message, ed25519.sign(message, seed),
                              ed25519.public_key(seed))


class TestCose:
    SEED = bytes(range(32))

    def test_sign1_roundtrip(self):
        public = ed25519.public_key(self.SEED)
        signed = CoseSign1.sign(b"payload", self.SEED)
        assert signed.verify(public)
        decoded = CoseSign1.decode(signed.encode())
        assert decoded.payload == b"payload"
        assert decoded.verify(public)

    def test_payload_tamper_detected(self):
        public = ed25519.public_key(self.SEED)
        signed = CoseSign1.sign(b"payload", self.SEED)
        forged = CoseSign1(protected=signed.protected, payload=b"other",
                           signature=signed.signature)
        assert not forged.verify(public)

    @pytest.mark.parametrize("protected", [
        bytes([0xA1, 0x01, 0x26]),  # {1: -7}: ES256, not EdDSA
        b"\xff",  # not CBOR: must verify False, not raise
        b"",
    ], ids=["es256", "reserved-byte", "empty"])
    def test_unusable_protected_header_rejected(self, protected):
        public = ed25519.public_key(self.SEED)
        signed = CoseSign1.sign(b"payload", self.SEED)
        hacked = CoseSign1(protected=protected, payload=signed.payload,
                           signature=signed.signature)
        assert not hacked.verify(public)

    def test_malformed_structures_rejected(self):
        from repro.suit import cbor

        with pytest.raises(CoseError):
            CoseSign1.decode(cbor.encode([1, 2, 3]))
        with pytest.raises(CoseError):
            CoseSign1.decode(cbor.encode(cbor.Tag(99, [b"", {}, b"", b""])))
        with pytest.raises(CoseError):
            CoseSign1.decode(cbor.encode(cbor.Tag(18, ["not-bytes", {}, b"", b""])))

    # After a genuine verify the memo holds its verdict; a hit must
    # answer only for the exact bytes that verified.

    @pytest.fixture()
    def genuine(self):
        public = ed25519.public_key(self.SEED)
        signed = CoseSign1.sign(b"manifest", self.SEED)
        assert signed.verify(public)  # stored in the memo
        assert signed.verify(public)  # and answered from it
        return signed, public

    def test_flipped_signature_byte_rejected(self, genuine):
        signed, public = genuine
        signature = bytearray(signed.signature)
        signature[17] ^= 0x01
        forged = CoseSign1(protected=signed.protected, payload=signed.payload,
                           signature=bytes(signature))
        assert not forged.verify(public)

    def test_other_public_key_rejected(self, genuine):
        signed, _public = genuine
        assert not signed.verify(ed25519.public_key(bytes(32)))

    def test_other_protected_header_rejected(self, genuine):
        """Same payload and signature under a different (still EdDSA)
        protected header: a different Sig_structure, so no verdict."""
        from repro.suit import cbor
        from repro.suit.cose import ALG_EDDSA, HEADER_ALG

        signed, public = genuine
        hacked = CoseSign1(protected=cbor.encode({HEADER_ALG: ALG_EDDSA,
                                                  4: b"kid"}),
                           payload=signed.payload,
                           signature=signed.signature)
        assert not hacked.verify(public)
