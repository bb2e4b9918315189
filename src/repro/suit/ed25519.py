"""Pure-Python Ed25519 (RFC 8032) for SUIT manifest authentication.

The paper's update pipeline signs manifests with ed25519 (Appendix A).
This is a from-scratch implementation over the twisted Edwards curve
edwards25519, using extended homogeneous coordinates; it is validated
against the RFC 8032 test vectors in the test suite.  Pure Python is slow
(~10 ms per operation) but entirely adequate for the simulation.
"""

from __future__ import annotations

import hashlib

P = 2**255 - 19
L = 2**252 + 27742317777372353535851937790883648493
D = (-121665 * pow(121666, P - 2, P)) % P

#: Base point.
_BY = (4 * pow(5, P - 2, P)) % P
_BX: int


def _recover_x(y: int, sign: int) -> int:
    x2 = (y * y - 1) * pow(D * y * y + 1, P - 2, P) % P
    if x2 == 0:
        if sign:
            raise ValueError("invalid point encoding")
        return 0
    x = pow(x2, (P + 3) // 8, P)
    if (x * x - x2) % P:
        x = x * pow(2, (P - 1) // 4, P) % P
    if (x * x - x2) % P:
        raise ValueError("invalid point encoding")
    if (x & 1) != sign:
        x = P - x
    return x


_BX = _recover_x(_BY, 0)
#: Base point in extended coordinates (X, Y, Z, T).
_B = (_BX, _BY, 1, (_BX * _BY) % P)
_IDENTITY = (0, 1, 1, 0)


def _add(p, q):
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % P
    b = (y1 + x1) * (y2 + x2) % P
    c = 2 * t1 * t2 * D % P
    dd = 2 * z1 * z2 % P
    e, f, g, h = b - a, dd - c, dd + c, b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _scalar_mul(scalar: int, point):
    result = _IDENTITY
    while scalar > 0:
        if scalar & 1:
            result = _add(result, point)
        point = _add(point, point)
        scalar >>= 1
    return result


def _compress(point) -> bytes:
    x, y, z, _t = point
    zinv = pow(z, P - 2, P)
    x, y = x * zinv % P, y * zinv % P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _decompress(raw: bytes):
    if len(raw) != 32:
        raise ValueError("point encoding must be 32 bytes")
    y = int.from_bytes(raw, "little")
    sign = y >> 255
    y &= (1 << 255) - 1
    if y >= P:
        raise ValueError("invalid point encoding")
    x = _recover_x(y, sign)
    return (x, y, 1, (x * y) % P)


def _equal(p, q) -> bool:
    x1, y1, z1, _ = p
    x2, y2, z2, _ = q
    return (x1 * z2 - x2 * z1) % P == 0 and (y1 * z2 - y2 * z1) % P == 0


def _sha512(*chunks: bytes) -> bytes:
    digest = hashlib.sha512()
    for chunk in chunks:
        digest.update(chunk)
    return digest.digest()


def _clamp(scalar_bytes: bytes) -> int:
    value = int.from_bytes(scalar_bytes, "little")
    value &= (1 << 254) - 8
    value |= 1 << 254
    return value


def public_key(seed: bytes) -> bytes:
    """Derive the 32-byte public key from a 32-byte seed."""
    if len(seed) != 32:
        raise ValueError("seed must be 32 bytes")
    scalar = _clamp(_sha512(seed)[:32])
    return _compress(_scalar_mul(scalar, _B))


def sign(message: bytes, seed: bytes) -> bytes:
    """Produce a 64-byte signature over ``message``."""
    if len(seed) != 32:
        raise ValueError("seed must be 32 bytes")
    hashed = _sha512(seed)
    scalar = _clamp(hashed[:32])
    prefix = hashed[32:]
    pub = _compress(_scalar_mul(scalar, _B))
    r = int.from_bytes(_sha512(prefix, message), "little") % L
    r_point = _compress(_scalar_mul(r, _B))
    k = int.from_bytes(_sha512(r_point, pub, message), "little") % L
    s = (r + k * scalar) % L
    return r_point + s.to_bytes(32, "little")


def verify(message: bytes, signature: bytes, public: bytes) -> bool:
    """Check a signature; returns False on any malformation."""
    if len(signature) != 64 or len(public) != 32:
        return False
    try:
        a_point = _decompress(public)
        r_point = _decompress(signature[:32])
    except ValueError:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= L:
        return False
    k = int.from_bytes(
        _sha512(signature[:32], public, message), "little"
    ) % L
    # Check [8][s]B == [8]R + [8][k]A (cofactored verification).
    lhs = _scalar_mul(8 * s, _B)
    rhs = _add(_scalar_mul(8, r_point), _scalar_mul(8 * k, a_point))
    return _equal(lhs, rhs)
