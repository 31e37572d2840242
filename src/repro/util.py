"""Small shared utilities."""

from __future__ import annotations

import struct

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _fnv64(data: bytes) -> int:
    """64-bit FNV-1a over ``data``."""
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    return value


def _avalanche(value: int) -> int:
    """murmur3-style finalizer: FNV-1a's low bits are weakly mixed (they
    only ever see the low bits of the multiplications) and consumers take
    ``hash % small_n``, so spread entropy down before returning."""
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & _MASK64
    value ^= value >> 33
    value = (value * 0xC4CEB9FE1A85EC53) & _MASK64
    value ^= value >> 33
    return value


#: ``_FNV_PRIME ** k mod 2**64``: what ``k`` zero bytes do to an FNV-1a
#: state (XOR with a zero byte is the identity, so each is one multiply).
_ZERO_RUN = tuple(pow(_FNV_PRIME, k, 1 << 64) for k in range(17))


def stable_hash(parts: tuple[int, ...]) -> int:
    """Deterministic 64-bit FNV-1a over a tuple of ints.

    Python's builtin ``hash`` is salted per process; data plane hashing
    (sketches, ECMP, register indexing) must be reproducible across
    runs and across simulated devices, so everything hashes through
    this function.

    Each part is hashed as its 16-byte little-endian encoding: its
    significant bytes through the byte loop, the trailing zero run (12
    bytes or more of a 32-bit field) as one multiplication.
    """
    value = _FNV_OFFSET
    for part in parts:
        part = int(part)
        size = (part.bit_length() + 7) >> 3
        if size > 16:
            raise OverflowError("int too big to convert")
        # to_bytes raises OverflowError for a negative part
        for byte in part.to_bytes(size, "little", signed=False):
            value = ((value ^ byte) * _FNV_PRIME) & _MASK64
        value = (value * _ZERO_RUN[16 - size]) & _MASK64
    return _avalanche(value)


def _encode(part, out: bytearray) -> None:
    # bool before int: bool subclasses int but must not collide with 0/1.
    if part is None:
        out += b"N;"
    elif isinstance(part, bool):
        out += b"b1;" if part else b"b0;"
    elif isinstance(part, int):
        raw = part.to_bytes(max(1, (part.bit_length() + 8) // 8), "little", signed=True)
        out += b"i" + len(raw).to_bytes(4, "little") + raw
    elif isinstance(part, float):
        out += b"f" + struct.pack("<d", part)
    elif isinstance(part, str):
        raw = part.encode("utf-8")
        out += b"s" + len(raw).to_bytes(4, "little") + raw
    elif isinstance(part, bytes):
        out += b"y" + len(part).to_bytes(4, "little") + part
    elif isinstance(part, (tuple, list)):
        out += b"t" + len(part).to_bytes(4, "little")
        for item in part:
            _encode(item, out)
    else:
        raise TypeError(f"stable_digest cannot encode {type(part).__name__!r}")


def stable_digest(*parts) -> int:
    """Deterministic 64-bit digest of a heterogeneous value tree.

    Accepts ints, floats, bools, strings, bytes, ``None``, and
    arbitrarily nested tuples/lists thereof, encoding each with a type
    tag and length prefix so distinct structures cannot collide by
    concatenation (``("ab", "c")`` vs ``("a", "bc")``). The stable
    replacement for builtin ``hash()`` wherever a digest can reach a
    seed, report, or persisted value — builtin ``hash`` is salted per
    process and diverges across runs.
    """
    out = bytearray()
    for part in parts:
        _encode(part, out)
    return _avalanche(_fnv64(bytes(out)))
