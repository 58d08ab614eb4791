"""The Internet checksum (RFC 1071).

Used for IPv4 headers, ICMP messages, and the UDP/TCP pseudo-header
checksums emitted into pcap captures.

The checksum is computed with a machine-order ``array('H')`` fold rather
than ``struct.iter_unpack``: RFC 1071 §2(B) notes the one's-complement
sum is byte-order independent, so we sum native 16-bit words in C speed
and byte-swap the folded result once on little-endian hosts.  This is
the hottest pure function on the wire-encoding path (three checksums per
encoded TCP/UDP packet).
"""

import struct
import sys
from array import array

_SWAP_RESULT = sys.byteorder == "little"


def internet_checksum(data):
    """Compute the 16-bit one's-complement checksum of ``data``.

    ``data`` may be any bytes-like object (``bytes``, ``bytearray``,
    ``memoryview``).  Odd-length input is padded with a zero byte, per
    RFC 1071.  The return value is the checksum field value (i.e. already
    complemented).
    """
    if not isinstance(data, (bytes, bytearray)):
        # array('H', memoryview) would widen each *byte* to a word.
        data = bytes(data)
    if len(data) % 2:
        data = bytes(data) + b"\x00"
    total = sum(array("H", data))
    # Fold carries back in until the sum fits in 16 bits.
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    if _SWAP_RESULT:
        total = ((total & 0xFF) << 8) | (total >> 8)
    return (~total) & 0xFFFF


def verify_checksum(data):
    """True when ``data`` (including its checksum field) sums to zero."""
    return internet_checksum(data) == 0


_PSEUDO = struct.Struct("!4s4sBBH")
_pseudo_cache = {}


def pseudo_header(src_ip, dst_ip, protocol, length):
    """IPv4 pseudo-header used by UDP and TCP checksums.

    Cached: an experiment reuses a handful of (src, dst, protocol,
    length) combinations thousands of times.
    """
    key = (src_ip, dst_ip, protocol, length)
    cached = _pseudo_cache.get(key)
    if cached is None:
        cached = _PSEUDO.pack(src_ip.packed, dst_ip.packed, 0, protocol,
                              length)
        if len(_pseudo_cache) < 4096:
            _pseudo_cache[key] = cached
    return cached
