"""Rendering simulation packets to real wire bytes (and back).

Sniffers in the testbed write genuine pcap files; the analysis pipeline
re-derives network-level RTTs by parsing them, exactly as the paper's
authors post-processed their captures.  That round trip requires real
encodings: this module produces RFC-conformant IPv4/ICMP/UDP/TCP bytes
with valid checksums, and parses them back into
:class:`~repro.net.packet.Packet` objects.

Payload bytes are deterministic filler (the byte count is what matters to
the simulation), except that probe ids are embedded in the first payload
bytes of UDP/ICMP probes so captures remain matchable.

Performance notes: every simulated packet that crosses a sniffer is
encoded (and later decoded) here, so the encoders lean on three caches —
precompiled :class:`struct.Struct` instances, memoised filler payloads
(an experiment uses a handful of payload sizes), and fully-encoded IPv4
headers keyed by the header fields (checksum included, since the IPv4
checksum covers only the header).  Decoding memoises
:class:`ipaddress.IPv4Address` construction the same way.
"""

import ipaddress
import struct

from repro.net.checksum import internet_checksum, pseudo_header
from repro.net.packet import (
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    ICMP_TIME_EXCEEDED,
    IPV4_HEADER_LEN,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    IcmpEcho,
    IcmpTimeExceeded,
    Packet,
    TcpSegment,
    UdpDatagram,
)

_FILLER = b"\xa5"

_U16 = struct.Struct("!H")
_U64 = struct.Struct("!Q")
_IPV4_HEADER = struct.Struct("!BBHHHBBH4s4s")
_ICMP_ECHO_HEADER = struct.Struct("!BBHHH")
_ICMP_ERROR_HEADER = struct.Struct("!BBHI")
_UDP_HEADER = struct.Struct("!HHHH")
_TCP_HEADER = struct.Struct("!HHIIBBHHH")
_TCP_PORTS_SEQ_ACK = struct.Struct("!HHII")
_U16_PAIR = struct.Struct("!HH")
_UDP_PORTS_LEN = struct.Struct("!HHH")

# Bounded memo caches.  Keys are low-cardinality within an experiment
# (payload sizes, header field combinations, endpoint addresses); the
# size caps only matter to pathological fuzzing workloads.
_CACHE_LIMIT = 4096
_filler_cache = {}
_ipv4_header_cache = {}
_address_cache = {}


def _filler_bytes(size):
    cached = _filler_cache.get(size)
    if cached is None:
        cached = _FILLER * size
        if len(_filler_cache) < _CACHE_LIMIT:
            _filler_cache[size] = cached
    return cached


def _payload_filler(size, probe_id=None):
    if probe_id is None:
        return _filler_bytes(size)
    tag = _U64.pack(probe_id & 0xFFFFFFFFFFFFFFFF)
    if size <= 8:
        return tag[:size]
    return tag + _filler_bytes(size - 8)


def _ipv4_header_for(packet, body_len, ident):
    """The encoded (checksummed) IPv4 header for a packet/body-length pair."""
    key = (body_len, ident, packet.ttl, packet.protocol,
           packet.src, packet.dst)
    header = _ipv4_header_cache.get(key)
    if header is None:
        header = _IPV4_HEADER.pack(
            (4 << 4) | 5,  # version 4, IHL 5 words
            0,  # DSCP/ECN
            IPV4_HEADER_LEN + body_len,
            ident & 0xFFFF,
            0,  # flags / fragment offset
            packet.ttl,
            packet.protocol,
            0,  # checksum placeholder
            packet.src.packed,
            packet.dst.packed,
        )
        checksum = internet_checksum(header)
        header = header[:10] + _U16.pack(checksum) + header[12:]
        if len(_ipv4_header_cache) < _CACHE_LIMIT:
            _ipv4_header_cache[key] = header
    return header


def encode_ipv4(packet, ident=0):
    """Encode a :class:`Packet` as IPv4 bytes with a valid header checksum."""
    body = _encode_transport(packet)
    return _ipv4_header_for(packet, len(body), ident) + body


def encode_ipv4_batch(packets, ident=0):
    """``encode_ipv4`` over ``packets``; ``perfbench/tracer.py`` wraps it
    by name."""
    return [encode_ipv4(packet, ident) for packet in packets]


def _encode_transport(packet):
    payload = packet.payload
    probe_id = packet.probe_id
    if isinstance(payload, IcmpEcho):
        body = _payload_filler(payload.payload_size, probe_id)
        header = _ICMP_ECHO_HEADER.pack(payload.icmp_type, 0, 0,
                                        payload.ident, payload.seq)
        checksum = internet_checksum(header + body)
        return header[:2] + _U16.pack(checksum) + header[4:] + body
    if isinstance(payload, UdpDatagram):
        body = _payload_filler(payload.payload_size, probe_id)
        length = 8 + len(body)
        header = _UDP_HEADER.pack(payload.src_port, payload.dst_port,
                                  length, 0)
        pseudo = pseudo_header(packet.src, packet.dst, PROTO_UDP, length)
        checksum = internet_checksum(pseudo + header + body)
        if checksum == 0:
            checksum = 0xFFFF  # RFC 768: transmitted zero means "no checksum"
        return header[:6] + _U16.pack(checksum) + body
    if isinstance(payload, TcpSegment):
        body = _payload_filler(payload.payload_size, probe_id)
        header = _TCP_HEADER.pack(
            payload.src_port,
            payload.dst_port,
            payload.seq,
            payload.ack,
            5 << 4,  # data offset 5 words, no options
            payload.flags,
            65535,  # advertised window
            0,  # checksum placeholder
            0,  # urgent pointer
        )
        pseudo = pseudo_header(packet.src, packet.dst, PROTO_TCP,
                               len(header) + len(body))
        checksum = internet_checksum(pseudo + header + body)
        return header[:16] + _U16.pack(checksum) + header[18:] + body
    if isinstance(payload, IcmpTimeExceeded):
        return _encode_icmp_time_exceeded(payload)
    raise TypeError(f"cannot encode payload {payload!r}")


def _encode_icmp_time_exceeded(message):
    inner = encode_ipv4(message.original)[: IPV4_HEADER_LEN + 8]
    inner = inner.ljust(IPV4_HEADER_LEN + 8, b"\x00")
    header = _ICMP_ERROR_HEADER.pack(ICMP_TIME_EXCEEDED, 0, 0, 0)
    checksum = internet_checksum(header + inner)
    header = header[:2] + _U16.pack(checksum) + header[4:]
    return header + inner


def _decode_address(raw):
    cached = _address_cache.get(raw)
    if cached is None:
        cached = ipaddress.IPv4Address(raw)
        if len(_address_cache) < _CACHE_LIMIT:
            _address_cache[raw] = cached
    return cached


def decode_ipv4(data, allow_truncated=False):
    """Parse IPv4 bytes back into a :class:`Packet`.

    Raises :class:`ValueError` on malformed input.  The embedded probe id
    (if the payload is long enough to carry one) is restored into
    ``packet.meta['probe_id']``.  ``allow_truncated`` accepts a datagram
    cut short of its total-length field — needed for the header+8-bytes
    excerpt inside ICMP error messages.
    """
    if len(data) < IPV4_HEADER_LEN:
        raise ValueError("truncated IPv4 header")
    version_ihl = data[0]
    if version_ihl >> 4 != 4:
        raise ValueError(f"not IPv4 (version={version_ihl >> 4})")
    ihl = (version_ihl & 0x0F) * 4
    if ihl < IPV4_HEADER_LEN:
        raise ValueError(f"IPv4 IHL {ihl // 4} below the minimum of 5")
    total_length = _U16.unpack_from(data, 2)[0]
    truncated = total_length > len(data)
    if truncated:
        if not allow_truncated:
            raise ValueError("IPv4 total length exceeds buffer")
        total_length = len(data)
    ttl = data[8]
    protocol = data[9]
    src = _decode_address(data[12:16])
    dst = _decode_address(data[16:20])
    body = data[ihl:total_length]
    payload, probe_id = _decode_transport(protocol, body, truncated)
    packet = Packet(src, dst, payload, ttl=ttl)
    if probe_id is not None:
        packet.meta["probe_id"] = probe_id
    return packet


def _decode_transport(protocol, body, truncated):
    if protocol == PROTO_ICMP:
        return _decode_icmp(body)
    if protocol == PROTO_UDP:
        return _decode_udp(body, truncated)
    if protocol == PROTO_TCP:
        return _decode_tcp(body)
    raise ValueError(f"unsupported protocol {protocol}")


_FILLER_TAG = int.from_bytes(_FILLER * 8, "big")


def _extract_probe_id(body):
    if len(body) >= 8:
        tag = _U64.unpack_from(body, 0)[0]
        # Filler-only payloads decode to the repeated filler pattern.
        if tag != _FILLER_TAG:
            return tag
    return None


def _decode_icmp(body):
    if len(body) < 8:
        raise ValueError("truncated ICMP header")
    icmp_type = body[0]
    if icmp_type in (ICMP_ECHO_REQUEST, ICMP_ECHO_REPLY):
        ident, seq = _U16_PAIR.unpack_from(body, 4)
        payload = body[8:]
        echo = IcmpEcho(icmp_type, ident, seq, payload_size=len(payload))
        return echo, _extract_probe_id(payload)
    if icmp_type == ICMP_TIME_EXCEEDED:
        inner = decode_ipv4(body[8:], allow_truncated=True)
        return IcmpTimeExceeded(inner), inner.probe_id
    raise ValueError(f"unsupported ICMP type {icmp_type}")


def _decode_udp(body, truncated):
    if len(body) < 8:
        raise ValueError("truncated UDP header")
    src_port, dst_port, length = _UDP_PORTS_LEN.unpack_from(body, 0)
    # A truncated excerpt (an ICMP error's header + 8 bytes) keeps the
    # original length field, which then runs past the bytes at hand.
    if length < 8 or (length > len(body) and not truncated):
        raise ValueError(f"UDP length {length} outside the header and "
                         f"the {len(body)}-byte datagram")
    payload = body[8:length]
    datagram = UdpDatagram(src_port, dst_port, payload_size=len(payload))
    return datagram, _extract_probe_id(payload)


def _decode_tcp(body):
    if len(body) < 20:
        raise ValueError("truncated TCP header")
    src_port, dst_port, seq, ack = _TCP_PORTS_SEQ_ACK.unpack_from(body, 0)
    offset = (body[12] >> 4) * 4
    if not 20 <= offset <= len(body):
        raise ValueError(f"TCP data offset {offset // 4} outside the header "
                         f"and the {len(body)}-byte segment")
    flags = body[13]
    payload = body[offset:]
    segment = TcpSegment(src_port, dst_port, seq, ack, flags, payload_size=len(payload))
    return segment, _extract_probe_id(payload)
