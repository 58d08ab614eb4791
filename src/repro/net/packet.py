"""The in-simulation packet model.

A :class:`Packet` is an IPv4 datagram: source/destination address, TTL,
and a transport payload (:class:`IcmpEcho`, :class:`IcmpTimeExceeded`,
:class:`UdpDatagram` or :class:`TcpSegment`).  Payload *bytes* are not
carried around — only sizes — but every packet can be rendered to real
wire bytes by :mod:`repro.net.wire` (checksums and all).

Two bookkeeping fields support the measurement methodology of the paper's
Figure 1:

``meta``
    Free-form dict.  The key ``probe_id`` ties a request and its response
    to one probe transaction; responders copy it over.

``stamps``
    Per-packet timestamps recorded at each vantage point (user, kernel,
    driver, PHY) as the packet traverses the phone stack, mirroring the
    paper's ``tou/tok/tov/ton`` instrumentation.
"""

# IP protocol numbers.
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

# ICMP types.
ICMP_ECHO_REPLY = 0
ICMP_ECHO_REQUEST = 8
ICMP_TIME_EXCEEDED = 11

# TCP flag bits.
TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10

IPV4_HEADER_LEN = 20
ICMP_HEADER_LEN = 8
UDP_HEADER_LEN = 8
TCP_HEADER_LEN = 20


def tcp_flag_names(flags):
    """Human-readable flag string, e.g. ``'SYN|ACK'``."""
    names = []
    for bit, name in (
        (TCP_SYN, "SYN"),
        (TCP_ACK, "ACK"),
        (TCP_FIN, "FIN"),
        (TCP_RST, "RST"),
        (TCP_PSH, "PSH"),
    ):
        if flags & bit:
            names.append(name)
    return "|".join(names) if names else "none"


class IcmpEcho:
    """ICMP echo request/reply (ping)."""

    protocol = PROTO_ICMP

    __slots__ = ("icmp_type", "ident", "seq", "payload_size")

    def __init__(self, icmp_type, ident, seq, payload_size=56):
        if icmp_type not in (ICMP_ECHO_REQUEST, ICMP_ECHO_REPLY):
            raise ValueError(f"not an echo type: {icmp_type!r}")
        if payload_size < 0:
            raise ValueError("payload_size must be >= 0")
        self.icmp_type = icmp_type
        self.ident = ident
        self.seq = seq
        self.payload_size = payload_size

    @property
    def is_request(self):
        return self.icmp_type == ICMP_ECHO_REQUEST

    @property
    def wire_size(self):
        return ICMP_HEADER_LEN + self.payload_size

    def make_reply(self):
        """Build the matching echo reply (same ident/seq/size)."""
        return IcmpEcho(ICMP_ECHO_REPLY, self.ident, self.seq, self.payload_size)

    def __repr__(self):
        kind = "request" if self.is_request else "reply"
        return f"IcmpEcho({kind} id={self.ident} seq={self.seq})"


class IcmpTimeExceeded:
    """ICMP time exceeded in transit (type 11, code 0).

    Generated by the first-hop router when AcuteMon's TTL=1 warm-up and
    background packets expire.  Carries a summary of the original
    datagram, as the real message embeds its header plus eight bytes.
    """

    protocol = PROTO_ICMP

    __slots__ = ("original",)

    def __init__(self, original):
        self.original = original

    @property
    def wire_size(self):
        # type/code/checksum/unused + embedded IP header + 8 payload bytes.
        return ICMP_HEADER_LEN + IPV4_HEADER_LEN + 8

    def __repr__(self):
        return f"IcmpTimeExceeded(original={self.original!r})"


class UdpDatagram:
    """UDP datagram carrying ``payload_size`` opaque bytes."""

    protocol = PROTO_UDP

    __slots__ = ("src_port", "dst_port", "payload_size")

    def __init__(self, src_port, dst_port, payload_size=0):
        for port in (src_port, dst_port):
            if not 0 < port <= 0xFFFF:
                raise ValueError(f"invalid port {port!r}")
        if payload_size < 0:
            raise ValueError("payload_size must be >= 0")
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload_size = payload_size

    @property
    def wire_size(self):
        return UDP_HEADER_LEN + self.payload_size

    def __repr__(self):
        return f"UdpDatagram({self.src_port}->{self.dst_port} len={self.payload_size})"


class TcpSegment:
    """A TCP segment (no options; fixed 20-byte header)."""

    protocol = PROTO_TCP

    __slots__ = ("src_port", "dst_port", "seq", "ack", "flags", "payload_size")

    def __init__(self, src_port, dst_port, seq, ack, flags, payload_size=0):
        for port in (src_port, dst_port):
            if not 0 < port <= 0xFFFF:
                raise ValueError(f"invalid port {port!r}")
        if payload_size < 0:
            raise ValueError("payload_size must be >= 0")
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq & 0xFFFFFFFF
        self.ack = ack & 0xFFFFFFFF
        self.flags = flags
        self.payload_size = payload_size

    @property
    def wire_size(self):
        return TCP_HEADER_LEN + self.payload_size

    @property
    def seq_space(self):
        """Sequence-number space consumed (SYN and FIN count for one)."""
        length = self.payload_size
        if self.flags & TCP_SYN:
            length += 1
        if self.flags & TCP_FIN:
            length += 1
        return length

    def has(self, flag):
        return bool(self.flags & flag)

    def __repr__(self):
        return (
            f"TcpSegment({self.src_port}->{self.dst_port} "
            f"{tcp_flag_names(self.flags)} seq={self.seq} ack={self.ack} "
            f"len={self.payload_size})"
        )


class Packet:
    """An IPv4 datagram travelling through the simulation."""

    __slots__ = ("src", "dst", "ttl", "payload", "meta", "stamps", "created_at",
                 "wire_size")

    DEFAULT_TTL = 64

    def __init__(self, src, dst, payload, ttl=DEFAULT_TTL, meta=None, created_at=None):
        if ttl < 1 or ttl > 255:
            raise ValueError(f"invalid TTL {ttl!r}")
        self.src = src
        self.dst = dst
        self.ttl = ttl
        self.payload = payload
        self.meta = dict(meta) if meta else {}
        self.stamps = {}
        self.created_at = created_at
        #: IP datagram length in bytes (header + transport payload).
        self.wire_size = IPV4_HEADER_LEN + payload.wire_size

    @property
    def protocol(self):
        return self.payload.protocol

    @property
    def probe_id(self):
        """Probe-transaction id, or ``None`` for non-probe traffic."""
        return self.meta.get("probe_id")

    def stamp(self, point, time):
        """Record the first traversal time at a vantage point.

        Vantage points stamp once; a retransmitted packet keeps its
        original stamp, matching what a kernel tap would report for the
        first copy on the wire.
        """
        if point not in self.stamps:
            self.stamps[point] = time

    def flow_key(self):
        """Hashable key identifying the transport flow (direction-specific)."""
        payload = self.payload
        if isinstance(payload, (UdpDatagram, TcpSegment)):
            return (self.protocol, self.src, payload.src_port, self.dst, payload.dst_port)
        if isinstance(payload, IcmpEcho):
            return (self.protocol, self.src, self.dst, payload.ident)
        return (self.protocol, self.src, self.dst)

    def __repr__(self):
        return f"Packet({self.src} -> {self.dst} ttl={self.ttl} {self.payload!r})"
