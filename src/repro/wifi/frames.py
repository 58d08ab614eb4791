"""802.11 frame types and their wire encodings.

Data frames encapsulate one IP packet behind an LLC/SNAP header, exactly
as on a real WLAN; sniffers can therefore write linktype-105 pcap files
that any off-the-shelf tooling could parse.  Beacons carry the beacon
interval and a TIM bitmap (which association IDs have buffered frames) —
the mechanism through which power-save mode turns into the >100 ms nRTT
inflation the paper measures.
"""

import struct

from repro.net import wire as ip_wire
from repro.net.addresses import MacAddress

MAC_HEADER_LEN = 24
FCS_LEN = 4
LLC_SNAP_LEN = 8
NULL_FRAME_SIZE = MAC_HEADER_LEN + FCS_LEN
ACK_FRAME_SIZE = 10 + FCS_LEN
#: Every beacon's destination; addresses are never mutated.
_BROADCAST = MacAddress.broadcast()

# Frame control (type, subtype) pairs.
TYPE_MGMT = 0
TYPE_CTRL = 1
TYPE_DATA = 2
SUBTYPE_BEACON = 8
SUBTYPE_ACK = 13
SUBTYPE_DATA = 0
SUBTYPE_NULL = 4


class WifiFrame:
    """Base class: addressing plus power-management signalling bits."""

    __slots__ = ("dst_mac", "src_mac", "pm", "more_data", "seq")

    frame_type = TYPE_DATA
    subtype = SUBTYPE_DATA

    def __init__(self, dst_mac, src_mac, pm=False, more_data=False, seq=0):
        self.dst_mac = dst_mac
        self.src_mac = src_mac
        self.pm = pm
        self.more_data = more_data
        self.seq = seq

    @property
    def is_broadcast(self):
        return self.dst_mac.is_broadcast

    @property
    def needs_ack(self):
        return not self.is_broadcast

    @property
    def wire_size(self):
        raise NotImplementedError

    def _frame_control(self, to_ds=False, from_ds=False):
        b0 = (self.subtype << 4) | (self.frame_type << 2)
        b1 = (0x01 if to_ds else 0) | (0x02 if from_ds else 0)
        if self.pm:
            b1 |= 0x10
        if self.more_data:
            b1 |= 0x20
        return bytes([b0, b1])

    def _mac_header(self, addr3, to_ds=False, from_ds=False):
        return (
            self._frame_control(to_ds, from_ds)
            + struct.pack("<H", 0)  # duration
            + self.dst_mac.to_bytes()
            + self.src_mac.to_bytes()
            + addr3.to_bytes()
            + struct.pack("<H", (self.seq & 0xFFF) << 4)
        )


class DataFrame(WifiFrame):
    """A unicast data frame carrying one IP packet."""

    __slots__ = ("packet", "to_ds", "from_ds", "bssid")

    frame_type = TYPE_DATA
    subtype = SUBTYPE_DATA

    def __init__(self, dst_mac, src_mac, packet, bssid=None, to_ds=False,
                 from_ds=False, pm=False, more_data=False, seq=0):
        super().__init__(dst_mac, src_mac, pm=pm, more_data=more_data, seq=seq)
        self.packet = packet
        self.to_ds = to_ds
        self.from_ds = from_ds
        self.bssid = bssid if bssid is not None else src_mac

    @property
    def wire_size(self):
        return MAC_HEADER_LEN + LLC_SNAP_LEN + self.packet.wire_size + FCS_LEN

    def encode(self):
        """Full 802.11 data frame bytes (header + LLC/SNAP + IP + FCS)."""
        header = self._mac_header(self.bssid, to_ds=self.to_ds, from_ds=self.from_ds)
        llc_snap = b"\xaa\xaa\x03\x00\x00\x00\x08\x00"  # SNAP, ethertype IPv4
        body = ip_wire.encode_ipv4(self.packet)
        return header + llc_snap + body + b"\x00" * FCS_LEN

    def __repr__(self):
        flags = "".join(
            flag for flag, on in (("P", self.pm), ("M", self.more_data)) if on
        )
        return f"DataFrame({self.src_mac}->{self.dst_mac} {flags} {self.packet!r})"


class NullDataFrame(WifiFrame):
    """A null-function frame, used purely to signal the PM bit.

    Adaptive-PSM stations announce "going to sleep" with PM=1 and
    "awake again / fetch my buffered frames" with PM=0 (paper §3.2.2,
    §4.1).
    """

    frame_type = TYPE_DATA
    subtype = SUBTYPE_NULL

    @property
    def wire_size(self):
        return NULL_FRAME_SIZE

    def encode(self):
        header = self._mac_header(self.dst_mac, to_ds=True)
        return header + b"\x00" * FCS_LEN

    def __repr__(self):
        return f"NullDataFrame({self.src_mac}->{self.dst_mac} pm={int(self.pm)})"


class BeaconFrame(WifiFrame):
    """A beacon: timing reference plus the TIM of buffered stations."""

    __slots__ = ("bssid", "beacon_interval_tu", "tim_aids", "ssid", "timestamp",
                 "wire_size")

    frame_type = TYPE_MGMT
    subtype = SUBTYPE_BEACON
    #: Always sent to the broadcast address, so never acknowledged.
    is_broadcast = True
    needs_ack = False

    def __init__(self, src_mac, beacon_interval_tu, tim_aids=(), ssid="testbed",
                 timestamp=0.0, seq=0):
        super().__init__(_BROADCAST, src_mac, seq=seq)
        self.bssid = src_mac
        self.beacon_interval_tu = beacon_interval_tu
        if type(tim_aids) is not frozenset:
            tim_aids = frozenset(tim_aids)
        self.tim_aids = tim_aids
        self.ssid = ssid
        self.timestamp = timestamp
        # header + fixed fields (12) + SSID IE + rates IE (10) + TIM IE
        # (2-byte IE header + count/period/control + bitmap).
        tim_len = 5 + max(1, (max(tim_aids) // 8 + 1) if tim_aids else 1)
        self.wire_size = (MAC_HEADER_LEN + 12 + (2 + len(ssid)) + 10 + tim_len
                          + FCS_LEN)

    def encode(self):
        header = self._mac_header(self.bssid)
        fixed = struct.pack(
            "<QHH",
            int(self.timestamp * 1e6) & 0xFFFFFFFFFFFFFFFF,
            self.beacon_interval_tu,
            0x0401,  # capabilities: ESS, short slot
        )
        ssid_bytes = self.ssid.encode("ascii", "replace")
        ssid_ie = bytes([0, len(ssid_bytes)]) + ssid_bytes
        rates_ie = bytes([1, 8, 0x82, 0x84, 0x8B, 0x96, 0x24, 0x30, 0x48, 0x6C])
        bitmap = bytearray(max(1, (max(self.tim_aids) // 8 + 1) if self.tim_aids else 1))
        for aid in self.tim_aids:
            bitmap[aid // 8] |= 1 << (aid % 8)
        tim_ie = bytes([5, 3 + len(bitmap), 0, 1, 0]) + bytes(bitmap)
        return header + fixed + ssid_ie + rates_ie + tim_ie + b"\x00" * FCS_LEN

    def __repr__(self):
        return (
            f"BeaconFrame(interval={self.beacon_interval_tu}TU "
            f"tim={sorted(self.tim_aids)})"
        )


class PsPollFrame(WifiFrame):
    """A PS-Poll control frame.

    Used by *static* power-save stations (legacy PSM): after seeing its
    AID in a beacon TIM, the station polls the AP for exactly one
    buffered frame per PS-Poll.  Adaptive-PSM phones (every phone in the
    paper's Table 4) wake with a PM=0 null instead.
    """

    SUBTYPE_PS_POLL = 10

    __slots__ = ("aid",)

    frame_type = TYPE_CTRL
    subtype = SUBTYPE_PS_POLL

    def __init__(self, dst_mac, src_mac, aid):
        super().__init__(dst_mac, src_mac)
        self.aid = aid

    @property
    def wire_size(self):
        return 16 + FCS_LEN  # fc + AID + BSSID + TA + FCS

    def encode(self):
        b0 = (self.subtype << 4) | (self.frame_type << 2)
        return (
            bytes([b0, 0])
            + struct.pack("<H", self.aid | 0xC000)
            + self.dst_mac.to_bytes()
            + self.src_mac.to_bytes()
            + b"\x00" * FCS_LEN
        )

    def __repr__(self):
        return f"PsPollFrame(aid={self.aid} ->{self.dst_mac})"


class AckFrame(WifiFrame):
    """An 802.11 ACK (modelled implicitly by the channel; encodable for pcap)."""

    frame_type = TYPE_CTRL
    subtype = SUBTYPE_ACK

    def __init__(self, dst_mac, src_mac):
        super().__init__(dst_mac, src_mac)

    @property
    def needs_ack(self):
        return False

    @property
    def wire_size(self):
        return ACK_FRAME_SIZE

    def encode(self):
        b0 = (self.subtype << 4) | (self.frame_type << 2)
        return bytes([b0, 0]) + struct.pack("<H", 0) + self.dst_mac.to_bytes() + b"\x00" * FCS_LEN

    def __repr__(self):
        return f"AckFrame(->{self.dst_mac})"


def decode_data_frame(data):
    """Parse an encoded 802.11 data frame back to ``(header_info, Packet)``.

    Used by the pcap-based analysis path.  Returns ``None`` for non-data
    frames (beacons, nulls, acks) which carry no IP payload.
    """
    if len(data) < MAC_HEADER_LEN:
        raise ValueError("truncated 802.11 header")
    subtype = data[0] >> 4
    frame_type = (data[0] >> 2) & 0x3
    if frame_type != TYPE_DATA or subtype != SUBTYPE_DATA:
        return None
    flags = data[1]
    info = {
        "to_ds": bool(flags & 0x01),
        "from_ds": bool(flags & 0x02),
        "pm": bool(flags & 0x10),
        "more_data": bool(flags & 0x20),
        "dst_mac": MacAddress(data[4:10]),
        "src_mac": MacAddress(data[10:16]),
    }
    body = data[MAC_HEADER_LEN + LLC_SNAP_LEN : -FCS_LEN]
    packet = ip_wire.decode_ipv4(body)
    return info, packet
