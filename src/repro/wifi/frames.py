"""802.11 frame types and their on-air sizes.

Data frames encapsulate one IP packet behind an LLC/SNAP header, exactly
as on a real WLAN, and their sizes count those headers.  Beacons carry
the beacon interval and a TIM bitmap (which association IDs have
buffered frames) — the mechanism through which power-save mode turns
into the >100 ms nRTT inflation the paper measures.
"""

from repro.net.addresses import MacAddress

MAC_HEADER_LEN = 24
FCS_LEN = 4
LLC_SNAP_LEN = 8
NULL_FRAME_SIZE = MAC_HEADER_LEN + FCS_LEN
#: Every beacon's destination; addresses are never mutated.
_BROADCAST = MacAddress.broadcast()


class WifiFrame:
    """Base class: addressing plus power-management signalling bits."""

    __slots__ = ("dst_mac", "src_mac", "pm", "more_data", "seq")

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


class DataFrame(WifiFrame):
    """A unicast data frame carrying one IP packet."""

    __slots__ = ("packet",)

    def __init__(self, dst_mac, src_mac, packet, pm=False, more_data=False,
                 seq=0):
        super().__init__(dst_mac, src_mac, pm=pm, more_data=more_data, seq=seq)
        self.packet = packet

    @property
    def wire_size(self):
        return MAC_HEADER_LEN + LLC_SNAP_LEN + self.packet.wire_size + FCS_LEN

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

    @property
    def wire_size(self):
        return NULL_FRAME_SIZE

    def __repr__(self):
        return f"NullDataFrame({self.src_mac}->{self.dst_mac} pm={int(self.pm)})"


class BeaconFrame(WifiFrame):
    """A beacon: timing reference plus the TIM of buffered stations."""

    __slots__ = ("beacon_interval_tu", "tim_aids", "ssid", "wire_size")

    #: Always sent to the broadcast address, so never acknowledged.
    is_broadcast = True
    needs_ack = False

    def __init__(self, src_mac, beacon_interval_tu, tim_aids=(), ssid="testbed",
                 seq=0):
        super().__init__(_BROADCAST, src_mac, seq=seq)
        self.beacon_interval_tu = beacon_interval_tu
        if type(tim_aids) is not frozenset:
            tim_aids = frozenset(tim_aids)
        self.tim_aids = tim_aids
        self.ssid = ssid
        # header + fixed fields (12) + SSID IE + rates IE (10) + TIM IE
        # (2-byte IE header + count/period/control + bitmap).
        tim_len = 5 + max(1, (max(tim_aids) // 8 + 1) if tim_aids else 1)
        self.wire_size = (MAC_HEADER_LEN + 12 + (2 + len(ssid)) + 10 + tim_len
                          + FCS_LEN)

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

    __slots__ = ("aid",)

    def __init__(self, dst_mac, src_mac, aid):
        super().__init__(dst_mac, src_mac)
        self.aid = aid

    @property
    def wire_size(self):
        return 16 + FCS_LEN  # fc + AID + BSSID + TA + FCS

    def __repr__(self):
        return f"PsPollFrame(aid={self.aid} ->{self.dst_mac})"
