"""A wireless sniffer attached to the channel.

Records every successful transmission it hears with airtime boundaries.
Unlike a real monitor-mode capture it misses no frame, so one sniffer
stands for the paper's three merged ones.
"""

from repro.wifi.frames import BeaconFrame, DataFrame, NullDataFrame


class FrameRecord:
    """One sniffed transmission."""

    __slots__ = ("time", "end_time", "frame")

    def __init__(self, time, end_time, frame):
        self.time = time  # tx start: the sniffer's timestamp
        self.end_time = end_time
        self.frame = frame

    @property
    def is_data(self):
        return isinstance(self.frame, DataFrame)

    @property
    def is_beacon(self):
        return isinstance(self.frame, BeaconFrame)

    @property
    def is_null(self):
        return isinstance(self.frame, NullDataFrame)

    @property
    def probe_id(self):
        if self.is_data:
            return self.frame.packet.probe_id
        return None

    def __repr__(self):
        return f"<FrameRecord t={self.time * 1e3:.3f}ms {self.frame!r}>"


class WirelessSniffer:
    """A monitor-mode capture device on the WiFi channel.

    Records every successful transmission from the moment it is
    attached; collided frames are never captured.
    """

    def __init__(self, sim, channel, name="sniffer"):
        self.sim = sim
        self.name = name
        #: Every captured transmission as a :class:`FrameRecord`, in
        #: capture order.
        self.records = []
        channel.add_monitor(self._on_transmission)

    def _on_transmission(self, frame, tx_start, tx_end, status):
        if status != "collision":
            self.records.append(FrameRecord(tx_start, tx_end, frame))

    # -- convenience filters ------------------------------------------------

    def beacon_records(self):
        return [record for record in self.records if record.is_beacon]

    def null_records(self):
        """Null-function frames: the PM-bit signalling AcuteMon relies on."""
        return [record for record in self.records if record.is_null]

    def __repr__(self):
        return f"<WirelessSniffer {self.name} records={len(self.records)}>"
