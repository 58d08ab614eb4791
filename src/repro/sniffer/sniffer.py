"""A wireless sniffer attached to the channel.

Records every successful transmission it hears with airtime boundaries.
Real monitor-mode captures drop frames under load; ``capture_loss``
models that, and is the reason the paper deployed *three* sniffers
(see :mod:`repro.sniffer.merge`).
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

    def dedup_key(self):
        """Identity of the underlying transmission across sniffers."""
        return (round(self.time * 1e7), self.frame.src_mac.value,
                getattr(self.frame, "seq", 0))

    def __repr__(self):
        return f"<FrameRecord t={self.time * 1e3:.3f}ms {self.frame!r}>"


class WirelessSniffer:
    """A monitor-mode capture device on the WiFi channel.

    Records every successful transmission; collided frames are never
    captured.

    Parameters
    ----------
    capture_loss:
        Probability of missing any given frame (0 = perfect capture).
    """

    def __init__(self, sim, channel, name="sniffer", capture_loss=0.0,
                 rng=None):
        if capture_loss and rng is None:
            rng = sim.rng.stream(f"sniffer:{name}")
        self.sim = sim
        self.name = name
        self.capture_loss = capture_loss
        self.rng = rng
        # Captures are kept as plain (time, end_time, frame) tuples and
        # wrapped in FrameRecords only when ``records`` is read: most
        # runs never read them.
        self._captured = []
        self._records = []
        self.frames_missed = 0
        channel.add_monitor(self._on_transmission)

    def _on_transmission(self, frame, tx_start, tx_end, status):
        if status == "collision":
            return
        if self.capture_loss and self.rng.random() < self.capture_loss:
            self.frames_missed += 1
            return
        self._captured.append((tx_start, tx_end, frame))

    @property
    def records(self):
        """Every captured transmission as a :class:`FrameRecord`, in
        capture order."""
        if self._captured:
            self._records.extend([FrameRecord(*capture)
                                  for capture in self._captured])
            self._captured = []
        return self._records

    # -- convenience filters ------------------------------------------------

    def data_records(self):
        """Captured unicast data frames (carrying IP packets)."""
        return [record for record in self.records if record.is_data]

    def beacon_records(self):
        return [record for record in self.records if record.is_beacon]

    def null_records(self):
        """Null-function frames: the PM-bit signalling AcuteMon relies on."""
        return [record for record in self.records if record.is_null]

    def records_for_probe(self, probe_id):
        return [r for r in self.records if r.probe_id == probe_id]

    def clear(self):
        self._captured = []
        self._records = []

    def __repr__(self):
        return f"<WirelessSniffer {self.name} records={len(self.records)}>"
