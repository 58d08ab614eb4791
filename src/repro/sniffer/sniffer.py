"""A wireless sniffer attached to the channel.

Records every physical transmission it hears with airtime boundaries.
Real monitor-mode captures drop frames under load; ``capture_loss``
models that, and is the reason the paper deployed *three* sniffers
(see :mod:`repro.sniffer.merge`).
"""

from repro.wifi.frames import BeaconFrame, DataFrame, NullDataFrame


class FrameRecord:
    """One sniffed transmission."""

    __slots__ = ("time", "end_time", "frame", "status", "sniffer")

    def __init__(self, time, end_time, frame, status, sniffer=""):
        self.time = time  # tx start: the sniffer's timestamp
        self.end_time = end_time
        self.frame = frame
        self.status = status  # 'ok' or 'collision'
        self.sniffer = sniffer

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
        return (
            f"<FrameRecord t={self.time * 1e3:.3f}ms {self.frame!r} "
            f"[{self.status}]>"
        )


class WirelessSniffer:
    """A monitor-mode capture device on the WiFi channel.

    Parameters
    ----------
    capture_loss:
        Probability of missing any given frame (0 = perfect capture).
    pcap_path:
        When set, every captured frame is also encoded to real 802.11
        bytes and appended to a linktype-105 pcap file.  Call
        :meth:`close` to flush it.
    """

    def __init__(self, sim, channel, name="sniffer", capture_loss=0.0,
                 rng=None, pcap_path=None, capture_collisions=False,
                 clock_offset=0.0):
        if capture_loss and rng is None:
            rng = sim.rng.stream(f"sniffer:{name}")
        self.sim = sim
        self.name = name
        self.capture_loss = capture_loss
        self.capture_collisions = capture_collisions
        #: Constant clock skew of this capture device relative to true
        #: time.  Real monitor-mode boxes are not synchronised; use
        #: :func:`repro.sniffer.merge.align_clocks` before merging.
        self.clock_offset = clock_offset
        self.rng = rng
        # Captures are kept as plain (time, end_time, frame, status)
        # tuples and wrapped in FrameRecords only when ``records`` is
        # read: most runs never read them.
        self._captured = []
        self._records = []
        self.frames_missed = 0
        self._pcap = None
        if pcap_path is not None:
            from repro.sniffer.pcap import LINKTYPE_IEEE802_11, PcapWriter

            self._pcap = PcapWriter(pcap_path, linktype=LINKTYPE_IEEE802_11)
        channel.add_monitor(self._on_transmission)

    def _on_transmission(self, frame, tx_start, tx_end, status):
        if status == "collision" and not self.capture_collisions:
            return
        if self.capture_loss and self.rng.random() < self.capture_loss:
            self.frames_missed += 1
            return
        stamped = tx_start + self.clock_offset
        self._captured.append((stamped, tx_end + self.clock_offset, frame,
                               status))
        if self._pcap is not None and hasattr(frame, "encode"):
            self._pcap.write(stamped, frame.encode())

    @property
    def records(self):
        """Every captured transmission as a :class:`FrameRecord`, in
        capture order."""
        if self._captured:
            name = self.name
            self._records.extend([FrameRecord(*capture, sniffer=name)
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

    def close(self):
        if self._pcap is not None:
            self._pcap.close()
            self._pcap = None

    def __repr__(self):
        return f"<WirelessSniffer {self.name} records={len(self.records)}>"
