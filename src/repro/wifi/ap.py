"""The access point.

Combines three roles from the testbed's NETGEAR WNDR3800:

* **802.11 MAC**: beacon generation every ``beacon_interval_tu`` Time
  Units (100 TU = 102.4 ms in the paper), association state, and
  per-station **power-save buffering** — downlink frames for a dozing
  station wait here and are advertised through the beacon TIM.
* **First-hop router**: an embedded :class:`repro.net.router.Router`
  forwards between the WLAN and the wired segment, decrements TTL, and
  returns ICMP time-exceeded for AcuteMon's TTL=1 warm-up packets.
* **Gateway control plane**: the router's stack answers pings to the
  gateway address.
"""

from repro.net.router import RouterPort
from repro.obs.names import (
    AP_PS_BUFFER_DROPS_TOTAL,
    AP_PS_FRAMES_BUFFERED_TOTAL,
    SPAN_PSM_BUFFERED,
)
from repro.sim.units import tu
from repro.wifi.channel import Radio
from repro.wifi.frames import (
    BeaconFrame,
    DataFrame,
    NullDataFrame,
    PsPollFrame,
    beacon_wire_size,
)

#: The TIM of a beacon when no station has frames buffered.
_NO_TIM = frozenset()


class _ApRadio(Radio):
    """The AP's radio; defers frame handling to the owning AP."""

    def __init__(self, sim, channel, mac, ap, name):
        super().__init__(sim, channel, mac, name=name)
        self._ap = ap

    def frame_delivered(self, frame):
        super().frame_delivered(frame)
        self._ap.handle_wireless_frame(frame)

    def frame_dropped(self, frame):
        self._ap.handle_tx_failure(frame)


class StationRecord:
    """The AP's per-station association state."""

    __slots__ = ("station", "aid", "listen_interval", "asleep", "buffer",
                 "buffered_drops")

    def __init__(self, station, aid, listen_interval):
        self.station = station
        self.aid = aid
        self.listen_interval = listen_interval
        self.asleep = False
        self.buffer = []
        self.buffered_drops = 0


class AccessPoint:
    """An infrastructure-mode 802.11 AP with an embedded router."""

    #: Per-station power-save buffer depth (frames).
    PS_BUFFER_LIMIT = 64

    def __init__(self, sim, channel, mac, wlan_ip, wlan_network,
                 beacon_interval_tu=100, ssid="testbed", name="ap", rng=None,
                 send_time_exceeded=True):
        from repro.net.router import Router

        self.sim = sim
        self.name = name
        self.ssid = ssid
        self.beacon_interval_tu = beacon_interval_tu
        self.radio = _ApRadio(sim, channel, mac, self, name=f"{name}.radio")
        self.router = Router(sim, name=f"{name}.router", rng=rng,
                             send_time_exceeded=send_time_exceeded)
        self.wlan_ip = wlan_ip
        self._stations = {}  # mac -> StationRecord
        self._ip_to_mac = {}  # WLAN-side IP resolution
        self._next_aid = 1
        self._beacon_seq = 0
        self.beacons_sent = 0
        self.frames_buffered = 0
        self._buffered_at = {}  # id(frame) -> buffer-entry time (spans)
        self._tx_seq = 0
        self.wlan_port = RouterPort(
            "wlan", wlan_ip, wlan_network, transmit=self._wireless_transmit
        )
        self.router.add_port(self.wlan_port)
        self._quiet_beacon_size = beacon_wire_size(ssid, _NO_TIM)
        # Beacon generation is a scheduler-native periodic train: one
        # armed event for the whole run, batched on the fast path while
        # its beacons are quiet (see _beacon_tick).
        self._beacon_train = sim.schedule_periodic(
            tu(beacon_interval_tu), self._beacon_tick,
            label=f"beacon:{name}",
        )

    @property
    def mac(self):
        return self.radio.mac

    # -- wired side ----------------------------------------------------------

    def add_wired_port(self, name, ip_addr, network, arp_table, link=None):
        """Attach the AP's Ethernet uplink."""
        return self.router.add_ethernet_port(name, ip_addr, network,
                                             arp_table, link=link)

    # -- association -----------------------------------------------------------

    def associate(self, station, listen_interval):
        """Register a station; returns its association ID."""
        if station.mac in self._stations:
            return self._stations[station.mac].aid
        aid = self._next_aid
        self._next_aid += 1
        self._stations[station.mac] = StationRecord(station, aid, listen_interval)
        return aid

    def register_station_ip(self, ip_addr, mac):
        """Install WLAN-side IP-to-MAC resolution for a station."""
        if mac not in self._stations:
            raise ValueError(f"{mac} is not associated")
        self._ip_to_mac[ip_addr] = mac

    def station_record(self, mac):
        return self._stations[mac]

    # -- beaconing ---------------------------------------------------------------

    def _beacon_tick(self):
        tim = _NO_TIM
        for record in self._stations.values():
            if record.buffer:
                tim = frozenset(other.aid for other in self._stations.values()
                                if other.buffer)
                break
        self._beacon_seq = (self._beacon_seq + 1) & 0xFFF
        self.beacons_sent += 1
        # An empty TIM on a quiet medium is bookkeeping with no frame
        # and no event, so an idle stretch of ticks stays one batch.
        if tim is _NO_TIM and self.radio.channel.air_quiet_beacon(
                self.radio, self._quiet_beacon_size, self.beacon_interval_tu):
            return
        beacon = BeaconFrame(
            self.radio.mac, self.beacon_interval_tu, tim_aids=tim,
            ssid=self.ssid, seq=self._beacon_seq,
        )
        self.radio.enqueue_frame(beacon, priority=True)

    # -- downlink ---------------------------------------------------------------

    def _wireless_transmit(self, packet, next_hop):
        mac = self._ip_to_mac.get(next_hop)
        if mac is None:
            return  # unresolvable station: drop (mirrors a real AP)
        record = self._stations.get(mac)
        if record is None:
            return
        self._tx_seq = (self._tx_seq + 1) & 0xFFF
        frame = DataFrame(mac, self.radio.mac, packet, seq=self._tx_seq)
        if record.asleep:
            self._buffer_frame(record, frame)
        else:
            self.radio.enqueue_frame(frame)

    def _buffer_frame(self, record, frame):
        sim = self.sim
        if len(record.buffer) >= self.PS_BUFFER_LIMIT:
            record.buffered_drops += 1
            if sim.metrics.enabled:
                sim.metrics.inc(AP_PS_BUFFER_DROPS_TOTAL,
                                labels={"ap": self.name})
            return
        self.frames_buffered += 1
        record.buffer.append(frame)
        if sim.metrics.enabled:
            sim.metrics.inc(AP_PS_FRAMES_BUFFERED_TOTAL,
                            labels={"ap": self.name})
        if sim.spans.enabled:
            self._buffered_at[id(frame)] = sim.now

    def _release_buffered(self, record, frame):
        """Span bookkeeping for one frame leaving the PS buffer."""
        start = self._buffered_at.pop(id(frame), None)
        if start is not None and self.sim.spans.enabled:
            self.sim.spans.record(SPAN_PSM_BUFFERED, start, self.sim.now,
                                  ap=self.name, aid=record.aid)

    def _flush_buffer(self, record):
        if not record.buffer:
            return
        frames = record.buffer
        record.buffer = []
        for index, frame in enumerate(frames):
            frame.more_data = index < len(frames) - 1
            self._release_buffered(record, frame)
            self.radio.enqueue_frame(frame)

    # -- uplink ---------------------------------------------------------------------

    def handle_wireless_frame(self, frame):
        """Process a frame arriving on the radio."""
        record = self._stations.get(frame.src_mac)
        if record is not None:
            self._update_power_state(record, frame)
            if isinstance(frame, PsPollFrame):
                self._serve_ps_poll(record)
        if isinstance(frame, DataFrame) and frame.dst_mac == self.radio.mac:
            self.router.route_packet(frame.packet, ingress=self.wlan_port)

    def handle_tx_failure(self, frame):
        """A downlink frame exhausted its retries (station went deaf).

        Real APs fall back to power-save buffering here: mark the
        station asleep and re-buffer the frame for TIM delivery.
        """
        if not isinstance(frame, DataFrame):
            return
        record = self._stations.get(frame.dst_mac)
        if record is None:
            return
        record.asleep = True
        self._buffer_frame(record, frame)

    def _serve_ps_poll(self, record):
        """Release exactly one buffered frame (static/legacy PSM)."""
        if not record.buffer:
            return
        frame = record.buffer.pop(0)
        frame.more_data = bool(record.buffer)
        self._release_buffered(record, frame)
        self.radio.enqueue_frame(frame)

    def _update_power_state(self, record, frame):
        if isinstance(frame, (DataFrame, NullDataFrame)):
            was_asleep = record.asleep
            record.asleep = frame.pm
            if was_asleep and not record.asleep:
                self._flush_buffer(record)

    def __repr__(self):
        return f"<AccessPoint {self.name} stations={len(self._stations)}>"
