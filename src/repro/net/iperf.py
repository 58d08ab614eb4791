"""iPerf-style UDP load generation.

Paper §4.3: "The load generator establishes 10 connections to the server,
and each connection sends out UDP packets at a sending rate of 2.5Mbps",
enough to congest an 802.11g WLAN whose practical UDP ceiling is
~20 Mbps.  :class:`UdpLoadGenerator` reproduces that workload;
:class:`UdpSink` counts what actually got through (the paper observed
~10 Mbps goodput under contention).  The WiFi testbed binds it on the
AP's router, because the probes see the load only on the air
(:mod:`repro.testbed.topology`).
"""

from repro.sim.units import bytes_to_bits

DEFAULT_UDP_PAYLOAD = 1470  # iperf's classic UDP datagram payload


class UdpFlow:
    """One paced UDP flow."""

    def __init__(self, sim, stack, dst, dst_port, rate_bps,
                 payload_size=DEFAULT_UDP_PAYLOAD, rng=None, name=""):
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.stack = stack
        self.dst = dst
        self.dst_port = dst_port
        self.rate_bps = rate_bps
        self.payload_size = payload_size
        self.rng = rng
        self.name = name
        self._iperf_label = f"iperf:{self.name}"
        self.src_port = stack.allocate_port()
        self.packets_sent = 0
        self._running = False
        self._event = None

    @property
    def interval(self):
        """Ideal inter-packet gap for the configured rate."""
        return bytes_to_bits(self.payload_size) / self.rate_bps

    def start(self, jitter_first=True):
        """Begin pacing.  Flows desynchronise their first packet."""
        if self._running:
            return
        self._running = True
        phase = self.rng.uniform(0, self.interval) if (self.rng and jitter_first) else 0.0
        self._event = self.sim.schedule(phase, self._send_one,
                                        label=self._iperf_label)

    def stop(self):
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _send_one(self):
        if not self._running:
            return
        self.stack.send_udp(
            self.dst, self.dst_port, src_port=self.src_port,
            payload_size=self.payload_size, meta={"flow": self.name},
        )
        self.packets_sent += 1
        self._event = self.sim.schedule(self.interval, self._send_one,
                                        label=self._iperf_label)


class UdpLoadGenerator:
    """A bundle of parallel UDP flows (iperf -P style)."""

    def __init__(self, sim, stack, dst, dst_port, flows=10, rate_bps=2.5e6,
                 payload_size=DEFAULT_UDP_PAYLOAD, rng=None, name="loadgen"):
        self.sim = sim
        self.name = name
        self.flows = [
            UdpFlow(sim, stack, dst, dst_port, rate_bps,
                    payload_size=payload_size, rng=rng, name=f"{name}.{i}")
            for i in range(flows)
        ]

    @property
    def offered_load_bps(self):
        return sum(flow.rate_bps for flow in self.flows)

    @property
    def packets_sent(self):
        return sum(flow.packets_sent for flow in self.flows)

    def start(self):
        for flow in self.flows:
            flow.start()

    def stop(self):
        for flow in self.flows:
            flow.stop()


class UdpSink:
    """Receives load traffic and reports achieved throughput."""

    def __init__(self, host, port):
        self.host = host
        self.sim = host.sim
        self.port = port
        self.packets_received = 0
        self.bytes_received = 0
        self.first_arrival = None
        self.last_arrival = None
        self.binding = host.stack.udp_bind(port, self._on_datagram)

    def _on_datagram(self, packet):
        size = packet.payload.payload_size
        self.packets_received += 1
        self.bytes_received += size
        if self.first_arrival is None:
            self.first_arrival = self.sim.now
        self.last_arrival = self.sim.now

    def throughput_bps(self):
        """Achieved goodput over the observed receive window."""
        if self.packets_received < 2:
            return 0.0
        span = self.last_arrival - self.first_arrival
        if span <= 0:
            return 0.0
        return bytes_to_bits(self.bytes_received) / span

    def close(self):
        self.binding.close()
