"""ICMP ping with a configurable sending interval.

This is the probe of the paper's §3.1 root-cause experiment: "We run a
ping program through adb shell for 100 times with two packet sending
intervals, a small interval of 10 ms and larger default of 1 s."  Pings
are sent at a fixed rate regardless of outstanding replies, exactly like
``ping -i``.

Two fidelity details:

* ``ping`` executed from a shell is a native binary, so the default
  runtime is ``native``.
* Some builds print integer milliseconds once the RTT exceeds 100 ms
  (the paper traces Nexus 4's negative Δdu−k to this truncation); the
  quirk is honoured when the phone profile sets
  ``ping_integer_above_100ms``.
"""

import math

from repro.tools.base import MeasurementTool, RttSample

DEFAULT_PAYLOAD = 56  # classic ping payload


class PingTool(MeasurementTool):
    """A fixed-rate ICMP echo prober."""

    runtime = "native"

    _next_ident = 0x1000

    def __init__(self, phone, collector, target_ip, interval=1.0,
                 payload_size=DEFAULT_PAYLOAD, timeout=1.0, name="ping"):
        super().__init__(phone, collector, target_ip, name=name)
        self._send_label = f"{self.name}-send"
        self._deadline_label = f"{self.name}-deadline"
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.payload_size = payload_size
        self.timeout = timeout
        PingTool._next_ident += 1
        self.ident = PingTool._next_ident
        self._handle = None
        self._pending = {}  # probe_id -> t0
        self._expected = 0
        self._finish_event = None

    def _begin(self, count):
        self._expected = count
        self._pending = {}
        self._handle = self.phone.stack.register_ping(
            self.ident, self.phone.user_wrap(self._on_reply))
        for index in range(count):
            self.sim.post(self.sim.now + index * self.interval,
                          self._send_one, index, label=self._send_label)
        self._finish_event = self.sim.schedule(
            (count - 1) * self.interval + self.timeout, self._deadline,
            label=self._deadline_label,
        )

    def _send_one(self, index):
        record = self.collector.new_probe(kind="probe")
        meta = self.collector.meta_for(record)
        t0 = self.phone.user_send(lambda: self.phone.stack.send_echo_request(
            self.target_ip, self.ident, index + 1,
            payload_size=self.payload_size, meta=meta,
        ))
        self.collector.record_user_send(record.probe_id, t0)
        self._pending[record.probe_id] = t0

    def _on_reply(self, packet):
        probe_id = packet.probe_id
        t0 = self._pending.pop(probe_id, None)
        if t0 is None:
            return  # duplicate or post-deadline reply
        now = self.sim.now
        rtt = self._quantize(now - t0)
        # The ledger reflects what the app *reports* (so the truncation
        # quirk shows up as negative user-kernel overhead, Figure 3).
        self.collector.record_user_recv(probe_id, t0 + rtt)
        self.samples.append(RttSample(probe_id, t0, rtt))
        if len(self.samples) >= self._expected:
            self._finish_now()

    def _quantize(self, rtt):
        if (self.phone.profile.ping_integer_above_100ms and rtt >= 0.1):
            return math.floor(rtt * 1e3) * 1e-3
        return rtt

    def _deadline(self):
        self._finish_event = None
        for probe_id, t0 in self._pending.items():
            self.collector.record_timeout(probe_id)
            self.samples.append(RttSample(probe_id, t0, None))
        self._pending = {}
        self._finish_now()

    def _finish_now(self):
        if not self.running:
            return
        if self._finish_event is not None:
            self._finish_event.cancel()
            self._finish_event = None
        self._finish()

    def _cleanup(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None
