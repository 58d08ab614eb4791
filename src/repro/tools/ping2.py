"""``ping2``: server-side double ping (Sui et al., MobiSys 2016).

The prior-art mitigation the paper positions against: the *server* pings
the phone twice back to back; the first ping drags the phone out of its
power-saving states, and the second ping — sent the moment the first
reply returns — is reported as the RTT.

Its documented weakness (paper §1): "when nRTT is long, the device could
fall back to the inactive state again before it receives the response
packet and starts the second ping" — the second ping then pays bus-wake
(RTT > Tis) or even beacon buffering (RTT > Tip) all over again.  The
ablation benchmark sweeps the emulated RTT to show exactly that
crossover against AcuteMon.
"""

from repro.tools.base import RttSample, run_until_complete


class Ping2Tool:
    """Measures phone RTT from the server with warm-up/probe ping pairs."""

    def __init__(self, server_host, phone_ip, interval=1.0, timeout=1.0,
                 name="ping2"):
        self.host = server_host
        self.sim = server_host.sim
        self.phone_ip = phone_ip
        self.interval = interval
        self.timeout = timeout
        self.name = name
        self._timeout_label = f"{self.name}-timeout"
        self._round_label = f"{self.name}-round"
        self.samples = []
        self.first_ping_rtts = []
        self.running = False
        self._on_complete = None
        self._expected = 0
        self._round = 0
        self._handle = None
        self._next_probe_id = 1
        self._pending = {}  # probe_id -> (stage, t0, round_index)
        self._timeout_event = None

    def start(self, count, on_complete=None):
        if self.running:
            raise RuntimeError("ping2 already running")
        self.running = True
        self.samples = []
        self.first_ping_rtts = []
        self._expected = count
        self._round = 0
        self._on_complete = on_complete
        self._handle = self.host.stack.register_ping(0x9922, self._on_reply)
        self._start_round()

    def run_sync(self, count, deadline=None):
        run_until_complete(
            self.sim,
            lambda on_complete: self.start(count, on_complete=on_complete),
            "ping2", deadline)
        return self.samples

    # -- rounds ------------------------------------------------------------

    def _start_round(self):
        if self._round >= self._expected:
            self._finish()
            return
        self._round += 1
        self._send_ping("warm")

    def _send_ping(self, stage):
        probe_id = self._next_probe_id
        self._next_probe_id += 1
        t0 = self.sim.now
        self._pending[probe_id] = (stage, t0, self._round)
        self.host.stack.send_echo_request(
            self.phone_ip, 0x9922, probe_id & 0xFFFF,
            meta={"probe_id": probe_id},
        )
        self._timeout_event = self.sim.schedule(
            self.timeout, self._stage_timeout, probe_id,
            label=self._timeout_label,
        )

    def _on_reply(self, packet):
        probe_id = packet.probe_id
        entry = self._pending.pop(probe_id, None)
        if entry is None:
            return
        stage, t0, round_index = entry
        if self._timeout_event is not None:
            self._timeout_event.cancel()
            self._timeout_event = None
        rtt = self.sim.now - t0
        if stage == "warm":
            self.first_ping_rtts.append(rtt)
            # Fire the measurement ping immediately — the whole point.
            self._send_ping("probe")
        else:
            self.samples.append(RttSample(round_index, t0, rtt))
            self._schedule_next_round()

    def _stage_timeout(self, probe_id):
        self._timeout_event = None
        entry = self._pending.pop(probe_id, None)
        if entry is None:
            return
        stage, t0, round_index = entry
        if stage == "probe":
            self.samples.append(RttSample(round_index, t0, None))
        self._schedule_next_round()

    def _schedule_next_round(self):
        self.sim.post(self.sim.now + self.interval, self._start_round,
                      label=self._round_label)

    def _finish(self):
        self.running = False
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if self._on_complete is not None:
            self._on_complete(self.samples)

    def rtts(self):
        return [sample.rtt for sample in self.samples if not sample.lost]

    def loss_count(self):
        return sum(1 for sample in self.samples if sample.lost)
