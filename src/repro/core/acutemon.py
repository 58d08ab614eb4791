"""AcuteMon: accurate nRTT measurement on an (un)modified phone.

Two concurrent activities, exactly as §4.1 describes:

* the **background-traffic thread (BT)** sends one warm-up packet, waits
  ``dpre``, then keeps sending lightweight background packets every
  ``db`` while the measurement runs.  Warm-up and background packets are
  UDP with TTL=1: the first-hop router drops them (and AcuteMon ignores
  the ICMP time-exceeded responses), so they never burden the path under
  measurement.  Their only job is to keep the SDIO bus awake and the
  station in CAM.
* the **measurement thread (MT)** starts ``dpre`` after the warm-up and
  sends K probes.  The prototype measures nRTT with TCP control messages
  (SYN -> SYN|ACK) or TCP data (HTTP request/response); ICMP and UDP
  probes are also provided, as the paper notes the extension is easy.

The MT runs as a native binary in the paper (to avoid Dalvik overhead);
here that corresponds to ``phone.runtime = 'native'``, which is asserted
at start unless explicitly overridden.
"""

from repro.core.warmup import DEFAULT_DB, DEFAULT_DPRE
from repro.obs.names import (
    ACUTEMON_BACKGROUND_PACKETS_TOTAL,
    ACUTEMON_PROBES_TOTAL,
    ACUTEMON_WARMUP_PACKETS_TOTAL,
    SPAN_MEASUREMENT_PROBE,
)
from repro.tools.base import run_until_complete
from repro.tools.params import PROBE_METHODS


class AcuteMonConfig:
    """Tunable parameters of one AcuteMon run."""

    def __init__(self, dpre=DEFAULT_DPRE, db=DEFAULT_DB, probe_count=100,
                 probe_method="tcp_syn", probe_gap=0.0, probe_timeout=1.0,
                 warmup_enabled=True, background_enabled=True,
                 warmup_ttl=1, background_payload=8, http_port=80,
                 udp_echo_port=7007, warmup_port=33434,
                 enforce_native_runtime=True):
        if probe_method not in PROBE_METHODS:
            raise ValueError(
                f"unknown probe method {probe_method!r}; known: {PROBE_METHODS}"
            )
        if probe_count < 1:
            raise ValueError("probe_count must be >= 1")
        if dpre <= 0 or db <= 0:
            raise ValueError("dpre and db must be positive")
        self.dpre = dpre
        self.db = db
        self.probe_count = probe_count
        self.probe_method = probe_method
        self.probe_gap = probe_gap
        self.probe_timeout = probe_timeout
        self.warmup_enabled = warmup_enabled
        self.background_enabled = background_enabled
        self.warmup_ttl = warmup_ttl
        self.background_payload = background_payload
        self.http_port = http_port
        self.udp_echo_port = udp_echo_port
        self.warmup_port = warmup_port
        self.enforce_native_runtime = enforce_native_runtime


class ProbeOutcome:
    """One probe's user-level result."""

    __slots__ = ("probe_id", "sent_at", "rtt")

    def __init__(self, probe_id, sent_at, rtt):
        self.probe_id = probe_id
        self.sent_at = sent_at
        self.rtt = rtt  # None on timeout

    @property
    def lost(self):
        return self.rtt is None

    def __repr__(self):
        rtt = "lost" if self.lost else f"{self.rtt * 1e3:.2f}ms"
        return f"<ProbeOutcome {self.probe_id} {rtt}>"


class AcuteMon:
    """The AcuteMon measurement app."""

    def __init__(self, phone, collector, target_ip, config=None,
                 name="acutemon"):
        self.phone = phone
        self.sim = phone.sim
        self.collector = collector
        self.target_ip = target_ip
        self.config = config if config is not None else AcuteMonConfig()
        self.name = name
        self._mt_start_label = f"{self.name}-mt-start"
        self._bg_label = f"{self.name}-bg"
        self._timeout_label = f"{self.name}-timeout"
        self._gap_label = f"{self.name}-gap"
        self._next_label = f"{self.name}-next"
        self.results = []
        self.background_sent = 0
        self.warmups_sent = 0
        self.running = False
        self._on_complete = None
        self._bg_event = None
        self._probe_timer = None
        self._udp_binding = None
        self._ping_handle = None
        self._http_conn = None
        self._pending = None  # (record, user_t0) of the in-flight probe

    # -- lifecycle ---------------------------------------------------------

    def run_sync(self, count=None, deadline=None):
        """Start and drive the simulator until the run completes.

        Same contract as
        :meth:`~repro.tools.base.MeasurementTool.run_sync`, which is
        what lets the tool registry treat AcuteMon as just another
        registered tool.  ``count`` is accepted for signature
        compatibility but the probe count always comes from the config
        (:class:`AcuteMonConfig.probe_count`).  Returns the results.
        """
        run_until_complete(self.sim, self.start, self.name, deadline)
        return self.results

    def start(self, on_complete=None):
        """Kick off the warm-up phase, then the measurement phase."""
        if self.running:
            raise RuntimeError("AcuteMon already running")
        if self.config.enforce_native_runtime and self.phone.runtime != "native":
            # The MT is a pre-compiled C binary in the paper; measuring
            # from Dalvik would re-introduce the user-level overhead.
            self.phone.runtime = "native"
        self.running = True
        self._on_complete = on_complete
        self.results = []
        if self.config.warmup_enabled:
            self._send_warmup()
            if self.config.background_enabled:
                self._start_background_train()
            self.sim.post(self.sim.now + self.config.dpre,
                          self._begin_measurement, label=self._mt_start_label)
        else:
            if self.config.background_enabled:
                self._start_background_train()
            self._begin_measurement()

    def _finish(self):
        self.running = False
        if self._bg_event is not None:
            self._bg_event.cancel()
            self._bg_event = None
        if self._udp_binding is not None:
            self._udp_binding.close()
            self._udp_binding = None
        if self._ping_handle is not None:
            self._ping_handle.close()
            self._ping_handle = None
        if self._http_conn is not None:
            self._http_conn.close()
            self._http_conn = None
        if self._on_complete is not None:
            self._on_complete(self.results)

    # -- background thread -----------------------------------------------------

    def _send_warmup(self):
        record = self.collector.new_probe(kind="warmup")
        meta = self.collector.meta_for(record)
        self.warmups_sent += 1
        if self.sim.metrics.enabled:
            self.sim.metrics.inc(ACUTEMON_WARMUP_PACKETS_TOTAL)
        self.phone.user_send(lambda: self.phone.stack.send_udp(
            self.target_ip, self.config.warmup_port,
            payload_size=self.config.background_payload,
            ttl=self.config.warmup_ttl, meta=meta,
        ))

    def _start_background_train(self):
        # Chained re-arm (``rearm_after``): each successor is scheduled
        # ``db`` after the tick that fired, exactly like the former
        # self-rescheduling callback; _finish() cancels the train.
        self._bg_event = self.sim.schedule_periodic(
            self.config.db, self._background_tick, rearm_after=True,
            label=self._bg_label,
        )

    def _background_tick(self):
        if not self.running:
            return
        record = self.collector.new_probe(kind="background")
        meta = self.collector.meta_for(record)
        self.background_sent += 1
        if self.sim.metrics.enabled:
            self.sim.metrics.inc(ACUTEMON_BACKGROUND_PACKETS_TOTAL)
        self.phone.user_send(lambda: self.phone.stack.send_udp(
            self.target_ip, self.config.warmup_port,
            payload_size=self.config.background_payload,
            ttl=self.config.warmup_ttl, meta=meta,
        ))

    # -- measurement thread ---------------------------------------------------

    def _begin_measurement(self):
        method = self.config.probe_method
        if method == "icmp":
            self._ping_handle = self.phone.stack.register_ping(
                0xACE, self.phone.user_wrap(self._icmp_reply))
        elif method == "udp":
            port = self.phone.stack.allocate_port()
            self._udp_binding = self.phone.stack.udp_bind(
                port, self.phone.user_wrap(self._udp_reply))
            self._udp_src_port = port
        if method == "http":
            self._open_http_connection()
        else:
            self._next_probe()

    def _open_http_connection(self):
        conn = self.phone.stack.tcp.connect(self.target_ip,
                                            self.config.http_port)
        self._http_conn = conn
        conn.on_connected = lambda _conn: self._next_probe()
        conn.on_data = self.phone.user_wrap(self._http_response)
        conn.on_reset = lambda _conn: self._abort_run()

    def _abort_run(self):
        """Target unreachable/reset mid-run: report what we have."""
        if self._probe_timer is not None:
            self._probe_timer.cancel()
            self._probe_timer = None
        self._finish()

    def _next_probe(self):
        if len(self.results) >= self.config.probe_count:
            self._finish()
            return
        record = self.collector.new_probe(kind="probe")
        meta = self.collector.meta_for(record)
        method = self.config.probe_method
        if method == "tcp_syn":
            t0 = self.phone.user_send(lambda: self._connect_probe(record, meta))
        elif method == "http":
            t0 = self.phone.user_send(lambda: self._http_conn.send(
                120, meta=meta))
        elif method == "icmp":
            t0 = self.phone.user_send(lambda: self.phone.stack.send_echo_request(
                self.target_ip, 0xACE, record.probe_id & 0xFFFF, meta=meta))
        else:  # udp
            t0 = self.phone.user_send(lambda: self.phone.stack.send_udp(
                self.target_ip, self.config.udp_echo_port,
                src_port=self._udp_src_port, payload_size=32, meta=meta))
        self.collector.record_user_send(record.probe_id, t0)
        self._pending = (record, t0)
        self._probe_timer = self.sim.schedule(
            self.config.probe_timeout, self._probe_timed_out, record.probe_id,
            label=self._timeout_label,
        )

    def _connect_probe(self, record, meta):
        conn = self.phone.stack.tcp.connect(
            self.target_ip, self.config.http_port, meta=meta)
        conn.on_connected = self.phone.user_wrap(
            lambda _conn: self._tcp_connected(record.probe_id, conn))
        conn.on_reset = lambda _conn: None  # timeout path handles it

    # -- probe completions -------------------------------------------------------

    def _tcp_connected(self, probe_id, conn):
        conn.abort()  # one RST; the probe only needed the SYN|ACK
        self._complete_probe(probe_id)

    def _http_response(self, _conn, _nbytes, meta):
        probe_id = meta.get("probe_id")
        if probe_id is not None:
            self._complete_probe(probe_id)

    def _icmp_reply(self, packet):
        self._complete_probe(packet.probe_id)

    def _udp_reply(self, packet):
        self._complete_probe(packet.probe_id)

    def _complete_probe(self, probe_id):
        if self._pending is None or self._pending[0].probe_id != probe_id:
            return  # late response after timeout: ignore
        record, t0 = self._pending
        self._pending = None
        if self._probe_timer is not None:
            self._probe_timer.cancel()
            self._probe_timer = None
        now = self.sim.now
        self.collector.record_user_recv(probe_id, now)
        self.results.append(ProbeOutcome(probe_id, t0, now - t0))
        if self.sim.spans.enabled:
            self.sim.spans.record(SPAN_MEASUREMENT_PROBE, t0, now,
                                  probe_id=probe_id,
                                  method=self.config.probe_method,
                                  outcome="ok")
        if self.sim.metrics.enabled:
            self.sim.metrics.inc(ACUTEMON_PROBES_TOTAL,
                                 labels={"outcome": "ok"})
        if self.config.probe_gap > 0:
            self.sim.post(self.sim.now + self.config.probe_gap,
                          self._next_probe, label=self._gap_label)
        else:
            self.sim.call_soon(self._next_probe, label=self._next_label)

    def _probe_timed_out(self, probe_id):
        self._probe_timer = None
        if self._pending is None or self._pending[0].probe_id != probe_id:
            return
        record, t0 = self._pending
        self._pending = None
        self.collector.record_timeout(probe_id)
        self.results.append(ProbeOutcome(probe_id, t0, None))
        if self.sim.spans.enabled:
            self.sim.spans.record(SPAN_MEASUREMENT_PROBE, t0, self.sim.now,
                                  probe_id=probe_id,
                                  method=self.config.probe_method,
                                  outcome="timeout")
        if self.sim.metrics.enabled:
            self.sim.metrics.inc(ACUTEMON_PROBES_TOTAL,
                                 labels={"outcome": "timeout"})
        self._next_probe()

    # -- reporting ------------------------------------------------------------

    def rtts(self):
        """Measured RTTs in seconds (lost probes excluded)."""
        return [outcome.rtt for outcome in self.results if not outcome.lost]

    def loss_count(self):
        return sum(1 for outcome in self.results if outcome.lost)

    def __repr__(self):
        return (
            f"<AcuteMon {self.name} method={self.config.probe_method} "
            f"probes={len(self.results)}/{self.config.probe_count}>"
        )
