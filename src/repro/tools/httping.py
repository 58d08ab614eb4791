"""httping-style HTTP RTT measurement.

Measures the time from sending an HTTP GET to receiving the response
over a persistent TCP connection, at a fixed probing interval (httping's
default is one probe per second — which, on a sleepy phone, is exactly
slow enough to let the SDIO bus demote between probes).

Modelling note: command-line httping reconnects per probe by default and
reports connect+request+response; the paper's Figure 8 places httping
within a few milliseconds of ICMP ping at the same emulated RTT, which
matches single-RTT (persistent-connection) semantics, so that is what we
implement.  httping is a native binary, hence runtime 'native'.
"""

from repro.net.servers import HTTP_REQUEST_SIZE
from repro.tools.base import MeasurementTool, RttSample
from repro.tools.params import check_tool_params


class HttpingTool(MeasurementTool):
    """Sequential HTTP request/response prober."""

    runtime = "native"

    def __init__(self, phone, collector, target_ip, port=80, interval=1.0,
                 request_size=HTTP_REQUEST_SIZE, timeout=1.0, name="httping"):
        check_tool_params(request_size=request_size)
        super().__init__(phone, collector, target_ip, name=name)
        self._timeout_label = f"{self.name}-timeout"
        self._next_label = f"{self.name}-next"
        self.port = port
        self.interval = interval
        self.request_size = request_size
        self.timeout = timeout
        self._conn = None
        self._expected = 0
        self._pending = None  # (probe_id, t0)
        self._timeout_event = None

    def _begin(self, count):
        self._expected = count
        conn = self.phone.stack.tcp.connect(self.target_ip, self.port)
        self._conn = conn
        conn.on_connected = lambda _conn: self._send_probe()
        conn.on_data = self.phone.user_wrap(self._on_response)
        conn.on_reset = lambda _conn: self._abort()

    def _send_probe(self):
        if len(self.samples) >= self._expected:
            self._finish()
            return
        record = self.collector.new_probe(kind="probe")
        meta = self.collector.meta_for(record)
        t0 = self.phone.user_send(
            lambda: self._conn.send(self.request_size, meta=meta))
        self.collector.record_user_send(record.probe_id, t0)
        self._pending = (record.probe_id, t0)
        self._timeout_event = self.sim.schedule(
            self.timeout, self._probe_timeout, record.probe_id,
            label=self._timeout_label,
        )

    def _on_response(self, _conn, _nbytes, meta):
        probe_id = meta.get("probe_id")
        if self._pending is None or self._pending[0] != probe_id:
            return
        _pid, t0 = self._pending
        self._pending = None
        if self._timeout_event is not None:
            self._timeout_event.cancel()
            self._timeout_event = None
        now = self.sim.now
        self.collector.record_user_recv(probe_id, now)
        self.samples.append(RttSample(probe_id, t0, now - t0))
        self._schedule_next(t0)

    def _probe_timeout(self, probe_id):
        self._timeout_event = None
        if self._pending is None or self._pending[0] != probe_id:
            return
        _pid, t0 = self._pending
        self._pending = None
        self.collector.record_timeout(probe_id)
        self.samples.append(RttSample(probe_id, t0, None))
        self._schedule_next(t0)

    def _schedule_next(self, last_start):
        next_at = max(last_start + self.interval, self.sim.now)
        self.sim.post(next_at, self._send_probe, label=self._next_label)

    def _abort(self):
        if self.running:
            self._finish()

    def _cleanup(self):
        if self._timeout_event is not None:
            self._timeout_event.cancel()
            self._timeout_event = None
        if self._conn is not None:
            self._conn.close()
            self._conn = None
