"""The paper's "Java ping".

MobiPerf's second measurement method uses the Java ``InetAddress`` API,
which probes reachability with TCP control messages — a SYN answered by
RST (closed port).  The paper re-implements it ("we implement its second
method in our own test app, called Java ping") because MobiPerf cannot
configure the probe count.

The defining characteristic is that timestamps are taken inside the
Dalvik runtime, adding the Δdu−k the paper's earlier work measured —
hence ``runtime = 'dalvik'``.
"""

from repro.tools.base import MeasurementTool, RttSample

#: A port nothing listens on; the server stack answers SYNs with RST.
DEFAULT_CLOSED_PORT = 7


class JavaPingTool(MeasurementTool):
    """TCP SYN -> RST reachability probing from the Dalvik runtime."""

    runtime = "dalvik"

    def __init__(self, phone, collector, target_ip, port=DEFAULT_CLOSED_PORT,
                 interval=1.0, timeout=1.0, name="javaping"):
        super().__init__(phone, collector, target_ip, name=name)
        self._timeout_label = f"{self.name}-timeout"
        self._next_label = f"{self.name}-next"
        self.port = port
        self.interval = interval
        self.timeout = timeout
        self._expected = 0
        self._pending = None
        self._timeout_event = None

    def _begin(self, count):
        self._expected = count
        self._send_probe()

    def _send_probe(self):
        if len(self.samples) >= self._expected:
            self._finish()
            return
        record = self.collector.new_probe(kind="probe")
        meta = self.collector.meta_for(record)
        t0 = self.phone.user_send(lambda: self._connect(record.probe_id, meta))
        self.collector.record_user_send(record.probe_id, t0)
        self._pending = (record.probe_id, t0)
        self._timeout_event = self.sim.schedule(
            self.timeout, self._probe_timeout, record.probe_id,
            label=self._timeout_label,
        )

    def _connect(self, probe_id, meta):
        conn = self.phone.stack.tcp.connect(self.target_ip, self.port,
                                            meta=meta)
        # A closed port answers with RST; an open one with SYN|ACK.  Both
        # give a reachability RTT, matching InetAddress semantics.
        conn.on_reset = self.phone.user_wrap(
            lambda _conn: self._completed(probe_id))
        conn.on_connected = self.phone.user_wrap(
            lambda _conn: self._completed(probe_id, conn))

    def _completed(self, probe_id, conn=None):
        if self._pending is None or self._pending[0] != probe_id:
            return
        _pid, t0 = self._pending
        self._pending = None
        if conn is not None:
            conn.abort()
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

    def _cleanup(self):
        if self._timeout_event is not None:
            self._timeout_event.cancel()
            self._timeout_event = None
