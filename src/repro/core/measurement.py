"""The multi-layer timestamp ledger (paper Figure 1).

A *probe transaction* is one request/response pair identified by a
``probe_id`` carried in packet metadata (servers copy it onto their
responses).  The :class:`ProbeCollector` assembles, per probe:

* user-level timestamps ``tou``/``tiu`` reported by the measuring tool,
* the request and response :class:`~repro.net.packet.Packet` objects,
  captured at the phone's kernel tap — each packet accumulates its
  ``kernel`` (tok/tik), ``driver``/``driver_done`` (tov, dvsend/dvrecv)
  and ``phy`` (ton/tin) stamps as it traverses the stack,

from which the layered RTTs fall out as plain arithmetic:

* ``du = tiu - tou`` (user/app level),
* ``dk = tik - tok`` (kernel level, what a bpf capture reports),
* ``dv = tiv - tov`` (driver level, the rebuilt-kernel instrumentation),
* ``dn = tin - ton`` (network level, what the sniffers see).
"""

from repro.net.packet import TCP_ACK, TcpSegment
from repro.obs.names import (
    PROBE_DN_SECONDS,
    PROBE_DU_SECONDS,
    PROBE_INFLATION_SECONDS,
    PROBE_TIMEOUTS_TOTAL,
)

PROBE_KINDS = ("probe", "warmup", "background")


def _is_pure_tcp_ack(packet):
    payload = packet.payload
    return (
        isinstance(payload, TcpSegment)
        and payload.payload_size == 0
        and payload.flags == TCP_ACK
    )


class ProbeRecord:
    """Everything known about one probe transaction."""

    __slots__ = ("probe_id", "kind", "user_send", "user_recv",
                 "request", "response", "timed_out")

    def __init__(self, probe_id, kind="probe"):
        if kind not in PROBE_KINDS:
            raise ValueError(f"unknown probe kind {kind!r}")
        self.probe_id = probe_id
        self.kind = kind
        self.user_send = None
        self.user_recv = None
        self.request = None
        self.response = None
        self.timed_out = False

    # -- layered RTTs -----------------------------------------------------

    def _span(self, stamp):
        if self.request is None or self.response is None:
            return None
        t_out = self.request.stamps.get(stamp)
        t_in = self.response.stamps.get(stamp)
        if t_out is None or t_in is None:
            return None
        return t_in - t_out

    @property
    def du(self):
        """User-level RTT (what the app reports)."""
        if self.user_send is None or self.user_recv is None:
            return None
        return self.user_recv - self.user_send

    @property
    def dk(self):
        """Kernel-level RTT (bpf capture vantage point)."""
        return self._span("kernel")

    @property
    def dv(self):
        """Driver-level RTT (dhd_start_xmit out, dhdsdio_isr in)."""
        return self._span("driver")

    @property
    def dn(self):
        """Network-level RTT (on-air, the sniffers' ground truth)."""
        return self._span("phy")

    @property
    def dvsend(self):
        """Driver TX path delay (dhd_start_xmit -> dhdsdio_txpkt)."""
        if self.request is None:
            return None
        entry = self.request.stamps.get("driver")
        done = self.request.stamps.get("driver_done")
        if entry is None or done is None:
            return None
        return done - entry

    @property
    def dvrecv(self):
        """Driver RX path delay (dhdsdio_isr -> dhd_rxf_enqueue)."""
        if self.response is None:
            return None
        entry = self.response.stamps.get("driver")
        done = self.response.stamps.get("driver_done")
        if entry is None or done is None:
            return None
        return done - entry

    @property
    def complete(self):
        """Whether the full user-to-user transaction is observable."""
        return self.du is not None

    def __repr__(self):
        du = f"{self.du * 1e3:.2f}ms" if self.du is not None else "?"
        return f"<ProbeRecord {self.probe_id} ({self.kind}) du={du}>"


class ProbeCollector:
    """Allocates probe ids and assembles :class:`ProbeRecord` ledgers.

    Attach one collector per phone; it taps the phone's kernel layer,
    exactly where the paper ran its bpf capture.
    """

    def __init__(self, phone):
        self.phone = phone
        self.sim = phone.sim
        self._records = {}
        self._next_id = 1
        phone.kernel.add_tap(self._kernel_tap)

    # -- probe lifecycle -------------------------------------------------

    def new_probe(self, kind="probe"):
        """Allocate a probe id and its record.  Embed the id in packet
        metadata as ``{'probe_id': record.probe_id}``."""
        record = ProbeRecord(self._next_id, kind=kind)
        self._next_id += 1
        self._records[record.probe_id] = record
        return record

    def meta_for(self, record):
        """Packet metadata announcing this probe."""
        return {"probe_id": record.probe_id, "probe_kind": record.kind}

    def get(self, probe_id):
        return self._records.get(probe_id)

    # -- user-level timestamps ------------------------------------------

    def record_user_send(self, probe_id, time):
        self._records[probe_id].user_send = time
        # The probe transaction is now in flight: spans recorded until
        # the reply (bus wakes, beacon waits, ...) belong to it.
        if self.sim.spans.enabled:
            self.sim.spans.set_probe(probe_id)

    def record_user_recv(self, probe_id, time):
        record = self._records[probe_id]
        record.user_recv = time
        if self.sim.spans.enabled:
            self.sim.spans.clear_probe(probe_id)
        if self.sim.metrics.enabled:
            self._observe_record(record)

    def record_timeout(self, probe_id):
        self._records[probe_id].timed_out = True
        if self.sim.spans.enabled:
            self.sim.spans.clear_probe(probe_id)
        if self.sim.metrics.enabled:
            self.sim.metrics.inc(PROBE_TIMEOUTS_TOTAL,
                                 labels={"kind": self._records[probe_id].kind})

    def _observe_record(self, record):
        """Feed one completed probe's layered RTTs into the registry.

        The headline number is the *inflation* ``du - dn`` — how much the
        user-level RTT exceeds what was actually on the air, i.e. the
        delay the paper attributes to the phone.
        """
        metrics = self.sim.metrics
        labels = {"kind": record.kind}
        du = record.du
        if du is not None:
            metrics.observe(PROBE_DU_SECONDS,  # obs: caller-guarded
                            du, labels=labels)
        dn = record.dn
        if dn is not None:
            metrics.observe(PROBE_DN_SECONDS,  # obs: caller-guarded
                            dn, labels=labels)
        if du is not None and dn is not None:
            metrics.observe(PROBE_INFLATION_SECONDS,  # obs: caller-guarded
                            du - dn, labels=labels)

    # -- kernel tap ---------------------------------------------------------

    def _kernel_tap(self, packet, direction):
        probe_id = packet.probe_id
        if probe_id is None:
            return
        record = self._records.get(probe_id)
        if record is None:
            return
        if direction == "tx":
            if record.request is None:
                record.request = packet
        else:
            if record.response is None:
                record.response = packet
            elif _is_pure_tcp_ack(record.response) and not _is_pure_tcp_ack(packet):
                # A bare ACK preceded the substantive response (HTTP data,
                # SYN|ACK ...); the tool times against the latter.
                record.response = packet

    # -- result access -----------------------------------------------------------

    def records(self, kind="probe"):
        """All records of a kind, in probe-id order."""
        return [
            record for record in self._records.values() if record.kind == kind
        ]

    def completed(self, kind="probe"):
        return [record for record in self.records(kind) if record.complete]

    def layered_rtts(self, kind="probe"):
        """``{'du': [...], 'dk': [...], 'dv': [...], 'dn': [...]}`` over
        completed probes (seconds)."""
        out = {"du": [], "dk": [], "dv": [], "dn": []}
        for record in self.completed(kind):
            for layer in out:
                value = getattr(record, layer)
                if value is not None:
                    out[layer].append(value)
        return out

    def loss_count(self, kind="probe"):
        return sum(1 for r in self.records(kind) if r.timed_out)

    def __repr__(self):
        return f"<ProbeCollector phone={self.phone.name} probes={len(self._records)}>"
