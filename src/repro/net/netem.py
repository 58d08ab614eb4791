"""``tc netem``-style network emulation.

The paper's testbed emulates Internet RTTs by adding delay on the
measurement server with ``tc`` ("we set the nRTT to 30ms and 60ms with tc
command on the server side").  :class:`NetemQdisc` reproduces that knob —
fixed delay, optional jitter (uniform or normal), optional loss — and can
be attached to any host's egress.
"""

from repro.obs.names import SPAN_WIRE_NETEM


class NetemStats:
    __slots__ = ("delayed", "lost")

    def __init__(self):
        self.delayed = 0
        self.lost = 0


class NetemQdisc:
    """Delay/jitter/loss shaping applied to packets passing through it.

    Parameters
    ----------
    delay:
        Fixed one-way delay in seconds.
    jitter:
        Jitter half-width in seconds; each packet draws an extra delay.
    jitter_dist:
        ``'uniform'`` (default, +/- jitter) or ``'normal'`` (sigma=jitter,
        clamped at zero), matching tc's ``delay <d> <jitter>`` and
        ``distribution normal``.
    loss:
        Independent drop probability in [0, 1].
    maintain_order:
        When true, a packet is never released before one that entered
        earlier (tc reorders by default; enable this for strictly FIFO
        behaviour).
    """

    def __init__(self, sim, delay=0.0, jitter=0.0, jitter_dist="uniform",
                 loss=0.0, rng=None, maintain_order=False, name="netem"):
        if delay < 0 or jitter < 0:
            raise ValueError("delay and jitter must be >= 0")
        if not 0.0 <= loss <= 1.0:
            raise ValueError("loss must be within [0, 1]")
        if jitter_dist not in ("uniform", "normal"):
            raise ValueError(f"unknown jitter distribution {jitter_dist!r}")
        if (jitter > 0 or loss > 0) and rng is None:
            raise ValueError("jitter/loss require an rng")
        self._sim = sim
        self.delay = delay
        self.jitter = jitter
        self.jitter_dist = jitter_dist
        self.loss = loss
        self.rng = rng
        self.maintain_order = maintain_order
        self.name = name
        self._netem_label = f"netem:{self.name}"
        self.stats = NetemStats()
        self._last_release = 0.0

    def draw_delay(self):
        """One per-packet delay sample."""
        extra = 0.0
        if self.jitter > 0:
            if self.jitter_dist == "uniform":
                extra = self.rng.uniform(-self.jitter, self.jitter)
            else:
                extra = self.rng.gauss(0.0, self.jitter)
        return max(0.0, self.delay + extra)

    def apply(self, packet, forward):
        """Shape one packet; ``forward(packet)`` runs when it is released."""
        if self.loss > 0 and self.rng.random() < self.loss:
            self.stats.lost += 1
            return
        sim = self._sim
        release = sim.now + self.draw_delay()
        if self.maintain_order and release < self._last_release:
            release = self._last_release
        self._last_release = release
        self.stats.delayed += 1
        if sim.spans.enabled and packet.probe_id is not None:
            # Emulated wired-path delay: one leg of the probe's nRTT.
            sim.spans.record(SPAN_WIRE_NETEM, sim.now, release,
                             netem=self.name, probe_id=packet.probe_id)
        sim.post(release, forward, packet, label=self._netem_label)
