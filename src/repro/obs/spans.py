"""Timed spans: named sim-time intervals layered on metrics.

A span is one interval of simulated time with a dotted name and optional
fields — ``sdio.promotion`` (the bus coming up), ``psm.buffered`` (a
downlink frame parked at the AP), ``measurement.probe`` (one user-level
probe transaction).  Completing a span does two things at once:

* stores the interval for Chrome-trace export
  (:func:`repro.obs.export.to_chrome_trace`) and attribution
  (:mod:`repro.obs.attribution`),
* observes the duration in a latency histogram named after the span
  (``sdio.promotion`` → ``sdio_promotion_seconds``) in the attached
  :class:`~repro.obs.metrics.MetricsRegistry`.

The tracker is disabled by default; call sites guard exactly like
metrics call sites (invariant RL001)::

    if sim.spans.enabled:
        sim.spans.record("sdio.promotion", t0, t0 + delay, bus=self.name)

For intervals whose end is not known upfront, pair :meth:`SpanTracker.begin`
with :meth:`SpanTracker.end` around the scheduled completion.

Spans additionally carry a *probe context* for causal RTT attribution
(docs/OBSERVABILITY.md): while a measurement probe is in flight the
:class:`~repro.core.measurement.ProbeCollector` sets
:meth:`SpanTracker.set_probe`, and every span recorded without an
explicit ``probe_id`` field inherits the in-flight probe's id.  Spans
recorded at layers that see the packet itself (channel airtime, netem
wire delay, driver dpc queueing) pass ``probe_id=packet.probe_id``
explicitly, which always wins over the context.  The per-probe span
sets are what :mod:`repro.obs.attribution` folds into the paper's
delay-decomposition components.
"""


class Span:
    """One completed named interval of simulated time."""

    __slots__ = ("name", "start", "end", "fields")

    def __init__(self, name, start, end, fields):
        self.name = name
        self.start = start
        self.end = end
        self.fields = fields

    @property
    def duration(self):
        return self.end - self.start

    @property
    def category(self):
        """First dotted component (``sdio.promotion`` → ``sdio``)."""
        return self.name.partition(".")[0]

    def __repr__(self):
        return (f"<Span {self.name} [{self.start * 1e3:.3f}ms "
                f"+{self.duration * 1e3:.3f}ms]>")


def span_metric_name(name):
    """Histogram name a span feeds (``psm.beacon_wait`` →
    ``psm_beacon_wait_seconds``)."""
    return name.replace(".", "_") + "_seconds"


class SpanTracker:
    """Collects :class:`Span` objects and feeds their durations to metrics."""

    __slots__ = ("enabled", "metrics", "spans", "limit", "dropped",
                 "probe_context", "_open", "_next_token")

    def __init__(self, metrics=None, enabled=False, limit=200_000):
        self.enabled = enabled
        self.metrics = metrics
        self.spans = []
        self.limit = limit
        self.dropped = 0
        #: The in-flight probe id spans inherit (see :meth:`set_probe`).
        self.probe_context = None
        self._open = {}
        self._next_token = 1

    # -- probe context ----------------------------------------------------

    def set_probe(self, probe_id):
        """Attribute subsequently recorded spans to ``probe_id``.

        Spans recorded with an explicit ``probe_id`` field keep it; the
        context only fills the gap for layers that cannot see the
        packet (SDIO wake, PSM beacon wait).
        """
        self.probe_context = probe_id

    def clear_probe(self, probe_id=None):
        """Drop the probe context.

        With ``probe_id`` given, clears only if that probe still owns
        the context — a completing probe must not clear a successor's
        context when transactions overlap (10 ms-interval pings).
        """
        if probe_id is None or self.probe_context == probe_id:
            self.probe_context = None

    # -- recording --------------------------------------------------------

    def record(self, name, start, end, **fields):
        """Store one completed interval; returns the :class:`Span`."""
        if self.probe_context is not None and "probe_id" not in fields:
            fields["probe_id"] = self.probe_context
        span = Span(name, start, end, fields)
        if self.limit is not None and len(self.spans) >= self.limit:
            self.dropped += 1
        else:
            self.spans.append(span)
        metrics = self.metrics
        if metrics is not None and metrics.enabled:
            metrics.observe(span_metric_name(name), end - start)
        return span

    def begin(self, name, start, **fields):
        """Open a span whose end is not yet known; returns a token."""
        token = self._next_token
        self._next_token += 1
        self._open[token] = (name, start, fields)
        return token

    def end(self, token, end, **extra_fields):
        """Complete a span opened with :meth:`begin`.

        Unknown (already-ended or discarded) tokens are a no-op,
        returning ``None``.
        """
        opened = self._open.pop(token, None)
        if opened is None:
            return None
        name, start, fields = opened
        if extra_fields:
            fields = {**fields, **extra_fields}
        return self.record(name, start, end, **fields)

    def discard(self, token):
        """Abandon an open span without recording it."""
        self._open.pop(token, None)

    # -- access -----------------------------------------------------------

    def by_name(self, name):
        return [span for span in self.spans if span.name == name]

    def names(self):
        return sorted({span.name for span in self.spans})

    def clear(self):
        self.spans.clear()
        self._open.clear()
        self.dropped = 0
        self.probe_context = None

    def __iter__(self):
        return iter(self.spans)

    def __len__(self):
        return len(self.spans)

    def __repr__(self):
        state = "enabled" if self.enabled else "disabled"
        return f"<SpanTracker {state} spans={len(self.spans)}>"
