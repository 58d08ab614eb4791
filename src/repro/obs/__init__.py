"""Unified observability: metrics, timed spans, exporters.

Every :class:`~repro.sim.scheduler.Simulator` carries two observation
records, both disabled by default so the hot path stays one attribute
check per call site:

* ``sim.metrics`` — counters / gauges / latency histograms
  (:class:`~repro.obs.metrics.MetricsRegistry`),
* ``sim.spans`` — named sim-time intervals, each of which also feeds a
  latency histogram in ``sim.metrics``
  (:class:`~repro.obs.spans.SpanTracker`).

Flip both on with :func:`enable_observability`, run the experiment,
then export through :mod:`repro.obs.export` (JSON-lines, Prometheus
text, Chrome trace-event JSON).  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.attribution import (
    COMPONENTS,
    ProbeAttribution,
    attribute_probes,
    attribute_record,
)
from repro.obs.export import (
    DEFAULT_LATENCY_BUCKETS,
    to_chrome_trace,
    to_jsonl,
    to_prometheus,
    write_chrome_trace,
    write_snapshot,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.names import (
    SCHEDULER_EVENTS_CANCELED,
    SCHEDULER_EVENTS_FIRED,
    SCHEDULER_PENDING_EVENTS,
    SIM_CLOCK_SECONDS,
)
from repro.obs.sketch import DDSketch
from repro.obs.spans import Span, SpanTracker, span_metric_name

__all__ = [
    "COMPONENTS",
    "DDSketch",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProbeAttribution",
    "Span",
    "SpanTracker",
    "attribute_probes",
    "attribute_record",
    "enable_observability",
    "finalize_sim_metrics",
    "merge_snapshots",
    "span_metric_name",
    "to_chrome_trace",
    "to_jsonl",
    "to_prometheus",
    "write_chrome_trace",
    "write_snapshot",
]


def enable_observability(sim):
    """Switch a simulator's metrics and spans on; returns ``sim``."""
    sim.metrics.enabled = True
    sim.spans.enabled = True
    return sim


def finalize_sim_metrics(sim):
    """Push end-of-run scheduler gauges into the registry.

    Call after the simulation settles
    (``ExperimentResult.metrics_snapshot`` does this before snapshotting)
    so totals that live as plain attributes on the simulator appear
    alongside the instrumented metrics.
    """
    if not sim.metrics.enabled:
        return
    metrics = sim.metrics
    metrics.set_gauge(SCHEDULER_EVENTS_FIRED, sim.events_fired)
    metrics.set_gauge(SCHEDULER_EVENTS_CANCELED, sim.events_canceled)
    metrics.set_gauge(SCHEDULER_PENDING_EVENTS, sim.pending())
    metrics.set_gauge(SIM_CLOCK_SECONDS, sim.now)
