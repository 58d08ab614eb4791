"""Metrics registry: counters, gauges, and sketch-backed histograms.

One :class:`MetricsRegistry` attaches to each
:class:`~repro.sim.scheduler.Simulator` (``sim.metrics``).  It is
disabled by default so the hot path costs a single attribute check; call
sites follow the established trace-guard idiom::

    if sim.metrics.enabled:
        sim.metrics.inc(SDIO_WAKES_TOTAL, labels={"bus": self.name})

Metrics are identified by ``(name, labels)``.  Three kinds exist:

* :class:`Counter` — monotonically increasing value (``inc``),
* :class:`Gauge` — point-in-time value (``set``),
* :class:`Histogram` — sum/count/min/max plus an embedded
  :class:`~repro.obs.sketch.DDSketch`, the histogram's only bucket
  structure: it supplies the p50/p95/p99 estimates with a
  relative-error bound, and the exporter derives the Prometheus
  cumulative-``le`` series from it (:mod:`repro.obs.export`).

Snapshots are *mergeable*: campaign workers return per-cell snapshots
and the parent folds them together — sketch bins sum exactly
(:func:`merge_snapshots`) — so a parallel sweep produces bit-identically
the snapshot a serial one does.  Metrics whose values depend on
wall-clock time (handler self-time) are flagged ``volatile`` and
excluded from snapshots by default, keeping snapshots deterministic.
"""

import sys
from math import log

from repro.obs.sketch import DDSketch

_INF = float("inf")
_NEG_INF = -_INF
_FLOAT_MAX = sys.float_info.max

#: The fields of a histogram snapshot entry, in snapshot order.  Older
#: records also carry ``buckets``/``counts``; :func:`merge_snapshots`
#: drops them.
HISTOGRAM_FIELDS = ("name", "kind", "labels", "sum", "count", "min", "max",
                    "p50", "p95", "p99", "sketch")


def _label_key(labels):
    if not labels:
        return ()
    if len(labels) == 1:
        # Nothing to sort: the common single-label key, built directly.
        return tuple(labels.items())
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count (or sum)."""

    kind = "counter"

    __slots__ = ("name", "labels", "value", "volatile")

    def __init__(self, name, labels=(), volatile=False):
        self.name = name
        self.labels = labels
        self.value = 0
        self.volatile = volatile

    def inc(self, amount=1):
        self.value += amount

    def payload(self):
        return {"value": self.value}

    def __repr__(self):
        return f"<Counter {self.name}{dict(self.labels)} {self.value}>"


class Gauge:
    """A point-in-time value."""

    kind = "gauge"

    __slots__ = ("name", "labels", "value", "volatile")

    def __init__(self, name, labels=(), volatile=False):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.volatile = volatile

    def set(self, value):
        self.value = value

    def payload(self):
        return {"value": self.value}

    def __repr__(self):
        return f"<Gauge {self.name}{dict(self.labels)} {self.value}>"


class Histogram:
    """Latency histogram: sum/count/min/max plus a quantile sketch.

    Every observation lands in a :class:`~repro.obs.sketch.DDSketch`,
    the histogram's only bucket structure.  :meth:`percentile` reads it
    — estimates carry the sketch's relative-error bound (1%), clamped
    to the observed ``[min, max]`` so degenerate distributions (a single
    repeated value) report exactly — and the Prometheus exporter
    derives its cumulative ``le`` counts from it.
    """

    kind = "histogram"

    __slots__ = ("name", "labels", "sum", "count", "minimum", "maximum",
                 "volatile", "sketch")

    def __init__(self, name, labels=(), volatile=False):
        self.name = name
        self.labels = labels
        self.sum = 0.0
        self.count = 0
        self.minimum = None
        self.maximum = None
        self.volatile = volatile
        self.sketch = DDSketch()

    def observe(self, value):
        # Reject NaN and +-inf before any field changes: they would
        # poison ``sum`` and have no sketch bucket.
        if not _NEG_INF < value < _INF:
            raise ValueError(
                f"histogram {self.name!r} cannot observe {value!r}")
        self.sum += value
        self.count += 1
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        self.sketch.add(value)

    def percentile(self, q):
        """Estimated ``q``-th percentile (``None`` while empty).

        Sketch estimate clamped to the observed ``[min, max]``; within
        relative error ``sketch.alpha`` of the exact sample quantile.
        """
        if not self.count:
            return None
        estimate = self.sketch.quantile(q / 100.0)
        return min(max(estimate, self.minimum), self.maximum)

    @property
    def p50(self):
        return self.percentile(50)

    @property
    def p95(self):
        return self.percentile(95)

    @property
    def p99(self):
        return self.percentile(99)

    @property
    def mean(self):
        return self.sum / self.count if self.count else None

    def payload(self):
        return {
            "sum": self.sum,
            "count": self.count,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "sketch": self.sketch.payload(),
        }

    def __repr__(self):
        return (f"<Histogram {self.name}{dict(self.labels)} n={self.count} "
                f"p50={self.p50}>")


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create store of metrics, keyed by ``(name, labels)``."""

    __slots__ = ("enabled", "_metrics")

    def __init__(self, enabled=True):
        self.enabled = enabled
        self._metrics = {}

    # -- get-or-create ----------------------------------------------------

    def _get(self, cls, name, labels, **kwargs):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels=key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}")
        return metric

    def counter(self, name, labels=None, volatile=False):
        return self._get(Counter, name, labels, volatile=volatile)

    def gauge(self, name, labels=None, volatile=False):
        return self._get(Gauge, name, labels, volatile=volatile)

    def histogram(self, name, labels=None, volatile=False):
        return self._get(Histogram, name, labels, volatile=volatile)

    # -- one-shot conveniences (the usual call-site form) -----------------

    def inc(self, name, amount=1, labels=None):
        self.counter(name, labels=labels).inc(amount)

    def set_gauge(self, name, value, labels=None):
        self.gauge(name, labels=labels).set(value)

    def observe(self, name, value, labels=None):
        self.histogram(name, labels=labels).observe(value)

    # -- access -----------------------------------------------------------

    def get(self, name, labels=None):
        """The metric registered under ``(name, labels)``, or ``None``."""
        return self._metrics.get((name, _label_key(labels)))

    def metrics(self):
        """All metrics, sorted by (name, labels) for determinism."""
        return [self._metrics[key] for key in sorted(self._metrics)]

    def clear(self):
        self._metrics.clear()

    def __len__(self):
        return len(self._metrics)

    def __iter__(self):
        return iter(self.metrics())

    # -- snapshots ---------------------------------------------------------

    def snapshot(self, include_volatile=False):
        """A JSON-ready, deterministically ordered dump of every metric.

        Volatile (wall-clock-derived) metrics are excluded unless asked
        for, so snapshots of identical simulations compare equal.
        """
        out = []
        for metric in self.metrics():
            if metric.volatile and not include_volatile:
                continue
            entry = {"name": metric.name, "kind": metric.kind,
                     "labels": dict(metric.labels)}
            entry.update(metric.payload())
            out.append(entry)
        return {"metrics": out}

    def __repr__(self):
        state = "enabled" if self.enabled else "disabled"
        return f"<MetricsRegistry {state} metrics={len(self._metrics)}>"


def _copy_histogram(entry):
    """A fresh histogram entry holding exactly :data:`HISTOGRAM_FIELDS`."""
    copied = {field: entry[field] for field in HISTOGRAM_FIELDS}
    copied["labels"] = dict(entry["labels"])
    sketch = entry["sketch"]
    copied["sketch"] = {"alpha": sketch["alpha"], "zero": sketch["zero"],
                        "bins": [list(pair) for pair in sketch["bins"]]}
    return copied


def _series(entry):
    """How merge errors name a series: its name and its labels."""
    return f"{entry.get('name')!r} {entry.get('labels')}"


def _merge_entry(into, entry, folded):
    """Fold ``entry`` into ``into``; a histogram's first merge swaps its
    sketch payload for a :class:`DDSketch` and lists it in ``folded``."""
    if into["kind"] != entry["kind"]:
        raise ValueError(f"cannot merge {_series(entry)}: kind "
                         f"{entry['kind']} != {into['kind']}")
    if into["kind"] == "counter":
        into["value"] += entry["value"]
    elif into["kind"] == "gauge":
        into["value"] = entry["value"]  # later snapshots win
    else:
        sketch = into["sketch"]
        try:
            if not isinstance(sketch, DDSketch):
                sketch = into["sketch"] = DDSketch.from_payload(sketch)
                folded.append(into)
            sketch.merge(DDSketch.from_payload(entry["sketch"]))
        except ValueError as exc:
            raise ValueError(f"cannot merge histogram {_series(entry)}: "
                             f"{exc}") from None
        into["sum"] += entry["sum"]
        into["count"] += entry["count"]
        for field, pick in (("min", min), ("max", max)):
            values = [v for v in (into[field], entry[field]) if v is not None]
            into[field] = pick(values) if values else None


def _no_sketch(entry):
    return ValueError(
        f"histogram {_series(entry)} has no sketch payload, so it cannot "
        f"merge (written before histograms carried one)")


def is_finite_number(value):
    """Whether a JSON value is a number a float can hold (not a bool,
    NaN or an infinity)."""
    return type(value) in (int, float) and \
        -_FLOAT_MAX <= value <= _FLOAT_MAX


def _is_count(value):
    # Exact as a float, so no sum of them overflows a quantile's rank.
    return type(value) is int and 0 <= value <= 2 ** 53


def _valid_entry(entry):
    if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and entry.get("kind") in ("counter", "gauge", "histogram")
            and isinstance(entry.get("labels"), dict)
            and all(isinstance(v, str) for v in entry["labels"].values())):
        return False
    if entry["kind"] != "histogram":
        return is_finite_number(entry.get("value"))
    sketch = entry["sketch"]
    alpha = sketch.get("alpha") if isinstance(sketch, dict) else None
    if not (is_finite_number(alpha) and 0.0 < alpha < 1.0
            and all(field in entry for field in HISTOGRAM_FIELDS)):
        return False
    log_gamma = log((1.0 + alpha) / (1.0 - alpha))
    bins, zero = sketch.get("bins"), sketch.get("zero")
    # A key past ~709 / log(gamma) has no float representative value.
    return (log_gamma > 0.0 and _is_count(zero) and isinstance(bins, list)
            and all(isinstance(pair, list) and len(pair) == 2
                    and type(pair[0]) is int
                    and abs(pair[0]) <= 700.0 / log_gamma
                    and _is_count(pair[1]) for pair in bins)
            and type(entry["sum"]) is float and is_finite_number(entry["sum"])
            and _is_count(entry["count"])
            and all(is_finite_number(entry[field]) or entry[field] is None
                    and (field[0] == "p" or not (zero or bins))
                    for field in ("min", "max", "p50", "p95", "p99")))


def check_snapshot(snapshot):
    """Raise :class:`ValueError` unless ``snapshot`` has the shape
    :meth:`MetricsRegistry.snapshot` writes: entries with a string
    name, a known kind and string labels; a finite counter or gauge
    ``value``; histograms with every one of :data:`HISTOGRAM_FIELDS`,
    a well-formed sketch payload, and a ``min``/``max`` once the
    sketch holds an observation."""
    entries = snapshot.get("metrics") if isinstance(snapshot, dict) else None
    if not isinstance(entries, list):
        raise ValueError("a metrics snapshot is an object with a "
                         "'metrics' list")
    for index, entry in enumerate(entries):
        if (isinstance(entry, dict) and entry.get("kind") == "histogram"
                and entry.get("sketch") is None):
            raise _no_sketch(entry)
        if not _valid_entry(entry):
            raise ValueError(f"metric entry {index} is malformed")


def merge_snapshots(snapshots):
    """Fold :meth:`MetricsRegistry.snapshot` dicts into one.

    Counters and sketch bins sum; gauges keep the last value seen
    (snapshots merge in the order given, which campaign code keeps in
    grid order).  One pass: a histogram series found in two or more
    snapshots folds into one :class:`DDSketch` (its ``sum`` adding in
    snapshot order), and its payload and p50/p95/p99 are written once,
    from the merged sketch — exactly what one registry observing all
    the samples would report, for any partition of the observations.
    A series found in one snapshot passes through as a copy; no input
    is mutated.  Histogram entries keep only :data:`HISTOGRAM_FIELDS`.
    A missing sketch payload, or a kind or sketch ``alpha`` differing
    from the series' earlier entries, raises :class:`ValueError` naming
    the metric and its labels.
    """
    merged = {}
    folded = []
    for snapshot in snapshots:
        for entry in snapshot.get("metrics", ()):
            if entry["kind"] == "histogram" and entry.get("sketch") is None:
                raise _no_sketch(entry)
            key = (entry["name"], _label_key(entry["labels"]))
            if key in merged:
                _merge_entry(merged[key], entry, folded)
            elif entry["kind"] == "histogram":
                merged[key] = _copy_histogram(entry)
            else:
                copied = dict(entry)
                copied["labels"] = dict(copied["labels"])
                merged[key] = copied
    for entry in folded:
        sketch = entry["sketch"]
        entry["sketch"] = sketch.payload()
        for q in (50, 95, 99):
            estimate = sketch.quantile(q / 100.0)
            entry[f"p{q}"] = (None if estimate is None else
                              min(max(estimate, entry["min"]), entry["max"]))
    return {"metrics": [merged[key] for key in sorted(merged)]}
