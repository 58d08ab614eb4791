"""Exporters: JSON-lines, Prometheus text, Chrome trace-event JSON.

All three work from plain data — a
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dict for metrics and
an iterable of :class:`~repro.obs.spans.Span` for timelines — so they
export merged campaign snapshots exactly as they export a live registry.

The Chrome trace output loads directly into ``chrome://tracing`` (or
https://ui.perfetto.dev): each span category (``sdio``, ``psm``,
``measurement``, ...) becomes one named track, and the bus/PSM/probe
spans line up to reconstruct the paper's delay decomposition — a probe
span visibly covering an ``sdio.promotion`` or ``psm.buffered`` span
*is* the inflation being explained.
"""

import json
from bisect import bisect_right
from itertools import accumulate

from repro.obs.sketch import DDSketch

#: The Prometheus ``le`` grid (seconds) every histogram is exported on.
#: Spans the sub-millisecond driver costs up to the multi-beacon PSM
#: waits the paper measures; anything beyond 1 s counts only in +Inf.
DEFAULT_LATENCY_BUCKETS = (
    100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3,
    75e-3, 100e-3, 150e-3, 250e-3, 500e-3, 1.0,
)

_INF = float("inf")


def _fmt(value):
    """Prometheus number formatting: ints without a trailing .0, and
    ``+Inf`` / ``-Inf`` / ``NaN`` for the non-finite floats (``None``
    is ``NaN`` too)."""
    if value is None or value != value:
        return "NaN"
    if value == _INF:
        return "+Inf"
    if value == -_INF:
        return "-Inf"
    if isinstance(value, int) or (isinstance(value, float)
                                  and value == int(value)):
        return str(int(value))
    return repr(value)


def _le_counts(payload):
    """The cumulative count at each ``le`` bound, read from a sketch
    payload (see :func:`to_prometheus`)."""
    sketch = DDSketch.from_payload(payload)
    keys = sorted(sketch.bins)
    cumulative = list(accumulate((sketch.bins[key] for key in keys),
                                 initial=sketch.zero_count))
    return [cumulative[bisect_right(keys, sketch.key(bound))]
            for bound in DEFAULT_LATENCY_BUCKETS]


def _escape_label_value(value):
    """Escape a label value per the exposition format (version 0.0.4):
    backslash, double-quote and newline are the only escapes."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _label_str(labels, extra=None):
    items = dict(labels)
    if extra:
        items.update(extra)
    if not items:
        return ""
    body = ",".join(f'{key}="{_escape_label_value(items[key])}"'
                    for key in sorted(items))
    return "{" + body + "}"


def to_jsonl(snapshot):
    """One JSON object per line, one line per metric."""
    lines = [json.dumps(entry, sort_keys=True)
             for entry in snapshot.get("metrics", ())]
    return "\n".join(lines) + ("\n" if lines else "")


def to_prometheus(snapshot):
    """Prometheus text exposition format (version 0.0.4).

    A histogram exports ``_bucket{le=...}`` on
    :data:`DEFAULT_LATENCY_BUCKETS`, then ``_sum`` and ``_count``.  Each
    ``le`` count is read from the entry's sketch: the zero bucket plus
    every bin whose key is at most ``key(b)``.  A bin holds the values
    in ``(gamma**(k-1), gamma**k]``, so that is every observation
    ``<= b`` plus only those in ``(b, b * gamma)``: the bucket edge sits
    up to ``gamma`` (1.0202 at alpha 0.01, about 2%) above the nominal
    bound.
    """
    lines = []
    typed = set()
    for entry in snapshot.get("metrics", ()):
        name, kind, labels = entry["name"], entry["kind"], entry["labels"]
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")
        if kind in ("counter", "gauge"):
            lines.append(f"{name}{_label_str(labels)} {_fmt(entry['value'])}")
            continue
        for bound, cumulative in zip(DEFAULT_LATENCY_BUCKETS,
                                     _le_counts(entry["sketch"])):
            lines.append(f"{name}_bucket"
                         f"{_label_str(labels, {'le': _fmt(bound)})} "
                         f"{cumulative}")
        lines.append(f"{name}_bucket{_label_str(labels, {'le': '+Inf'})} "
                     f"{entry['count']}")
        lines.append(f"{name}_sum{_label_str(labels)} {_fmt(entry['sum'])}")
        lines.append(f"{name}_count{_label_str(labels)} {entry['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_chrome_trace(spans, pid=0):
    """Chrome trace-event JSON (the ``traceEvents`` array format).

    Spans become complete ("X") events; each span category gets its own
    tid with a ``thread_name`` metadata event so ``chrome://tracing``
    shows one labelled track per subsystem.  Timestamps are microseconds
    of simulated time.
    """
    events = []
    tids = {}
    for span in spans:
        category = span.category
        tid = tids.get(category)
        if tid is None:
            tid = tids[category] = len(tids) + 1
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": category},
            })
        events.append({
            "name": span.name, "cat": category, "ph": "X",
            "ts": span.start * 1e6, "dur": (span.end - span.start) * 1e6,
            "pid": pid, "tid": tid,
            "args": {key: _json_safe(value)
                     for key, value in span.fields.items()},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _json_safe(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def write_snapshot(path, snapshot):
    """Write a snapshot as Prometheus text, or JSON-lines for ``.jsonl``
    paths.  Returns the format written."""
    path = str(path)
    if path.endswith(".jsonl"):
        text, fmt = to_jsonl(snapshot), "jsonl"
    else:
        text, fmt = to_prometheus(snapshot), "prometheus"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return fmt


def write_chrome_trace(path, spans, pid=0):
    """Serialise spans to a ``chrome://tracing``-loadable JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(spans, pid=pid), handle)
