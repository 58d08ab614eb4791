"""Campaign-scale delay-decomposition reports.

Observed cells aggregate each probe's causal RTT attribution
(:mod:`repro.obs.attribution`) into the ``probe_component_seconds``
histogram — one labelled series per component, sketch-backed, exactly
mergeable.  This module turns those per-cell snapshots into the "which
inflation mechanism dominates, per grid slice" breakdown the paper
builds its argument on:

* :func:`decompose_snapshot` — component statistics from one metrics
  snapshot (a cell, or a merged campaign view),
* :func:`decompose_campaign` — a :class:`DecompositionReport` with one
  :class:`SliceDecomposition` per campaign cell plus the merged
  campaign-wide view,
* renderers — text table, JSON, and Prometheus gauges
  (:func:`render_text` / :func:`to_json` / :func:`to_prometheus_text`),
  surfaced by ``repro report`` and ``repro campaign --report-out``.

Everything here is plain arithmetic over snapshot dicts: snapshots are
deterministic and merge exactly, so a report built from a serial run, a
parallel run, and a crash+resume run of the same campaign is
bit-identical.
"""

import json

from repro.analysis.render import Table
from repro.obs import metrics as obs_metrics
from repro.obs.export import to_prometheus
from repro.obs.names import PROBE_COMPONENT_SECONDS
from repro.obs.attribution import COMPONENTS


class ComponentStats:
    """One component's aggregate over a slice."""

    __slots__ = ("name", "count", "total", "mean", "p50", "p95", "p99",
                 "share")

    def __init__(self, name, count, total, p50, p95, p99, share):
        self.name = name
        self.count = count
        self.total = total
        self.mean = total / count if count else None
        self.p50 = p50
        self.p95 = p95
        self.p99 = p99
        self.share = share

    def as_dict(self):
        return {
            "component": self.name,
            "count": self.count,
            "total_seconds": self.total,
            "mean_seconds": self.mean,
            "p50_seconds": self.p50,
            "p95_seconds": self.p95,
            "p99_seconds": self.p99,
            "share": self.share,
        }

    def __repr__(self):
        share = f"{self.share * 100.0:.1f}%" if self.share is not None else "?"
        return f"<ComponentStats {self.name} {share} n={self.count}>"


class SliceDecomposition:
    """The component breakdown of one grid slice (or a whole campaign)."""

    __slots__ = ("key", "components", "total_seconds", "probes")

    def __init__(self, key, components, total_seconds, probes):
        #: ``{"env": ..., "phone": ..., "rtt": ..., "tool": ...,
        #: "cross_traffic": ...}`` — empty for the merged overall view.
        self.key = key
        #: :class:`ComponentStats` in declared component order.
        self.components = components
        self.total_seconds = total_seconds
        self.probes = probes

    @property
    def dominant(self):
        """The component claiming the largest share of the attributed
        time (declaration order breaks exact ties)."""
        best = None
        for stats in self.components:
            if best is None or stats.total > best.total:
                best = stats
        return best.name if best is not None else None

    def component(self, name):
        for stats in self.components:
            if stats.name == name:
                return stats
        return None

    def as_dict(self):
        return {
            "key": dict(self.key),
            "probes": self.probes,
            "total_seconds": self.total_seconds,
            "dominant": self.dominant,
            "components": [stats.as_dict() for stats in self.components],
        }

    def __repr__(self):
        return (f"<SliceDecomposition {self.key or 'overall'} "
                f"dominant={self.dominant}>")


def _component_series(snapshot):
    """The snapshot's ``probe_component_seconds{kind="probe"}``
    histograms that name a component, in snapshot order."""
    return [entry for entry in snapshot.get("metrics", ())
            if entry["name"] == PROBE_COMPONENT_SECONDS
            and entry["kind"] == "histogram"
            and entry["labels"].get("kind") == "probe"
            and entry["labels"].get("component") is not None]


def decompose_snapshot(snapshot, key=None):
    """Component statistics from one metrics snapshot.

    Returns a :class:`SliceDecomposition`, or ``None`` when the
    snapshot carries no decomposition series (the cell ran without
    observability, or no probe completed).
    """
    entries = {entry["labels"]["component"]: entry
               for entry in _component_series(snapshot)}
    if not entries:
        return None
    grand_total = sum(entry["sum"] for entry in entries.values())
    components = []
    probes = 0
    for name in COMPONENTS:
        entry = entries.get(name)
        if entry is None:
            components.append(ComponentStats(name, 0, 0.0, None, None,
                                             None, None))
            continue
        probes = max(probes, entry["count"])
        share = entry["sum"] / grand_total if grand_total > 0 else None
        components.append(ComponentStats(
            name, entry["count"], entry["sum"],
            entry["p50"], entry["p95"], entry["p99"], share))
    return SliceDecomposition(key or {}, components, grand_total, probes)


class DecompositionReport:
    """Per-slice breakdowns plus the merged campaign-wide view."""

    __slots__ = ("slices", "overall")

    def __init__(self, slices, overall):
        self.slices = slices
        self.overall = overall

    def __len__(self):
        return len(self.slices)


def _cell_key(result):
    return {
        "env": result.env,
        "phone": result.phone,
        "rtt": result.rtt,
        "tool": result.tool,
        "cross_traffic": result.cross_traffic,
    }


def decompose_campaign(campaign):
    """Build the decomposition report for a campaign run (or loaded)
    with ``collect_metrics``.

    Each cell's snapshot is scanned once for its component series; they
    make the cell's slice and are the only series merged
    (:func:`~repro.obs.metrics.merge_snapshots`) for the overall view,
    which equals :func:`decompose_snapshot` of every whole snapshot
    merged.  Returns a :class:`DecompositionReport`, or ``None`` when
    no cell carries a decomposition (campaign ran without metrics).
    """
    slices = []
    cells = []
    for result in campaign.results:
        if result.metrics is None:
            continue
        cell = {"metrics": _component_series(result.metrics)}
        cells.append(cell)
        slice_ = decompose_snapshot(cell, key=_cell_key(result))
        if slice_ is not None:
            slices.append(slice_)
    if not slices:
        return None
    overall = decompose_snapshot(obs_metrics.merge_snapshots(cells))
    return DecompositionReport(slices, overall)


# -- renderers ------------------------------------------------------------

def _ms(value):
    return "-" if value is None else f"{value * 1e3:.3f}"


def _pct(value):
    return "-" if value is None else f"{value * 100.0:.1f}%"


def _slice_label(key):
    if not key:
        return "overall"
    cross = "+cross" if key.get("cross_traffic") else ""
    return (f"{key['env']}:{key['phone']} {key['rtt'] * 1e3:g}ms "
            f"{key['tool']}{cross}")


def render_text(report):
    """The breakdown tables as plain text (the CLI's output)."""
    blocks = []
    table = Table(["Slice", "Probes"]
                  + [name for name in COMPONENTS] + ["Dominant"],
                  title="Delay decomposition: share of attributed RTT "
                        "per mechanism, per grid slice")
    rows = list(report.slices)
    if report.overall is not None:
        rows.append(report.overall)
    for slice_ in rows:
        table.add_row(
            _slice_label(slice_.key), slice_.probes,
            *[_pct(slice_.component(name).share) for name in COMPONENTS],
            slice_.dominant)
    blocks.append(table.render())
    detail = Table(["Slice", "Component", "mean (ms)", "p50 (ms)",
                    "p95 (ms)", "p99 (ms)", "total (s)"],
                   title="Component latency detail")
    for slice_ in rows:
        for stats in slice_.components:
            if not stats.count:
                continue
            detail.add_row(_slice_label(slice_.key), stats.name,
                           _ms(stats.mean), _ms(stats.p50), _ms(stats.p95),
                           _ms(stats.p99), f"{stats.total:.6f}")
    blocks.append(detail.render())
    return "\n\n".join(blocks) + "\n"


def to_json(report):
    """JSON-ready dict (deterministic ordering)."""
    return {
        "slices": [slice_.as_dict() for slice_ in report.slices],
        "overall": (report.overall.as_dict()
                    if report.overall is not None else None),
    }


def to_prometheus_text(report):
    """The breakdown as Prometheus gauges (label-escaped exposition
    text), one series per (slice, component)."""
    metrics = []
    rows = list(report.slices)
    if report.overall is not None:
        rows.append(report.overall)
    for slice_ in rows:
        key = slice_.key
        labels = {
            "env": key.get("env", "all"),
            "phone": key.get("phone", "all"),
            "rtt_ms": (f"{key['rtt'] * 1e3:g}" if "rtt" in key else "all"),
            "tool": key.get("tool", "all"),
            "cross_traffic": str(key.get("cross_traffic", "all")).lower(),
        }
        for stats in slice_.components:
            series = dict(labels, component=stats.name)
            metrics.append({
                "name": "decomposition_component_seconds_total",
                "kind": "gauge", "labels": series, "value": stats.total,
            })
            if stats.share is not None:
                metrics.append({
                    "name": "decomposition_component_share",
                    "kind": "gauge", "labels": series, "value": stats.share,
                })
    return to_prometheus({"metrics": metrics})


def render_report(report, fmt="text"):
    """Render in one of ``text`` / ``json`` / ``prom``."""
    if fmt == "text":
        return render_text(report)
    if fmt == "json":
        return json.dumps(to_json(report), indent=2, sort_keys=True) + "\n"
    if fmt == "prom":
        return to_prometheus_text(report)
    raise ValueError(f"unknown report format {fmt!r}")


def write_report(path, report):
    """Write the report, picking the format from the suffix
    (``.json`` / ``.prom``, else text).  Returns the format."""
    path = str(path)
    if path.endswith(".json"):
        fmt = "json"
    elif path.endswith(".prom"):
        fmt = "prom"
    else:
        fmt = "text"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_report(report, fmt))
    return fmt
