"""Unit tests for the observability layer: registry, spans, exporters."""

import json
import math
import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    DDSketch,
    Histogram,
    MetricsRegistry,
    SpanTracker,
    merge_snapshots,
    span_metric_name,
    to_chrome_trace,
    to_jsonl,
    to_prometheus,
    write_chrome_trace,
    write_snapshot,
)
from repro.obs.metrics import HISTOGRAM_FIELDS, check_snapshot
from repro.sim.trace import TraceRecorder

#: A snapshot written when histograms kept a fixed ``buckets``/``counts``
#: array next to the sketch, by :func:`_legacy_registry`'s observations.
_LEGACY_SNAPSHOT = (pathlib.Path(__file__).resolve().parent / "data"
                    / "legacy_snapshot.json")


def _legacy_registry():
    registry = MetricsRegistry()
    for value in (0.0, 4e-5, 3e-4, 0.0021, 0.012, 0.0499, 0.051, 0.1024,
                  0.31, 1.7):
        registry.inc("probes_total")
        registry.observe("lat_seconds", value)
        registry.observe("lat_seconds", value * 2, labels={"leg": "wire"})
    registry.set_gauge("clock", 1.7)
    return registry


class TestCountersAndGauges:
    def test_counter_get_or_create_and_inc(self):
        registry = MetricsRegistry()
        registry.inc("events_total")
        registry.inc("events_total", 4)
        assert registry.counter("events_total").value == 5

    def test_labels_distinguish_series(self):
        registry = MetricsRegistry()
        registry.inc("hits", labels={"kind": "a"})
        registry.inc("hits", labels={"kind": "b"})
        registry.inc("hits", labels={"kind": "a"})
        assert registry.counter("hits", labels={"kind": "a"}).value == 2
        assert registry.counter("hits", labels={"kind": "b"}).value == 1

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.inc("x", labels={"a": 1, "b": 2})
        assert registry.get("x", labels={"b": 2, "a": 1}).value == 1

    def test_gauge_set(self):
        registry = MetricsRegistry()
        registry.set_gauge("clock", 1.5)
        registry.set_gauge("clock", 2.5)
        assert registry.gauge("clock").value == 2.5

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.inc("thing")
        with pytest.raises(TypeError):
            registry.gauge("thing")


class TestHistogram:
    def test_observe_buckets_and_stats(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        for value in (0.0005, 0.002, 0.05, 0.5):
            hist.observe(value)
        assert len(hist.sketch.bins) == 4  # one sketch bucket per value
        assert hist.sketch.count == hist.count == 4
        assert hist.minimum == 0.0005
        assert hist.maximum == 0.5
        assert hist.sum == pytest.approx(0.5525)

    def test_percentiles_interpolate_and_clamp(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        for _ in range(100):
            hist.observe(0.05)
        # All mass in one bucket: estimates must stay inside [min, max].
        assert hist.p50 == pytest.approx(0.05)
        assert hist.p99 == pytest.approx(0.05)

    def test_empty_histogram_percentile_is_none(self):
        registry = MetricsRegistry()
        assert registry.histogram("lat").p50 is None
        assert registry.histogram("lat").mean is None

    def test_bucket_knobs_are_gone(self):
        # The sketch is the only bucket structure: no grid to choose,
        # and alpha is fixed so every histogram merges with every other.
        registry = MetricsRegistry()
        with pytest.raises(TypeError):
            registry.histogram("bad", buckets=(0.1, 0.2))
        with pytest.raises(TypeError):
            registry.observe("bad", 0.1, buckets=(0.1, 0.2))
        with pytest.raises(TypeError):
            MetricsRegistry(default_buckets=(0.1, 0.2))
        with pytest.raises(TypeError):
            Histogram("bad", sketch_alpha=0.05)
        assert registry.get("bad") is None

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_observe_rejected_untouched(self, value):
        # Rejected before any field changes: ``count`` stays in step
        # with the sketch, and a histogram whose only value was bad
        # still snapshots.
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        before = registry.snapshot()
        with pytest.raises(ValueError, match="'lat'"):
            hist.observe(value)
        assert hist.count == hist.sketch.count == 0
        assert registry.snapshot() == before
        hist.observe(0.02)
        assert hist.count == hist.sketch.count == 1

    def test_default_buckets_cover_paper_delays(self):
        # Sub-ms driver costs through the ~102.4ms beacon interval.
        assert DEFAULT_LATENCY_BUCKETS[0] <= 1e-4
        assert any(0.1 <= b <= 0.15 for b in DEFAULT_LATENCY_BUCKETS)


class TestHistogramEdgeCases:
    """The audited corners: empty, single-observation, all-overflow."""

    def test_empty_every_stat_is_none_not_nan(self):
        hist = MetricsRegistry().histogram("lat")
        for stat in (hist.p50, hist.p95, hist.p99, hist.mean,
                     hist.minimum, hist.maximum):
            assert stat is None

    def test_empty_snapshot_and_prometheus_render(self):
        registry = MetricsRegistry()
        registry.histogram("lat")
        (entry,) = registry.snapshot()["metrics"]
        assert entry["count"] == 0 and entry["p50"] is None
        text = to_prometheus(registry.snapshot())
        assert 'lat_count 0' in text  # no division, no crash
        assert 'lat_bucket{le="1"} 0' in text

    def test_single_observation_all_percentiles_exact(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        hist.observe(0.042)
        for q in (0, 25, 50, 95, 99, 100):
            assert hist.percentile(q) == pytest.approx(0.042)
        assert hist.mean == pytest.approx(0.042)

    def test_all_observations_in_overflow_bucket(self):
        # Every value beyond the last finite ``le`` bound: the sketch
        # answers within its relative-error bound and the clamp keeps
        # estimates inside [min, max].
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        for value in (1.5, 2.0, 3.0, 4.0):
            hist.observe(value)
        text = to_prometheus(registry.snapshot())
        assert 'lat_bucket{le="1"} 0' in text
        assert 'lat_bucket{le="+Inf"} 4' in text
        assert 1.5 <= hist.p50 <= 4.0
        assert hist.p50 == pytest.approx(2.0, rel=0.01)
        assert hist.p99 == pytest.approx(4.0, rel=0.01)

    def test_merged_overflow_only_snapshots(self):
        registry_a, registry_b = MetricsRegistry(), MetricsRegistry()
        registry_a.observe("h", 5.0)
        registry_b.observe("h", 7.0)
        merged = merge_snapshots([registry_a.snapshot(),
                                  registry_b.snapshot()])
        (entry,) = merged["metrics"]
        assert entry["count"] == 2
        assert 5.0 <= entry["p50"] <= 7.0

    def test_snapshot_carries_sketch_payload(self):
        registry = MetricsRegistry()
        registry.observe("h", 0.02)
        (entry,) = registry.snapshot()["metrics"]
        assert tuple(entry) == HISTOGRAM_FIELDS
        assert len(HISTOGRAM_FIELDS) == 11
        sketch = entry["sketch"]
        assert sketch["bins"] and isinstance(sketch["bins"][0][1], int)
        json.dumps(entry)  # wire-format safe

    def test_parent_format_entries_merge_like_fresh_ones(self):
        # A snapshot written when histograms still kept a fixed bucket
        # array next to the sketch: ``buckets``/``counts`` are dropped,
        # everything else merges exactly as a fresh snapshot does.
        legacy = json.loads(_LEGACY_SNAPSHOT.read_text())
        assert all("counts" in entry for entry in legacy["metrics"]
                   if entry["kind"] == "histogram")
        fresh = _legacy_registry().snapshot()
        assert json.dumps(merge_snapshots([legacy])) \
            == json.dumps(merge_snapshots([fresh]))
        assert json.dumps(merge_snapshots([legacy, fresh])) \
            == json.dumps(merge_snapshots([fresh, fresh]))
        assert to_prometheus(merge_snapshots([legacy])) \
            == to_prometheus(fresh)

    def test_pre_sketch_entry_raises_naming_the_metric(self):
        registry = MetricsRegistry()
        registry.observe("probe_du_seconds", 0.02)
        legacy = registry.snapshot()
        del legacy["metrics"][0]["sketch"]
        for snapshots in ([legacy], [registry.snapshot(), legacy]):
            with pytest.raises(ValueError, match="'probe_du_seconds'"):
                merge_snapshots(snapshots)


    def test_alpha_mismatch_raises_naming_the_metric(self):
        registry = MetricsRegistry()
        registry.observe("probe_du_seconds", 0.02, labels={"leg": "wire"})
        other = json.loads(json.dumps(registry.snapshot()))
        other["metrics"][0]["sketch"]["alpha"] = 0.02
        with pytest.raises(ValueError, match=(
                r"'probe_du_seconds' \{'leg': 'wire'\}: cannot merge "
                r"sketches with alpha 0\.02 into 0\.01")):
            merge_snapshots([registry.snapshot(), other])

    def test_kind_mismatch_raises_naming_the_metric(self):
        counter, gauge = MetricsRegistry(), MetricsRegistry()
        counter.inc("cells_total", labels={"env": "wifi"})
        gauge.set_gauge("cells_total", 3, labels={"env": "wifi"})
        with pytest.raises(ValueError, match=(
                r"'cells_total' \{'env': 'wifi'\}: kind gauge != counter")):
            merge_snapshots([counter.snapshot(), gauge.snapshot()])

    def test_check_snapshot_accepts_written_snapshots(self):
        registry = _legacy_registry()
        registry.histogram("empty_seconds")
        check_snapshot(registry.snapshot())
        check_snapshot(json.loads(_LEGACY_SNAPSHOT.read_text()))

    #: Damage to a snapshot of ``_legacy_registry()`` plus an empty
    #: histogram; its entries are, in order: gauge ``clock``, histograms
    #: ``empty_seconds``, ``lat_seconds`` and ``lat_seconds{leg}``,
    #: counter ``probes_total``.
    DAMAGE = {
        "no_metrics_list": lambda snap: snap.update(metrics={}),
        "entry_not_object": lambda snap: snap["metrics"].append(7),
        "unknown_kind": lambda snap: snap["metrics"][0].update(kind="x"),
        "label_not_string": lambda snap: snap["metrics"][3]["labels"]
        .update(leg=2),
        "counter_value_string": lambda snap: snap["metrics"][4]
        .update(value="3"),
        "gauge_value_bool": lambda snap: snap["metrics"][0]
        .update(value=True),
        "pre_sketch": lambda snap: snap["metrics"][2].pop("sketch"),
        "sum_nan": lambda snap: snap["metrics"][2].update(sum=float("nan")),
        "count_negative": lambda snap: snap["metrics"][2].update(count=-1),
        "min_missing_once_observed": lambda snap: snap["metrics"][2]
        .update(min=None),
        "field_missing": lambda snap: snap["metrics"][2].pop("p99"),
        "alpha_out_of_range": lambda snap: snap["metrics"][2]["sketch"]
        .update(alpha=1.5),
        "alpha_too_small_for_a_gamma": lambda snap: snap["metrics"][2]
        ["sketch"].update(alpha=1e-300),
        "bin_key_past_float_range": lambda snap: snap["metrics"][2]
        ["sketch"]["bins"].append([10 ** 6, 1]),
        "bin_key_beyond_any_float": lambda snap: snap["metrics"][2]
        ["sketch"]["bins"].append([10 ** 400, 1]),
        "bin_count_not_int": lambda snap: snap["metrics"][2]["sketch"]
        ["bins"].append([1, 2.5]),
    }

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_check_snapshot_rejects_damage(self, damage):
        registry = _legacy_registry()
        registry.histogram("empty_seconds")
        snapshot = registry.snapshot()
        self.DAMAGE[damage](snapshot)
        with pytest.raises(ValueError):
            check_snapshot(snapshot)


class TestSnapshotAndMerge:
    def build(self):
        registry = MetricsRegistry()
        registry.inc("c_total", 3)
        registry.set_gauge("g", 7)
        registry.observe("h_seconds", 0.02)
        return registry

    def test_snapshot_is_json_ready_and_sorted(self):
        snap = self.build().snapshot()
        assert [e["name"] for e in snap["metrics"]] == \
            sorted(e["name"] for e in snap["metrics"])
        json.dumps(snap)  # must not raise

    def test_volatile_excluded_by_default(self):
        registry = self.build()
        registry.counter("wall_seconds", volatile=True).inc(0.5)
        names = {e["name"] for e in registry.snapshot()["metrics"]}
        assert "wall_seconds" not in names
        names = {e["name"]
                 for e in registry.snapshot(include_volatile=True)["metrics"]}
        assert "wall_seconds" in names

    def test_merge_sums_counters_and_buckets(self):
        a, b = self.build().snapshot(), self.build().snapshot()
        merged = merge_snapshots([a, b])
        by_name = {e["name"]: e for e in merged["metrics"]}
        assert by_name["c_total"]["value"] == 6
        assert by_name["g"]["value"] == 7  # gauge: last wins
        hist = by_name["h_seconds"]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(0.04)
        assert hist["sketch"]["zero"] + sum(
            count for _, count in hist["sketch"]["bins"]) == 2

    def test_merge_recomputes_percentiles(self):
        registry_a = MetricsRegistry()
        registry_b = MetricsRegistry()
        for _ in range(99):
            registry_a.observe("h", 0.005)
        registry_b.observe("h", 0.05)
        merged = merge_snapshots([registry_a.snapshot(),
                                  registry_b.snapshot()])
        (entry,) = merged["metrics"]
        assert entry["p50"] < 0.01  # median stays in the low bucket
        assert entry["max"] == 0.05

    def test_clear_resets_registry(self):
        registry = self.build()
        registry.clear()
        assert len(registry) == 0
        assert registry.snapshot() == {"metrics": []}


def _shard_registry(observations):
    """One registry holding a mixed counter/gauge/histogram population."""
    registry = MetricsRegistry()
    for value in observations:
        registry.inc("probes_total")
        registry.inc("bytes_total", int(value * 1e6), labels={"dir": "up"})
        registry.set_gauge("clock", value)
        registry.observe("lat_seconds", value)
        registry.observe("lat_seconds", value * 2, labels={"leg": "wire"})
    return registry


class TestMixedKindMergeProperty:
    """merge(shards) == merge(whole) for any partition of the stream."""

    @given(samples=st.lists(
        st.floats(min_value=1e-4, max_value=0.5,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=40), data=st.data())
    def test_any_partition_merges_to_the_whole(self, samples, data):
        cut = data.draw(st.integers(min_value=0, max_value=len(samples)))
        whole = merge_snapshots([_shard_registry(samples).snapshot()])
        shards = [_shard_registry(shard).snapshot()
                  for shard in (samples[:cut], samples[cut:]) if shard]
        merged = merge_snapshots(shards)
        # Gauges are last-wins, so shard order matters for them alone;
        # the final shard ends on the same observation as the whole.
        # Everything integer-state — counter values, bucket counts,
        # sketch bins, and the percentiles recomputed from them — is
        # EXACTLY partition-independent; the float ``sum`` accumulator
        # alone depends on addition order (to ~1 ulp).
        by_key = {(e["name"], tuple(sorted(e["labels"].items()))): e
                  for e in whole["metrics"]}
        assert len(merged["metrics"]) == len(by_key)
        for entry in merged["metrics"]:
            expected = by_key[(entry["name"],
                               tuple(sorted(entry["labels"].items())))]
            for field, value in expected.items():
                if field == "sum":
                    assert entry["sum"] == pytest.approx(value, rel=1e-12)
                else:
                    assert entry[field] == value, field
        # The Prometheus text, ``le`` counts included, is byte-identical
        # to one registry's; ``_sum`` lines carry the same float
        # accumulator and so match to ~1 ulp.
        whole_lines = to_prometheus(
            _shard_registry(samples).snapshot()).splitlines()
        merged_lines = to_prometheus(merged).splitlines()
        assert len(merged_lines) == len(whole_lines)
        for got, want in zip(merged_lines, whole_lines):
            series, _, value = want.rpartition(" ")
            if series.partition("{")[0].endswith("_sum"):
                assert got.rpartition(" ")[0] == series
                assert float(got.rpartition(" ")[2]) \
                    == pytest.approx(float(value), rel=1e-12)
            else:
                assert got == want

    def test_mixed_kinds_survive_one_round_trip(self):
        snapshot = _shard_registry([0.02, 0.2]).snapshot()
        merged = merge_snapshots(
            [json.loads(json.dumps(snapshot))])
        assert json.dumps(merged, sort_keys=True) \
            == json.dumps(merge_snapshots([snapshot]), sort_keys=True)


def _pairwise_payload_merge(a, b):
    bins = {key: count for key, count in a["bins"]}
    for key, count in b["bins"]:
        bins[key] = bins.get(key, 0) + count
    return {"alpha": a["alpha"], "zero": a["zero"] + b["zero"],
            "bins": [[key, bins[key]] for key in sorted(bins)]}


def _pairwise_merge(snapshots):
    """The reference: the pairwise fold ``merge_snapshots`` replaced.

    Every merge of two entries builds a new sketch payload and re-reads
    p50/p95/p99 from it; the one-pass fold must give the same bytes.
    """
    merged = {}
    for snapshot in snapshots:
        for entry in snapshot["metrics"]:
            key = (entry["name"], tuple(sorted(entry["labels"].items())))
            into = merged.get(key)
            if into is None:
                into = merged[key] = json.loads(json.dumps(
                    {field: entry[field] for field in HISTOGRAM_FIELDS}
                    if entry["kind"] == "histogram" else entry))
            elif entry["kind"] == "counter":
                into["value"] += entry["value"]
            elif entry["kind"] == "gauge":
                into["value"] = entry["value"]
            else:
                into["sketch"] = _pairwise_payload_merge(into["sketch"],
                                                         entry["sketch"])
                into["sum"] += entry["sum"]
                into["count"] += entry["count"]
                for field, pick in (("min", min), ("max", max)):
                    values = [v for v in (into[field], entry[field])
                              if v is not None]
                    into[field] = pick(values) if values else None
                sketch = DDSketch.from_payload(into["sketch"])
                for q in (50, 95, 99):
                    estimate = sketch.quantile(q / 100.0)
                    into[f"p{q}"] = (
                        None if estimate is None else
                        min(max(estimate, into["min"]), into["max"]))
    return {"metrics": [merged[key] for key in sorted(merged)]}


#: Series the differential test draws from: each name keeps one kind;
#: the two-label sets come in both insertion orders.
_DIFF_LABELS = ({}, {"leg": "wire"}, {"leg": "air", "dir": "up"},
                {"dir": "up", "leg": "air"})
_DIFF_NAMES = (("probes_total", "counter"), ("clock", "gauge"),
               ("lat_seconds", "histogram"), ("wait_seconds", "histogram"))
_diff_values = st.one_of(
    st.just(0.0), st.floats(min_value=1e-9, max_value=10.0,
                            allow_nan=False, allow_infinity=False))


@st.composite
def _diff_snapshots(draw):
    snapshots = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        registry = MetricsRegistry()
        for name, kind in _DIFF_NAMES:
            for labels in draw(st.lists(st.sampled_from(_DIFF_LABELS),
                                        max_size=3)):
                if kind == "counter":
                    registry.inc(name, draw(st.integers(0, 9)),
                                 labels=labels)
                elif kind == "gauge":
                    registry.set_gauge(name, draw(_diff_values),
                                       labels=labels)
                else:
                    # Empty, zero-bucket-only, single-observation and
                    # wider histograms all come out of this draw.
                    hist = registry.histogram(name, labels=labels)
                    for value in draw(st.lists(_diff_values, max_size=4)):
                        hist.observe(value)
        snapshot = registry.snapshot()
        for entry in snapshot["metrics"]:
            if draw(st.booleans()):
                entry["labels"] = dict(reversed(entry["labels"].items()))
        snapshots.append(snapshot)
    return snapshots


class TestOnePassMergeMatchesPairwiseFold:
    @given(snapshots=_diff_snapshots())
    def test_same_bytes_and_inputs_untouched(self, snapshots):
        before = json.dumps(snapshots)
        merged = merge_snapshots(snapshots)
        assert json.dumps(snapshots) == before
        assert json.dumps(merged, sort_keys=True) \
            == json.dumps(_pairwise_merge(snapshots), sort_keys=True)
        assert json.dumps(snapshots) == before


def _prometheus_le_counts(text, name):
    """``{le: count}`` of one unlabelled histogram in exposition text."""
    counts = {}
    prefix = f'{name}_bucket{{le="'
    for line in text.splitlines():
        if line.startswith(prefix):
            bound, _, count = line[len(prefix):].partition('"} ')
            counts[bound] = int(count)
    return counts


class TestPrometheusFromSketch:
    """The ``le`` series is read from the sketch at export time."""

    @given(samples=st.lists(
        st.one_of(st.just(0.0),
                  st.floats(min_value=1e-6, max_value=5.0,
                            allow_nan=False, allow_infinity=False),
                  st.sampled_from(DEFAULT_LATENCY_BUCKETS)),
        max_size=60))
    def test_le_counts_bracket_the_exact_counts(self, samples):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds")
        for value in samples:
            hist.observe(value)
        text = to_prometheus(registry.snapshot())
        counts = _prometheus_le_counts(text, "lat_seconds")
        gamma = DDSketch().gamma
        assert list(counts) == [str(bound) if bound != 1.0 else "1"
                                for bound in DEFAULT_LATENCY_BUCKETS] \
            + ["+Inf"]
        for bound in DEFAULT_LATENCY_BUCKETS:
            count = counts["1" if bound == 1.0 else str(bound)]
            at_most = sum(1 for value in samples if value <= bound)
            below_edge = sum(1 for value in samples if value < bound * gamma)
            assert at_most <= count <= below_edge, bound
        values = list(counts.values())
        assert values == sorted(values)
        assert counts["+Inf"] == len(samples)
        assert f"lat_seconds_count {len(samples)}" in text

    def test_non_finite_numbers_use_exposition_spelling(self):
        registry = MetricsRegistry()
        registry.set_gauge("up", math.inf)
        registry.set_gauge("down", -math.inf)
        registry.set_gauge("lost", math.nan)
        registry.observe("lat_seconds", 0.02)
        snapshot = registry.snapshot()
        for entry in snapshot["metrics"]:
            if entry["kind"] == "histogram":
                entry["sum"] = math.inf
        text = to_prometheus(snapshot)
        assert "up +Inf\n" in text
        assert "down -Inf\n" in text
        assert "lost NaN\n" in text
        assert "lat_seconds_sum +Inf\n" in text


class TestSpanTracker:
    def build(self):
        metrics = MetricsRegistry()
        trace = TraceRecorder()
        return SpanTracker(metrics=metrics, trace=trace, enabled=True)

    def test_record_feeds_metrics_and_trace(self):
        spans = self.build()
        spans.record("sdio.promotion", 1.0, 1.012, bus="sdio0")
        hist = spans.metrics.get(span_metric_name("sdio.promotion"))
        assert hist.count == 1
        assert hist.sum == pytest.approx(0.012)
        (record,) = spans.trace.select(category="sdio")
        assert record.message == "span sdio.promotion"
        assert record.fields["duration"] == pytest.approx(0.012)

    def test_begin_end_and_discard(self):
        spans = self.build()
        token = spans.begin("psm.buffered", 0.5, aid=1)
        span = spans.end(token, 0.7, flushed=True)
        assert span.duration == pytest.approx(0.2)
        assert span.fields == {"aid": 1, "flushed": True}
        assert spans.end(token, 0.9) is None  # token already consumed
        other = spans.begin("psm.buffered", 1.0)
        spans.discard(other)
        assert spans.end(other, 2.0) is None
        assert len(spans) == 1

    def test_limit_counts_dropped(self):
        spans = SpanTracker(enabled=True, limit=2)
        for index in range(5):
            spans.record("x.y", index, index + 0.1)
        assert len(spans) == 2
        assert spans.dropped == 3
        spans.clear()
        assert len(spans) == 0 and spans.dropped == 0

    def test_category_is_first_dotted_component(self):
        spans = self.build()
        span = spans.record("measurement.probe", 0.0, 1.0)
        assert span.category == "measurement"
        assert spans.names() == ["measurement.probe"]


class TestExporters:
    def snapshot(self):
        registry = MetricsRegistry()
        registry.inc("c_total", 2, labels={"kind": "probe"})
        registry.set_gauge("g", 1.0)
        registry.observe("h_seconds", 0.02)
        registry.observe("h_seconds", 0.5)
        return registry.snapshot()

    def test_prometheus_cumulative_buckets(self):
        text = to_prometheus(self.snapshot())
        assert '# TYPE h_seconds histogram' in text
        assert 'c_total{kind="probe"} 2' in text
        assert 'h_seconds_bucket{le="0.01"} 0' in text
        assert 'h_seconds_bucket{le="0.1"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 2' in text
        assert 'h_seconds_count 2' in text

    def test_label_values_escaped_golden(self):
        # Exposition format 0.0.4: backslash, double-quote and newline
        # are escaped in label values — nothing else is.
        registry = MetricsRegistry()
        registry.inc("odd_total", labels={
            "path": 'C:\\tmp\\"probe"\nnext',
            "plain": "ok-1.2/3",
        })
        text = to_prometheus(registry.snapshot())
        assert text == (
            '# TYPE odd_total counter\n'
            'odd_total{path="C:\\\\tmp\\\\\\"probe\\"\\nnext",'
            'plain="ok-1.2/3"} 1\n'
        )
        # Every line stays a single exposition line.
        assert len(text.splitlines()) == 2

    def test_jsonl_one_object_per_metric(self):
        lines = to_jsonl(self.snapshot()).strip().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["name"] for line in lines)

    def test_chrome_trace_structure(self):
        spans = SpanTracker(enabled=True)
        spans.record("sdio.promotion", 0.001, 0.013, bus="sdio0")
        spans.record("psm.beacon_wait", 0.1, 0.2)
        trace = to_chrome_trace(spans)
        assert trace["displayTimeUnit"] == "ms"
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["args"]["name"] for e in meta} == {"sdio", "psm"}
        assert len(complete) == 2
        promo = next(e for e in complete if e["name"] == "sdio.promotion")
        assert promo["ts"] == pytest.approx(1000.0)  # microseconds
        assert promo["dur"] == pytest.approx(12000.0)
        assert promo["args"]["bus"] == "sdio0"

    def test_write_snapshot_picks_format_by_suffix(self, tmp_path):
        snap = self.snapshot()
        prom = tmp_path / "metrics.prom"
        jsonl = tmp_path / "metrics.jsonl"
        assert write_snapshot(prom, snap) == "prometheus"
        assert write_snapshot(jsonl, snap) == "jsonl"
        assert "# TYPE" in prom.read_text()
        assert json.loads(jsonl.read_text().splitlines()[0])

    def test_write_chrome_trace_round_trips(self, tmp_path):
        spans = SpanTracker(enabled=True)
        spans.record("a.b", 0.0, 0.5)
        path = tmp_path / "trace.json"
        write_chrome_trace(path, spans)
        data = json.loads(path.read_text())
        assert data["traceEvents"]
