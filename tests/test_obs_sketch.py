"""Property and unit tests for the DDSketch quantile sketch.

The sketch underwrites two repo-level guarantees (docs/OBSERVABILITY.md):

* every reported percentile is within the configured *relative* error
  ``alpha`` of the exact sample quantile (same rank definition), and
* merging is **exact** — folding shard sketches in any partition and
  any order reproduces the whole-stream sketch bin-for-bin, which is
  what makes campaign percentiles bit-identical across serial, parallel
  and resumed runs.
"""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.sketch import DDSketch, DEFAULT_ALPHA, MIN_TRACKED_VALUE

values = st.floats(min_value=1e-9, max_value=1e4,
                   allow_nan=False, allow_infinity=False)
quantiles = st.floats(min_value=0.0, max_value=1.0,
                      allow_nan=False, allow_infinity=False)


def exact_quantile(samples, q):
    """The sketch's rank definition applied to the raw samples."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class TestBasics:
    def test_empty_sketch(self):
        sketch = DDSketch()
        assert sketch.count == 0
        assert sketch.quantile(0.5) is None

    def test_single_value_round_trips_within_alpha(self):
        sketch = DDSketch()
        sketch.add(0.05)
        assert sketch.count == 1
        assert sketch.quantile(0.5) == pytest.approx(0.05, rel=DEFAULT_ALPHA)

    def test_zero_and_negative_values_hit_zero_bucket(self):
        sketch = DDSketch()
        sketch.add(0.0)
        sketch.add(-1.0)
        sketch.add(MIN_TRACKED_VALUE / 2)
        assert sketch.count == 3
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(1.0) == 0.0

    def test_quantile_bounds_checked(self):
        sketch = DDSketch()
        sketch.add(1.0)
        with pytest.raises(ValueError):
            sketch.quantile(1.5)
        with pytest.raises(ValueError):
            sketch.quantile(-0.1)

    def test_alpha_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DDSketch(alpha=0.01).merge(DDSketch(alpha=0.02))
        a = DDSketch(alpha=0.01)
        b = DDSketch(alpha=0.02)
        a.add(1.0)
        b.add(1.0)
        before = a.payload()
        with pytest.raises(ValueError, match="alpha 0.02 into 0.01"):
            DDSketch.from_payload(a.payload()).merge(
                DDSketch.from_payload(b.payload()))
        with pytest.raises(ValueError):
            a.merge(b)
        assert a.payload() == before  # a rejected merge changes nothing

    def test_weighted_add(self):
        sketch = DDSketch()
        sketch.add(0.01, count=99)
        sketch.add(1.0)
        assert sketch.count == 100
        assert sketch.quantile(0.5) == pytest.approx(0.01, rel=DEFAULT_ALPHA)
        assert sketch.quantile(1.0) == pytest.approx(1.0, rel=DEFAULT_ALPHA)

    def test_payload_json_round_trip_is_lossless(self):
        sketch = DDSketch()
        for value in (1e-6, 0.0333, 5.0, 0.0, 1e3):
            sketch.add(value)
        wire = json.loads(json.dumps(sketch.payload()))
        clone = DDSketch.from_payload(wire)
        assert clone.payload() == sketch.payload()
        assert clone.quantile(0.5) == sketch.quantile(0.5)


class TestRelativeErrorProperty:
    @given(samples=st.lists(values, min_size=1, max_size=300),
           q=quantiles)
    def test_quantile_within_alpha_of_exact(self, samples, q):
        sketch = DDSketch()
        for value in samples:
            sketch.add(value)
        estimate = sketch.quantile(q)
        exact = exact_quantile(samples, q)
        assert abs(estimate - exact) <= DEFAULT_ALPHA * exact

    @given(samples=st.lists(values, min_size=1, max_size=100))
    def test_extremes_within_alpha(self, samples):
        sketch = DDSketch()
        for value in samples:
            sketch.add(value)
        assert sketch.quantile(0.0) == pytest.approx(min(samples),
                                                     rel=DEFAULT_ALPHA)
        assert sketch.quantile(1.0) == pytest.approx(max(samples),
                                                     rel=DEFAULT_ALPHA)


class TestMergeExactness:
    @given(samples=st.lists(values, min_size=1, max_size=200),
           data=st.data())
    def test_merge_of_any_partition_equals_whole(self, samples, data):
        cuts = sorted(data.draw(st.lists(
            st.integers(min_value=0, max_value=len(samples)), max_size=5)))
        shards, last = [], 0
        for cut in cuts + [len(samples)]:
            shards.append(samples[last:cut])
            last = cut
        whole = DDSketch()
        for value in samples:
            whole.add(value)
        merged = DDSketch()
        for shard in shards:
            sketch = DDSketch()
            for value in shard:
                sketch.add(value)
            merged.merge(sketch)
        # Bin-for-bin identity, not approximation: integer counts sum.
        assert merged.payload() == whole.payload()

    @given(samples=st.lists(values, min_size=2, max_size=60))
    def test_payload_merge_matches_object_merge(self, samples):
        # Merging sketches revived from JSON payloads (the campaign
        # merge path) is exactly the in-memory merge.
        half = len(samples) // 2
        a, b = DDSketch(), DDSketch()
        for value in samples[:half]:
            a.add(value)
        for value in samples[half:]:
            b.add(value)
        revived = DDSketch.from_payload(json.loads(json.dumps(a.payload())))
        revived.merge(DDSketch.from_payload(json.loads(json.dumps(
            b.payload()))))
        a.merge(b)
        assert revived.payload() == a.payload()
        for q in (0.0, 0.5, 0.95, 1.0):
            assert revived.quantile(q) == a.quantile(q)

    def test_merge_does_not_mutate_inputs(self):
        # Reviving a payload copies its bins, and merge() changes only
        # the receiving sketch: neither payload nor ``other`` moves.
        a, b = DDSketch(), DDSketch()
        a.add(1.0)
        b.add(2.0)
        b.add(2.0)
        pa, pb = a.payload(), b.payload()
        before = (json.dumps(pa, sort_keys=True),
                  json.dumps(pb, sort_keys=True))
        other = DDSketch.from_payload(pb)
        merged = DDSketch.from_payload(pa).merge(other)
        assert merged.count == 3
        assert other.payload() == pb
        assert (json.dumps(pa, sort_keys=True),
                json.dumps(pb, sort_keys=True)) == before
