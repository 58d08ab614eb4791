"""Fast performance smoke checks (``-m perf_smoke``).

Single-round miniatures of the ``benchmarks/test_bench_simulator_perf``
benches.  They run inside tier-1 so a gross event-loop, wire-encoding,
or campaign regression (an accidental O(n) scan, a dropped cache) fails
fast without the full pytest-benchmark suite.  The floors are set far
below current throughput: they only trip on order-of-magnitude
regressions, never on machine noise.

The measured rates are written to ``BENCH_simulator.json`` at the repo
root — the perf trajectory tracked across PRs — and
``scripts/bench_compare.py`` (exercised last in this module) gates the
metrics recorded in ``seed_baseline`` against >10% regressions.

Workloads were raised in PR 6 from the seed's 20k chained events / 600
wire round trips so steady-state throughput is what gets measured: the
headline scheduler number now drives 200k ticks through batched
periodic trains (the heap scheduler's batched fast path), a separate
chain workload tracks the unbatched general path, and the wire workload
round-trips 3000 probe-id-varied packets through the scalar codec.
"""

import functools
import itertools
import json
import pathlib
import sys
import time

import pytest

from repro.net import wire
from repro.net.addresses import ip
from repro.net.packet import IcmpEcho, Packet, TcpSegment, UdpDatagram
from repro.obs import enable_observability
from repro.sim.scheduler import Simulator
from repro.testbed.campaign import Campaign
from tests.callcount import calls_per_op, calls_per_unit, count_calls

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
_BENCH_PATH = _REPO_ROOT / "BENCH_simulator.json"

#: Gate workload: one dense periodic train (the measurement probe loop,
#: period 100us) plus one 10ms watchdog — the steady state the
#: scheduler's batched fast path serves.  Tick counts are exact: the
#: train fires 200_000 times in 20 simulated seconds, the watchdog 1_999
#: (its phase-shifted grid has 1_999 points in (0, 20]).
_TRAIN_EVENTS = 200_000 + 1_999
#: Fidelity workload: self-rescheduling callback chain — the seed
#: benchmark's shape, which cannot batch (every tick schedules).
_CHAIN_EVENTS = 100_000
_WIRE_ROUND_TRIPS = 3_000
_CAMPAIGN_CELLS = 2
_SKETCH_OBSERVATIONS = 50_000
_DECOMPOSITION_CELLS = 2
_ANALYTIC_CALLS = 20_000

# Same-shape workloads run against the growth-seed commit on the
# reference container (1 CPU, CPython 3.11) — the denominator of the
# perf trajectory.  The seed had no train API, so its headline number
# is the chained-event rate; PR 6's ≥5x target compares the batched
# steady state against it.  ``scripts/bench_compare.py`` gates every
# metric listed here.
_SEED_BASELINE = {
    "scheduler_events_per_sec": 644_621.0,
    "wire_round_trips_per_sec": 34_739.0,
    # First recorded on PR 7 (the subsystem's birth), at ~1/3 of the
    # measured rate on the reference container so the >10% gate tracks
    # real regressions rather than machine noise.
    "decomposition_cells_per_sec": 8.0,
    # First recorded on PR 8 with the result store: the ISSUE's floor,
    # far under the measured ratio, so the gate trips on a store that
    # stopped short-circuiting execution rather than on timer noise.
    "cache_warm_speedup": 10.0,
    # First recorded with the analytic layer, at ~1/3 of the measured
    # rate on the reference container: closed-form predictions must
    # stay cheap enough to sweep inside tests and notebooks.
    "analytic_predict_calls_per_sec": 50_000.0,
}

_rates = {}


def _rate(units, fn):
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    return units / elapsed if elapsed > 0 else float("inf")


def _steady_rate(units, fn, rounds=3):
    """Best-of-N rate: steady-state throughput, not cold-start noise.

    The headline metrics gate a >10% regression budget
    (``scripts/bench_compare.py``); a single cold round swings 30%+ on
    allocator and branch-predictor warmup alone, so the trajectory
    metrics take the best of three warm rounds.
    """
    return max(_rate(units, fn) for _ in range(rounds))


def _chain(sim_cls, observed=False):
    """The chain workload on ``sim_cls``: ``run(events)`` fires a
    self-rescheduling callback ``events`` times, with metrics, spans
    and tracing on when ``observed``."""

    def run(events):
        sim = sim_cls(seed=1)
        if observed:
            enable_observability(sim)
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < events:
                sim.schedule(1e-4, tick)

        sim.schedule(0.0, tick)
        sim.run()
        assert count[0] == events

    return run


@pytest.mark.perf_smoke
def test_smoke_scheduler_train_rate():
    """Headline gate: batched periodic-train steady state (>=3.2M/s)."""

    def run():
        sim = Simulator(seed=1)
        count = [0]

        def tick():
            count[0] += 1

        sim.schedule_periodic(1e-4, tick, label="probe:loop")
        sim.schedule_periodic(0.01, tick, phase=0.005, label="watchdog:bus")
        sim.run(until=20.0)
        assert count[0] == _TRAIN_EVENTS

    _rates["scheduler_events_per_sec"] = _steady_rate(_TRAIN_EVENTS, run)
    assert _rates["scheduler_events_per_sec"] > 500_000


@pytest.mark.perf_smoke
def test_smoke_scheduler_chain_rate():
    """Fidelity metric: the unbatched general path must not rot either."""

    _rates["scheduler_chain_events_per_sec"] = _steady_rate(
        _CHAIN_EVENTS, functools.partial(_chain(Simulator), _CHAIN_EVENTS))
    assert _rates["scheduler_chain_events_per_sec"] > 50_000


def wire_packets():
    """The wire workload: probe-id-varied ICMP/UDP/TCP packets (sniffer
    shape).  ``tests/test_net_packet_wire.py`` pins their encoding."""
    endpoints = (ip("10.0.0.1"), ip("10.0.0.2"))
    packets = []
    for index in range(_WIRE_ROUND_TRIPS):
        kind = index % 3
        meta = {"probe_id": index + 1}
        if kind == 0:
            payload = IcmpEcho(8, 1, index & 0xFFFF, 56)
        elif kind == 1:
            payload = UdpDatagram(40_000 + (index % 100), 33_434, 512)
        else:
            payload = TcpSegment(40_000 + (index % 100), 80,
                                 index, 0, 0x18, 1024)
        packets.append(Packet(endpoints[0], endpoints[1], payload,
                              meta=meta))
    return packets


@pytest.mark.perf_smoke
def test_smoke_wire_round_trip_rate():
    """Encode + decode of the wire workload, one scalar ``encode_ipv4``
    / ``decode_ipv4`` call each."""
    packets = wire_packets()

    def run():
        for packet in packets:
            wire.decode_ipv4(wire.encode_ipv4(packet))

    _rates["wire_round_trips_per_sec"] = _steady_rate(_WIRE_ROUND_TRIPS, run)
    assert _rates["wire_round_trips_per_sec"] > 5_000


@pytest.mark.perf_smoke
def test_smoke_campaign_cell_rate():
    campaign = Campaign(phones=("nexus5",), rtts=(0.02, 0.05),
                        tools=("ping",), count=3)

    def run():
        campaign.run(workers=1)
        assert len(campaign.results) == _CAMPAIGN_CELLS

    _rates["campaign_cells_per_sec"] = _rate(_CAMPAIGN_CELLS, run)
    assert _rates["campaign_cells_per_sec"] > 1


@pytest.mark.perf_smoke
def test_smoke_scenario_build_overhead():
    """Spec construction must stay negligible next to cell execution.

    Campaign grids route every cell through ScenarioSpec (validate +
    JSON round-trip in the parallel path).  Best-of-3 timing of that
    per-cell spec machinery, expressed as a percentage of the measured
    per-cell execution time from ``test_smoke_campaign_cell_rate``
    (which runs earlier in this module).  The 5% gate only trips if
    spec handling grows real work — validation today is microseconds
    against cells that take tens of milliseconds.
    """
    from repro.testbed.scenario import ScenarioSpec

    specs = 200

    def build_round_trip():
        for index in range(specs):
            spec = ScenarioSpec(env="wifi", phone="nexus5", tool="ping",
                                emulated_rtt=0.02, count=3,
                                seed=index * 7919)
            ScenarioSpec.from_dict(spec.to_dict()).to_json()

    best = 0.0
    for _ in range(3):
        best = max(best, _rate(specs, build_round_trip))
    per_spec_seconds = 1.0 / best
    cells_per_sec = _rates["campaign_cells_per_sec"]
    overhead = per_spec_seconds * cells_per_sec * 100.0
    _rates["scenario_build_overhead_pct"] = overhead
    assert overhead <= 5.0


class _ReferenceSimulator(Simulator):
    """The scheduler's fast loop with no observability dispatch at all —
    the zero-overhead yardstick for the bench below.  Mirrors
    ``Simulator.run`` otherwise, including leaving the clock at the
    stopping event after ``stop()``."""

    def run(self, until=None):
        self._running = True
        self._stopped = False
        try:
            self._run_fast(until)
        finally:
            self._running = False
        if until is not None and self._now < until and not self._stopped:
            self._now = until
        return self._now


#: What one event of the chain workload costs on the disabled path: the
#: fast loop pops it (14 lines of ``_run_fast``) and fires ``tick``,
#: which schedules its successor (``schedule`` builds an ``Event`` and
#: pushes it).  No observability call, C call or line is in the loop.
_CHAIN_TICK = f"{__name__}._chain.<locals>.run.<locals>.tick"
_CHAIN_EVENT_PYTHON_CALLS = {"repro.sim.scheduler.Simulator.schedule": 1,
                             "repro.sim.events.Event.__init__": 1,
                             _CHAIN_TICK: 1}
_CHAIN_EVENT_C_CALLS = {"next": 1, "_heapq.heappush": 1,
                        "_heapq.heappop": 1}
_CHAIN_EVENT_LINES = {"repro.sim.scheduler.Simulator._run_fast": 14,
                      "repro.sim.scheduler.Simulator.schedule": 6,
                      "repro.sim.events.Event.__init__": 9,
                      _CHAIN_TICK: 3}


@pytest.mark.perf_smoke
def test_smoke_obs_disabled_overhead():
    """Disabled metrics/spans/tracing add nothing to the per-event path.

    The stock Simulator (obs attached but disabled) must do exactly the
    per-event work pinned above, and so must the reference replica,
    which never dispatches on observability.  Both share ``_run_fast``,
    so it is the pinned counts, not their equality, that catch an
    instrumentation leak into the loop: one added attribute check is a
    line more per event.  Host noise cannot move a count, where a
    wall-clock ratio of the two cannot resolve a few percent on a
    shared host (tests/callcount.py).  The timed overhead (best-of-3
    interleaved runs) is still recorded as ``obs_disabled_overhead_pct``
    for the trajectory, ungated.
    """
    for sim_cls in (Simulator, _ReferenceSimulator):
        per_event = calls_per_unit(_chain(sim_cls), 1_000, 2_000)
        assert dict(per_event.python) == _CHAIN_EVENT_PYTHON_CALLS, sim_cls
        assert dict(per_event.c) == _CHAIN_EVENT_C_CALLS, sim_cls
        assert dict(per_event.lines) == _CHAIN_EVENT_LINES, sim_cls

    ref_run = functools.partial(_chain(_ReferenceSimulator), 20_000)
    sim_run = functools.partial(_chain(Simulator), 20_000)
    ref_rate = sim_rate = 0.0
    for _ in range(3):
        ref_rate = max(ref_rate, _rate(20_000, ref_run))
        sim_rate = max(sim_rate, _rate(20_000, sim_run))
    overhead = max(0.0, (ref_rate - sim_rate) / ref_rate * 100.0)
    _rates["obs_disabled_overhead_pct"] = overhead


#: What one event of the chain workload costs on the observed path: the
#: disabled path's Python calls, its C calls plus the two
#: ``perf_counter`` reads of the handler self-time, and 19 lines of
#: ``_run_observed`` where ``_run_fast`` runs 14 (the bound-meter hit,
#: the self-time clock, the fired count and the ``once`` check).  No
#: registry lookup: the event's counters were bound on its label's
#: first event.
_OBSERVED_CHAIN_EVENT_C_CALLS = dict(_CHAIN_EVENT_C_CALLS,
                                     **{"time.perf_counter": 2})
_OBSERVED_CHAIN_EVENT_LINES = dict(
    _CHAIN_EVENT_LINES, **{"repro.sim.scheduler.Simulator._run_observed": 19})
del _OBSERVED_CHAIN_EVENT_LINES["repro.sim.scheduler.Simulator._run_fast"]

#: What observing adds to one period of the batched-train workload
#: below (one batch of the dense train plus one barrier tick, i.e. two
#: heap pops), whatever the batch's tick count: the two self-time reads
#: per pop, and the observed loop's extra lines per pop plus the
#: batch's one fired-count line and the barrier tick's one.
_OBSERVED_BATCH_EXTRA_C_CALLS = {"time.perf_counter": 4}
_OBSERVED_BATCH_EXTRA_LINES = {
    "repro.sim.scheduler.Simulator._run_observed": 34,
    "repro.sim.scheduler.Simulator._run_fast": -22,
    "repro.sim.scheduler.Simulator._fire_train": 1,
    "repro.sim.scheduler.Simulator._fire_train_general": 1}


def _batched_trains(observed, ticks):
    """``run(n)``: ``n`` periods of a barrier train, each bounding one
    ``ticks``-tick batch of a dense argument-free train."""

    def run(periods):
        sim = Simulator(seed=1)
        if observed:
            enable_observability(sim)
        sim.schedule_periodic(1.0 / 1024, _noop, label="dense")
        sim.schedule_periodic(ticks / 1024, _noop, phase=0.5 / 1024,
                              label="barrier")
        sim.run(until=(periods * ticks + 0.25) / 1024)

    return run


def _noop():
    pass


def _signed_difference(after, before):
    """``after - before`` per name, negative counts kept."""
    return {name: after[name] - before[name]
            for name in set(after) | set(before)
            if after[name] != before[name]}


@pytest.mark.perf_smoke
def test_smoke_obs_observed_loop_cost():
    """Observed cells pay for metering, not for the scheduler looking
    its meters up.

    With metrics on, one chain event does exactly the work pinned
    above: the disabled path's calls plus two clock reads and five
    loop lines, and no ``MetricsRegistry._get`` / ``_label_key`` call.
    Observed trains run in batches, metered once per batch: what
    observing adds to a period of the batched-train workload is the
    same for 8-tick and 64-tick batches.  A per-event registry lookup,
    or a per-tick one inside a batch, changes these counts
    deterministically, where a wall-clock A/B cannot resolve it on a
    shared host (tests/callcount.py).
    """
    per_event = calls_per_unit(_chain(Simulator, observed=True),
                               1_000, 2_000)
    assert dict(per_event.python) == _CHAIN_EVENT_PYTHON_CALLS
    assert dict(per_event.c) == _OBSERVED_CHAIN_EVENT_C_CALLS
    assert dict(per_event.lines) == _OBSERVED_CHAIN_EVENT_LINES
    for name in ("repro.obs.metrics.MetricsRegistry._get",
                 "repro.obs.metrics._label_key"):
        assert per_event.python[name] == 0

    for ticks in (8, 64):
        disabled = calls_per_unit(_batched_trains(False, ticks), 40, 80)
        observed = calls_per_unit(_batched_trains(True, ticks), 40, 80)
        assert observed.python == disabled.python, ticks
        assert _signed_difference(observed.c, disabled.c) \
            == _OBSERVED_BATCH_EXTRA_C_CALLS, ticks
        assert _signed_difference(observed.lines, disabled.lines) \
            == _OBSERVED_BATCH_EXTRA_LINES, ticks
        assert observed.python[f"{__name__}._noop"] == ticks + 1


class _NullSketch:
    """Drop-in that skips sketch maintenance — the yardstick for the
    recorded ``sketch_observe_overhead_pct``."""

    def add(self, value, count=1):
        pass


#: What one ``Histogram.observe`` of a value above the sketch's zero
#: bucket, inside the observed [min, max], does: it enters itself and
#: ``DDSketch.add`` (Python calls), calls the ``log`` / ``ceil`` /
#: ``dict.get`` of the bucket update (C calls), and runs six lines of
#: ``observe`` and four of ``add``.
_OBSERVE_PYTHON_CALLS = {"repro.obs.metrics.Histogram.observe": 1,
                         "repro.obs.sketch.DDSketch.add": 1}
_OBSERVE_C_CALLS = {"math.log": 1, "math.ceil": 1, "dict.get": 1}
_OBSERVE_LINES = {"repro.obs.metrics.Histogram.observe": 6,
                  "repro.obs.sketch.DDSketch.add": 4}


@pytest.mark.perf_smoke
def test_smoke_sketch_observe_overhead():
    """``Histogram.observe`` does exactly the work pinned above.

    The sketch is a histogram's only bucket structure, so what keeps
    "enable metrics freely" (docs/OBSERVABILITY.md) true is that an
    observe stays two Python calls, three C calls and ten lines: a
    helper call, a rebalancing loop or a per-add allocation in
    ``DDSketch.add`` changes the counts deterministically, where a
    wall-clock share of observe() cost cannot tell it from host noise
    (tests/callcount.py).  The sketch's timed share (a best-of-3 A/B
    against a no-op sketch) is still recorded as
    ``sketch_observe_overhead_pct`` for the trajectory, ungated.
    """
    from repro.obs.metrics import MetricsRegistry

    values = [1e-4 * (1 + (index % 997)) for index in range(1000)]

    hist = MetricsRegistry(enabled=True).histogram("perf_seconds")
    hist.observe(min(values) / 2)  # fix [min, max] so every observe
    hist.observe(max(values) * 2)  # below takes the same path
    per_observe = calls_per_op(hist.observe, values)
    assert dict(per_observe.python) == _OBSERVE_PYTHON_CALLS
    assert dict(per_observe.c) == _OBSERVE_C_CALLS
    assert dict(per_observe.lines) == _OBSERVE_LINES
    assert (per_observe.calls, per_observe.c_calls) == (2, 3)

    def workload(null_sketch):
        registry = MetricsRegistry(enabled=True)
        hist = registry.histogram("perf_seconds")
        if null_sketch:
            hist.sketch = _NullSketch()

        def run():
            observe = hist.observe
            for _ in range(_SKETCH_OBSERVATIONS // len(values)):
                for value in values:
                    observe(value)

        return run

    with_rate = without_rate = 0.0
    for _ in range(3):
        without_rate = max(without_rate,
                           _rate(_SKETCH_OBSERVATIONS, workload(True)))
        with_rate = max(with_rate,
                        _rate(_SKETCH_OBSERVATIONS, workload(False)))
    overhead = max(0.0, (without_rate - with_rate) / without_rate * 100.0)
    _rates["sketch_observe_overhead_pct"] = overhead


#: One completed span without metrics: the span, its bounded store.
_SPAN_RECORD_PYTHON_CALLS = {"repro.obs.spans.SpanTracker.record": 1,
                             "repro.obs.spans.Span.__init__": 1}
_SPAN_RECORD_C_CALLS = {"len": 1, "list.append": 1}
_SPAN_RECORD_LINES = {"repro.obs.spans.SpanTracker.record": 7,
                      "repro.obs.spans.Span.__init__": 4}
#: ... and with metrics on: its duration observed in the span's
#: histogram, found through the registry's get-or-create.
_SPAN_RECORD_OBSERVED_PYTHON_CALLS = {
    **_SPAN_RECORD_PYTHON_CALLS,
    "repro.obs.spans.span_metric_name": 1,
    "repro.obs.metrics.MetricsRegistry.observe": 1,
    "repro.obs.metrics.MetricsRegistry.histogram": 1,
    "repro.obs.metrics.MetricsRegistry._get": 1,
    "repro.obs.metrics._label_key": 1,
    **_OBSERVE_PYTHON_CALLS,
}
_SPAN_RECORD_OBSERVED_C_CALLS = {
    **_SPAN_RECORD_C_CALLS, "str.replace": 1, "isinstance": 1,
    "math.log": 1, "math.ceil": 1, "dict.get": 2,
}
_SPAN_RECORD_OBSERVED_LINES = {
    "repro.obs.spans.SpanTracker.record": 8,
    "repro.obs.spans.Span.__init__": 4,
    "repro.obs.spans.span_metric_name": 1,
    "repro.obs.metrics.MetricsRegistry.observe": 1,
    "repro.obs.metrics.MetricsRegistry.histogram": 1,
    "repro.obs.metrics.MetricsRegistry._get": 5,
    "repro.obs.metrics._label_key": 2,
    **_OBSERVE_LINES,
}


@pytest.mark.perf_smoke
@pytest.mark.parametrize("observed", [True, False],
                         ids=["metrics", "no_metrics"])
def test_smoke_span_record_cost(observed):
    """One ``SpanTracker.record`` does exactly the work pinned above.

    Spans and metrics are the only observation records: a completed
    span is stored and, with metrics on, observed in its histogram, and
    nothing else.  A third sink (a fan-out to another recorder, even
    one left disabled) adds lines to every span of every observed cell
    and fails this gate deterministically (tests/callcount.py).
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import SpanTracker

    ends = [1e-4 * (1 + (index % 997)) for index in range(1000)]
    metrics = MetricsRegistry(enabled=True) if observed else None
    spans = SpanTracker(metrics=metrics, enabled=True)
    record = functools.partial(spans.record, "sdio.promotion", 0.0)
    record(min(ends) / 2)  # create the histogram and fix [min, max]
    record(max(ends) * 2)  # so every record below takes the same path
    per_record = calls_per_op(record, ends)
    if observed:
        assert dict(per_record.python) == _SPAN_RECORD_OBSERVED_PYTHON_CALLS
        assert dict(per_record.c) == _SPAN_RECORD_OBSERVED_C_CALLS
        assert dict(per_record.lines) == _SPAN_RECORD_OBSERVED_LINES
        assert (per_record.calls, per_record.c_calls) == (9, 8)
    else:
        assert dict(per_record.python) == _SPAN_RECORD_PYTHON_CALLS
        assert dict(per_record.c) == _SPAN_RECORD_C_CALLS
        assert dict(per_record.lines) == _SPAN_RECORD_LINES
        assert (per_record.calls, per_record.c_calls) == (2, 2)
    assert len(spans) == len(ends) + 2


@pytest.mark.perf_smoke
def test_smoke_decomposition_rate():
    """End-to-end decomposition: observed cells -> attribution ->
    merged snapshots -> rendered report.

    The trajectory metric (gated against ``seed_baseline`` by
    ``scripts/bench_compare.py``) covers the whole new pipeline: cells
    run with spans+metrics on, per-probe attribution lands in the
    ``probe_component_seconds`` series, and the campaign report renders
    in all three formats.
    """
    from repro.analysis.decompose import decompose_campaign, render_report

    campaign = Campaign(phones=("nexus5",), rtts=(0.02,),
                        tools=("ping", "acutemon"), count=3)

    def run():
        campaign.run(workers=1, collect_metrics=True)
        report = decompose_campaign(campaign)
        assert len(report.slices) == _DECOMPOSITION_CELLS
        for fmt in ("text", "json", "prom"):
            assert render_report(report, fmt)

    _rates["decomposition_cells_per_sec"] = _rate(_DECOMPOSITION_CELLS, run)
    assert _rates["decomposition_cells_per_sec"] > 1


def _series_cells(snapshots, keep=lambda entry: True):
    """``{series key: cells carrying it}`` over per-cell snapshots."""
    cells = {}
    for snapshot in snapshots:
        for entry in snapshot["metrics"]:
            if keep(entry):
                key = (entry["name"], json.dumps(entry["labels"],
                                                 sort_keys=True))
                cells[key] = cells.get(key, 0) + 1
    return cells


@pytest.mark.perf_smoke
@pytest.mark.parametrize("phones", [("nexus5",), ("nexus5", "nexus4")])
def test_smoke_report_merge_cost(phones):
    """The report step merges only what it reads, and reads each merged
    percentile once.

    On a small observed campaign (WiFi and cellular cells), counted
    exactly with ``callcount`` at two grid sizes:
    ``decompose_campaign`` makes 3 ``DDSketch.quantile`` calls per
    merged component series and ``(cells - 1) x series`` entry merges,
    whatever the cell count; ``merged_metrics()`` makes 3 quantile
    calls per histogram series found in two or more cells.  Re-reading
    percentiles after every merge, or merging every series to read the
    component ones, changes these counts deterministically.
    """
    from repro.analysis.decompose import decompose_campaign
    from repro.obs.attribution import COMPONENTS

    campaign = Campaign(envs=("wifi", "cellular-lte"), phones=phones,
                        rtts=(0.02,), tools=("ping",), count=2)
    campaign.run(collect_metrics=True)
    snapshots = [result.metrics for result in campaign.results]
    cells = len(snapshots)
    assert cells == 2 * len(phones)
    components = _series_cells(snapshots, lambda entry: (
        entry["name"] == "probe_component_seconds"
        and entry["labels"]["kind"] == "probe"))
    # Every cell carries every component series.
    assert sorted(components.values()) == [cells] * len(COMPONENTS)
    shared_histograms = [key for key, n in _series_cells(
        snapshots, lambda entry: entry["kind"] == "histogram").items()
        if n >= 2]
    assert len(shared_histograms) > len(COMPONENTS)

    decompose = count_calls(decompose_campaign, campaign)
    assert decompose.python["repro.obs.sketch.DDSketch.quantile"] \
        == 3 * len(COMPONENTS)
    assert decompose.python["repro.obs.metrics._merge_entry"] \
        == (cells - 1) * len(COMPONENTS)

    merged = count_calls(campaign.merged_metrics)
    assert merged.python["repro.obs.sketch.DDSketch.quantile"] \
        == 3 * len(shared_histograms)


@pytest.mark.perf_smoke
def test_smoke_analytic_predict_rate():
    """Closed-form prediction throughput (docs/ANALYTIC.md).

    ``predict_for_profile`` is the theory half of the theory-vs-sim
    harness and the ``repro analytic`` CLI; grid sweeps call it per
    cell, so it must stay in the 100k+/s range.  Gated against
    ``seed_baseline`` by ``scripts/bench_compare.py``.
    """
    from repro.analysis.analytic import predict_for_profile

    def run():
        for index in range(_ANALYTIC_CALLS):
            prediction = predict_for_profile(
                "nexus5", offered_load=(index % 7) * 0.5,
                base_rtt=0.02, listen_interval=index % 3)
        assert prediction["psm_mean_delay"] > 0.0

    _rates["analytic_predict_calls_per_sec"] = \
        _steady_rate(_ANALYTIC_CALLS, run)
    assert _rates["analytic_predict_calls_per_sec"] > 50_000


#: Events a settled nexus5 WiFi testbed fires while it idles for 10
#: simulated seconds (seed 1): 98 beacon intervals of four events each,
#: the beacon, its DCF round, its delivery and the dozing station's
#: TBTT wake.  The SDIO bus demoted while the testbed settled and has
#: no event pending; the 10-ms watchdog train it replaced fired 1,000
#: more here (1,392).
_IDLE_WIFI_EVENTS = 392
#: ``(Python calls, line events)`` of one 3-probe nexus5 WiFi ping cell
#: (30 ms, seed 5) through ``run_cell``, plain and observed.
#: Before the watchdog deadline: (4,345, 26,160) and (5,850, 34,265);
#: before ``ExperimentResult`` took ``tool`` and ``spec`` as arguments,
#: 5 more lines each (``ScenarioSpec.execute`` 4, its ``__init__`` 1).
_PING_CELL_COST = {False: (3_057, 17_411), True: (4_544, 25_198)}


def _ping_cell():
    from repro.testbed.scenario import ScenarioSpec

    return ScenarioSpec(env="wifi", phone="nexus5", tool="ping",
                        emulated_rtt=0.03, count=3, seed=5)


@pytest.mark.perf_smoke
def test_smoke_idle_wifi_events():
    """An idle WiFi phone costs its state changes, not a timer train.

    The SDIO watchdog is one demotion deadline on its tick grid
    (``repro.phone.driver.SdioBus``), so 10 idle seconds fire the
    counts pinned above.  The count is deterministic: any periodic
    timer added to the idle path fails this gate without any timing.
    """
    from repro.testbed.topology import Testbed

    testbed = Testbed(seed=1)
    testbed.add_phone("nexus5")
    testbed.settle()
    fired = testbed.sim.events_fired
    testbed.run(10.0)
    assert testbed.sim.events_fired - fired == _IDLE_WIFI_EVENTS


@pytest.mark.perf_smoke
@pytest.mark.parametrize("observed", [False, True],
                         ids=["plain", "observed"])
def test_smoke_ping_cell_counted_cost(observed):
    """One small WiFi ping cell does exactly the work pinned above.

    Python calls and executed lines, counted with ``tests/callcount.py``
    after a warm-up run of the same cell, so imports and first-use
    caches are outside the count.  A cost added to the cell path (an
    event per watchdog tick, a per-beacon recomputation) changes the
    counts deterministically, where a wall-clock rate could not tell it
    from host noise.
    """
    from repro.testbed.campaign import run_cell

    spec = _ping_cell()
    run_cell(spec, collect_metrics=observed)
    cost = count_calls(run_cell, spec, collect_metrics=observed)
    assert (cost.calls, sum(cost.lines.values())) \
        == _PING_CELL_COST[observed]


#: The I/O one journaled cell does, for the checkpoint and store gates
#: below: hash the spec once and write one flushed JSONL line to the
#: already open file — no open, no fsync, no directory scan.
_PER_RECORD_IO = {"_hashlib.openssl_sha256": 1,
                  "_hashlib.HASH.hexdigest": 1,
                  "_io.TextIOWrapper.write": 1,
                  "_io.TextIOWrapper.flush": 1}
_IO_MODULES = ("io.", "_io.", "posix.", "_hashlib.")


def _io_calls(count):
    """The I/O- and hash-layer C calls of a :class:`CallCount`."""
    return {name: n for name, n in count.c.items()
            if name.startswith(_IO_MODULES)}


@pytest.mark.perf_smoke
def test_smoke_checkpoint_overhead(tmp_path):
    """Journaling a cell does one hash and one flushed write.

    A checkpointed run (docs/RESILIENCE.md) adds exactly one unit of
    work per completed cell: hash the spec's canonical JSON and append
    one flushed JSONL record to the open journal.  The gate pins that
    unit's I/O exactly (``_PER_RECORD_IO``), so an fsync on the default
    path, a re-open per record or a second hash fails it on every run,
    where a wall-clock share of cell time could not tell a few percent
    from host noise (tests/callcount.py).  The timed share of a cell
    (best-of-3 per-record time over the cell rate that
    ``test_smoke_campaign_cell_rate`` measured earlier in this module)
    is still recorded as ``checkpoint_overhead_pct``, ungated.
    """
    from repro.testbed.resilience import CheckpointJournal

    campaign = Campaign(phones=("nexus5",), rtts=(0.02,),
                        tools=("ping",), count=3)
    campaign.run(workers=1)
    (result,) = campaign.results
    (spec,) = campaign.cells()

    def journal_cells(records, name="perf_checkpoint.jsonl"):
        with CheckpointJournal(tmp_path / name) as journal:
            for _ in range(records):
                journal.append(spec.fingerprint(), result)

    per_record = calls_per_unit(journal_cells, 10, 20)
    assert _io_calls(per_record) == _PER_RECORD_IO
    whole = count_calls(journal_cells, 20, name="perf_checkpoint_20.jsonl")
    assert whole.c["io.open"] == 1

    ops = 200
    journal = CheckpointJournal(tmp_path / "perf_checkpoint_timed.jsonl")

    def checkpoint_cells():
        for _ in range(ops):
            journal.append(spec.fingerprint(), result)

    best = 0.0
    with journal:
        for _ in range(3):
            best = max(best, _rate(ops, checkpoint_cells))
    cells_per_sec = _rates["campaign_cells_per_sec"]
    _rates["checkpoint_overhead_pct"] = cells_per_sec / best * 100.0


@pytest.mark.perf_smoke
def test_smoke_store_lookup_overhead(tmp_path):
    """A store-backed cold cell does one hash and one flushed write.

    A store-backed cold run (docs/FABRIC.md) adds exactly one unit of
    work per cell: hash the spec's canonical JSON, miss the in-memory
    cache, and append the finished record to the writer's segment
    journal.  The gate pins that unit's I/O exactly
    (``_PER_RECORD_IO``) over distinct specs, and two ``open()`` calls
    for a whole run of puts: an fsync on the default path, a segment rescan
    per miss, a re-open per put or double hashing fails it on every
    run.  The timed share of a cell (best-of-3 over 200 specs, as for
    the checkpoint) is still recorded as ``store_lookup_overhead_pct``,
    ungated.
    """
    from repro.testbed.scenario import ScenarioSpec
    from repro.testbed.store import ResultStore

    campaign = Campaign(phones=("nexus5",), rtts=(0.02,),
                        tools=("ping",), count=3)
    campaign.run(workers=1)
    (result,) = campaign.results

    specs = [ScenarioSpec(env="wifi", phone="nexus5", tool="ping",
                          emulated_rtt=0.02, count=3, seed=index * 7919)
             for index in range(200)]

    def cold_units(store, specs=specs):
        def run():
            for spec in specs:
                fingerprint = spec.fingerprint()
                assert store.get(fingerprint) is None
                store.put(fingerprint, result)

        return run

    stores = itertools.count()

    def cold_store(cells):
        with ResultStore(tmp_path / f"counted-{next(stores)}") as store:
            cold_units(store, specs[:cells])()

    per_put = calls_per_unit(cold_store, 10, 20)
    assert _io_calls(per_put) == _PER_RECORD_IO
    # Per store, not per put: the writer's segment, and the segment
    # scan that loads the index on the first get.
    assert count_calls(cold_store, 20).c["io.open"] == 2

    best = 0.0
    for attempt in range(3):
        with ResultStore(tmp_path / f"store-{attempt}") as store:
            best = max(best, _rate(len(specs), cold_units(store)))
    cells_per_sec = _rates["campaign_cells_per_sec"]
    _rates["store_lookup_overhead_pct"] = cells_per_sec / best * 100.0


@pytest.mark.perf_smoke
def test_smoke_cache_warm_speedup(tmp_path):
    """A cache-warm campaign must beat its cold twin by >=10x.

    The headline number of the result store: a 50-cell sweep runs cold
    into an empty store, then a fresh campaign over the same grid runs
    warm out of it.  The warm run executes zero cells — its cost is
    hashing 50 specs and deserialising 50 cached payloads — so the
    ratio is the store's reason to exist, tracked in the perf
    trajectory and gated against ``seed_baseline`` like the other
    headline metrics.
    """
    from repro.testbed.store import ResultStore

    grid = dict(phones=("nexus5",),
                rtts=tuple(0.01 + 0.002 * index for index in range(25)),
                tools=("ping", "acutemon"), count=1)
    root = tmp_path / "store"

    cold = Campaign(**grid)
    start = time.perf_counter()
    cold.run(workers=1, store=ResultStore(root))
    cold_seconds = time.perf_counter() - start
    assert len(cold.results) == 50

    warm = Campaign(**grid)
    start = time.perf_counter()
    warm.run(workers=1, store=ResultStore(root))
    warm_seconds = time.perf_counter() - start
    assert len(warm.results) == 50
    assert [r.to_dict() for r in warm.results] \
        == [r.to_dict() for r in cold.results]
    stats = {metric["name"]: metric["value"]
             for metric in warm.run_metrics["metrics"]}
    assert stats["campaign.cache_hits"] == 50
    assert stats.get("campaign.cells_run", 0) == 0

    speedup = cold_seconds / warm_seconds if warm_seconds > 0 \
        else float("inf")
    _rates["cache_warm_speedup"] = speedup
    assert speedup >= 10.0


@pytest.mark.perf_smoke
def test_smoke_lint_full_repo_under_budget():
    """The source-invariant walk must stay under 5 seconds.

    tests/test_source_invariants.py runs it in tier-1, so its latency is
    tier-1 latency: this gate keeps rule authors honest about per-file
    cost.  The budget covers every rule, the registry contract (RL301)
    included, on the whole ``src/repro`` tree, with a generous margin
    over the current cost.
    """
    from tests.test_source_invariants import registry_problems, scan

    start = time.perf_counter()
    results = scan()
    problems = registry_problems()
    elapsed = time.perf_counter() - start
    assert len(results) > 85
    assert not [finding for findings, _ in results.values()
                for finding in findings]
    assert not problems
    _rates["lint_full_repo_seconds"] = elapsed
    assert elapsed < 5.0


@pytest.mark.perf_smoke
def test_smoke_emits_bench_json():
    """Persist the rates measured above (runs late in this module)."""
    assert set(_rates) == {"scheduler_events_per_sec",
                           "scheduler_chain_events_per_sec",
                           "wire_round_trips_per_sec",
                           "campaign_cells_per_sec",
                           "decomposition_cells_per_sec",
                           "analytic_predict_calls_per_sec",
                           "scenario_build_overhead_pct",
                           "obs_disabled_overhead_pct",
                           "sketch_observe_overhead_pct",
                           "checkpoint_overhead_pct",
                           "store_lookup_overhead_pct",
                           "cache_warm_speedup",
                           "lint_full_repo_seconds"}
    payload = {key: round(value, 1) for key, value in sorted(_rates.items())}
    payload["seed_baseline"] = _SEED_BASELINE
    payload["workload"] = {
        "scheduler_train_events": _TRAIN_EVENTS,
        "scheduler_chain_events": _CHAIN_EVENTS,
        "wire_round_trips": _WIRE_ROUND_TRIPS,
        "campaign_cells": _CAMPAIGN_CELLS,
        "decomposition_cells": _DECOMPOSITION_CELLS,
        "analytic_predict_calls": _ANALYTIC_CALLS,
        "sketch_observations": _SKETCH_OBSERVATIONS,
        "store_probe_specs": 200,
        "cache_warm_cells": 50,
    }
    _BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                           encoding="utf-8")
    assert json.loads(_BENCH_PATH.read_text())


@pytest.mark.perf_smoke
def test_smoke_bench_compare_gate():
    """The regression gate itself: scripts/bench_compare.py must pass
    on the numbers just written (runs after the emit above)."""
    scripts = _REPO_ROOT / "scripts"
    if str(scripts) not in sys.path:
        sys.path.insert(0, str(scripts))
    import bench_compare

    assert bench_compare.main(["--bench", str(_BENCH_PATH)]) == 0
