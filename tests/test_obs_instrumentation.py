"""Integration tests: the instrumented state machines and the ISSUE's
acceptance criteria (Prometheus + Chrome-trace exports of one cell)."""

import json

import pytest

from repro.obs import enable_observability, to_chrome_trace, to_prometheus
from repro.sim.scheduler import Simulator
from repro.testbed.scenario import ScenarioSpec, run_scenario


class TestSchedulerInstrumentation:
    def test_fired_counters_by_label_category(self):
        sim = enable_observability(Simulator(seed=0))
        sim.schedule(0.1, lambda: None, label="timer:psm")
        sim.schedule(0.2, lambda: None, label="timer:psm")
        sim.schedule(0.3, lambda: None)
        sim.run()
        assert sim.metrics.counter("scheduler_events_fired_total",
                                   labels={"category": "timer"}).value == 2
        assert sim.metrics.counter("scheduler_events_fired_total",
                                   labels={"category": "event"}).value == 1

    def test_cancel_counters(self):
        sim = enable_observability(Simulator(seed=0))
        event = sim.schedule(0.5, lambda: None, label="timeout:probe")
        event.cancel()
        sim.run()
        assert sim.events_canceled == 1
        assert sim.metrics.counter("scheduler_events_canceled_total",
                                   labels={"category": "timeout"}).value == 1

    def test_events_canceled_counts_without_metrics(self):
        sim = Simulator(seed=0)
        sim.schedule(0.5, lambda: None).cancel()
        assert sim.events_canceled == 1
        assert len(sim.metrics) == 0  # disabled registry stays empty

    def test_handler_self_time_is_volatile(self):
        sim = enable_observability(Simulator(seed=0))
        sim.schedule(0.1, lambda: None, label="x:y")
        sim.run()
        names = {entry["name"]
                 for entry in sim.metrics.snapshot()["metrics"]}
        assert "scheduler_handler_self_seconds_total" not in names
        names = {entry["name"] for entry in
                 sim.metrics.snapshot(include_volatile=True)["metrics"]}
        assert "scheduler_handler_self_seconds_total" in names

    def test_step_also_records(self):
        sim = enable_observability(Simulator(seed=0))
        sim.schedule(0.1, lambda: None, label="a:b")
        while sim.step():
            pass
        assert sim.metrics.counter("scheduler_events_fired_total",
                                   labels={"category": "a"}).value == 1

    def test_step_fires_one_train_tick_per_call(self):
        """Observed step() never batches, and a stop() from the last
        stepped callback does not swallow the next step."""
        sim = enable_observability(Simulator(seed=0))
        train = sim.schedule_periodic(0.1, sim.stop, label="bg:x")
        for ticks in (1, 2, 3):
            assert sim.step() is True
            assert train.ticks == sim.events_fired == ticks
        assert sim.metrics.counter("scheduler_events_fired_total",
                                   labels={"category": "bg"}).value == 3
        assert sim.now == pytest.approx(0.3)


class TestSdioInstrumentation:
    @pytest.fixture(scope="class")
    def result(self):
        # 1s probe interval >> the idle window, so the bus sleeps and
        # every probe pays a promotion (the paper's Table 3 regime).
        return run_scenario(ScenarioSpec(
            tool="ping", count=5, interval=1.0, seed=1, observe=True))

    def test_promotion_spans_and_histogram(self, result):
        sim = result.testbed.sim
        promotions = [s for s in sim.spans if s.name == "sdio.promotion"]
        assert promotions
        hist = sim.metrics.get("sdio_promotion_seconds")
        assert hist.count == len(promotions)
        # Tprom is tens of ms (paper: ~20-50ms depending on chipset).
        assert 1e-3 < hist.p50 < 0.1

    def test_sleep_wake_counters_match_spans(self, result):
        sim = result.testbed.sim
        bus = result.phone.driver.bus
        wakes = sim.metrics.get("sdio_wakes_total",
                                labels={"bus": bus.name})
        sleeps = sim.metrics.get("sdio_sleeps_total",
                                 labels={"bus": bus.name})
        assert wakes.value > 0 and sleeps.value > 0
        asleep = [s for s in sim.spans if s.name == "sdio.asleep"]
        assert len(asleep) == wakes.value
        assert all(s.duration > 0 for s in asleep)

    def test_driver_delay_histograms(self, result):
        sim = result.testbed.sim
        dvsend = sim.metrics.get("driver_dvsend_seconds")
        dvrecv = sim.metrics.get("driver_dvrecv_seconds")
        assert dvsend.count >= 5 and dvrecv.count >= 5
        # dvsend absorbs the promotion delay, so its max dwarfs dvrecv's.
        assert dvsend.maximum > dvrecv.maximum


class TestPsmInstrumentation:
    @pytest.fixture(scope="class")
    def acute(self):
        return run_scenario(ScenarioSpec(
            tool="acutemon", count=10, seed=3, observe=True))

    def test_transitions_counted_per_state(self, acute):
        sim = acute.testbed.sim
        transitions = [m for m in sim.metrics.metrics()
                       if m.name == "psm_transitions_total"]
        assert transitions
        for metric in transitions:
            assert dict(metric.labels)["to"] in ("AWAKE", "DOZE")
        # The settle window dozes the phone; the warm-up wakes it.
        assert sum(m.value for m in transitions) >= 2

    def test_beacon_wait_histogram_bounded_by_interval(self, acute):
        sim = acute.testbed.sim
        hist = sim.metrics.get("psm_beacon_wait_seconds")
        assert hist.count > 0
        # A listen-interval-0 station waits at most ~one beacon interval
        # (102.4ms) plus guard/air time per beacon.
        assert hist.maximum < 0.11

    def test_doze_spans_pair_with_transitions(self, acute):
        sim = acute.testbed.sim
        dozes = [s for s in sim.spans if s.name == "psm.doze"]
        assert dozes
        assert all(s.duration > 0 for s in dozes)

    def test_ap_buffering_counted_and_spanned(self):
        result = run_scenario(ScenarioSpec(
            tool="ping2", count=6, seed=2, observe=True))
        sim = result.testbed.sim
        buffered = sim.metrics.get("ap_ps_frames_buffered_total",
                                   labels={"ap": "ap"})
        assert buffered.value > 0
        spans = [s for s in sim.spans if s.name == "psm.buffered"]
        assert spans
        hist = sim.metrics.get("psm_buffered_seconds")
        assert hist.count == len(spans)


class TestAcuteMonInstrumentation:
    @pytest.fixture(scope="class")
    def acute(self):
        return run_scenario(ScenarioSpec(
            tool="acutemon", count=10, seed=3, observe=True))

    def test_warmup_and_background_counters(self, acute):
        sim = acute.testbed.sim
        assert sim.metrics.counter("acutemon_warmup_packets_total").value \
            == acute.tool.warmups_sent == 1
        assert sim.metrics.counter(
            "acutemon_background_packets_total").value \
            == acute.tool.background_sent > 0

    def test_probe_spans_match_results(self, acute):
        spans = [s for s in acute.testbed.sim.spans
                 if s.name == "measurement.probe"]
        assert len(spans) == len(acute.tool.results) == 10
        for span, outcome in zip(spans, acute.tool.results):
            assert span.fields["outcome"] == "ok"
            assert span.duration == pytest.approx(outcome.rtt)

    def test_inflation_histogram_positive(self, acute):
        hist = acute.testbed.sim.metrics.get("probe_inflation_seconds",
                                             labels={"kind": "probe"})
        assert hist.count == 10
        # du >= dn by construction: the user timestamps wrap the network.
        assert hist.minimum >= 0


class TestAcceptanceExports:
    """ISSUE acceptance: one observed cell exports both formats."""

    @pytest.fixture(scope="class")
    def cell(self):
        return run_scenario(ScenarioSpec(
            tool="acutemon", count=10, seed=3, observe=True))

    def test_prometheus_has_required_histograms(self, cell):
        text = to_prometheus(cell.metrics_snapshot())
        assert "# TYPE sdio_promotion_seconds histogram" in text
        assert "sdio_promotion_seconds_bucket" in text
        assert "# TYPE psm_beacon_wait_seconds histogram" in text
        assert "psm_beacon_wait_seconds_bucket" in text

    def test_chrome_trace_reconstructs_delay_decomposition(self, cell):
        trace = to_chrome_trace(cell.spans)
        tracks = {e["args"]["name"] for e in trace["traceEvents"]
                  if e["ph"] == "M"}
        assert {"sdio", "psm", "measurement"} <= tracks
        # The first probe span should overlap the sdio promotion span:
        # that overlap IS the inflation the paper decomposes.
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        json.dumps(trace)  # loadable by chrome://tracing
        assert any(e["name"] == "measurement.probe" for e in complete)
        assert any(e["name"] == "sdio.promotion" for e in complete)

    def test_enabling_observability_never_changes_results(self, cell):
        plain = run_scenario(ScenarioSpec(tool="acutemon", count=10, seed=3))
        assert plain.user_rtts == cell.user_rtts
        assert plain.layers == cell.layers
