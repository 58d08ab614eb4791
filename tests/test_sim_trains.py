"""Periodic-train behavior: cancellation, re-anchoring, obs accounting.

``Simulator.schedule_periodic`` keeps one armed
:class:`~repro.sim.events.PeriodicEvent` per train and fires whole
batches of ticks per queue pop, with observability on or off.  These
tests pin the behavior that batching must not change: cancellation from
inside and outside the callback, the anchored grid surviving
``run(until=...)`` splits, ``first=`` and ``rearm_after=`` anchoring
modes, interleaving with competing one-shots, and exactly-once metric
accounting per tick in serial, resumed, and parallel campaigns.
"""

import json

import pytest

from repro.obs import enable_observability
from repro.sim import PeriodicTimer, SimTimeError, Simulator
from repro.testbed.campaign import Campaign


class TestCancellation:
    def test_cancel_from_outside_stops_future_ticks(self):
        sim = Simulator(seed=0)
        ticks = []
        train = sim.schedule_periodic(0.1, lambda: ticks.append(sim.now))
        sim.schedule(0.35, train.cancel)
        sim.run()
        assert ticks == pytest.approx([0.1, 0.2, 0.3])
        assert sim.pending() == 0

    def test_cancel_from_own_callback_mid_batch(self):
        """A self-cancelling callback stops the train even while the
        scheduler is firing a batch of its ticks."""
        sim = Simulator(seed=0)
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 5:
                train.cancel()

        train = sim.schedule_periodic(0.01, tick)
        sim.run(until=10.0)
        assert len(ticks) == 5
        assert train.ticks == 5
        assert sim.pending() == 0

    def test_cancel_counts_once_in_accounting(self):
        sim = Simulator(seed=0)
        train = sim.schedule_periodic(1.0, lambda: None)
        assert sim.pending() == 1
        train.cancel()
        assert sim.pending() == 0
        assert sim.events_canceled == 1
        sim.run()
        assert sim.events_fired == 0


class TestAnchoring:
    def test_grid_survives_run_until_splits(self):
        """Resuming with run(until=...) continues the same absolute
        grid — tick times are identical to an unsplit run."""
        split_times, straight_times = [], []

        sim = Simulator(seed=0)
        sim.schedule_periodic(0.25, lambda: split_times.append(sim.now))
        for boundary in (0.3, 0.5, 1.1, 2.0, 3.0):
            sim.run(until=boundary)
        reference = Simulator(seed=0)
        reference.schedule_periodic(
            0.25, lambda: straight_times.append(reference.now))
        reference.run(until=3.0)

        assert split_times == straight_times
        assert split_times[:4] == pytest.approx([0.25, 0.5, 0.75, 1.0])

    def test_phase_delays_first_tick_only(self):
        sim = Simulator(seed=0)
        times = []
        sim.schedule_periodic(1.0, lambda: times.append(sim.now),
                              phase=0.5)
        sim.run(until=4.0)
        assert times == pytest.approx([1.5, 2.5, 3.5])

    def test_first_pins_absolute_start(self):
        """``first=`` anchors the grid at an absolute time — the STA's
        TBTT wake grid — with ticks at first + k*period."""
        sim = Simulator(seed=0)
        times = []
        sim.run(until=0.7)
        sim.schedule_periodic(1.0, lambda: times.append(sim.now),
                              first=2.2)
        sim.run(until=5.0)
        assert times == pytest.approx([2.2, 3.2, 4.2])

    def test_first_and_phase_are_exclusive(self):
        sim = Simulator(seed=0)
        with pytest.raises(ValueError):
            sim.schedule_periodic(1.0, lambda: None, phase=0.5, first=2.0)

    def test_first_in_the_past_rejected(self):
        sim = Simulator(seed=0)
        sim.run(until=5.0)
        with pytest.raises(SimTimeError):
            sim.schedule_periodic(1.0, lambda: None, first=4.0)

    def test_invalid_period_rejected(self):
        sim = Simulator(seed=0)
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                sim.schedule_periodic(bad, lambda: None)

    def test_rearm_after_reanchors_on_fire_time(self):
        """Chained mode re-arms at now + period after the callback —
        AcuteMon's inter-train gap semantics."""
        sim = Simulator(seed=0)
        times = []
        sim.schedule_periodic(1.0, lambda: times.append(sim.now),
                              rearm_after=True)
        sim.run(until=3.5)
        assert times == pytest.approx([1.0, 2.0, 3.0])


class TestPeriodicTimerWrapper:
    def test_stop_then_restart_reanchors(self):
        sim = Simulator(seed=0)
        times = []
        timer = PeriodicTimer(sim, 1.0, lambda: times.append(sim.now))
        timer.start()
        sim.run(until=2.5)
        timer.stop()
        assert not timer.running
        assert timer.ticks == 2  # count survives the stop
        sim.run(until=4.7)
        timer.start()
        assert timer.next_deadline() == pytest.approx(5.7)
        sim.run(until=7.0)
        assert times == pytest.approx([1.0, 2.0, 5.7, 6.7])

    def test_stop_from_callback_sticks(self):
        sim = Simulator(seed=0)
        fired = []
        timer = PeriodicTimer(sim, 0.5, lambda: (fired.append(sim.now),
                                                 timer.stop()))
        timer.start()
        sim.run()
        assert fired == pytest.approx([0.5])
        assert sim.pending() == 0


class TestBatchOrdering:
    def test_train_interleaves_with_competing_one_shots(self):
        """A dense train and one-shots landing on, between, and tied
        with its ticks fire in exactly (time, seq) order — the batch
        fast path must yield wherever a competitor interleaves."""
        sim = Simulator(seed=0)
        log = []
        sim.schedule_periodic(0.1, lambda: log.append(("tick", sim.now)))
        marks = [0.05, 0.1, 0.25, 0.3000001, 0.5, 0.9999999]
        for mark in marks:
            sim.schedule(mark, lambda m=mark: log.append(("shot", m)))
        sim.run(until=1.0)

        # Same-instant tie at t=0.1: the train was registered first, so
        # its tick precedes the one-shot (FIFO by seq).
        assert log[1] == ("tick", pytest.approx(0.1))
        assert log[2] == ("shot", 0.1)
        assert len(log) == 10 + len(marks)
        assert [entry[1] for entry in log] \
            == pytest.approx([0.05, 0.1, 0.1, 0.2, 0.25, 0.3, 0.3000001,
                              0.4, 0.5, 0.5, 0.6, 0.7, 0.8, 0.9,
                              0.9999999, 1.0])

    def test_callback_scheduling_ahead_of_batch_is_honored(self):
        """A tick that schedules a one-shot before the train's next tick
        interrupts the batch so the one-shot fires in order."""
        sim = Simulator(seed=0)
        log = []

        def tick():
            log.append(("tick", sim.now))
            if len(log) == 1:
                sim.schedule(0.05, lambda: log.append(("mid", sim.now)))

        sim.schedule_periodic(0.1, tick)
        sim.run(until=0.35)
        assert log == [("tick", pytest.approx(0.1)),
                       ("mid", pytest.approx(0.15)),
                       ("tick", pytest.approx(0.2)),
                       ("tick", pytest.approx(0.3))]


class TestObsAccounting:
    @staticmethod
    def _fired(sim, category):
        return sim.metrics.counter("scheduler_events_fired_total",
                                   labels={"category": category}).value

    def test_metrics_count_each_tick_exactly_once_serial(self):
        sim = enable_observability(Simulator(seed=0))
        train = sim.schedule_periodic(0.1, lambda: None, label="bg:x")
        sim.run(until=2.0)
        assert self._fired(sim, "bg") == 20
        assert train.ticks == 20
        assert sim.events_fired == 20

    def test_metrics_count_each_tick_exactly_once_resumed(self):
        sim = enable_observability(Simulator(seed=0))
        sim.schedule_periodic(0.1, lambda: None, label="bg:x")
        for boundary in (0.55, 1.0, 1.45, 2.0):
            sim.run(until=boundary)
        assert self._fired(sim, "bg") == 20

    def test_fast_and_observed_paths_agree_on_counts(self):
        observed = enable_observability(Simulator(seed=0))
        fast = Simulator(seed=0)
        for sim in (observed, fast):
            sim.schedule_periodic(0.01, lambda: None, label="bg:x")
            sim.run(until=3.0)
        assert observed.events_fired == fast.events_fired == 300
        assert self._fired(observed, "bg") == 300

    def test_parallel_campaign_with_trains_stays_bit_identical(self):
        """The watchdog/beacon/background trains run inside every cell;
        the serial==parallel bit-identity contract must survive them."""
        def grid():
            return Campaign(phones=("nexus5",), rtts=(0.02, 0.05),
                            tools=("acutemon", "ping"), count=3)

        serial = grid()
        serial.run(workers=1)
        reference = json.dumps(
            [result.to_dict() for result in serial.results],
            sort_keys=True)
        parallel = grid()
        parallel.run(workers=2)
        assert json.dumps(
            [result.to_dict() for result in parallel.results],
            sort_keys=True) == reference
