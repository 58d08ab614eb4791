"""Unit tests for one-shot and periodic timers."""

import pytest

from repro.sim.errors import SimTimeError
from repro.sim.timers import PeriodicTimer, Timer


class TestTimer:
    def test_fires_after_interval(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(0.25)
        sim.run()
        assert fired == [0.25]

    def test_restart_moves_deadline(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(0.2)
        sim.schedule(0.1, timer.restart, 0.2)
        sim.run()
        assert fired == [pytest.approx(0.3)]

    def test_cancel_prevents_firing(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(0.2)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_armed_reflects_state(self, sim):
        timer = Timer(sim, lambda: None)
        assert not timer.armed
        timer.start(0.5)
        assert timer.armed
        assert timer.deadline == 0.5
        timer.cancel()
        assert not timer.armed
        assert timer.deadline is None

    def test_fires_once_per_start(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(0.1)
        sim.run(until=1.0)
        assert len(fired) == 1

    def test_restart_from_callback(self, sim):
        fired = []

        def on_fire():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(0.1)

        timer = Timer(sim, on_fire)
        timer.start(0.1)
        sim.run()
        assert fired == [pytest.approx(0.1), pytest.approx(0.2),
                         pytest.approx(0.3)]


class TestLazyDeadline:
    """A restart to a later deadline moves it without touching the
    heap; the pending event re-arms once when it fires early."""

    def test_later_restart_keeps_one_event_and_fires_at_last_deadline(
            self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(0.25)
        sim.schedule(0.1, timer.restart, 0.25)
        sim.schedule(0.2, timer.restart, 0.25)
        sim.run(until=0.2)
        assert sim.pending() == 1  # the timer's first event, at 0.25
        sim.run()
        assert fired == [0.2 + 0.25]
        assert sim.events_canceled == 0
        # The two restarts, then the first event firing early at 0.25
        # and re-arming once at the deadline, where the callback runs.
        assert sim.events_fired == 2 + 2

    def test_earlier_restart_reschedules(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.schedule(0.1, timer.restart, 0.2)
        sim.run()
        assert fired == [0.1 + 0.2]
        assert sim.now == 0.1 + 0.2  # the superseded deadline left no event
        assert sim.events_canceled == 1

    def test_cancel_leaves_nothing_pending(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(0.5)
        sim.run(until=0.1)
        timer.restart(2.0)
        timer.cancel()
        assert sim.pending() == 0
        assert sim.run() == 0.1

    def test_armed_and_deadline_read_the_deadline(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(0.5)
        sim.run(until=0.2)
        timer.restart(0.5)
        assert timer.armed
        assert timer.deadline == 0.2 + 0.5
        sim.run(until=0.6)  # the early event re-armed, still armed
        assert timer.armed
        assert timer.deadline == 0.2 + 0.5
        sim.run()
        assert not timer.armed
        assert timer.deadline is None

    def test_invalid_interval_rejected_and_state_kept(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(0.5)
        for interval in (-1.0, float("nan"), float("inf")):
            with pytest.raises(SimTimeError):
                timer.restart(interval)
        assert timer.deadline == 0.5
        assert sim.pending() == 1


class TestPeriodicTimer:
    def test_ticks_at_fixed_period(self, sim):
        ticks = []
        timer = PeriodicTimer(sim, 0.5, lambda: ticks.append(sim.now))
        timer.start()
        sim.run(until=2.4)
        assert ticks == [pytest.approx(t) for t in (0.5, 1.0, 1.5, 2.0)]

    def test_no_drift_from_epoch(self, sim):
        # 1000 ticks of 10 ms must land exactly on multiples of 0.01.
        ticks = []
        timer = PeriodicTimer(sim, 0.01, lambda: ticks.append(sim.now))
        timer.start()
        sim.run(until=10.0)
        assert len(ticks) == 1000
        assert ticks[-1] == pytest.approx(10.0, abs=1e-9)

    def test_stop_from_callback_sticks(self, sim):
        ticks = []

        def on_tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                timer.stop()

        timer = PeriodicTimer(sim, 0.1, on_tick)
        timer.start()
        sim.run(until=5.0)
        assert len(ticks) == 2

    def test_phase_delays_first_tick(self, sim):
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start(phase=0.25)
        sim.run(until=2.5)
        assert ticks == [pytest.approx(1.25), pytest.approx(2.25)]

    def test_invalid_period_rejected(self, sim):
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 0.0, lambda: None)

    def test_tick_counter(self, sim):
        timer = PeriodicTimer(sim, 0.2, lambda: None)
        timer.start()
        sim.run(until=1.1)
        assert timer.ticks == 5

    def test_restart_resets_epoch(self, sim):
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start()
        sim.schedule(0.5, timer.start)  # restart half way through
        sim.run(until=2.0)
        assert ticks == [pytest.approx(1.5)]
