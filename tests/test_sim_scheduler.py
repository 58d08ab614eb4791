"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.sim.errors import SchedulerError, SimTimeError
from repro.sim.scheduler import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(0.3, order.append, "c")
        sim.schedule(0.1, order.append, "a")
        sim.schedule(0.2, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_in_scheduling_order(self, sim):
        order = []
        for tag in range(10):
            sim.schedule(0.5, order.append, tag)
        sim.run()
        assert order == list(range(10))

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(1.25, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.25]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimTimeError):
            sim.schedule(-0.1, lambda: None)

    def test_scheduling_in_the_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimTimeError):
            sim.at(0.5, lambda: None)

    def test_call_soon_runs_after_pending_same_time_events(self, sim):
        order = []
        sim.schedule(0.0, order.append, "first")
        sim.call_soon(order.append, "second")
        sim.run()
        assert order == ["first", "second"]

    def test_kwargs_passed_through(self, sim):
        result = {}
        sim.schedule(0.1, result.update, status="done")
        sim.run()
        assert result == {"status": "done"}


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        sim.run(until=1.5)
        assert fired == [1]
        assert sim.now == 1.5

    def test_run_until_advances_clock_on_empty_heap(self, sim):
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_pending_event_survives_partial_run(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, 2)
        sim.run(until=1.0)
        assert sim.pending() == 1
        sim.run()
        assert fired == [2]

    def test_stop_halts_run(self, sim):
        fired = []
        sim.schedule(0.1, fired.append, 1)
        sim.schedule(0.2, sim.stop)
        sim.schedule(0.3, fired.append, 3)
        sim.run()
        assert fired == [1]
        assert sim.pending() == 1

    def test_stop_leaves_clock_at_stopping_event(self, sim):
        fired = []
        sim.schedule(0.1, fired.append, 1)
        sim.schedule(0.2, sim.stop)
        sim.schedule(0.3, fired.append, 3)
        assert sim.run(until=1.0) == pytest.approx(0.2)
        assert sim.now == pytest.approx(0.2)
        assert fired == [1]
        # A later run without stop() still advances to its boundary.
        assert sim.run(until=1.0) == 1.0
        assert fired == [1, 3]

    def test_run_is_not_reentrant(self, sim):
        def nested():
            with pytest.raises(SchedulerError):
                sim.run()

        sim.schedule(0.1, nested)
        sim.run()

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_events_fired_counter(self, sim):
        for _ in range(5):
            sim.schedule(0.1, lambda: None)
        sim.run()
        assert sim.events_fired == 5


class TestUntilBoundary:
    """run(until=...) is inclusive: events at exactly ``until`` fire."""

    def test_event_at_exactly_until_fires(self, sim):
        fired = []
        sim.at(1.0, fired.append, "boundary")
        sim.run(until=1.0)
        assert fired == ["boundary"]
        assert sim.now == 1.0

    def test_same_instant_followups_at_until_also_fire(self, sim):
        fired = []

        def boundary():
            fired.append("first")
            sim.call_soon(fired.append, "second")

        sim.at(1.0, boundary)
        sim.run(until=1.0)
        assert fired == ["first", "second"]
        assert sim.pending() == 0

    def test_event_just_past_until_stays_pending(self, sim):
        fired = []
        sim.at(1.0, fired.append, "in")
        sim.at(1.0 + 1e-9, fired.append, "out")
        sim.run(until=1.0)
        assert fired == ["in"]
        assert sim.pending() == 1
        assert sim.now == 1.0

    def test_clock_never_passes_until(self, sim):
        sim.at(0.25, lambda: None)
        assert sim.run(until=2.0) == 2.0
        assert sim.now == 2.0


class TestPendingAccounting:
    """pending() is O(1) bookkeeping, so pin its edge cases."""

    def test_pending_counts_only_live_events(self, sim):
        events = [sim.schedule(0.1 * i, lambda: None) for i in range(1, 6)]
        assert sim.pending() == 5
        events[0].cancel()
        events[3].cancel()
        assert sim.pending() == 3

    def test_cancel_after_fire_does_not_corrupt_count(self, sim):
        event = sim.schedule(0.1, lambda: None)
        keep = sim.schedule(0.2, lambda: None)
        sim.run(until=0.15)
        event.cancel()  # already fired: harmless no-op
        assert sim.pending() == 1
        keep.cancel()
        assert sim.pending() == 0

    def test_double_cancel_counts_once(self, sim):
        event = sim.schedule(0.5, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending() == 0

    def test_pending_drains_through_run(self, sim):
        canceled = sim.schedule(0.1, lambda: None)
        sim.schedule(0.2, lambda: None)
        canceled.cancel()
        sim.run()
        assert sim.pending() == 0
        assert sim.events_fired == 1

    def test_step_discards_cancelled_then_fires_live(self, sim):
        fired = []
        dead = sim.schedule(0.1, fired.append, "dead")
        sim.schedule(0.2, fired.append, "live")
        dead.cancel()
        assert sim.step() is True
        assert fired == ["live"]
        assert sim.pending() == 0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(0.5, fired.append, 1)
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(0.5, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_cancelled_events_not_counted_pending(self, sim):
        keep = sim.schedule(0.5, lambda: None)
        drop = sim.schedule(0.6, lambda: None)
        drop.cancel()
        assert sim.pending() == 1
        assert keep is not drop

    def test_peek_skips_cancelled_head(self, sim):
        first = sim.schedule(0.1, lambda: None)
        sim.schedule(0.2, lambda: None)
        first.cancel()
        assert sim.peek() == 0.2


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteTimes:
    """NaN and +-inf times raise SimTimeError instead of entering the
    heap, where NaN would compare false both ways and misorder events."""

    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    def test_schedule_rejects_non_finite_delay(self, sim, value):
        with pytest.raises(SimTimeError):
            sim.schedule(value, lambda: None)
        assert sim.pending() == 0

    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    def test_at_rejects_non_finite_time(self, sim, value):
        with pytest.raises(SimTimeError):
            sim.at(value, lambda: None)
        assert sim.pending() == 0

    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    def test_post_rejects_non_finite_time(self, sim, value):
        with pytest.raises(SimTimeError):
            sim.post(value, lambda: None)
        assert sim.pending() == 0

    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    def test_periodic_rejects_non_finite_phase(self, sim, value):
        with pytest.raises(SimTimeError):
            sim.schedule_periodic(0.1, lambda: None, phase=value)
        assert sim.pending() == 0

    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    def test_periodic_rejects_non_finite_first(self, sim, value):
        with pytest.raises(SimTimeError):
            sim.schedule_periodic(0.1, lambda: None, first=value)
        assert sim.pending() == 0

    def test_nan_never_reaches_the_run_loop(self, sim):
        fired = []
        sim.schedule(0.2, fired.append, "b")
        with pytest.raises(SimTimeError):
            sim.schedule(float("nan"), fired.append, "nan")
        sim.schedule(0.1, fired.append, "a")
        sim.run()
        assert fired == ["a", "b"]


class TestPost:
    """``post`` is ``at`` without the cancellable ``Event``: the same
    order, the same checks, the same counters."""

    def test_posts_and_events_share_fifo_ties(self, sim):
        order = []
        sim.at(0.1, order.append, "event-1")
        sim.post(0.1, order.append, "post-1")
        sim.schedule(0.1, order.append, "event-2")
        sim.post(0.05, order.append, "early")
        sim.post(0.1, order.append, "post-2")
        sim.run()
        assert order == ["early", "event-1", "post-1", "event-2", "post-2"]
        assert sim.events_fired == 5

    def test_post_in_the_past_rejected(self, sim):
        sim.run(until=1.0)
        with pytest.raises(SimTimeError):
            sim.post(0.5, lambda: None)
        assert sim.pending() == 0

    def test_peek_step_and_pending_see_posts(self, sim):
        fired = []
        sim.schedule(0.2, fired.append, "event").cancel()
        sim.post(0.3, fired.append, "post")
        assert sim.pending() == 1
        assert sim.peek() == 0.3
        assert sim.step() is True
        assert fired == ["post"] and sim.now == 0.3
        assert sim.step() is False

    def test_observed_run_counts_posts_by_label(self, sim):
        from repro.obs import enable_observability

        enable_observability(sim)
        sim.post(0.1, lambda: None, label="hop:a")
        sim.post(0.2, lambda: None, label="hop:b")
        sim.schedule(0.3, lambda: None, label="timer")
        sim.run()
        fired = sim.metrics.get("scheduler_events_fired_total",
                                labels={"category": "hop"})
        assert fired.value == 2
        assert sim.events_fired == 3

    def test_step_fires_a_post_when_observed(self, sim):
        from repro.obs import enable_observability

        enable_observability(sim)
        fired = []
        sim.post(0.1, fired.append, 1, label="hop")
        assert sim.step() is True
        assert fired == [1] and sim.events_fired == 1

    def test_post_from_a_batched_train_keeps_order(self, sim):
        log = []

        def tick():
            log.append(("tick", sim.now))
            if len(log) == 3:
                sim.post(sim.now + 0.05, lambda: log.append(("post", sim.now)))

        sim.schedule_periodic(0.1, tick, label="train")
        sim.run(until=0.55)
        assert [kind for kind, _ in log] == [
            "tick", "tick", "tick", "post", "tick", "tick"]
        assert log[3][1] == pytest.approx(0.35)


class TestClearThrough:
    """``clear_through(t)``: inside ``run()``, not stopped, ``t`` within
    ``until`` and the heap head strictly later than ``t``."""

    @staticmethod
    def _ask(sim, at, t):
        answers = []
        sim.post(at, lambda: answers.append(sim.clear_through(t)))
        return answers

    def test_true_on_an_empty_heap_inside_run(self, sim):
        answers = self._ask(sim, 0.1, 0.5)
        sim.run()
        assert answers == [True]

    def test_false_outside_run(self, sim):
        assert not sim.clear_through(0.5)

    def test_false_inside_step(self, sim):
        answers = self._ask(sim, 0.1, 0.5)
        assert sim.step() is True
        assert answers == [False]

    def test_false_inside_an_observed_step(self, sim):
        from repro.obs import enable_observability

        enable_observability(sim)
        answers = self._ask(sim, 0.1, 0.5)
        assert sim.step() is True
        assert answers == [False]

    @pytest.mark.parametrize("until, expected", [(0.5, True),
                                                 (0.4999, False)])
    def test_until_is_inclusive(self, sim, until, expected):
        answers = self._ask(sim, 0.1, 0.5)
        sim.run(until=until)
        assert answers == [expected]

    def test_false_after_stop(self, sim):
        answers = []

        def stop_then_ask():
            sim.stop()
            answers.append(sim.clear_through(0.5))

        sim.post(0.1, stop_then_ask)
        sim.run()
        assert answers == [False]

    @pytest.mark.parametrize("t, expected", [(0.3, False),
                                             (0.2999, True)])
    def test_head_at_exactly_t_blocks(self, sim, t, expected):
        answers = self._ask(sim, 0.1, t)
        sim.post(0.3, lambda: None)
        sim.run()
        assert answers == [expected]

    def test_cancelled_head_still_blocks(self, sim):
        answers = self._ask(sim, 0.1, 0.3)
        sim.schedule(0.2, lambda: None).cancel()
        sim.run()
        assert answers == [False]

    def test_quiet_ticks_stay_one_batch(self, sim):
        # A train whose callback only reads the query is batched: the
        # heap head is the barrier it asks about.
        answers = []

        def tick():
            answers.append(sim.clear_through(sim.now + 0.05))

        train = sim.schedule_periodic(0.1, tick, label="train")
        sim.post(0.42, lambda: None)
        sim.run(until=1.0)
        # Tick 4 asks past the post at 0.42, tick 10 past ``until``.
        assert answers == [True, True, True, False, True, True,
                           True, True, True, False]
        assert train.ticks == 10 and sim.events_fired == 11
        # Two whole batches (ticks 1-4, then 5-10) each doubled the hint.
        assert train.batch_hint == 16


class TestDeterminism:
    def test_same_seed_same_stream_draws(self):
        def draws(seed):
            sim = Simulator(seed=seed)
            stream = sim.rng.stream("x")
            return [stream.random() for _ in range(10)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)

    def test_event_ordering_deterministic_across_runs(self):
        def trace(seed):
            sim = Simulator(seed=seed)
            log = []
            for i in range(20):
                delay = sim.rng.stream("delays").uniform(0, 1)
                sim.schedule(delay, log.append, i)
            sim.run()
            return log

        assert trace(3) == trace(3)
