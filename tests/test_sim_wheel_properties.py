"""Differential property tests: the scheduler vs a reference heap.

The scheduler keeps one ``(time, seq, event)`` heap but fires periodic
trains in batches on its fast path.  That is safe only if the total
event order is untouched: ``(time, seq)`` ordering with FIFO ties at
equal timestamps, lazy cancellation, the inclusive ``run(until=...)``
boundary, and a batch bound that stops *before* any competitor at or
ahead of the next tick.  These tests replay hypothesis-generated
workloads — one-shot schedules, anchored (``phase=`` / ``first=``) and
``rearm_after`` trains, schedules and cancellations (of trains too)
issued from inside callbacks, and a mid-run ``run(until=...)`` split —
against both the real :class:`~repro.sim.Simulator` and a textbook
heap scheduler that fires every train one tick at a time, and require
identical firing logs.  The same workloads run once more with
observability on, where the observed run loop batches trains too: the
firing log must still match, and the per-category
``scheduler_events_fired_total`` counters must equal the reference's
fire counts, also after a train callback raised mid-batch.
"""

import collections
import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import enable_observability, finalize_sim_metrics
from repro.obs.names import SCHEDULER_EVENTS_FIRED, SCHEDULER_EVENTS_FIRED_TOTAL
from repro.sim import Simulator

#: Delay pool biased toward collisions (FIFO ties, and ties with train
#: ticks on exactly representable grids), mixed with arbitrary floats.
delays = st.one_of(
    st.sampled_from([0.0, 1.0 / 256.0, 0.25, 1.0, 3.996, 4.0,
                     4.0000001, 10.0, 60.0]),
    st.floats(min_value=0.0, max_value=30.0,
              allow_nan=False, allow_infinity=False),
)

#: Train periods: exact binary fractions (ticks land exactly on the
#: pooled delays), inexact decimals (ticks drift by ulps from them),
#: and arbitrary floats.
periods = st.one_of(
    st.sampled_from([1.0 / 256.0, 0.125, 0.25, 0.5, 1.0, 0.1, 0.1024]),
    st.floats(min_value=1e-3, max_value=3.0,
              allow_nan=False, allow_infinity=False),
)

phases = st.sampled_from([0.0, 0.0, 0.25, 0.05, 1.0 / 7.0])


class ReferenceScheduler:
    """Textbook heap event loop: the behavior the scheduler must reproduce.

    Trains re-arm one tick at a time with the same arithmetic and at the
    same ``seq``-drawing points as ``Simulator._fire_train_general``:
    anchored trains push their successor before the callback, chained
    (``rearm_after``) trains after it.
    """

    def __init__(self):
        self._queue = []
        self._seq = itertools.count()
        self.now = 0.0

    def _push(self, time, item):
        heapq.heappush(self._queue, (time, next(self._seq), item))

    def schedule(self, delay, fn, label=""):
        item = _Shot(fn)
        self._push(self.now + delay, item)
        return item

    def schedule_periodic(self, period, fn, phase=0.0, first=None,
                          rearm_after=False, label=""):
        if first is None:
            train = _Train(self, period, fn, self.now + phase, 1, rearm_after)
            self._push(self.now + (period + phase), train)
        else:
            train = _Train(self, period, fn, first, 0, rearm_after)
            self._push(first, train)
        return train

    def run(self, until=None):
        while self._queue:
            fire_time = self._queue[0][0]
            if until is not None and fire_time > until:
                break
            _, _, item = heapq.heappop(self._queue)
            if item.canceled:
                continue
            self.now = fire_time
            item.fire()
        if until is not None and until > self.now:
            self.now = until


class _Shot:
    def __init__(self, fn):
        self.fn = fn
        self.canceled = False

    def cancel(self):
        self.canceled = True

    def fire(self):
        self.fn()


class _Train(_Shot):
    def __init__(self, sched, period, fn, anchor, index, rearm_after):
        super().__init__(fn)
        self.sched = sched
        self.period = period
        self.anchor = anchor
        self.index = index
        self.rearm_after = rearm_after

    def fire(self):
        sched = self.sched
        if self.rearm_after:
            self.fn()
            if not self.canceled:
                sched._push(sched.now + self.period, self)
            return
        self.index += 1
        sched._push(self.anchor + self.index * self.period, self)
        self.fn()


@st.composite
def trains(draw):
    """A train's shape: period, anchoring, re-arm mode, and lifetime.

    ``anchoring`` is ``("phase", p)`` or ``("first", t)``.  The train
    cancels itself from its own callback on tick ``ticks``; its action
    list runs on tick ``act_tick``, so most ticks leave the scheduler
    untouched and can batch.
    """
    period = draw(periods)
    if draw(st.booleans()):
        anchoring = ("phase", draw(phases))
    else:
        anchoring = ("first", draw(delays))
    ticks = draw(st.integers(min_value=1, max_value=60))
    act_tick = draw(st.integers(min_value=1, max_value=ticks))
    return period, anchoring, draw(st.booleans()), ticks, act_tick


@st.composite
def workloads(draw):
    """A scripted workload: root events, callback actions, a run split.

    Each root is a one-shot ``("shot", delay)`` or a ``("train", ...)``
    and carries a small action list executed inside its callback:
    schedule a fresh one-shot (exercising insert-while-running and
    cutting train batches short) or cancel root ``j`` (exercising lazy
    cancellation, including self-, train- and already-fired targets).
    ``until`` splits the run so the inclusive boundary and clock advance
    on an idle scheduler are both checked mid-stream.
    """
    count = draw(st.integers(min_value=1, max_value=20))
    roots = []
    for _ in range(count):
        if draw(st.integers(0, 2)) == 0:
            roots.append(("train",) + draw(trains()))
        else:
            roots.append(("shot", draw(delays)))
    actions = []
    for _ in range(count):
        acts = []
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            if draw(st.booleans()):
                acts.append(("sched", draw(delays)))
            else:
                acts.append(("cancel",
                             draw(st.integers(0, count - 1))))
        actions.append(acts)
    until = draw(st.one_of(st.none(), delays))
    return roots, actions, until


def _label(key):
    """The event label of a workload key: root ``i`` gets one of four
    categories (one of them the unlabelled ``event``), nested one-shots
    share ``nested``."""
    if isinstance(key, tuple):
        return "nested:shot"
    category = ("shot", "train", "mixed", "")[key % 4]
    return f"{category}:{key}" if category else ""


def _category(entry):
    """The metrics category of one firing-log entry."""
    key = entry[0]
    return _label(key).partition(":")[0] or "event"


def _execute(sched, workload):
    """Drive one scheduler through a workload; return its firing log.

    ``sched`` is a :class:`~repro.sim.Simulator` or a
    :class:`ReferenceScheduler`: both expose ``schedule``,
    ``schedule_periodic``, ``run(until)`` and ``now``, and return
    handles with ``cancel()``.  Every event carries a :func:`_label`.
    """
    roots, actions, until = workload
    log = []
    handles = {}

    def run_actions(index):
        for position, action in enumerate(actions[index]):
            if action[0] == "sched":
                nested_key = ("nested", index, position)
                handles[nested_key] = sched.schedule(
                    action[1], make_shot(None, nested_key),
                    label=_label(nested_key))
            else:
                handles[action[1]].cancel()

    def make_shot(index, key):
        def callback():
            log.append((key, sched.now))
            if index is not None:
                run_actions(index)
        return callback

    def make_train_tick(index, lifetime, act_tick):
        fired = [0]

        def callback():
            fired[0] += 1
            log.append((index, fired[0], sched.now))
            if fired[0] == act_tick:
                run_actions(index)
            if fired[0] == lifetime:
                handles[index].cancel()
        return callback

    for index, root in enumerate(roots):
        if root[0] == "shot":
            handles[index] = sched.schedule(root[1], make_shot(index, index),
                                            label=_label(index))
            continue
        _, period, (mode, value), rearm_after, lifetime, act_tick = root
        kwargs = {mode: value, "rearm_after": rearm_after,
                  "label": _label(index)}
        handles[index] = sched.schedule_periodic(
            period, make_train_tick(index, lifetime, act_tick), **kwargs)
    sched.run(until)
    checkpoint = (tuple(log), sched.now)
    sched.run(None)
    return checkpoint, tuple(log), sched.now


class TestWheelMatchesReferenceHeap:
    @given(workload=workloads())
    @settings(max_examples=300, deadline=None)
    def test_identical_firing_order_and_clock(self, workload):
        reference = _execute(ReferenceScheduler(), workload)
        actual = _execute(Simulator(seed=0), workload)
        assert actual == reference


def _fired_by_category(sim):
    """``{category: scheduler_events_fired_total}`` of an observed sim."""
    return {dict(metric.labels)["category"]: metric.value
            for metric in sim.metrics
            if metric.name == SCHEDULER_EVENTS_FIRED_TOTAL}


def _assert_counts_match(sim, log):
    """The observed sim's per-category fire counters equal the number
    of reference firings in each category, and the end-of-run gauge
    equals their sum."""
    expected = collections.Counter(_category(entry) for entry in log)
    fired = _fired_by_category(sim)
    assert fired == dict(expected)
    finalize_sim_metrics(sim)
    gauge = sim.metrics.get(SCHEDULER_EVENTS_FIRED).value
    assert gauge == sum(fired.values()) == sim.events_fired == len(log)


class TestObservedMatchesReferenceHeap:
    """The observed run loop batches trains and meters per category."""

    @given(workload=workloads())
    @settings(max_examples=200, deadline=None)
    def test_identical_order_clock_and_fire_counts(self, workload):
        reference = _execute(ReferenceScheduler(), workload)
        sim = enable_observability(Simulator(seed=0))
        actual = _execute(sim, workload)
        assert actual == reference
        _assert_counts_match(sim, actual[1])

    @pytest.mark.parametrize("rearm_after", [False, True])
    @pytest.mark.parametrize("raise_tick", [1, 3, 5, 6, 9, 13, 20, 37])
    def test_train_raising_mid_batch_keeps_counts(self, raise_tick,
                                                  rearm_after):
        """A train callback raising inside a batch: the tick counts,
        the train stays armed exactly as tick-at-a-time firing leaves
        it, and the counters agree before and after resuming."""
        logs = []
        for sched in (ReferenceScheduler(),
                      enable_observability(Simulator(seed=0))):
            log = []
            ticks = [0]

            def tick(sched=sched, log=log, ticks=ticks):
                ticks[0] += 1
                log.append((1, ticks[0], sched.now))
                if ticks[0] == raise_tick:
                    raise RuntimeError("tick failed")
                if ticks[0] == 60:
                    train.cancel()

            sched.schedule(7.3, lambda sched=sched, log=log:
                           log.append((0, sched.now)), label=_label(0))
            train = sched.schedule_periodic(0.125, tick, label=_label(1),
                                            rearm_after=rearm_after)
            with pytest.raises(RuntimeError, match="tick failed"):
                sched.run()
            checkpoint = (tuple(log), sched.now)
            if isinstance(sched, Simulator):
                _assert_counts_match(sched, log)
            sched.run()
            if isinstance(sched, Simulator):
                _assert_counts_match(sched, log)
            logs.append((checkpoint, tuple(log), sched.now))
        assert logs[0] == logs[1]


class TestBoundaryPins:
    """Deterministic pins for the cases hypothesis is aimed at."""

    def test_fifo_ties_preserved_across_bucket_fill(self):
        sim = Simulator(seed=0)
        ref = ReferenceScheduler()
        order_sim, order_ref = [], []
        # Interleave registrations so seq order differs from time
        # order; include exact ties at 1.0 and at 4.0.
        pattern = [1.0, 4.0, 1.0, 0.0, 4.0, 1.0, 8.5, 0.0]
        for mark, delay in enumerate(pattern):
            sim.schedule(delay, order_sim.append, mark)
            ref.schedule(delay, (lambda m: lambda: order_ref.append(m))(mark))
        sim.run()
        ref.run()
        assert order_sim == order_ref

    def test_until_boundary_inclusive_exact_exclusive_epsilon(self):
        sim = Simulator(seed=0)
        fired = []
        sim.schedule(1.0, fired.append, "on-boundary")
        sim.schedule(1.0 + 1e-9, fired.append, "past-boundary")
        sim.run(until=1.0)
        assert fired == ["on-boundary"]
        assert sim.pending() == 1
        sim.run()
        assert fired == ["on-boundary", "past-boundary"]

    def test_cancellation_of_far_overflow_entry(self):
        sim = Simulator(seed=0)
        fired = []
        victim = sim.schedule(500.0, fired.append, "victim")
        sim.schedule(0.5, victim.cancel)
        sim.schedule(900.0, fired.append, "survivor")
        sim.run()
        assert fired == ["survivor"]
        assert sim.pending() == 0

    def test_train_tick_tied_with_earlier_competitor_yields(self):
        """A one-shot scheduled before the train at exactly a tick time
        has the smaller seq and fires first: the batch must stop short
        of a tie with its barrier."""
        sim = Simulator(seed=0)
        fired = []
        sim.schedule(1.0, fired.append, "shot")
        train = sim.schedule_periodic(0.25, lambda: fired.append(sim.now))
        sim.schedule(1.1, train.cancel)
        sim.run()
        assert fired == [0.25, 0.5, 0.75, "shot", 1.0]
