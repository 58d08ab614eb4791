"""The event scheduler at the heart of the simulator.

The pending-event store is one binary heap of ``(time, seq, event)``
tuples, so every comparison runs at C speed inside :mod:`heapq`.
Events fire in exact ``(time, seq)`` order: ``seq`` is drawn from one
global counter at scheduling time, so two events at the same instant
fire in the order they were scheduled (FIFO ties).  Cancelled entries
are discarded lazily when they surface at the head, and a counter of
them keeps :meth:`Simulator.pending` O(1).

Periodic trains
---------------

Most steady-state events are periodic — SDIO watchdog ticks, beacon
intervals, AcuteMon background packets.
:meth:`Simulator.schedule_periodic` arms a
:class:`~repro.sim.events.PeriodicEvent` — one allocation for the whole
train; each tick re-stamps ``(time, seq)`` in place.  For an
argument-free anchored callback both run loops fire whole runs of ticks
in a single inner loop (:meth:`Simulator._fire_train`), bounded by the
next competing event (the heap head, ties excluded) and
``run(until=...)``.
The batch aborts the moment the callback touches scheduler state
(schedules, cancels, or stops), so interaction with other events is
byte-identical to the one-tick-at-a-time path; a fresh ``seq`` is drawn
per tick at the same point it would be drawn without batching, so the
deterministic event order is unchanged.  ``events_fired`` is settled
once per batch and may read stale from inside a batched callback.

Observed runs
-------------

With metrics enabled, :meth:`Simulator.run` takes the observed loop: the
same fused pop loop and the same train batches, plus per-category
``scheduler_events_fired_total`` and volatile
``scheduler_handler_self_seconds_total`` counters.  Each event label's
counter pair is bound once per run.  An event then costs a dict hit and
two ``perf_counter`` reads on top of the fast loop; a train batch is one
event to the clock and adds its tick count once, in the ``finally`` that
settles ``events_fired``.
"""

import heapq
import math
import time

from repro.obs.metrics import MetricsRegistry
from repro.obs.names import (
    SCHEDULER_EVENTS_FIRED_TOTAL,
    SCHEDULER_HANDLER_SELF_SECONDS_TOTAL,
)
from repro.obs.spans import SpanTracker
from repro.sim.errors import SchedulerError, SimTimeError
from repro.sim.events import _SEQ, Event, PeriodicEvent
from repro.sim.rng import RngRegistry

_INF = math.inf
#: Cap on a train's adaptive batch size (ticks fired per heap pop).
_BATCH_CAP = 512


def _check_finite(name, value):
    """Reject NaN and +-inf times, which a heap would silently misorder."""
    if not math.isfinite(value):
        raise SimTimeError(f"{name} must be finite, got {value!r}")


class _Meters(dict):
    """Event label -> its ``(fired, self-seconds)`` counter pair.

    A pair is fetched through the registry's get-or-create on the
    label's first event and kept, so the observed loop pays one dict
    hit per event and a snapshot still sees the registry's own objects.
    Only built with observability on.
    """

    __slots__ = ("metrics",)

    def __init__(self, metrics):
        super().__init__()
        self.metrics = metrics

    def __missing__(self, label):
        labels = {"category": label.partition(":")[0] or "event"}
        self[label] = meter = (
            self.metrics.counter(SCHEDULER_EVENTS_FIRED_TOTAL,  # obs: caller-guarded
                                 labels=labels),
            self.metrics.counter(SCHEDULER_HANDLER_SELF_SECONDS_TOTAL,  # obs: caller-guarded
                                 labels=labels, volatile=True))
        return meter


class Simulator:
    """A deterministic discrete-event simulator.

    The simulator owns

    * the virtual clock (:attr:`now`, in seconds, starting at 0.0),
    * the pending-event heap (see the module docstring),
    * a :class:`~repro.sim.rng.RngRegistry` so components can draw from
      named, independently seeded random streams,
    * its observation records, a :class:`~repro.obs.metrics.MetricsRegistry`
      and a :class:`~repro.obs.spans.SpanTracker` (both disabled by
      default; see :func:`repro.obs.enable_observability`).

    Typical use::

        sim = Simulator(seed=7)
        sim.schedule(0.5, handler, arg)
        sim.schedule_periodic(0.1024, beacon_tick)
        sim.run(until=10.0)

    ``_heap`` and ``_canceled_in_heap`` (the lazy-cancellation count) are
    private to this module and :mod:`repro.sim.events` — invariant RL105
    rejects outside access, so call sites read queue state through
    :meth:`pending` and :meth:`peek` only.
    """

    def __init__(self, seed=0):
        self._now = 0.0
        self._heap = []
        self._canceled_in_heap = 0
        self._running = False
        self._stopped = False
        self.events_fired = 0
        self.events_canceled = 0
        self.rng = RngRegistry(seed)
        self.metrics = MetricsRegistry(enabled=False)
        self.spans = SpanTracker(metrics=self.metrics)

    @property
    def now(self):
        """Current simulated time in seconds."""
        return self._now

    # -- insertion ---------------------------------------------------------

    def schedule(self, delay, fn, *args, label="", **kwargs):
        """Schedule ``fn(*args, **kwargs)`` to fire ``delay`` seconds from now.

        Returns the :class:`~repro.sim.events.Event`, which can be cancelled.
        ``delay`` must be non-negative and finite; a zero delay fires after
        all events already scheduled for the current instant.
        """
        if not 0.0 <= delay < _INF:  # also rejects NaN
            raise SimTimeError(
                f"delay must be non-negative and finite, got {delay!r}")
        # Inlined _insert_entry(): schedule() is the hottest entry point,
        # called once per packet hop / timer tick, so it skips a call frame.
        event = Event(self._now + delay, fn, args, kwargs, label=label)
        event.owner = self
        event.in_heap = True
        heapq.heappush(self._heap, (event.time, event.seq, event))
        return event

    def at(self, time, fn, *args, label="", **kwargs):
        """Schedule ``fn`` at an absolute (finite) simulated time."""
        if not self._now <= time < _INF:  # also rejects NaN
            _check_finite("time", time)
            raise SimTimeError(
                f"cannot schedule at {time!r}; clock is already at {self._now!r}"
            )
        event = Event(time, fn, args, kwargs, label=label)
        event.owner = self
        event.in_heap = True
        heapq.heappush(self._heap, (time, event.seq, event))
        return event

    def call_soon(self, fn, *args, label="", **kwargs):
        """Schedule ``fn`` for the current instant (after pending same-time events)."""
        return self.at(self._now, fn, *args, label=label, **kwargs)

    def schedule_periodic(self, period, fn, *args, phase=0.0, first=None,
                          rearm_after=False, label="", **kwargs):
        """Arm a periodic train firing ``fn(*args, **kwargs)`` every ``period``.

        Returns the :class:`~repro.sim.events.PeriodicEvent`; cancelling
        it stops the train (also from inside its own callback).  By
        default ticks are anchored drift-free at
        ``now + phase + k * period`` for ``k >= 1`` — the first tick one
        full period out, like a hardware timer armed at boot.  ``first``
        instead pins the first tick to an absolute time, with successors
        at ``first + k * period`` (mutually exclusive with ``phase``).
        ``rearm_after=True`` selects chained re-arming: each successor is
        scheduled only after the callback returns, ``period`` after the
        tick that just fired — the semantics of a callback whose last
        statement re-schedules itself.

        Argument-free anchored trains are eligible for batched firing
        (see the module docstring); every other shape runs tick-at-a-time
        with identical observable behaviour.
        """
        if period <= 0 or not math.isfinite(period):
            raise ValueError(f"period must be positive and finite, got {period!r}")
        _check_finite("phase", phase)
        if first is None:
            anchor = self._now + phase
            start = self._now + (period + phase)
            index = 1
        else:
            _check_finite("first", first)
            if phase:
                raise ValueError("pass either phase or first, not both")
            anchor = first
            start = first
            index = 0
        if start < self._now:
            raise SimTimeError(
                f"first tick at {start!r} is before the clock ({self._now!r})"
            )
        event = PeriodicEvent(start, fn, args, kwargs, label=label,
                              period=period, anchor=anchor, index=index,
                              rearm_after=rearm_after)
        event.owner = self
        self._insert_entry(event)
        return event

    def _insert_entry(self, event):
        """Push an event (``time``/``seq`` already set) onto the heap."""
        event.in_heap = True
        heapq.heappush(self._heap, (event.time, event.seq, event))

    # -- control -----------------------------------------------------------

    def stop(self):
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def peek(self):
        """Return the firing time of the next live event, or ``None``."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[2].canceled:
                return entry[0]
            heapq.heappop(heap)
            entry[2].in_heap = False
            self._canceled_in_heap -= 1
        return None

    def step(self):
        """Fire exactly one event.  Returns ``False`` when nothing is pending.

        Not callable from inside :meth:`run` — a callback single-stepping
        the scheduler mid-run would fire events out from under the run
        loop.  Trains advance one tick per step.
        """
        if self._running:
            raise SchedulerError("step() is not supported during run()")
        if self.peek() is None:
            return False
        if self.metrics.enabled:
            self._stopped = False
            self._run_observed(None, once=True)
        else:
            t, _seq, event = heapq.heappop(self._heap)
            event.in_heap = False
            self._now = t
            if event.__class__ is PeriodicEvent:
                self._fire_train_general(event)
            else:
                self.events_fired += 1
                event.fire()
        return True

    def _fire_train_general(self, event, meter=None):
        """Fire one train tick and re-arm it — the unbatched path.

        Used whenever batching doesn't apply (carried arguments, chained
        re-arm, a competing event before the next tick, or ``step()``).
        Anchored trains draw the successor's ``seq`` and push it
        *before* the callback, chained trains after — each matching the
        event order of the equivalent self-rescheduling callback.
        ``meter`` is the train's bound counter pair when observed; the
        tick is counted on it before the callback, like ``events_fired``.
        """
        event.ticks += 1
        if event.rearm_after:
            self.events_fired += 1
            if meter is not None:
                meter[0].value += 1
            event.fire()
            if not event.canceled:
                event.time = self._now + event.period
                event.seq = next(_SEQ)
                self._insert_entry(event)
            return
        event.index += 1
        event.time = t = event.anchor + event.index * event.period
        event.seq = seq = next(_SEQ)
        event.in_heap = True
        heapq.heappush(self._heap, (t, seq, event))
        self.events_fired += 1
        if meter is not None:
            meter[0].value += 1
        event.fire()

    def _fire_train(self, event, t, until_, meter):
        """Fire train ``event``, just popped at ``t``: a batch of ticks
        when one fits before the next competing event, else one tick.

        Shared by both run loops; ``meter`` is ``None`` on the fast path
        and the train's bound counter pair on the observed one, where a
        batch adds its tick count once, in the ``finally`` that settles
        ``events_fired`` (the observed loop times the whole call).
        """
        if event.rearm_after or event.args or event.kwargs:
            self._fire_train_general(event, meter)
            return
        # Batched firing: run consecutive ticks in one tight loop,
        # bounded by the heap head (a cancelled head is still a safe
        # lower bound) and the inclusive run boundary.  The
        # size/cancel/stop check after each callback ends the batch
        # on any scheduler interaction, keeping interleaving exact.
        heap = self._heap
        anchor = event.anchor
        period = event.period
        index = event.index
        hint = event.batch_hint
        barrier = heap[0][0] if heap else _INF
        bound = barrier if barrier < until_ else until_
        if bound == _INF:
            # Unbounded run of a sole train: batch by hint alone.
            n = hint
        else:
            n = int((bound - anchor) / period) - index + 1
            if n > hint:
                n = hint
        if n < 2:
            self._fire_train_general(event, meter)
            return
        times = [anchor + i * period for i in range(index, index + n)]
        times[0] = t  # the popped entry's exact time, never recomputed
        # The arithmetic bound can overshoot by an ulp; trim the tail
        # with the exact conditions.  Ties with the barrier are cut
        # so equal-time order resolves through the (time, seq) heap.
        while times:
            tl = times[-1]
            if tl > until_ or tl >= barrier:
                times.pop()
            else:
                break
        if len(times) < 2:
            self._fire_train_general(event, meter)
            return
        fn = event.fn
        next_seq = _SEQ.__next__
        size0 = len(heap)
        canceled0 = self.events_canceled
        fired = 0
        seq = 0
        interrupted = False
        try:
            for t2 in times:
                # Draw the successor's seq before the callback, where
                # the unbatched path would draw it.
                seq = next_seq()
                self._now = t2
                fired += 1
                fn()
                if (len(heap) != size0
                        or self.events_canceled != canceled0
                        or self._stopped):
                    interrupted = True
                    break
        finally:
            # Settle accounting even if the callback raised, leaving
            # the same state the unbatched path would have: the tick
            # counted and the successor armed.
            self.events_fired += fired
            if meter is not None:
                meter[0].value += fired
            event.ticks += fired
            event.index = index + fired
            if not event.canceled:
                event.time = anchor + event.index * period
                event.seq = seq
                self._insert_entry(event)
            if interrupted or fired != len(times):
                event.batch_hint = 4
            elif hint < _BATCH_CAP:
                event.batch_hint = hint * 2

    # -- run loops ---------------------------------------------------------

    def run(self, until=None):
        """Run events in time order.

        Without ``until``, runs until nothing is pending.  With ``until``
        set, the boundary is **inclusive**: every event whose firing time
        is ``<= until`` fires — including events scheduled *at* exactly
        ``until``, and any same-instant events they go on to schedule —
        while events strictly beyond ``until`` are left pending.  After the
        loop the clock is advanced to exactly ``until`` if it isn't there
        already, so ``run(until=t)`` returns with ``now == t`` (or later,
        if a fired event was already at ``t``) — unless :meth:`stop` ended
        the run, which leaves the clock at the stopping event.  Returns
        the final clock value.
        """
        if self._running:
            raise SchedulerError("Simulator.run() is not re-entrant")
        self._running = True
        self._stopped = False
        try:
            # Observability dispatch happens once per run(), not once per
            # event, so the disabled path is exactly the fast loop.
            if self.metrics.enabled:
                self._run_observed(until)
            else:
                self._run_fast(until)
        finally:
            self._running = False
        if until is not None and self._now < until and not self._stopped:
            self._now = until
        return self._now

    def _run_fast(self, until):
        until_ = _INF if until is None else until
        heap = self._heap
        heappop = heapq.heappop
        # The loop body is a manually fused peek()+step(): one pop per
        # event, no property reads, and train ticks batched by
        # _fire_train.
        while heap and not self._stopped:
            entry = heap[0]
            event = entry[2]
            if event.canceled:
                heappop(heap)
                event.in_heap = False
                self._canceled_in_heap -= 1
                continue
            t = entry[0]
            if t > until_:
                return
            heappop(heap)
            event.in_heap = False
            self._now = t
            if event.__class__ is not PeriodicEvent:
                self.events_fired += 1
                if event.kwargs:
                    event.fn(*event.args, **event.kwargs)
                else:
                    event.fn(*event.args)
                continue
            self._fire_train(event, t, until_, None)

    def _run_observed(self, until, once=False):
        """The fast loop plus per-category scheduler metrics (opt-in).

        The same fused pop loop and the same train batches as
        :meth:`_run_fast`.  Each event label's ``(fired, self-seconds)``
        counter pair is bound once per run, so an event costs a dict hit
        and two ``perf_counter`` reads on top of the fast loop, and a
        train batch is metered once, not once per tick.  ``once=True``
        fires just the head event, a train one tick (``step()``).
        """
        until_ = _INF if until is None else until
        heap = self._heap
        heappop = heapq.heappop
        meters = _Meters(self.metrics)
        while heap and not self._stopped:
            entry = heap[0]
            event = entry[2]
            if event.canceled:
                heappop(heap)
                event.in_heap = False
                self._canceled_in_heap -= 1
                continue
            t = entry[0]
            if t > until_:
                return
            heappop(heap)
            event.in_heap = False
            self._now = t
            meter = meters[event.label]
            # Deliberate wall-clock reads: handler self-time is host-CPU
            # cost, not simulated time, and feeds a volatile-marked
            # counter that deterministic snapshots exclude.
            start = time.perf_counter()  # lint: disable=RL101 (volatile self-time)
            try:
                if event.__class__ is not PeriodicEvent:
                    # Counted before the callback, like events_fired,
                    # so the two agree even when it raises.
                    self.events_fired += 1
                    meter[0].value += 1
                    if event.kwargs:
                        event.fn(*event.args, **event.kwargs)
                    else:
                        event.fn(*event.args)
                elif once:
                    self._fire_train_general(event, meter)
                else:
                    self._fire_train(event, t, until_, meter)
            finally:
                meter[1].value += time.perf_counter() - start  # lint: disable=RL101 (volatile self-time)
            if once:
                return

    # -- introspection -----------------------------------------------------

    def pending(self):
        """Number of live (non-cancelled) events still queued.

        O(1): the heap length minus the lazily-deleted cancelled events
        still parked in it.
        """
        return len(self._heap) - self._canceled_in_heap

    def __repr__(self):
        return (
            f"<Simulator now={self._now:.6f} pending={self.pending()} "
            f"fired={self.events_fired}>"
        )
