"""Scheduled events.

An :class:`Event` is a callable bound to a firing time.  Events sort by
``(time, seq)`` where ``seq`` is a monotonically increasing tie-breaker:
two events scheduled for the same instant fire in scheduling order, which
keeps runs deterministic without comparing callbacks.

An :class:`Event` exists only where a caller may cancel it: a timeout,
a DCF round, a timer's deadline, a load flow's next packet.  The
fire-and-forget majority (every packet hop, DMA completion and frame
delivery) goes through :meth:`~repro.sim.scheduler.Simulator.post`,
which pushes a bare ``(fn, args, label)`` entry and builds no object.
The class is slotted, keeps an empty-kwargs fast path in :meth:`fire`,
and carries the two bookkeeping fields (``owner``, ``in_heap``) that let
the scheduler keep an O(1) live-event count under lazy heap deletion.
"""

import itertools

from repro.obs.names import SCHEDULER_EVENTS_CANCELED_TOTAL

_SEQ = itertools.count()


class Event:
    """A single scheduled callback.

    Instances are created by :meth:`repro.sim.scheduler.Simulator.schedule`
    and friends; user code normally only keeps a reference in order to call
    :meth:`cancel`.
    """

    __slots__ = ("time", "seq", "fn", "args", "kwargs", "canceled", "label",
                 "owner", "in_heap")

    def __init__(self, time, fn, args=(), kwargs=None, label=""):
        self.time = time
        self.seq = next(_SEQ)
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.canceled = False
        self.label = label
        # Scheduler bookkeeping (see Simulator): the owning scheduler and
        # whether the event currently sits in its heap.  Together they let
        # cancel() maintain the scheduler's canceled-in-heap counter so
        # pending() never has to scan the heap.
        self.owner = None
        self.in_heap = False

    def cancel(self):
        """Mark the event so the scheduler skips it.

        Cancelling is O(1); the event stays in the heap and is discarded
        when popped.  Cancelling an already-fired or already-cancelled
        event is a harmless no-op.
        """
        if self.canceled:
            return
        self.canceled = True
        owner = self.owner
        if owner is not None:
            if self.in_heap:
                owner._canceled_in_heap += 1
            owner.events_canceled += 1
            if owner.metrics.enabled:
                owner.metrics.inc(
                    SCHEDULER_EVENTS_CANCELED_TOTAL,
                    labels={"category": self.label.partition(":")[0]
                            or "event"})

    def fire(self):
        """Invoke the callback (scheduler use only)."""
        if self.kwargs:
            self.fn(*self.args, **self.kwargs)
        else:
            self.fn(*self.args)

    def __lt__(self, other):
        # Hand-rolled instead of tuple comparison: this runs O(log n)
        # times per heap operation and avoids two tuple allocations.
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self):
        state = "canceled" if self.canceled else "pending"
        name = self.label or getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6f} {name} [{state}]>"


class PeriodicEvent(Event):
    """One periodic train: a single event the scheduler re-arms in place.

    Created by :meth:`repro.sim.scheduler.Simulator.schedule_periodic`.
    Instead of allocating a fresh :class:`Event` per tick, the scheduler
    re-stamps ``time`` and ``seq`` after each firing — and, on its fast
    path, runs whole slot-sized batches of ticks in one inner loop.
    :meth:`Event.cancel` stops the train exactly like cancelling a
    one-shot event, including from inside the train's own callback.

    Two re-arm disciplines exist:

    * anchored (``rearm_after=False``, the default): tick ``i`` fires at
      ``anchor + i * period``, so callback latency can never cause
      drift, and the successor's ``seq`` is drawn *before* the callback
      runs — the same observable order as a callback that re-schedules
      itself first thing.
    * chained (``rearm_after=True``): the successor is armed *after*
      the callback returns, at ``now + period``, matching a callback
      that re-schedules itself as its last statement.
    """

    __slots__ = ("period", "anchor", "index", "ticks", "rearm_after",
                 "batch_hint")

    def __init__(self, time, fn, args=(), kwargs=None, label="",
                 period=0.0, anchor=0.0, index=0, rearm_after=False):
        super().__init__(time, fn, args, kwargs, label=label)
        self.period = period
        self.anchor = anchor
        #: Grid index of the currently-armed tick (anchored mode).
        self.index = index
        #: Number of times the callback has fired since creation.
        self.ticks = 0
        self.rearm_after = rearm_after
        #: Adaptive batch chunk size, tuned by the scheduler: grown while
        #: batches complete untouched, reset when callbacks interact with
        #: the scheduler (which ends a batch early).
        self.batch_hint = 4

    def __repr__(self):
        state = "canceled" if self.canceled else "running"
        name = self.label or getattr(self.fn, "__qualname__", repr(self.fn))
        return (f"<PeriodicEvent t={self.time:.6f} period={self.period:.6f} "
                f"ticks={self.ticks} {name} [{state}]>")
