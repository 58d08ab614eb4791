"""The event scheduler at the heart of the simulator.

The pending-event store is a **hierarchical timing wheel** (a
calendar-queue hybrid) instead of a single binary heap.  The paper's
delay-inflation machinery — SDIO watchdog ticks, beacon intervals,
AcuteMon background packets — produces dense trains of short fixed-delay
events, which is the workload a heap handles worst (O(log n) per event,
all comparisons in Python) and a wheel handles in ~O(1).

Geometry and ordering
---------------------

Time is divided into fixed-width buckets of ``_SLOT_SECONDS`` (1/256 s
by default); an event at time ``t`` belongs to bucket
``int(t / slot)``.  The wheel keeps a sliding window of
``_WHEEL_SLOTS`` (1024) buckets as plain append-only lists, indexed by
``bucket & mask``, with a 1024-bit occupancy bitmask for find-next-slot
in a couple of big-int operations.  Three tiers hold every pending
entry, each a ``(time, seq, event)`` tuple so heap comparisons run at C
speed:

* ``_wheel_active`` — a small binary heap of the entries at or behind
  the cursor bucket; the only tier events fire from.
* ``_wheel_slots`` — unsorted per-bucket lists for buckets strictly
  between the cursor and the window limit.
* ``_wheel_overflow`` — a far heap for buckets at/beyond the limit
  (more than ~4 s ahead); entries are pulled into slots as the window
  slides over them.

Total order is exact, not approximate: ``bucket(t)`` is a monotone
function of ``t``, so entries in later buckets fire strictly later, and
two entries at equal times always land in the same bucket where the
``(time, seq)`` heap restores FIFO scheduling order.  The slot width is
therefore purely a performance knob — every seed-determinism and
serial==parallel==resume bit-identity guarantee is independent of the
geometry (``tests/test_sim_wheel_properties.py`` checks the wheel
against a reference heap scheduler across widths).

When the active heap drains, the cursor advances directly to the next
occupied bucket (bitmask scan); when the whole near wheel is empty it
fast-forwards to the overflow head's bucket.  Cancelled events are
removed lazily exactly as before: :meth:`~repro.sim.events.Event.cancel`
bumps ``_canceled_in_heap`` and the entry is discarded when it surfaces
at the active heap's head, keeping :meth:`pending` O(1).

Periodic trains
---------------

:meth:`Simulator.schedule_periodic` arms a
:class:`~repro.sim.events.PeriodicEvent` — one allocation for the whole
train; each tick re-stamps ``(time, seq)`` in place.  On the fast path
(observability disabled, argument-free anchored callback) the scheduler
fires whole runs of ticks in a single inner loop, bounded by the current
bucket, the next competing event, and ``run(until=...)``.  The batch
aborts the moment the callback touches scheduler state (schedules,
cancels, or stops), so interaction with other events is byte-identical
to the one-tick-at-a-time path; a fresh ``seq`` is drawn per tick at the
same point it would be drawn without batching, so the deterministic
event order is unchanged.  ``events_fired`` is settled once per batch
and may read stale from inside a batched callback.
"""

import heapq
import math
import time

from repro.obs.metrics import MetricsRegistry
from repro.obs.names import (
    SCHEDULER_EVENTS_FIRED_TOTAL,
    SCHEDULER_HANDLER_SELF_SECONDS_TOTAL,
    SCHEDULER_WHEEL_ACTIVATIONS_TOTAL,
    SCHEDULER_WHEEL_DEPTH,
    SCHEDULER_WHEEL_FAST_FORWARDS_TOTAL,
    SCHEDULER_WHEEL_OVERFLOW_PULLS_TOTAL,
)
from repro.obs.spans import SpanTracker
from repro.sim.errors import SchedulerError, SimTimeError
from repro.sim.events import _SEQ, Event, PeriodicEvent
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

#: Buckets in the near wheel; the window covers SLOTS * slot seconds.
_WHEEL_SLOTS = 1024
_WHEEL_MASK = _WHEEL_SLOTS - 1
#: Default bucket width: 1/256 s (~3.9 ms) puts microsecond-scale MAC/bus
#: events and 100 ms beacons in a ~4 s window with few overflow spills.
_SLOT_SECONDS = 1.0 / 256.0
#: Ticks a train batch may run before re-consulting the structure, once
#: its adaptive hint has grown to the cap.
_BATCH_CAP = 512


class Simulator:
    """A deterministic discrete-event simulator.

    The simulator owns

    * the virtual clock (:attr:`now`, in seconds, starting at 0.0),
    * the pending-event store (a timing wheel; see the module docstring),
    * a :class:`~repro.sim.rng.RngRegistry` so components can draw from
      named, independently seeded random streams,
    * a :class:`~repro.sim.trace.TraceRecorder` for structured tracing,
    * a :class:`~repro.obs.metrics.MetricsRegistry` and a
      :class:`~repro.obs.spans.SpanTracker` (both disabled by default;
      see :func:`repro.obs.enable_observability`).

    Typical use::

        sim = Simulator(seed=7)
        sim.schedule(0.5, handler, arg)
        sim.schedule_periodic(0.1024, beacon_tick)
        sim.run(until=10.0)

    Cancelled events are removed lazily: :meth:`~repro.sim.events.Event.cancel`
    marks the event and bumps :attr:`_canceled_in_heap`, the event is
    discarded when it surfaces at the head of the active heap, and
    :meth:`pending` is the O(1) difference between the entry count and
    that counter.

    The wheel tiers (``_wheel_*`` attributes) are private to this module
    and :mod:`repro.sim.events` — lint rule RL105 rejects outside access
    so call sites can never couple to the queue representation again.
    Use :meth:`wheel_stats` for introspection.
    """

    def __init__(self, seed=0, trace=None, metrics=None, spans=None,
                 wheel_slot_seconds=None):
        slot = _SLOT_SECONDS if wheel_slot_seconds is None else wheel_slot_seconds
        if not (slot > 0.0) or not math.isfinite(slot):
            raise ValueError(f"wheel_slot_seconds must be positive, got {slot!r}")
        self._slot_seconds = slot
        self._tps = 1.0 / slot  # buckets ("ticks") per second
        self._now = 0.0
        self._wheel_slots = [[] for _ in range(_WHEEL_SLOTS)]
        self._wheel_occupied = 0  # bitmask over near-wheel slot indices
        self._wheel_active = []  # heap of entries at/behind the cursor
        self._wheel_overflow = []  # far heap, beyond the window limit
        self._wheel_cursor = 0  # absolute bucket the active heap drains
        self._wheel_limit = _WHEEL_SLOTS  # first bucket beyond the window
        self._wheel_size = 0  # entries across all three tiers
        self._canceled_in_heap = 0
        self._running = False
        self._stopped = False
        self.events_fired = 0
        self.events_canceled = 0
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.metrics = (metrics if metrics is not None
                        else MetricsRegistry(enabled=False))
        self.spans = (spans if spans is not None
                      else SpanTracker(metrics=self.metrics,
                                       trace=self.trace, enabled=False))

    @property
    def now(self):
        """Current simulated time in seconds."""
        return self._now

    # -- insertion ---------------------------------------------------------

    def schedule(self, delay, fn, *args, label="", **kwargs):
        """Schedule ``fn(*args, **kwargs)`` to fire ``delay`` seconds from now.

        Returns the :class:`~repro.sim.events.Event`, which can be cancelled.
        ``delay`` must be non-negative; a zero delay fires after all events
        already scheduled for the current instant.
        """
        if delay < 0:
            raise SimTimeError(f"negative delay {delay!r}")
        # Inlined _insert_entry(): schedule() is the hottest entry point,
        # called once per packet hop / timer tick, so it skips a call frame.
        event = Event(self._now + delay, fn, args, kwargs, label=label)
        event.owner = self
        event.in_heap = True
        t = event.time
        tick = int(t * self._tps)
        if tick <= self._wheel_cursor:
            heapq.heappush(self._wheel_active, (t, event.seq, event))
        elif tick < self._wheel_limit:
            idx = tick & _WHEEL_MASK
            slot = self._wheel_slots[idx]
            if not slot:
                self._wheel_occupied |= 1 << idx
            slot.append((t, event.seq, event))
        else:
            self._insert_far((t, event.seq, event), tick)
        self._wheel_size += 1
        return event

    def at(self, time, fn, *args, label="", **kwargs):
        """Schedule ``fn`` at an absolute simulated time."""
        if time < self._now:
            raise SimTimeError(
                f"cannot schedule at {time!r}; clock is already at {self._now!r}"
            )
        event = Event(time, fn, args, kwargs, label=label)
        event.owner = self
        self._insert_entry(event)
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

        Argument-free anchored trains are eligible for batched firing on
        the fast path (see the module docstring); every other shape runs
        tick-at-a-time with identical observable behaviour.
        """
        if period <= 0 or not math.isfinite(period):
            raise ValueError(f"period must be positive and finite, got {period!r}")
        if first is None:
            anchor = self._now + phase
            start = self._now + (period + phase)
            index = 1
        else:
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
        """Place an event (``time``/``seq`` already set) into its tier."""
        event.in_heap = True
        t = event.time
        tick = int(t * self._tps)
        entry = (t, event.seq, event)
        if tick <= self._wheel_cursor:
            heapq.heappush(self._wheel_active, entry)
        elif tick < self._wheel_limit:
            idx = tick & _WHEEL_MASK
            slot = self._wheel_slots[idx]
            if not slot:
                self._wheel_occupied |= 1 << idx
            slot.append(entry)
        else:
            self._insert_far(entry, tick)
        self._wheel_size += 1

    def _insert_far(self, entry, tick):
        """Slow-path insert: beyond the window, or first insert after a drain.

        When the structure is completely empty the window is re-anchored
        at the clock's bucket first, so a long-idle simulator doesn't
        funnel routine inserts through the overflow heap.
        """
        if self._wheel_size == 0:
            cursor = int(self._now * self._tps)
            if cursor > self._wheel_cursor:
                self._wheel_cursor = cursor
            self._wheel_limit = self._wheel_cursor + _WHEEL_SLOTS
            if tick < self._wheel_limit:
                if tick <= self._wheel_cursor:
                    heapq.heappush(self._wheel_active, entry)
                else:
                    idx = tick & _WHEEL_MASK
                    slot = self._wheel_slots[idx]
                    if not slot:
                        self._wheel_occupied |= 1 << idx
                    slot.append(entry)
                return
        heapq.heappush(self._wheel_overflow, entry)

    # -- cursor ------------------------------------------------------------

    def _advance(self):
        """Advance the cursor to the next non-empty bucket and activate it.

        Called only with an empty active heap.  Returns ``False`` when no
        entries remain anywhere.  Sliding the window pulls newly-covered
        overflow entries into their slots; an empty near wheel
        fast-forwards the cursor straight to the overflow head's bucket.
        """
        occupied = self._wheel_occupied
        if occupied:
            cursor = self._wheel_cursor
            start = (cursor + 1) & _WHEEL_MASK
            hi = occupied >> start
            if hi:
                tick = cursor + 1 + ((hi & -hi).bit_length() - 1)
            else:
                lo = occupied & ((1 << start) - 1)
                tick = (cursor + 1 + (_WHEEL_SLOTS - start)
                        + ((lo & -lo).bit_length() - 1))
            fast_forward = False
        elif self._wheel_overflow:
            tick = int(self._wheel_overflow[0][0] * self._tps)
            fast_forward = True
        else:
            return False
        self._wheel_cursor = tick
        limit = tick + _WHEEL_SLOTS
        pulls = 0
        if limit > self._wheel_limit:
            self._wheel_limit = limit
            overflow = self._wheel_overflow
            if overflow:
                slots = self._wheel_slots
                tps = self._tps
                active = self._wheel_active
                heappop = heapq.heappop
                while overflow and overflow[0][0] * tps < limit:
                    entry = heappop(overflow)
                    etick = int(entry[0] * tps)
                    if etick <= tick:
                        heapq.heappush(active, entry)
                    else:
                        idx = etick & _WHEEL_MASK
                        slot = slots[idx]
                        if not slot:
                            self._wheel_occupied |= 1 << idx
                        slot.append(entry)
                    pulls += 1
        idx = tick & _WHEEL_MASK
        bucket = self._wheel_slots[idx]
        if bucket:
            self._wheel_occupied &= ~(1 << idx)
            self._wheel_slots[idx] = []
            active = self._wheel_active
            if active:
                heappush = heapq.heappush
                for entry in bucket:
                    heappush(active, entry)
            else:
                if len(bucket) > 1:
                    heapq.heapify(bucket)
                self._wheel_active = bucket
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc(SCHEDULER_WHEEL_ACTIVATIONS_TOTAL)
            metrics.set_gauge(SCHEDULER_WHEEL_DEPTH,
                              len(self._wheel_active))
            if pulls:
                metrics.counter(
                    SCHEDULER_WHEEL_OVERFLOW_PULLS_TOTAL).inc(pulls)
            if fast_forward:
                metrics.inc(  # obs: caller-guarded
                    SCHEDULER_WHEEL_FAST_FORWARDS_TOTAL)
        return True

    def _competitor_floor(self):
        """Earliest pending firing time outside the (empty) active heap.

        The exact minimum over the first occupied slot after the cursor
        (bucket monotonicity makes every other slot, and all of
        overflow, later), else the overflow head's time, else ``inf``.
        Bounds cross-bucket train batches in :meth:`_run_fast`.
        """
        occupied = self._wheel_occupied
        if occupied:
            start = (self._wheel_cursor + 1) & _WHEEL_MASK
            hi = occupied >> start
            if hi:
                idx = start + (hi & -hi).bit_length() - 1
            else:
                lo = occupied & ((1 << start) - 1)
                idx = (lo & -lo).bit_length() - 1
            return min(entry[0] for entry in self._wheel_slots[idx])
        if self._wheel_overflow:
            return self._wheel_overflow[0][0]
        return math.inf

    # -- control -----------------------------------------------------------

    def stop(self):
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def peek(self):
        """Return the firing time of the next live event, or ``None``."""
        while True:
            active = self._wheel_active
            while active:
                entry = active[0]
                if not entry[2].canceled:
                    return entry[0]
                self._discard_active_head()
            if not self._advance():
                return None

    def _discard_active_head(self):
        """Pop the (cancelled) active-heap head and settle its accounting."""
        entry = heapq.heappop(self._wheel_active)
        entry[2].in_heap = False
        self._canceled_in_heap -= 1
        self._wheel_size -= 1

    def step(self):
        """Fire exactly one event.  Returns ``False`` when nothing is pending.

        Not callable from inside :meth:`run` — a callback single-stepping
        the scheduler mid-run would fire events out from under the run
        loop.
        """
        if self._running:
            raise SchedulerError("step() is not supported during run()")
        while True:
            active = self._wheel_active
            if not active:
                if not self._advance():
                    return False
                continue
            t, _seq, event = heapq.heappop(active)
            self._wheel_size -= 1
            event.in_heap = False
            if event.canceled:
                self._canceled_in_heap -= 1
                continue
            self._now = t
            if event.__class__ is PeriodicEvent:
                self._fire_train_general(event)
            else:
                self.events_fired += 1
                if self.metrics.enabled:
                    self._fire_observed(event)
                else:
                    event.fire()
            return True

    def _fire_observed(self, event):
        """Fire one event while recording per-category scheduler metrics.

        Only reached when ``self.metrics.enabled`` — the callers keep
        the guard so the disabled path never pays for instrumentation.
        The handler self-time counter is wall-clock derived and therefore
        marked volatile (excluded from deterministic snapshots).
        """
        metrics = self.metrics
        category = event.label.partition(":")[0] or "event"
        # Deliberate wall-clock reads: handler self-time is host-CPU
        # cost, not simulated time, and feeds a volatile-marked counter
        # that deterministic snapshots exclude.
        start = time.perf_counter()  # lint: disable=RL101 (volatile self-time)
        event.fire()
        elapsed = time.perf_counter() - start  # lint: disable=RL101 (volatile self-time)
        metrics.inc(SCHEDULER_EVENTS_FIRED_TOTAL,  # obs: caller-guarded
                    labels={"category": category})
        metrics.counter(SCHEDULER_HANDLER_SELF_SECONDS_TOTAL,  # obs: caller-guarded
                        labels={"category": category},
                        volatile=True).inc(elapsed)

    def _fire_train_general(self, event):
        """Fire one train tick and re-arm it — the unbatched path.

        Used whenever batching doesn't apply (observability on, carried
        arguments, chained re-arm, or a competing event inside the same
        bucket).  Anchored trains draw the successor's ``seq`` and insert
        it *before* the callback, chained trains after — each matching
        the event order of the equivalent self-rescheduling callback.
        """
        event.ticks += 1
        if event.rearm_after:
            self.events_fired += 1
            if self.metrics.enabled:
                self._fire_observed(event)
            else:
                event.fire()
            if not event.canceled:
                event.time = self._now + event.period
                event.seq = next(_SEQ)
                self._insert_entry(event)
            return
        event.index += 1
        event.time = event.anchor + event.index * event.period
        event.seq = next(_SEQ)
        self._insert_entry(event)
        self.events_fired += 1
        if self.metrics.enabled:
            self._fire_observed(event)
        else:
            event.fire()

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
        until_ = math.inf if until is None else until
        heappop = heapq.heappop
        next_seq = _SEQ.__next__
        tps = self._tps
        # The loop body is a manually fused peek()+step(): one pop per
        # event, no property reads, and train ticks batched in place.
        while not self._stopped:
            active = self._wheel_active
            if not active:
                if not self._advance():
                    return
                continue
            entry = active[0]
            event = entry[2]
            if event.canceled:
                heappop(active)
                event.in_heap = False
                self._canceled_in_heap -= 1
                self._wheel_size -= 1
                continue
            t = entry[0]
            if t > until_:
                return
            heappop(active)
            self._wheel_size -= 1
            event.in_heap = False
            self._now = t
            if event.__class__ is not PeriodicEvent:
                self.events_fired += 1
                if event.kwargs:
                    event.fn(*event.args, **event.kwargs)
                else:
                    event.fn(*event.args)
                continue
            # ---- periodic train tick ----
            if event.rearm_after or event.args or event.kwargs:
                self._fire_train_general(event)
                continue
            # Batched firing: run consecutive ticks in one C-level loop,
            # bounded by the next competing event and the (inclusive)
            # run boundary.  With competitors in the active heap the
            # batch also stops at the current bucket's edge; with the
            # heap empty it may run across buckets up to the exact
            # earliest entry anywhere else in the wheel.  The
            # size/cancel/stop check after each callback ends the batch
            # on any scheduler interaction, which keeps interleaving
            # exact.
            anchor = event.anchor
            period = event.period
            index = event.index
            hint = event.batch_hint
            if active:
                cursor = self._wheel_cursor
                head_t = active[0][0]
                bound = head_t if head_t < until_ else until_
                slot_end = (cursor + 1) / tps
                if slot_end < bound:
                    bound = slot_end
                barrier = None
            else:
                barrier = self._competitor_floor()
                bound = barrier if barrier < until_ else until_
            if bound == math.inf:
                # Unbounded run of a sole train: batch by hint alone.
                n = hint
            else:
                n = int((bound - anchor) / period) - index + 1
                if n > hint:
                    n = hint
            if n < 2:
                self._fire_train_general(event)
                continue
            times = [anchor + i * period for i in range(index, index + n)]
            times[0] = t  # the popped entry's exact time, never recomputed
            # The arithmetic bound can overshoot by an ulp; trim with the
            # exact per-tick conditions (monotone in t, so tail-only).
            if barrier is None:
                while times:
                    tl = times[-1]
                    if tl > until_ or tl >= head_t or int(tl * tps) > cursor:
                        times.pop()
                    else:
                        break
            else:
                while times:
                    tl = times[-1]
                    if tl > until_ or tl >= barrier:
                        times.pop()
                    else:
                        break
            if len(times) < 2:
                self._fire_train_general(event)
                continue
            fn = event.fn
            size0 = self._wheel_size
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
                    if (self._wheel_size != size0
                            or self.events_canceled != canceled0
                            or self._stopped):
                        interrupted = True
                        break
            finally:
                # Settle accounting even if the callback raised, leaving
                # the same state the unbatched path would have: the tick
                # counted and the successor armed.
                self.events_fired += fired
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

    def _run_observed(self, until):
        """The event loop plus per-event scheduler metrics (opt-in).

        Trains run tick-at-a-time here so every tick records its span
        and metric exactly once, in serial, parallel, and resumed
        campaigns alike.
        """
        until_ = math.inf if until is None else until
        heappop = heapq.heappop
        while not self._stopped:
            active = self._wheel_active
            if not active:
                if not self._advance():
                    return
                continue
            entry = active[0]
            event = entry[2]
            if event.canceled:
                heappop(active)
                event.in_heap = False
                self._canceled_in_heap -= 1
                self._wheel_size -= 1
                continue
            t = entry[0]
            if t > until_:
                return
            heappop(active)
            self._wheel_size -= 1
            event.in_heap = False
            self._now = t
            if event.__class__ is PeriodicEvent:
                self._fire_train_general(event)
            else:
                self.events_fired += 1
                self._fire_observed(event)

    # -- introspection -----------------------------------------------------

    def pending(self):
        """Number of live (non-cancelled) events still queued.

        O(1): the entry count across all wheel tiers minus the
        lazily-deleted cancelled events still parked in them.
        """
        return self._wheel_size - self._canceled_in_heap

    def wheel_stats(self):
        """A snapshot of wheel internals (for tests, docs, and debugging).

        This is the supported introspection surface — reaching into the
        ``_wheel_*`` tiers directly is rejected by lint rule RL105.
        """
        return {
            "cursor": self._wheel_cursor,
            "limit": self._wheel_limit,
            "active_depth": len(self._wheel_active),
            "occupied_slots": bin(self._wheel_occupied).count("1"),
            "overflow_depth": len(self._wheel_overflow),
            "entries": self._wheel_size,
            "slot_seconds": self._slot_seconds,
        }

    def __repr__(self):
        return (
            f"<Simulator now={self._now:.6f} pending={self.pending()} "
            f"fired={self.events_fired}>"
        )
