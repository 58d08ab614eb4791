"""Restartable and periodic timers.

Device models in this code base are full of idle timeouts — the
adaptive-PSM timeout, the RRC demotion timer, TCP retransmission — all
of which follow the same "arm, maybe restart, maybe cancel" pattern that
:class:`Timer` captures.  :class:`PeriodicTimer` covers strictly periodic
behaviour such as 802.11 beacon generation.
"""

import math

from repro.sim.errors import SimTimeError


class Timer:
    """A one-shot timer that can be (re)started and cancelled.

    The callback fires once, ``interval`` seconds after the most recent
    :meth:`start`/:meth:`restart`.  Restarting an armed timer moves the
    deadline; cancelling disarms it.

    The deadline is lazy, the way :class:`repro.phone.driver.SdioBus`
    keeps its demotion tick: a restart to a later deadline (an idle
    timeout pushed back by traffic) only moves ``_deadline``, and the
    pending event, when it fires early, re-arms once at the deadline.
    A restart to an earlier deadline reschedules, and :meth:`cancel`
    cancels the pending event, so a disarmed timer leaves nothing in
    the heap for :meth:`~repro.sim.scheduler.Simulator.run` to reach.
    """

    def __init__(self, sim, callback, label=""):
        self._sim = sim
        self._callback = callback
        self._event = None
        self._deadline = None
        self.label = label

    @property
    def armed(self):
        """Whether the timer currently has a pending deadline."""
        return self._deadline is not None

    @property
    def deadline(self):
        """Absolute firing time, or ``None`` when disarmed."""
        return self._deadline

    def start(self, interval):
        """Arm (or re-arm) the timer to fire ``interval`` seconds from now."""
        if not 0.0 <= interval < math.inf:  # also rejects NaN
            raise SimTimeError(
                f"interval must be non-negative and finite, got {interval!r}")
        self._deadline = deadline = self._sim.now + interval
        event = self._event
        if event is not None:
            if event.time <= deadline:
                return
            event.cancel()
        self._event = self._sim.at(deadline, self._fire,
                                   label=self.label or "timer")

    # ``restart`` reads better at call sites that always re-arm.
    restart = start

    def cancel(self):
        """Disarm the timer if armed."""
        self._deadline = None
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self):
        deadline = self._deadline
        if self._sim.now < deadline:
            self._event = self._sim.at(deadline, self._fire,
                                       label=self.label or "timer")
            return
        self._event = self._deadline = None
        self._callback()


class PeriodicTimer:
    """A strictly periodic timer.

    Fires every ``period`` seconds from the moment :meth:`start` is called
    (first firing after one full period, matching a hardware timer armed at
    boot).  Deadlines are computed from the start epoch, not from firing
    times, so callback latency cannot cause drift.

    A thin wrapper over
    :meth:`~repro.sim.scheduler.Simulator.schedule_periodic`: one armed
    :class:`~repro.sim.events.PeriodicEvent` carries the whole train, the
    scheduler re-arms it in place (batching ticks on its fast path), and
    the successor is armed *before* the callback runs so the callback can
    :meth:`stop` the timer and have that stick.
    """

    def __init__(self, sim, period, callback, label=""):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        self._sim = sim
        self.period = period
        self._callback = callback
        self._train = None
        self.label = label

    @property
    def running(self):
        """Whether the timer is currently generating ticks."""
        return self._train is not None and not self._train.canceled

    @property
    def ticks(self):
        """Number of times the callback has fired since :meth:`start`."""
        return self._train.ticks if self._train is not None else 0

    def start(self, phase=0.0):
        """Start ticking.  ``phase`` delays the first tick (0 <= phase < period)."""
        self.stop()
        self._train = self._sim.schedule_periodic(
            self.period, self._callback, phase=phase,
            label=self.label or "periodic",
        )

    def stop(self):
        """Stop ticking.  :attr:`ticks` keeps its count until the next start."""
        if self._train is not None and not self._train.canceled:
            self._train.cancel()

    def next_deadline(self):
        """Absolute time of the next tick, or ``None`` when stopped."""
        return self._train.time if self.running else None
