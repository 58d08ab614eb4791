"""The WNIC driver: dpc/rxframe threads over a sleepy SDIO bus.

This mirrors the call structure the paper traced in Figures 4 and 5:

* TX: ``dhd_start_xmit`` registers a task with the **dpc thread**, which
  must first bring the SDIO bus up (``dhdsdio_bussleep`` /
  ``dhdsdio_clkctl``) before ``dhdsdio_txpkt`` writes the frame to the
  bus.  ``dvsend`` is the time from ``dhd_start_xmit`` to
  ``dhdsdio_txpkt``.
* RX: ``dhdsdio_isr`` registers a dpc task; the dpc thread wakes the bus
  and runs ``dhdsdio_readframes``; frames are queued for the **rxframe
  thread** which calls ``netif_rx_ni``.  ``dvrecv`` is the time from
  ``dhdsdio_isr`` to ``dhd_rxf_enqueue``.
* A watchdog ticks every ``dhd_watchdog_ms``; ``idlecount`` counts up
  while the bus sees no activity, and at ``idletime`` the bus demotes
  (sleeps).  Waking it back up costs the promotion delay ``Tprom``.
  :class:`SdioBus` keeps the watchdog's tick grid but schedules only
  the tick that can demote: one deadline event at ``idletime`` ticks
  past the tick that cleared the last activity, with the same
  demotion instants as a watchdog firing every tick.

The driver records every ``dvsend``/``dvrecv`` sample — the simulated
equivalent of the paper's timestamping kernel patch — so Table 3 is a
matter of reading ``driver.samples``.
"""

import math
from collections import deque

from repro.obs.names import (
    DRIVER_DVRECV_SECONDS,
    DRIVER_DVSEND_SECONDS,
    SDIO_SLEEPS_TOTAL,
    SDIO_WAKES_TOTAL,
    SPAN_DRIVER_QUEUEING,
    SPAN_SDIO_ASLEEP,
    SPAN_SDIO_PROMOTION,
)

BUS_AWAKE = "AWAKE"
BUS_ASLEEP = "ASLEEP"


class DriverSample:
    """One instrumented driver-path delay measurement."""

    __slots__ = ("kind", "time", "duration", "wake_paid")

    def __init__(self, kind, time, duration, wake_paid):
        self.kind = kind  # 'send' or 'recv'
        self.time = time
        self.duration = duration
        self.wake_paid = wake_paid

    def __repr__(self):
        wake = " +wake" if self.wake_paid else ""
        return f"<DriverSample {self.kind} {self.duration * 1e3:.3f}ms{wake}>"


class SdioBus:
    """The host-to-chipset bus with the idlecount/idletime sleep policy.

    The dhd watchdog ticks on a fixed grid: tick ``k`` is at
    ``anchor + k * period`` for ``k >= 1``, where ``anchor`` is the
    bus's creation time and ``period`` is ``dhd_watchdog_ms``.  A tick
    that saw activity since the previous one clears the activity flag;
    every later idle tick counts up ``idlecount``, and the tick that
    reaches ``idletime`` demotes the bus.  So with the last activity
    cleared by tick ``k_a`` (the first tick at or after it) the bus
    demotes at tick ``k_a + idletime``.

    Only that tick is simulated: :meth:`mark_activity` records ``k_a``,
    and one one-shot deadline event waits at tick ``k_a + idletime``.
    When it fires it re-arms at the later tick if activity has moved
    ``k_a`` on since it was armed, and otherwise demotes.  The demotion
    instants are those of a watchdog firing every tick.  Tie rule: a
    tick at exactly the instant of an activity (or of
    :meth:`set_sleep_enabled`) counts as after it.
    """

    def __init__(self, sim, chipset, rng, sleep_enabled=True, name="sdio"):
        self.sim = sim
        self.chipset = chipset
        self.rng = rng
        self.name = name
        self.sleep_enabled = sleep_enabled
        self.state = BUS_AWAKE
        #: Optional ``callback(old_state, new_state)`` observer (used by
        #: the energy meter).
        self.on_transition = None
        self.sleep_count = 0
        self.wake_count = 0
        self._slept_at = None
        self._anchor = sim.now
        self._period = chipset.watchdog_period
        self._idletime = chipset.idletime
        self._label = f"watchdog:{name}"
        # The bus starts with its activity flag set, so tick 1 clears it.
        self._active_tick = 1
        self._active_at = self._tick_time(1)
        self._deadline = None
        self._deadline_tick = 0
        if sleep_enabled:
            self._arm(self._active_tick + self._idletime)

    @property
    def asleep(self):
        return self.state == BUS_ASLEEP

    def _tick_time(self, k):
        # The same arithmetic as a train anchored at ``anchor``.
        return self._anchor + k * self._period

    def _tick_at_or_after(self, now):
        """The first grid tick ``k >= 1`` at or after ``now``."""
        k = max(1, math.ceil((now - self._anchor) / self._period))
        while self._tick_time(k) < now:
            k += 1
        while k > 1 and self._tick_time(k - 1) >= now:
            k -= 1
        return k

    def _arm(self, tick):
        self._deadline_tick = tick
        self._deadline = self.sim.at(self._tick_time(tick), self._expire,
                                     label=self._label)

    def mark_activity(self):
        """Bus traffic observed: the idle count restarts at tick ``k_a``."""
        now = self.sim.now
        if now > self._active_at:
            self._active_tick = k = self._tick_at_or_after(now)
            self._active_at = self._tick_time(k)
        if self._deadline is None and self.sleep_enabled:
            self._arm(self._active_tick + self._idletime)

    def _expire(self):
        """The deadline tick: re-arm if activity moved it, else demote."""
        self._deadline = None
        if not self.sleep_enabled:
            return
        tick = self._active_tick + self._idletime
        if tick > self._deadline_tick:
            self._arm(tick)
            return
        if self.state == BUS_AWAKE:
            self._transition(BUS_ASLEEP)
            self.sleep_count += 1
            self._slept_at = self.sim.now
            if self.sim.metrics.enabled:
                self.sim.metrics.inc(SDIO_SLEEPS_TOTAL,
                                     labels={"bus": self.name})

    def set_sleep_enabled(self, enabled):
        """Toggle the sleep feature (the paper's driver patch for Table 3)."""
        was_enabled = self.sleep_enabled
        self.sleep_enabled = enabled
        if enabled:
            if not was_enabled and self._deadline is None:
                # The first idle check is the next tick (ties count as
                # after the toggle).  A deadline still pending from
                # before the toggle is at or after that tick already.
                self._arm(max(self._active_tick + self._idletime,
                              self._tick_at_or_after(self.sim.now)))
        elif self.asleep:
            # An always-on bus comes up for free at the next access; model
            # the toggle as an immediate wake.
            self._transition(BUS_AWAKE)
            if self.sim.spans.enabled and self._slept_at is not None:
                self.sim.spans.record(SPAN_SDIO_ASLEEP, self._slept_at,
                                      self.sim.now, bus=self.name)
            self._slept_at = None

    def _transition(self, new_state):
        old = self.state
        self.state = new_state
        if self.on_transition is not None and old != new_state:
            self.on_transition(old, new_state)

    def wake_delay(self):
        """Promotion delay for one access; 0 when the bus is already up.

        Transitions the bus to AWAKE and counts activity.
        """
        self.mark_activity()
        if self.state == BUS_AWAKE:
            return 0.0
        self._transition(BUS_AWAKE)
        self.wake_count += 1
        delay = self.chipset.wake_delay.draw(self.rng)
        sim = self.sim
        if sim.metrics.enabled:
            sim.metrics.inc(SDIO_WAKES_TOTAL, labels={"bus": self.name})
        if sim.spans.enabled:
            # The asleep period just ending, then the promotion it costs.
            if self._slept_at is not None:
                sim.spans.record(SPAN_SDIO_ASLEEP, self._slept_at, sim.now,
                                 bus=self.name)
                self._slept_at = None
            sim.spans.record(SPAN_SDIO_PROMOTION, sim.now, sim.now + delay,
                             bus=self.name)
        return delay

    def __repr__(self):
        return f"<SdioBus {self.name} {self.state} sleeps={self.sleep_count}>"


class WnicDriver:
    """dpc + rxframe thread model above an :class:`SdioBus`.

    ``tx_complete(packet)`` receives packets leaving the driver toward
    the radio; ``rx_complete(packet)`` receives packets leaving the
    driver toward the kernel.
    """

    def __init__(self, sim, chipset, rng, tx_complete, rx_complete,
                 sleep_enabled=True, name="wnic"):
        self.sim = sim
        self.chipset = chipset
        self.rng = rng
        self.name = name
        self._dpc_label = f"dpc:{self.name}"
        self._rxframe_label = f"rxframe:{self.name}"
        self.tx_complete = tx_complete
        self.rx_complete = rx_complete
        self.bus = SdioBus(sim, chipset, rng, sleep_enabled=sleep_enabled,
                           name=f"{name}.bus")
        self._dpc_queue = deque()
        self._dpc_busy = False
        self.samples = []
        self.packets_tx = 0
        self.packets_rx = 0

    # -- entry points (kernel / radio facing) ---------------------------

    def start_xmit(self, packet):
        """``dhd_start_xmit``: TX entry from the kernel."""
        packet.stamp("driver", self.sim.now)
        self._dpc_submit(("tx", packet, self.sim.now))

    def isr(self, packet):
        """``dhdsdio_isr``: RX interrupt from the chipset."""
        packet.stamp("driver", self.sim.now)
        self._dpc_submit(("rx", packet, self.sim.now))

    def set_bus_sleep(self, enabled):
        """Enable/disable the SDIO sleep feature."""
        self.bus.set_sleep_enabled(enabled)

    # -- dpc thread -------------------------------------------------------

    def _dpc_submit(self, task):
        self._dpc_queue.append(task)
        if not self._dpc_busy:
            self._dpc_run()

    def _dpc_run(self):
        if not self._dpc_queue:
            self._dpc_busy = False
            return
        self._dpc_busy = True
        kind, packet, entry_time = self._dpc_queue.popleft()
        sim = self.sim
        if sim.spans.enabled and sim.now > entry_time:
            # Time the task sat behind the busy dpc thread — the
            # paper's driver-queueing delay component.
            sim.spans.record(SPAN_DRIVER_QUEUEING, entry_time, sim.now,
                             queue=f"dpc:{self.name}", direction=kind,
                             probe_id=packet.probe_id)
        wake = self.bus.wake_delay()
        cost = (
            self.chipset.tx_cost if kind == "tx" else self.chipset.rx_cost
        ).draw(self.rng)
        self.sim.post(
            self.sim.now + (wake + cost), self._dpc_done, kind, packet,
            entry_time, wake > 0, label=self._dpc_label,
        )

    def _dpc_done(self, kind, packet, entry_time, wake_paid):
        now = self.sim.now
        self.bus.mark_activity()
        packet.stamp("driver_done", now)
        duration = now - entry_time
        self.samples.append(DriverSample(
            "send" if kind == "tx" else "recv", now, duration, wake_paid,
        ))
        if self.sim.metrics.enabled:
            self.sim.metrics.observe(
                DRIVER_DVSEND_SECONDS if kind == "tx"
                else DRIVER_DVRECV_SECONDS, duration)
        if kind == "tx":
            self.packets_tx += 1
            self.tx_complete(packet)
        else:
            self.packets_rx += 1
            # rxframe thread: dequeue + netif_rx_ni.
            self.sim.post(
                self.sim.now + self.chipset.rxframe_cost.draw(self.rng),
                self._rxframe_deliver, packet,
                label=self._rxframe_label,
            )
        self._dpc_busy = False
        if self._dpc_queue:
            self._dpc_run()

    def _rxframe_deliver(self, packet):
        self.rx_complete(packet)

    # -- instrumentation ----------------------------------------------------

    def samples_of(self, kind):
        """All recorded dvsend ('send') or dvrecv ('recv') durations."""
        return [s.duration for s in self.samples if s.kind == kind]

    def __repr__(self):
        return f"<WnicDriver {self.name} chipset={self.chipset.name}>"
