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
* A watchdog fires every ``dhd_watchdog_ms``; ``idlecount`` ticks up
  while the bus sees no activity, and at ``idletime`` the bus demotes
  (sleeps).  Waking it back up costs the promotion delay ``Tprom``.

The driver records every ``dvsend``/``dvrecv`` sample — the simulated
equivalent of the paper's timestamping kernel patch — so Table 3 is a
matter of reading ``driver.samples``.
"""

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
    """The host-to-chipset bus with the idlecount/idletime sleep policy."""

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
        self.idlecount = 0
        self._activity_since_tick = True
        self.sleep_count = 0
        self.wake_count = 0
        self._slept_at = None
        # The dhd watchdog is a scheduler-native periodic train — the
        # densest timer in the model (10 ms, per bus), so it rides the
        # scheduler's batched fast path.
        self._watchdog = sim.schedule_periodic(
            chipset.watchdog_period, self._watchdog_tick,
            label=f"watchdog:{name}",
        )

    @property
    def asleep(self):
        return self.state == BUS_ASLEEP

    def mark_activity(self):
        """Bus traffic observed: reset the idle bookkeeping."""
        self._activity_since_tick = True
        self.idlecount = 0

    def set_sleep_enabled(self, enabled):
        """Toggle the sleep feature (the paper's driver patch for Table 3)."""
        self.sleep_enabled = enabled
        if not enabled and self.asleep:
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

    def _watchdog_tick(self):
        if self._activity_since_tick:
            self._activity_since_tick = False
            self.idlecount = 0
            return
        self.idlecount += 1
        if (
            self.idlecount >= self.chipset.idletime
            and self.sleep_enabled
            and self.state == BUS_AWAKE
        ):
            self._transition(BUS_ASLEEP)
            self.sleep_count += 1
            self._slept_at = self.sim.now
            if self.sim.metrics.enabled:
                self.sim.metrics.inc(SDIO_SLEEPS_TOTAL,
                                     labels={"bus": self.name})

    def stop(self):
        """Stop the watchdog (simulation teardown)."""
        self._watchdog.cancel()

    def __repr__(self):
        return f"<SdioBus {self.name} {self.state} idlecount={self.idlecount}>"


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
        self.sim.schedule(
            wake + cost, self._dpc_done, kind, packet, entry_time, wake > 0,
            label=f"dpc:{self.name}",
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
            self.sim.schedule(
                self.chipset.rxframe_cost.draw(self.rng),
                self._rxframe_deliver, packet,
                label=f"rxframe:{self.name}",
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

    def clear_samples(self):
        self.samples = []

    def __repr__(self):
        return f"<WnicDriver {self.name} chipset={self.chipset.name}>"
