"""WNIC chipset profiles.

§3.2.1 of the paper traces the Broadcom ``bcmdhd`` driver: a watchdog
fires every ``dhd_watchdog_ms`` (10 ms); each tick with no bus activity
increments ``idlecount``; at ``idletime`` (5) the SDIO bus demotes.  The
resulting idle window ``Tis`` is 50 ms on the Nexus 5.  The simulated
bus (:class:`repro.phone.driver.SdioBus`) schedules only the demotion
tick on that watchdog grid, a deadline ``idletime`` ticks past the last
activity, so an idle phone costs one event per state change.  Waking the bus
costs a *promotion delay* that the paper measured at up to ~14 ms
(Table 3).  Qualcomm's ``wcnss`` driver "shares a similar mechanism"
over the SMD interface with a shorter wake cost; the paper folds both
under the name "SDIO bus sleep", and so do we.

Cost distributions below are fitted to Table 3's min/mean/max (Broadcom)
and to the Nexus 4 inflation deltas in Table 2 (Qualcomm).
"""

from repro.phone.latency import DelayDistribution


class ChipsetProfile:
    """Timing personality of one WNIC chipset + driver."""

    def __init__(self, name, vendor, bus, driver_name,
                 watchdog_period=10e-3, idletime=5,
                 wake_delay=None, tx_cost=None, rx_cost=None,
                 rxframe_cost=None):
        self.name = name
        self.vendor = vendor
        self.bus = bus
        self.driver_name = driver_name
        self.watchdog_period = watchdog_period
        self.idletime = idletime
        #: Promotion delay paid when a send/receive finds the bus asleep.
        self.wake_delay = wake_delay or DelayDistribution.from_ms(8.5, 10.0, 13.5)
        #: dpc-thread send path (dhd_start_xmit -> dhdsdio_txpkt), bus awake.
        self.tx_cost = tx_cost or DelayDistribution.from_ms(0.09, 0.15, 0.6)
        #: dpc-thread receive path (dhdsdio_isr -> dhd_rxf_enqueue), bus awake.
        self.rx_cost = rx_cost or DelayDistribution.from_ms(0.31, 1.6, 2.85)
        #: rxframe thread (dhd_rxf_dequeue -> netif_rx_ni).
        self.rxframe_cost = rxframe_cost or DelayDistribution.from_ms(0.02, 0.05, 0.15)

    @property
    def idle_window(self):
        """``Tis``: idle time before the bus demotes (watchdog x idletime)."""
        return self.watchdog_period * self.idletime

    def scaled(self, cpu_factor):
        """Derive a copy with host-CPU-dependent path costs scaled.

        The *wake* delay is dominated by the hardware handshake and is
        left unscaled; the dpc/rxframe path costs run on the host CPU.
        """
        return ChipsetProfile(
            self.name, self.vendor, self.bus, self.driver_name,
            watchdog_period=self.watchdog_period, idletime=self.idletime,
            wake_delay=self.wake_delay,
            tx_cost=self.tx_cost.scaled(cpu_factor),
            rx_cost=self.rx_cost.scaled(cpu_factor),
            rxframe_cost=self.rxframe_cost.scaled(cpu_factor),
        )

    def __repr__(self):
        return (
            f"<ChipsetProfile {self.name} ({self.vendor}, {self.bus}) "
            f"Tis={self.idle_window * 1e3:.0f}ms>"
        )


def broadcom(name):
    """A Broadcom FullMAC chipset on SDIO with the bcmdhd driver."""
    return ChipsetProfile(
        name, vendor="Broadcom", bus="SDIO", driver_name="bcmdhd",
        watchdog_period=10e-3, idletime=5,
        wake_delay=DelayDistribution.from_ms(8.5, 10.0, 13.5),
        tx_cost=DelayDistribution.from_ms(0.09, 0.15, 0.6),
        # Skewed toward its floor: Table 3's dvrecv mean (~1.6 ms under
        # load) reflects a long tail, while Figure 7's Δdk−n medians
        # (< 2 ms) reflect the typical case.
        rx_cost=DelayDistribution.from_ms(0.30, 0.60, 3.0),
    )


def qualcomm(name):
    """A Qualcomm chipset on the SMD interface with the wcnss driver.

    Shorter idle window and a much cheaper wake than Broadcom's SDIO —
    this is why Table 2 shows the Nexus 4's internal inflation around
    5-6 ms where the Nexus 5 pays 11-20 ms.
    """
    return ChipsetProfile(
        name, vendor="Qualcomm", bus="SMD", driver_name="wcnss",
        watchdog_period=5e-3, idletime=5,
        wake_delay=DelayDistribution.from_ms(1.2, 1.9, 3.2),
        tx_cost=DelayDistribution.from_ms(0.08, 0.15, 0.5),
        rx_cost=DelayDistribution.from_ms(0.25, 0.8, 1.8),
    )


#: The chipsets of Table 1.
BCM4339 = broadcom("BCM4339")
BCM4330 = broadcom("BCM4330")
BCM4329 = broadcom("BCM4329")
WCN3660 = qualcomm("WCN3660")
WCN3680 = qualcomm("WCN3680")
