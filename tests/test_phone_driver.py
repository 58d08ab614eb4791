"""Tests for the SDIO bus sleep state machine and WNIC driver (§3.2.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addresses import ip
from repro.net.packet import IcmpEcho, Packet
from repro.phone.chipset import BCM4339, ChipsetProfile, WCN3660
from repro.phone.driver import BUS_ASLEEP, BUS_AWAKE, SdioBus, WnicDriver
from repro.phone.latency import DelayDistribution
from repro.sim.scheduler import Simulator


def make_packet():
    return Packet(ip("192.168.1.2"), ip("10.0.0.2"), IcmpEcho(8, 1, 1))


def make_driver(sim, chipset=None, sleep_enabled=True):
    sent, received = [], []
    driver = WnicDriver(
        sim, chipset or BCM4339, sim.rng.stream("drv"),
        tx_complete=lambda p: sent.append((sim.now, p)),
        rx_complete=lambda p: received.append((sim.now, p)),
        sleep_enabled=sleep_enabled,
    )
    return driver, sent, received


class TestSdioBus:
    def test_starts_awake(self, sim):
        bus = SdioBus(sim, BCM4339, sim.rng.stream("b"))
        assert bus.state == BUS_AWAKE

    def test_sleeps_after_idle_window(self, sim):
        bus = SdioBus(sim, BCM4339, sim.rng.stream("b"))
        # Tis = watchdog (10 ms) x idletime (5) = 50 ms.
        sim.run(until=0.049)
        assert bus.state == BUS_AWAKE
        sim.run(until=0.075)
        assert bus.state == BUS_ASLEEP
        assert bus.sleep_count == 1

    def test_activity_resets_idlecount(self, sim):
        bus = SdioBus(sim, BCM4339, sim.rng.stream("b"))
        for tick in range(20):
            sim.schedule(tick * 0.03, bus.mark_activity)
        sim.run(until=0.6)
        assert bus.state == BUS_AWAKE
        assert bus.sleep_count == 0

    def test_wake_delay_zero_when_awake(self, sim):
        bus = SdioBus(sim, BCM4339, sim.rng.stream("b"))
        assert bus.wake_delay() == 0.0

    def test_wake_delay_positive_when_asleep(self, sim):
        bus = SdioBus(sim, BCM4339, sim.rng.stream("b"))
        sim.run(until=0.2)
        assert bus.asleep
        delay = bus.wake_delay()
        assert BCM4339.wake_delay.low <= delay <= BCM4339.wake_delay.high
        assert bus.state == BUS_AWAKE
        assert bus.wake_count == 1

    def test_sleep_disabled_never_sleeps(self, sim):
        bus = SdioBus(sim, BCM4339, sim.rng.stream("b"), sleep_enabled=False)
        sim.run(until=1.0)
        assert bus.state == BUS_AWAKE
        assert bus.sleep_count == 0

    def test_disable_while_asleep_wakes(self, sim):
        bus = SdioBus(sim, BCM4339, sim.rng.stream("b"))
        sim.run(until=0.2)
        assert bus.asleep
        bus.set_sleep_enabled(False)
        assert bus.state == BUS_AWAKE

    def test_wcn_idle_window_shorter(self, sim):
        # wcnss: 5 ms watchdog x 5 = 25 ms.
        assert WCN3660.idle_window == pytest.approx(0.025)
        bus = SdioBus(sim, WCN3660, sim.rng.stream("b"))
        sim.run(until=0.04)
        assert bus.asleep


class _WatchdogTrainBus:
    """The reference model: the dhd watchdog as a ``schedule_periodic``
    train, one tick every ``watchdog_period``, counting ``idlecount``.

    :class:`SdioBus` simulates only the demotion tick of this model;
    the oracle tests below drive both with the same inputs.
    """

    def __init__(self, sim, chipset, rng, sleep_enabled=True):
        self.sim = sim
        self.chipset = chipset
        self.rng = rng
        self.sleep_enabled = sleep_enabled
        self.state = BUS_AWAKE
        self.on_transition = None
        self.idlecount = 0
        self._activity_since_tick = True
        self.sleep_count = 0
        self.wake_count = 0
        sim.schedule_periodic(chipset.watchdog_period, self._watchdog_tick,
                              label="watchdog:reference")

    def mark_activity(self):
        self._activity_since_tick = True
        self.idlecount = 0

    def set_sleep_enabled(self, enabled):
        self.sleep_enabled = enabled
        if not enabled and self.state == BUS_ASLEEP:
            self._transition(BUS_AWAKE)

    def _transition(self, new_state):
        old = self.state
        self.state = new_state
        if self.on_transition is not None and old != new_state:
            self.on_transition(old, new_state)

    def wake_delay(self):
        self.mark_activity()
        if self.state == BUS_AWAKE:
            return 0.0
        self._transition(BUS_AWAKE)
        self.wake_count += 1
        return self.chipset.wake_delay.draw(self.rng)

    def _watchdog_tick(self):
        if self._activity_since_tick:
            self._activity_since_tick = False
            self.idlecount = 0
            return
        self.idlecount += 1
        if (self.idlecount >= self.chipset.idletime and self.sleep_enabled
                and self.state == BUS_AWAKE):
            self._transition(BUS_ASLEEP)
            self.sleep_count += 1


def _drive_both(chipset, anchor, sleep_enabled, actions, until):
    """Run the deadline bus and the reference train side by side.

    ``actions`` is ``[(time, kind)]``, kind one of ``activity``,
    ``wake``, ``enable`` and ``disable``; each is applied to both buses.
    The actions are scheduled before the buses exist, so an action at
    a tick instant fires before that tick in both models.  Returns each
    model's ``(transitions, sleep_count, wake_count)``.
    """
    sim = Simulator(seed=3)
    sim.run(until=anchor)
    buses = []

    def act(kind):
        for bus in buses:
            if kind == "activity":
                bus.mark_activity()
            elif kind == "wake":
                bus.wake_delay()
            else:
                bus.set_sleep_enabled(kind == "enable")

    for time, kind in actions:
        sim.at(time, act, kind)
    buses.append(SdioBus(sim, chipset, sim.rng.stream("new"),
                         sleep_enabled=sleep_enabled))
    buses.append(_WatchdogTrainBus(sim, chipset, sim.rng.stream("ref"),
                                   sleep_enabled=sleep_enabled))
    logs = []
    for bus in buses:
        log = []
        bus.on_transition = (
            lambda old, new, log=log: log.append((sim.now, old, new)))
        logs.append(log)
    sim.run(until=until)
    return [(log, bus.sleep_count, bus.wake_count)
            for log, bus in zip(logs, buses)]


def _tick(anchor, chipset, k):
    """Watchdog tick ``k``'s instant, with the train's arithmetic."""
    return anchor + k * chipset.watchdog_period


_ACTION_KINDS = ("activity", "wake", "enable", "disable")


@st.composite
def _action_plans(draw):
    chipset = draw(st.sampled_from([BCM4339, WCN3660]))
    anchor = draw(st.sampled_from([0.0, 0.0137, 1.25]))
    actions = []
    for _ in range(draw(st.integers(0, 25))):
        if draw(st.booleans()):
            # Exactly on a tick instant: the tie rule's case.
            time = _tick(anchor, chipset, draw(st.integers(1, 60)))
        else:
            time = anchor + draw(st.floats(0.0, 0.4, allow_nan=False))
        actions.append((time, draw(st.sampled_from(_ACTION_KINDS))))
    return chipset, anchor, draw(st.booleans()), actions


class TestDeadlineMatchesWatchdogTrain:
    """The demotion deadline against the periodic-train reference."""

    @settings(max_examples=300, deadline=None)
    @given(_action_plans())
    def test_same_transitions_as_train(self, plan):
        chipset, anchor, sleep_enabled, actions = plan
        new, reference = _drive_both(chipset, anchor, sleep_enabled,
                                     actions, until=anchor + 0.8)
        assert new == reference

    @pytest.mark.parametrize("chipset", [BCM4339, WCN3660],
                             ids=["bcm4339", "wcn3660"])
    def test_activity_on_a_tick_counts_before_it(self, chipset):
        # Tick 3 clears the activity it coincides with, so the bus
        # demotes idletime ticks later, at tick 3 + 5.
        new, reference = _drive_both(
            chipset, 0.0, True, [(_tick(0.0, chipset, 3), "activity")],
            until=0.5)
        assert new == reference
        assert new[0] == [(_tick(0.0, chipset, 8), BUS_AWAKE, BUS_ASLEEP)]

    @pytest.mark.parametrize("chipset", [BCM4339, WCN3660],
                             ids=["bcm4339", "wcn3660"])
    def test_activity_on_the_deadline_tick_rearms(self, chipset):
        # The first deadline is tick 1 + 5; activity at that instant
        # moves it to tick 11.
        new, reference = _drive_both(
            chipset, 0.0, True, [(_tick(0.0, chipset, 6), "activity")],
            until=0.5)
        assert new == reference
        assert new[0] == [(_tick(0.0, chipset, 11), BUS_AWAKE,
                              BUS_ASLEEP)]

    def test_enable_on_a_tick_demotes_at_that_tick(self):
        # Idle since tick 1 with sleep off; enabling exactly at tick 20
        # lets tick 20 itself demote.
        new, reference = _drive_both(
            BCM4339, 0.0, False, [(_tick(0.0, BCM4339, 20), "enable")],
            until=0.5)
        assert new == reference
        assert new[0] == [(_tick(0.0, BCM4339, 20), BUS_AWAKE,
                              BUS_ASLEEP)]

    def test_wake_on_a_tick_then_sleeps_again(self):
        at = _tick(0.0, BCM4339, 30)
        new, reference = _drive_both(BCM4339, 0.0, True, [(at, "wake")],
                                     until=0.5)
        assert new == reference
        assert new == ([(_tick(0.0, BCM4339, 6), BUS_AWAKE, BUS_ASLEEP),
                           (at, BUS_ASLEEP, BUS_AWAKE),
                           (_tick(0.0, BCM4339, 35), BUS_AWAKE, BUS_ASLEEP)],
                          2, 1)

    def test_idle_bus_fires_one_event(self):
        # No periodic train: an idle bus costs its one demotion.
        sim = Simulator(seed=1)
        bus = SdioBus(sim, BCM4339, sim.rng.stream("b"))
        assert sim.pending() == 1
        sim.run(until=10.0)
        assert bus.sleep_count == 1
        assert sim.events_fired == 1
        assert sim.pending() == 0


class TestDriverPaths:
    def test_tx_passes_through_and_stamps(self, sim):
        driver, sent, _ = make_driver(sim)
        packet = make_packet()
        driver.start_xmit(packet)
        sim.run(until=0.1)
        assert len(sent) == 1
        assert "driver" in packet.stamps and "driver_done" in packet.stamps
        assert packet.stamps["driver_done"] > packet.stamps["driver"]

    def test_rx_passes_through_with_rxframe_delay(self, sim):
        driver, _, received = make_driver(sim)
        packet = make_packet()
        driver.isr(packet)
        sim.run(until=0.1)
        assert len(received) == 1
        # rxframe thread delivers after driver_done.
        assert received[0][0] > packet.stamps["driver_done"]

    def test_dvsend_small_when_awake(self, sim):
        driver, _, _ = make_driver(sim)
        for index in range(50):
            sim.schedule(index * 0.01, driver.start_xmit, make_packet())
        sim.run(until=1.0)
        samples = driver.samples_of("send")
        assert len(samples) == 50
        assert max(samples) < 2e-3  # never pays the wake cost

    def test_dvsend_pays_wake_after_idle(self, sim):
        driver, _, _ = make_driver(sim)
        for index in range(10):
            sim.schedule(index * 1.0, driver.start_xmit, make_packet())
        sim.run(until=11.0)
        samples = driver.samples_of("send")
        # First send may find the bus awake (t=0); later ones pay Tprom.
        woken = [s for s in samples if s > 5e-3]
        assert len(woken) >= 9

    def test_sleep_disabled_keeps_dvsend_low(self, sim):
        driver, _, _ = make_driver(sim, sleep_enabled=False)
        for index in range(10):
            sim.schedule(index * 1.0, driver.start_xmit, make_packet())
        sim.run(until=11.0)
        assert max(driver.samples_of("send")) < 2e-3

    def test_dvrecv_includes_wake_when_asleep(self, sim):
        driver, _, _ = make_driver(sim)
        sim.run(until=0.5)  # bus sleeps
        driver.isr(make_packet())
        sim.run(until=1.0)
        samples = driver.samples_of("recv")
        assert samples[0] > 5e-3

    def test_samples_tagged_with_wake_flag(self, sim):
        driver, _, _ = make_driver(sim)
        driver.start_xmit(make_packet())  # bus awake at t=0
        sim.schedule(1.0, driver.start_xmit, make_packet())  # asleep by then
        sim.run(until=2.0)
        assert driver.samples[0].wake_paid is False
        assert driver.samples[1].wake_paid is True

    def test_dpc_serialises_concurrent_tasks(self, sim):
        driver, sent, received = make_driver(sim)
        tx_packet, rx_packet = make_packet(), make_packet()
        driver.start_xmit(tx_packet)
        driver.isr(rx_packet)  # same instant: queued behind the tx task
        sim.run(until=0.1)
        assert tx_packet.stamps["driver_done"] <= rx_packet.stamps["driver_done"]

    def test_clear_samples(self, sim):
        driver, _, _ = make_driver(sim)
        driver.start_xmit(make_packet())
        sim.run(until=0.1)
        driver.clear_samples()
        assert driver.samples == []

    def test_packet_counters(self, sim):
        driver, _, _ = make_driver(sim)
        driver.start_xmit(make_packet())
        driver.isr(make_packet())
        sim.run(until=0.1)
        assert driver.packets_tx == 1 and driver.packets_rx == 1


class TestChipsetProfiles:
    def test_scaled_costs_proportional(self):
        scaled = BCM4339.scaled(2.0)
        assert scaled.tx_cost.mean == pytest.approx(BCM4339.tx_cost.mean * 2)
        assert scaled.rx_cost.high == pytest.approx(BCM4339.rx_cost.high * 2)
        # Wake delay is hardware handshake: unscaled.
        assert scaled.wake_delay.mean == BCM4339.wake_delay.mean

    def test_idle_window_product(self):
        chipset = ChipsetProfile("X", "V", "SDIO", "drv",
                                 watchdog_period=0.01, idletime=5)
        assert chipset.idle_window == pytest.approx(0.05)

    def test_vendor_metadata(self):
        assert BCM4339.vendor == "Broadcom" and BCM4339.bus == "SDIO"
        assert WCN3660.vendor == "Qualcomm" and WCN3660.bus == "SMD"
        assert WCN3660.wake_delay.mean < BCM4339.wake_delay.mean


class TestDelayDistribution:
    def test_bounds_respected(self, sim):
        dist = DelayDistribution.from_ms(1, 2, 5)
        rng = sim.rng.stream("d")
        draws = [dist.draw(rng) for _ in range(1000)]
        assert all(1e-3 <= d <= 5e-3 for d in draws)

    def test_mean_formula(self):
        dist = DelayDistribution.from_ms(1, 2, 6)
        assert dist.mean == pytest.approx(3e-3)

    def test_constant(self, sim):
        dist = DelayDistribution.constant(0.004)
        assert dist.draw(sim.rng.stream("d")) == 0.004

    def test_empirical_mean_close_to_analytic(self, sim):
        dist = DelayDistribution.from_ms(0.31, 1.2, 2.85)
        rng = sim.rng.stream("d")
        draws = [dist.draw(rng) for _ in range(5000)]
        assert sum(draws) / len(draws) == pytest.approx(dist.mean, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            DelayDistribution(2, 1, 3)
        with pytest.raises(ValueError):
            DelayDistribution(-1, 0, 1)

    def test_scaled(self):
        dist = DelayDistribution.from_ms(1, 2, 3).scaled(1.5)
        assert dist.low == pytest.approx(1.5e-3)
        assert dist.high == pytest.approx(4.5e-3)
