"""Unit tests for the DCF channel: contention, collisions, monitors."""

import pytest

from repro.net.addresses import MacAddress, ip
from repro.testbed import scenario
from repro.net.packet import Packet, UdpDatagram
from repro.wifi.channel import Radio, WifiChannel
from repro.wifi.frames import BeaconFrame, DataFrame
from repro.wifi.phy import PhyParams


class RecordingRadio(Radio):
    def __init__(self, sim, channel, mac, name=""):
        super().__init__(sim, channel, mac, name=name)
        self.delivered = []
        self.transmitted = []
        self.dropped = []

    def frame_delivered(self, frame):
        super().frame_delivered(frame)
        self.delivered.append((self.sim.now, frame))

    def frame_transmitted(self, frame):
        super().frame_transmitted(frame)
        self.transmitted.append((self.sim.now, frame))

    def frame_dropped(self, frame):
        self.dropped.append(frame)


def make_cell(sim, n=2):
    channel = WifiChannel(sim, name="t")
    radios = [
        RecordingRadio(sim, channel, MacAddress.from_index(i + 1), name=f"r{i}")
        for i in range(n)
    ]
    return channel, radios


def data_frame(src, dst, size=100):
    packet = Packet(ip("192.168.1.2"), ip("10.0.0.2"),
                    UdpDatagram(1000, 2000, size))
    return DataFrame(dst.mac, src.mac, packet)


class TestBasicTransmission:
    def test_unicast_delivery(self, sim):
        channel, (a, b) = make_cell(sim)
        frame = data_frame(a, b)
        a.enqueue_frame(frame)
        sim.run(until=0.1)
        assert [f for _, f in b.delivered] == [frame]
        assert [f for _, f in a.transmitted] == [frame]
        assert channel.stats.transmissions == 1

    def test_delivery_after_difs_backoff_and_airtime(self, sim):
        channel, (a, b) = make_cell(sim)
        frame = data_frame(a, b)
        a.enqueue_frame(frame)
        sim.run(until=0.1)
        phy = channel.phy
        arrival = b.delivered[0][0]
        min_time = phy.difs + phy.airtime(frame.wire_size, phy.data_rate_bps)
        max_time = min_time + phy.cw_min * phy.slot_time
        assert min_time <= arrival <= max_time

    def test_phy_stamp_applied_to_packet(self, sim):
        channel, (a, b) = make_cell(sim)
        frame = data_frame(a, b)
        a.enqueue_frame(frame)
        sim.run(until=0.1)
        assert "phy" in frame.packet.stamps
        assert frame.packet.stamps["phy"] < b.delivered[0][0]

    def test_queued_frames_all_delivered_in_order(self, sim):
        channel, (a, b) = make_cell(sim)
        frames = [data_frame(a, b, size=i) for i in range(10)]
        for frame in frames:
            a.enqueue_frame(frame)
        sim.run(until=0.5)
        assert [f for _, f in b.delivered] == frames

    def test_broadcast_reaches_all_listeners(self, sim):
        channel, radios = make_cell(sim, n=4)
        beacon = BeaconFrame(radios[0].mac, 100)
        radios[0].enqueue_frame(beacon, priority=True)
        sim.run(until=0.1)
        for radio in radios[1:]:
            assert [f for _, f in radio.delivered] == [beacon]

    def test_sender_does_not_hear_own_broadcast(self, sim):
        channel, radios = make_cell(sim, n=2)
        beacon = BeaconFrame(radios[0].mac, 100)
        radios[0].enqueue_frame(beacon, priority=True)
        sim.run(until=0.1)
        assert radios[0].delivered == []


class TestContention:
    def test_two_senders_serialize(self, sim):
        channel, (a, b) = make_cell(sim)
        for _ in range(20):
            a.enqueue_frame(data_frame(a, b, 1000))
            b.enqueue_frame(data_frame(b, a, 1000))
        sim.run(until=1.0)
        assert len(a.delivered) == 20 and len(b.delivered) == 20
        # No two deliveries at the same instant (one transmission at a time).
        times = sorted(t for t, _ in a.delivered + b.delivered)
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))

    def test_collisions_occur_and_resolve(self, sim):
        channel, radios = make_cell(sim, n=6)
        # Six saturated senders all aimed at radio 0: ties are inevitable.
        for _ in range(50):
            for radio in radios[1:]:
                radio.enqueue_frame(data_frame(radio, radios[0], 500))
        sim.run(until=5.0)
        assert channel.stats.collisions > 0
        assert channel.stats.retries >= channel.stats.collisions
        # Everything still gets through eventually.
        assert len(radios[0].delivered) == 50 * 5

    def test_retry_limit_drops_frame(self, sim):
        # A receiver that never listens: every attempt fails, frame drops.
        channel, (a, b) = make_cell(sim)

        class DeafRadio(RecordingRadio):
            @property
            def receiver_active(self):
                return False

        deaf = DeafRadio(sim, channel, MacAddress.from_index(99), name="deaf")
        frame = data_frame(a, deaf)
        a.enqueue_frame(frame)
        sim.run(until=2.0)
        assert a.dropped == [frame]
        assert channel.stats.drops == 1
        assert deaf.delivered == []

    def test_beacon_priority_wins_contention(self, sim):
        channel, (ap, sta) = make_cell(sim)
        # Saturate the station, then queue a beacon: it must not starve.
        for _ in range(30):
            sta.enqueue_frame(data_frame(sta, ap, 1470))
        beacon = BeaconFrame(ap.mac, 100)
        ap.enqueue_frame(beacon, priority=True)
        sim.run(until=0.02)
        assert any(isinstance(f, BeaconFrame) for _, f in sta.delivered)

    def test_frame_enqueued_mid_transmission_not_lost(self, sim):
        # Regression: a frame enqueued while the radio's previous frame is
        # on the air must not be clobbered when that transmission completes.
        channel, (a, b) = make_cell(sim)
        first = data_frame(a, b, 1470)
        a.enqueue_frame(first)
        # Step until the first transmission has started (channel busy).
        while not channel.is_busy and sim.step():
            pass
        mid = data_frame(a, b, 50)
        late = data_frame(a, b, 60)
        a.enqueue_frame(mid)   # becomes a contender during the busy window
        a.enqueue_frame(late)  # sits in the radio queue
        sim.run(until=1.0)
        delivered = [f for _, f in b.delivered]
        assert delivered == [first, mid, late]

    def test_channel_busy_flag(self, sim):
        channel, (a, b) = make_cell(sim)
        a.enqueue_frame(data_frame(a, b, 1470))
        # Step until the transmission begins.
        while not channel.is_busy and sim.step():
            pass
        assert channel.is_busy


class TestMonitors:
    def test_monitor_sees_all_transmissions(self, sim):
        channel, (a, b) = make_cell(sim)
        seen = []
        channel.add_monitor(lambda f, ts, te, st: seen.append((f, ts, te, st)))
        frame = data_frame(a, b)
        a.enqueue_frame(frame)
        sim.run(until=0.1)
        assert len(seen) == 1
        frame_seen, ts, te, status = seen[0]
        assert frame_seen is frame and status == "ok"
        assert te > ts

    def test_monitor_timestamp_precedes_delivery(self, sim):
        channel, (a, b) = make_cell(sim)
        seen = []
        channel.add_monitor(lambda f, ts, te, st: seen.append(ts))
        a.enqueue_frame(data_frame(a, b))
        sim.run(until=0.1)
        assert seen[0] <= b.delivered[0][0]

    def test_protection_time_delays_data_start(self, sim):
        phy = PhyParams(protection_time=120e-6)
        channel = WifiChannel(sim, phy=phy, name="prot")
        a = RecordingRadio(sim, channel, MacAddress.from_index(1))
        b = RecordingRadio(sim, channel, MacAddress.from_index(2))
        starts = []
        channel.add_monitor(lambda f, ts, te, st: starts.append(ts))
        a.enqueue_frame(data_frame(a, b))
        sim.run(until=0.1)
        assert starts[0] >= phy.difs + phy.protection_time


class TestRadioQueue:
    def test_queue_overflow_drops(self, sim):
        channel, (a, b) = make_cell(sim)
        a.queue.packet_limit = 5
        accepted = sum(
            1 for _ in range(10) if a.enqueue_frame(data_frame(a, b))
        )
        # One frame may already be pulled into contention; 5 or 6 accepted.
        assert accepted <= 6

    def test_priority_frames_jump_queue(self, sim):
        channel, (a, b) = make_cell(sim)
        normal = data_frame(a, b)
        beacon = BeaconFrame(a.mac, 100)
        a.enqueue_frame(normal)
        a.enqueue_frame(beacon, priority=True)
        # ``normal`` was pulled into contention on enqueue; the beacon must
        # go out right after it, before any later frame.
        later = data_frame(a, b)
        a.enqueue_frame(later)
        sim.run(until=0.1)
        kinds = [type(f).__name__ for _, f in b.delivered]
        broadcast_kinds = [type(f).__name__ for _, f in b.delivered]
        assert kinds.index("BeaconFrame") < kinds.index("DataFrame") + 2


class TestRetryExhaustion:
    def test_beacon_behind_a_dropped_frame_keeps_its_priority(self, sim):
        # An AP-side unicast to a station that is not there exhausts its
        # retries; the beacon queued behind it contends as a beacon.
        channel, (ap, sta) = make_cell(sim)
        absent = RecordingRadio(sim, WifiChannel(sim, name="elsewhere"),
                                MacAddress.from_index(99))
        frame = data_frame(ap, absent)
        ap.enqueue_frame(frame)
        beacon = BeaconFrame(ap.mac, 100)
        ap.enqueue_frame(beacon, priority=True)
        while not ap.dropped and sim.step():
            pass
        assert ap.dropped == [frame]
        assert channel.stats.retries == channel.phy.retry_limit
        dropped_at = sim.now
        contender = channel._contenders[ap]
        assert contender.frame is beacon
        assert (contender.priority, contender.backoff) == (True, 0)
        sim.run()
        airtime = channel.phy.airtime(beacon.wire_size,
                                      channel.phy.beacon_rate_bps)
        assert sta.delivered == [
            (dropped_at + channel.phy.difs + airtime, beacon)]


class TestBeaconFastPath:
    """A beacon on an idle, uncontended, unmonitored medium goes on the
    air DIFS from now with no DCF round event; every other medium still
    resolves it in a round."""

    @staticmethod
    def _beacon_airtime(channel, beacon):
        phy = channel.phy
        return phy.airtime(beacon.wire_size, phy.beacon_rate_bps)

    def test_idle_medium_transmits_without_a_round(self, sim):
        channel, (ap, sta) = make_cell(sim)
        beacon = BeaconFrame(ap.mac, 100)
        ap.enqueue_frame(beacon, priority=True)
        assert channel.stats.transmissions == 1
        assert sim.pending() == 1  # its delivery, no round
        sim.run()
        assert sta.delivered == [
            (channel.phy.difs + self._beacon_airtime(channel, beacon), beacon)]
        assert sim.events_fired == 1

    def test_busy_medium_takes_the_round(self, sim):
        channel, (ap, sta) = make_cell(sim)
        sta.enqueue_frame(data_frame(sta, ap, 1470))
        while not channel.is_busy and sim.step():
            pass
        busy_until = channel._busy_until
        beacon = BeaconFrame(ap.mac, 100)
        ap.enqueue_frame(beacon, priority=True)
        assert channel.stats.transmissions == 1  # the data frame only
        sim.run()
        beacon_at = [t for t, f in sta.delivered if f is beacon]
        assert beacon_at == [busy_until + channel.phy.difs
                             + self._beacon_airtime(channel, beacon)]

    def test_contended_medium_takes_the_round(self, sim):
        channel, (ap, sta) = make_cell(sim)
        frame = data_frame(sta, ap)
        sta.enqueue_frame(frame)  # its round is pending
        beacon = BeaconFrame(ap.mac, 100)
        ap.enqueue_frame(beacon, priority=True)
        assert channel.stats.transmissions == 0
        sim.run()
        # The beacon wins the round at DIFS; the data frame follows.
        assert sta.delivered == [
            (channel.phy.difs + self._beacon_airtime(channel, beacon), beacon)]
        assert [f for _, f in ap.delivered] == [frame]
        assert ap.delivered[0][0] > sta.delivered[0][0]

    def test_monitor_keeps_the_round(self, sim):
        channel, (ap, sta) = make_cell(sim)
        starts = []
        channel.add_monitor(lambda f, ts, te, st: starts.append(sim.now))
        ap.enqueue_frame(BeaconFrame(ap.mac, 100), priority=True)
        assert channel.stats.transmissions == 0
        sim.run()
        # The monitor heard the beacon at its start, from the round.
        assert starts == [channel.phy.difs]


#: One cell per tool on two phones and two seeds, for the beacon
#: oracles below.  The 300-ms path outlasts the phones' PSM timeouts,
#: so replies wait at the AP for a beacon's TIM.
_FAST_PATH_CELLS = [
    pytest.param(tool, phone, seed, id=f"{tool}-{phone}-s{seed}")
    for tool in sorted(scenario.TOOLS)
    for phone in ("nexus5", "xperia_j")
    for seed in (1, 2)]


def _quiet_and_framed(spec, monkeypatch):
    """Run ``spec`` as is, then with a no-op monitor on the channel.

    A monitor sends every beacon as a frame through its DCF round, so
    the second run takes neither the quiet path nor the round-less one.
    """
    quiet = scenario.run_scenario(spec)
    build = scenario.build_environment

    def monitored(key, **kwargs):
        env = build(key, **kwargs)
        env.channel.add_monitor(lambda *args: None)
        return env

    with monkeypatch.context() as patch:
        patch.setattr(scenario, "build_environment", monitored)
        framed = scenario.run_scenario(spec)
    assert framed.testbed.channel._monitors
    return quiet, framed


def _wlan_state(result):
    """What a beacon's delivery updates: the probes, the phone's power
    states, the AP's beacon count, the channel's stats and busy window,
    every radio's frame counters and, observed, every span and every
    metric but the scheduler's event counts."""
    env = result.testbed
    channel = env.channel
    stats = channel.stats
    return {
        "rtts": result.user_rtts,
        "layers": result.layers,
        "transitions": result.phone.sta.state_transitions,
        "beacons_sent": env.ap.beacons_sent,
        "stats": [getattr(stats, name) for name in stats.__slots__],
        "busy_until": channel._busy_until,
        "frames": [(radio.name, radio.frames_sent, radio.frames_received)
                   for radio in channel._radios],
        "spans": [(span.name, span.start, span.end, span.fields)
                  for span in result.spans.spans],
        "metrics": [entry for entry in result.metrics_snapshot()["metrics"]
                    if not entry["name"].startswith("scheduler_")],
    }


@pytest.mark.parametrize("tool, phone, seed", _FAST_PATH_CELLS)
def test_beacon_fast_path_matches_the_round(tool, phone, seed, monkeypatch):
    """A no-op monitor sends every beacon as a frame through its DCF
    round.  Plain and observed, nothing a beacon's delivery updates may
    notice; each ``psm.beacon_wait`` span ends at the beacon's end, not
    at its tick."""
    for observe in (False, True):
        spec = scenario.ScenarioSpec(tool=tool, phone=phone, seed=seed,
                                     emulated_rtt=0.3, count=3, interval=0.3,
                                     observe=observe)
        quiet, framed = _quiet_and_framed(spec, monkeypatch)
        assert len(quiet.user_rtts) == spec.count
        state = _wlan_state(quiet)
        assert state == _wlan_state(framed)
        # The quiet path was taken, and observed, it recorded waits.
        assert (quiet.testbed.sim.events_fired
                < framed.testbed.sim.events_fired)
        waits = [entry["count"] for entry in state["metrics"]
                 if entry["name"] == "psm_beacon_wait_seconds"]
        assert bool(waits and waits[0]) == observe
