"""Edge-case tests for corners the main suites exercise only indirectly."""

import pytest

from repro.net.addresses import ip
from tests.conftest import make_wifi_cell


class TestWifiHost:
    def test_wifi_host_full_stack(self, sim):
        _channel, _ap, server, hosts = make_wifi_cell(sim, n_hosts=2)
        host = hosts[0]
        # TCP through the AP from a plain WiFi host.
        responses = []
        conn = host.stack.tcp.connect(server.ip_addr, 80)
        conn.on_connected = lambda c: c.send(120, meta={"probe_id": 5})
        conn.on_data = lambda c, n, m: responses.append((n, m.get("probe_id")))
        sim.run(until=1.0)
        assert responses == [(230, 5)]

    def test_wifi_host_ignores_other_hosts_traffic(self, sim):
        _channel, _ap, server, hosts = make_wifi_cell(sim, n_hosts=2)
        got = [[], []]
        for index, host in enumerate(hosts):
            host.stack.udp_bind(5000, got[index].append)
        server.stack.send_udp(hosts[0].ip_addr, 5000, payload_size=8)
        sim.run(until=1.0)
        assert len(got[0]) == 1 and got[1] == []

    def test_unassociated_station_cannot_send(self, sim):
        from repro.net.addresses import MacAddress
        from repro.net.packet import IcmpEcho, Packet
        from repro.wifi.channel import WifiChannel
        from repro.wifi.sta import Station

        channel = WifiChannel(sim, name="lonely")
        station = Station(sim, channel, MacAddress.from_index(9))
        packet = Packet(ip("1.1.1.1"), ip("2.2.2.2"), IcmpEcho(8, 1, 1))
        with pytest.raises(RuntimeError):
            station.send_packet(packet)


class TestObservedCounters:
    def test_sdio_sleep_counted(self):
        from repro.obs.names import SDIO_SLEEPS_TOTAL
        from repro.testbed.topology import Testbed

        testbed = Testbed(seed=91).observe()
        phone = testbed.add_phone("nexus5")
        testbed.run(1.0)
        bus = phone.driver.bus
        sleeps = testbed.sim.metrics.get(SDIO_SLEEPS_TOTAL,
                                         labels={"bus": bus.name})
        assert sleeps.value >= 1
        assert sleeps.value == bus.sleep_count


class TestAcuteMonVariants:
    def _build(self, seed=92):
        from repro.core.measurement import ProbeCollector
        from repro.testbed.topology import Testbed

        testbed = Testbed(seed=seed, emulated_rtt=0.03)
        phone = testbed.add_phone("nexus5")
        collector = ProbeCollector(phone)
        testbed.settle(0.5)
        return testbed, phone, collector

    def test_warmup_only_no_background(self):
        from repro.core.acutemon import AcuteMon, AcuteMonConfig

        testbed, phone, collector = self._build()
        config = AcuteMonConfig(probe_count=5, warmup_enabled=True,
                                background_enabled=False)
        monitor = AcuteMon(phone, collector, testbed.server_ip,
                           config=config)
        done = []
        monitor.start(on_complete=lambda r: done.append(r))
        while not done:
            testbed.sim.step()
        assert monitor.warmups_sent == 1
        assert monitor.background_sent == 0
        assert len(monitor.rtts()) == 5

    def test_runtime_not_enforced_when_disabled(self):
        from repro.core.acutemon import AcuteMon, AcuteMonConfig

        testbed, phone, collector = self._build(seed=93)
        phone.runtime = "dalvik"
        config = AcuteMonConfig(probe_count=3,
                                enforce_native_runtime=False)
        monitor = AcuteMon(phone, collector, testbed.server_ip,
                           config=config)
        done = []
        monitor.start(on_complete=lambda r: done.append(r))
        while not done:
            testbed.sim.step()
        assert phone.runtime == "dalvik"

    def test_custom_dpre_db(self):
        from repro.core.acutemon import AcuteMon, AcuteMonConfig

        testbed, phone, collector = self._build(seed=94)
        config = AcuteMonConfig(probe_count=3, dpre=0.035, db=0.010)
        monitor = AcuteMon(phone, collector, testbed.server_ip,
                           config=config)
        start_time = testbed.sim.now
        done = []
        monitor.start(on_complete=lambda r: done.append(r))
        while not done:
            testbed.sim.step()
        # First probe no earlier than dpre after the warm-up.
        first_send = min(r.user_send for r in collector.records("probe")
                         if r.user_send is not None)
        assert first_send >= start_time + 0.035 - 1e-9


class TestApBeaconUnderLoad:
    def test_beacons_survive_saturation(self, sim):
        channel, ap, server, hosts = make_wifi_cell(sim)
        # Saturate the uplink from the host.
        from repro.net.iperf import UdpLoadGenerator, UdpSink

        UdpSink(server, 5001)
        generator = UdpLoadGenerator(
            sim, hosts[0].stack, server.ip_addr, 5001, flows=10,
            rate_bps=3e6, rng=sim.rng.stream("load"))
        generator.start()
        beacon_times = []
        channel.add_monitor(
            lambda f, ts, te, st: beacon_times.append(ts)
            if type(f).__name__ == "BeaconFrame" else None)
        sim.run(until=2.0)
        generator.stop()
        # Priority access: beacons keep flowing at roughly their period.
        assert len(beacon_times) >= 17
        gaps = [b - a for a, b in zip(beacon_times, beacon_times[1:])]
        assert max(gaps) < 0.125  # never more than ~20% late


class TestCliCampaign:
    def test_campaign_command(self, capsys, tmp_path):
        from repro.cli import main

        out_path = tmp_path / "campaign.json"
        assert main(["--count", "3", "campaign", "--rtts", "20",
                     "--tools", "acutemon", "--out", str(out_path)]) == 0
        assert out_path.exists()
        out = capsys.readouterr().out
        assert "Campaign results" in out
        from repro.testbed.campaign import Campaign

        loaded = Campaign.load(out_path)
        assert len(loaded) == 1
