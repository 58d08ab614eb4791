"""Tests for the Figure 2 testbed assembly and experiment runners."""

import pytest

from repro.core.acutemon import AcuteMon, AcuteMonConfig
from repro.core.measurement import ProbeCollector
from repro.testbed.experiments import (
    acutemon_experiment,
    ping2_experiment,
    ping_experiment,
    tool_comparison,
)
from repro.testbed.topology import Testbed


class TestTopology:
    def test_components_present(self):
        testbed = Testbed(seed=1)
        assert len(testbed.sniffers) == 3
        assert testbed.server is not None
        assert testbed.load_sink is not None

    @pytest.mark.parametrize("params, name", [
        ({"beacon_interval_tu": 0}, "beacon_interval_tu"),
        ({"sniffer_count": -1}, "sniffer_count"),
        ({"sniffer_count": 4}, "sniffer_count"),
        ({"sniffer_loss": 1.5}, "sniffer_loss"),
        ({"sniffer_loss": float("nan")}, "sniffer_loss"),
    ])
    def test_out_of_range_params_rejected(self, params, name):
        with pytest.raises(ValueError, match=name):
            Testbed(seed=1, **params)

    def test_range_edges_accepted(self):
        assert Testbed(seed=1, sniffer_count=0, sniffer_loss=1.0,
                       beacon_interval_tu=1).sniffers == []

    def test_phone_attaches_and_pings_server(self):
        testbed = Testbed(seed=1, emulated_rtt=0.02)
        phone = testbed.add_phone("nexus5")
        testbed.settle(0.3)
        replies = []
        phone.stack.register_ping(1, lambda p: replies.append(sim_now()))

        def sim_now():
            return testbed.sim.now

        phone.stack.send_echo_request(testbed.server_ip, 1, 1)
        testbed.run(0.5)
        assert len(replies) == 1

    def test_multiple_phones(self):
        from repro.net.addresses import ip

        testbed = Testbed(seed=1)
        testbed.add_phone("nexus5")
        testbed.add_phone("nexus4", phone_ip=ip("192.168.1.20"))
        assert len(testbed.phones) == 2
        macs = {p.sta.mac for p in testbed.phones}
        assert len(macs) == 2

    def test_set_emulated_rtt(self):
        testbed = Testbed(seed=1, emulated_rtt=0.02)
        testbed.set_emulated_rtt(0.05)
        assert testbed.netem.delay == 0.05

    def test_cross_traffic_congests_channel(self):
        testbed = Testbed(seed=2)
        generator = testbed.start_cross_traffic()
        testbed.run(2.0)
        # Offered 25 Mbps exceeds protected-mode capacity: the sink gets
        # less than offered but a realistic saturated figure.
        achieved = testbed.load_sink.throughput_bps()
        assert 10e6 < achieved < 25e6
        assert generator.packets_sent > testbed.load_sink.packets_received

    def test_stop_cross_traffic(self):
        testbed = Testbed(seed=2)
        testbed.start_cross_traffic()
        testbed.run(0.5)
        testbed.stop_cross_traffic()
        received = testbed.load_sink.packets_received
        testbed.run(1.0)
        # A handful of queued frames may drain; no sustained traffic.
        assert testbed.load_sink.packets_received - received < 300

    def test_sniffers_capture_beacons(self):
        testbed = Testbed(seed=1)
        testbed.run(0.5)
        assert all(s.beacon_records() for s in testbed.sniffers)

    def test_merged_capture_deduplicated(self):
        testbed = Testbed(seed=1, sniffer_loss=0.1)
        testbed.run(1.0)
        merged = testbed.merged_capture()
        assert len(merged) >= max(len(s.records) for s in testbed.sniffers)


class TestExperimentRunners:
    def test_ping_experiment_layers(self):
        result = ping_experiment("nexus5", emulated_rtt=0.03, interval=0.01,
                                 count=10, seed=3)
        assert len(result.layers["du"]) == 10
        assert len(result.layers["dn"]) == 10
        assert len(result.overheads) == 10

    def test_acutemon_experiment(self):
        result = acutemon_experiment("nexus5", emulated_rtt=0.03, count=10,
                                     seed=3)
        assert len(result.user_rtts) == 10
        assert result.acutemon.background_sent > 0

    def test_tool_comparison_keys(self):
        results = tool_comparison("nexus5", emulated_rtt=0.03, count=5,
                                  seed=3, tools=("acutemon", "ping"))
        assert set(results) == {"acutemon", "ping"}
        assert all(len(v) == 5 for v in results.values())

    def test_tool_comparison_unknown_tool(self):
        with pytest.raises(ValueError):
            tool_comparison(tools=("warpspeed",), count=1)

    def test_ping2_experiment(self):
        result = ping2_experiment("nexus5", emulated_rtt=0.02,
                                  count=5, seed=3)
        assert len(result.tool.rtts()) == 5
        assert len(result.samples) == 5
        assert result.spec.tool == "ping2"

    def test_bus_sleep_flag_respected(self):
        result = ping_experiment("nexus5", emulated_rtt=0.03, interval=1.0,
                                 count=5, seed=3, bus_sleep=False)
        assert result.phone.driver.bus.sleep_count == 0

    def test_experiments_deterministic(self):
        first = ping_experiment("nexus5", emulated_rtt=0.03, interval=0.01,
                                count=10, seed=9)
        second = ping_experiment("nexus5", emulated_rtt=0.03, interval=0.01,
                                 count=10, seed=9)
        assert first.layers["du"] == second.layers["du"]
        assert first.layers["dn"] == second.layers["dn"]

    def test_different_seeds_differ(self):
        first = ping_experiment("nexus5", emulated_rtt=0.03, interval=0.01,
                                count=10, seed=9)
        second = ping_experiment("nexus5", emulated_rtt=0.03, interval=0.01,
                                 count=10, seed=10)
        assert first.layers["du"] != second.layers["du"]


def acutemon_rtts(seed, probe_count, probe_method="tcp_syn",
                  probe_timeout=1.0, **testbed_kwargs):
    """Run one default-config AcuteMon measurement; its user RTTs."""
    testbed = Testbed(seed=seed, **testbed_kwargs)
    phone = testbed.add_phone("nexus5")
    collector = ProbeCollector(phone)
    testbed.settle(0.5)
    config = AcuteMonConfig(probe_count=probe_count,
                            probe_method=probe_method,
                            probe_timeout=probe_timeout)
    monitor = AcuteMon(phone, collector, testbed.server_ip, config=config)
    monitor.run_sync()
    return monitor.rtts()


class TestTestbedPathKnobs:
    def test_rtt_jitter_spreads_measurements(self):
        rtts = acutemon_rtts(85, 30, emulated_rtt=0.030, rtt_jitter=0.005)
        assert len(rtts) == 30
        spread = max(rtts) - min(rtts)
        assert spread > 0.004  # jitter dominates the usual ~1 ms spread

    def test_path_loss_costs_probes_or_retransmits(self):
        rtts = acutemon_rtts(86, 15, probe_method="icmp", probe_timeout=0.3,
                             emulated_rtt=0.030, path_loss=0.2)
        # ICMP probes have no retransmission: ~20% simply vanish.
        assert len(rtts) < 15
