"""Tests for the Figure 2 testbed assembly and experiment cells."""

import pytest

from repro.core.acutemon import AcuteMon, AcuteMonConfig
from repro.core.measurement import ProbeCollector
from repro.net.addresses import ip
from repro.net.interface import ETHERNET_OVERHEAD
from repro.net.iperf import DEFAULT_UDP_PAYLOAD, UdpSink
from repro.net.link import Link
from repro.net.packet import IPV4_HEADER_LEN, UDP_HEADER_LEN
from repro.sniffer.sniffer import WirelessSniffer
from repro.testbed import scenario
from repro.testbed.experiments import tool_comparison
from repro.testbed.scenario import ScenarioSpec, run_scenario
from repro.testbed.topology import AP_WLAN_IP, LOAD_PORT, Testbed
from repro.wifi.phy import PhyParams


class TestTopology:
    def test_components_present(self):
        testbed = Testbed(seed=1)
        assert testbed.server is not None
        # The load ends at the AP's router; the switch has two ports.
        assert testbed.load_sink.host is testbed.ap.router
        assert len(testbed.switch.ports) == 2

    @pytest.mark.parametrize("params, name", [
        ({"beacon_interval_tu": 0}, "beacon_interval_tu"),
        ({"rtt_jitter": -0.001}, "rtt_jitter"),
        ({"rtt_jitter": float("nan")}, "rtt_jitter"),
        ({"path_loss": 1.5}, "path_loss"),
        ({"path_loss": float("nan")}, "path_loss"),
    ])
    def test_out_of_range_params_rejected(self, params, name):
        with pytest.raises(ValueError, match=name):
            Testbed(seed=1, **params)

    def test_range_edges_accepted(self):
        testbed = Testbed(seed=1, beacon_interval_tu=1, rtt_jitter=0.0,
                          path_loss=1.0)
        assert testbed.ap.beacon_interval_tu == 1
        assert testbed.netem.loss == 1.0

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
        sniffer = WirelessSniffer(testbed.sim, testbed.channel)
        testbed.run(0.5)
        assert sniffer.beacon_records()

    def test_load_sink_is_the_ap(self):
        testbed = Testbed(seed=2)
        testbed.start_cross_traffic()
        testbed.run(0.5)
        assert testbed.load_sink.packets_received > 0
        assert {flow.dst for flow in testbed.load_generator.flows} \
            == {AP_WLAN_IP}
        # Nothing of the load crosses the wired side.
        assert testbed.switch.frames_flooded == 0
        assert testbed.switch.frames_forwarded == 0


#: The wired load sink the load ran to before it ended at the AP.
_WIRED_SINK_IP = ip("10.0.0.3")


class _WiredSinkTestbed(Testbed):
    """The old load path, kept as an oracle: a ``load-server`` host on the
    switch, added right after the measurement server, sinks the load."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        host = self.wired_core.add_host("load-server", _WIRED_SINK_IP)
        self.wired_sink = UdpSink(host, LOAD_PORT)

    def start_cross_traffic(self, **kwargs):
        generator = super().start_cross_traffic(**kwargs)
        for flow in generator.flows:
            flow.dst = _WIRED_SINK_IP
        return generator


def _digest(result):
    return result.user_rtts, result.layers


#: Fig 8-shaped cells (per-tool seeds, phones and RTTs, 1-s default
#: interval shortened) and Fig 9-shaped ones (bus awake, AcuteMon with
#: and without its background traffic), all with cross traffic.
_ORACLE_CELLS = [
    *(pytest.param(dict(tool=tool, phone=phone, emulated_rtt=rtt, seed=seed,
                        interval=0.5), id=f"fig8-{tool}-{phone}-s{seed}")
      for seed, (tool, phone, rtt) in enumerate((
          ("ping", "nexus5", 0.030), ("httping", "nexus4", 0.120),
          ("javaping", "xperia_j", 0.020), ("acutemon", "htc_one", 0.085),
          ("ping", "galaxy_grand", 0.060)), start=1)),
    *(pytest.param(dict(tool="acutemon", phone="nexus5", emulated_rtt=0.030,
                        seed=seed, bus_sleep=False,
                        tool_params={"background_enabled": background,
                                     "warmup_enabled": background}),
                   id=f"fig9-bg{int(background)}-s{seed}")
      for seed, background in ((1, True), (2, False))),
]


class TestLoadPathEndsAtAp:
    """Ending the load at the AP changes no probe's timing (the
    argument is in ``repro.testbed.topology``'s docstring)."""

    def test_wired_hop_clears_before_the_next_reception(self):
        phy = PhyParams()
        load_frame = (ETHERNET_OVERHEAD + IPV4_HEADER_LEN + UDP_HEADER_LEN
                      + DEFAULT_UDP_PAYLOAD)
        hop = Link(sim=None).serialization_time(load_frame)
        # Two receptions at the AP end at least a preamble plus SIFS and
        # an ACK apart.  Past the switch a frame's spacing may have
        # shrunk by one serialization time, so two must fit.
        assert 2 * hop < phy.preamble + phy.sifs + phy.ack_time()

    @pytest.mark.parametrize("cell", _ORACLE_CELLS)
    def test_rtts_match_the_wired_sink(self, cell, monkeypatch):
        spec = ScenarioSpec(count=4, cross_traffic=True, **cell)
        at_ap = run_scenario(spec)
        monkeypatch.setattr(scenario, "build_environment",
                            lambda key, **kwargs: _WiredSinkTestbed(**kwargs))
        wired = run_scenario(spec)
        assert wired.testbed.wired_sink.packets_received > 0
        assert len(at_ap.user_rtts) == spec.count
        assert _digest(at_ap) == _digest(wired)


class TestExperimentRunners:
    def test_ping_experiment_layers(self):
        result = run_scenario(ScenarioSpec(
            tool="ping", phone="nexus5", emulated_rtt=0.03, interval=0.01,
            count=10, seed=3))
        assert len(result.layers["du"]) == 10
        assert len(result.layers["dn"]) == 10
        assert len(result.overheads) == 10

    def test_acutemon_experiment(self):
        result = run_scenario(ScenarioSpec(
            tool="acutemon", phone="nexus5", emulated_rtt=0.03, count=10,
            seed=3))
        assert len(result.user_rtts) == 10
        assert result.tool.background_sent > 0

    def test_tool_comparison_keys(self):
        results = tool_comparison("nexus5", emulated_rtt=0.03, count=5,
                                  seed=3, tools=("acutemon", "ping"))
        assert set(results) == {"acutemon", "ping"}
        assert all(len(v) == 5 for v in results.values())

    def test_tool_comparison_unknown_tool(self):
        with pytest.raises(ValueError):
            tool_comparison(tools=("warpspeed",), count=1)

    def test_ping2_experiment(self):
        result = run_scenario(ScenarioSpec(
            tool="ping2", phone="nexus5", emulated_rtt=0.02, count=5, seed=3))
        assert len(result.tool.rtts()) == 5
        assert len(result.samples) == 5
        assert result.spec.tool == "ping2"

    def test_bus_sleep_flag_respected(self):
        result = run_scenario(ScenarioSpec(
            tool="ping", phone="nexus5", emulated_rtt=0.03, interval=1.0,
            count=5, seed=3, bus_sleep=False))
        assert result.phone.driver.bus.sleep_count == 0

    def test_experiments_deterministic(self):
        first = run_scenario(ScenarioSpec(
            tool="ping", phone="nexus5", emulated_rtt=0.03, interval=0.01,
            count=10, seed=9))
        second = run_scenario(ScenarioSpec(
            tool="ping", phone="nexus5", emulated_rtt=0.03, interval=0.01,
            count=10, seed=9))
        assert first.layers["du"] == second.layers["du"]
        assert first.layers["dn"] == second.layers["dn"]

    def test_different_seeds_differ(self):
        first = run_scenario(ScenarioSpec(
            tool="ping", phone="nexus5", emulated_rtt=0.03, interval=0.01,
            count=10, seed=9))
        second = run_scenario(ScenarioSpec(
            tool="ping", phone="nexus5", emulated_rtt=0.03, interval=0.01,
            count=10, seed=10))
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
