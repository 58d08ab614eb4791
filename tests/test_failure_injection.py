"""Failure injection: tools must degrade gracefully, never hang or lie.

Servers die mid-measurement, paths black out, sniffers stop capturing —
the measurement layer has to surface losses and keep going.
"""

import pytest

from repro.core.acutemon import AcuteMon, AcuteMonConfig
from repro.core.measurement import ProbeCollector
from repro.testbed.topology import Testbed
from repro.tools.httping import HttpingTool
from repro.tools.ping import PingTool
from tests.test_sniffer import capture_rtts


def build(seed=201, rtt=0.03):
    testbed = Testbed(seed=seed, emulated_rtt=rtt)
    phone = testbed.add_phone("nexus5")
    collector = ProbeCollector(phone)
    testbed.settle(0.5)
    return testbed, phone, collector


class TestServerOutage:
    def test_ping_counts_losses_during_outage(self):
        testbed, phone, collector = build()
        # The echo responder dies after 0.25 s and recovers at 0.8 s.
        testbed.sim.schedule(0.25, lambda: setattr(
            testbed.server_host.stack, "echo_responder_enabled", False))
        testbed.sim.schedule(0.80, lambda: setattr(
            testbed.server_host.stack, "echo_responder_enabled", True))
        tool = PingTool(phone, collector, testbed.server_ip, interval=0.1,
                        timeout=0.5)
        samples = tool.run_sync(12)
        assert len(samples) == 12
        assert 3 <= tool.loss_count() <= 8
        assert len(tool.rtts()) == 12 - tool.loss_count()

    def test_acutemon_survives_outage_window(self):
        testbed, phone, collector = build(seed=202)
        testbed.sim.schedule(0.3, lambda: setattr(
            testbed.server_host.stack, "echo_responder_enabled", False))
        config = AcuteMonConfig(probe_count=10, probe_method="icmp",
                                probe_timeout=0.2, probe_gap=0.05)
        monitor = AcuteMon(phone, collector, testbed.server_ip,
                           config=config)
        done = []
        monitor.start(on_complete=lambda r: done.append(r))
        while not done:
            assert testbed.sim.step(), "AcuteMon hung on a dead server"
        assert len(monitor.results) == 10
        assert monitor.loss_count() >= 5

    def test_http_server_reset_mid_run(self):
        testbed, phone, collector = build(seed=203)
        tool = HttpingTool(phone, collector, testbed.server_ip,
                           interval=0.05, timeout=0.3)
        done = []
        tool.start(10, on_complete=lambda r: done.append(r))
        # Kill the connection from the server side after a few probes.
        def reset():
            for conn in list(
                    testbed.server_host.stack.tcp._connections.values()):
                conn.abort()

        testbed.sim.schedule(0.2, reset)
        deadline = testbed.sim.now + 30.0
        while not done and testbed.sim.now < deadline:
            if not testbed.sim.step():
                break
        # The tool must have terminated (reporting what it had), not hang.
        assert done, "httping hung after a server-side RST"


class TestPathBlackout:
    def test_blackout_window_loses_exactly_those_probes(self):
        testbed, phone, collector = build(seed=204)
        # 100% loss between 0.3 s and 0.7 s.
        testbed.sim.schedule(0.30, lambda: setattr(testbed.netem, "loss", 1.0))
        testbed.sim.schedule(0.70, lambda: setattr(testbed.netem, "loss", 0.0))
        tool = PingTool(phone, collector, testbed.server_ip, interval=0.1,
                        timeout=0.4)
        tool.run_sync(10)
        assert 3 <= tool.loss_count() <= 6
        # Probes outside the window are unaffected.
        assert all(0.028 < rtt < 0.050 for rtt in tool.rtts())

    def test_acutemon_reports_partial_results(self):
        testbed, phone, collector = build(seed=205)
        testbed.sim.schedule(0.3, lambda: setattr(testbed.netem, "loss", 1.0))
        config = AcuteMonConfig(probe_count=20, probe_method="udp",
                                probe_timeout=0.2)
        monitor = AcuteMon(phone, collector, testbed.server_ip,
                           config=config)
        done = []
        monitor.start(on_complete=lambda r: done.append(r))
        while not done:
            assert testbed.sim.step()
        assert len(monitor.results) == 20
        assert 0 < len(monitor.rtts()) < 20


class TestSnifferFailure:
    def test_dead_sniffer_recovered_by_merge(self):
        testbed, phone, collector = build(seed=206)
        # Sniffer A stops capturing early (monitor keeps running but the
        # record list is frozen — a crashed capture process).
        victim = testbed.sniffers[0]

        def crash():
            victim.capture_loss = 1.0
            victim.rng = testbed.sim.rng.stream("crashed")

        testbed.sim.schedule(0.2, crash)
        tool = PingTool(phone, collector, testbed.server_ip, interval=0.05)
        tool.run_sync(10)
        rtts = capture_rtts(testbed.merged_capture(), phone.sta.mac)
        assert len(rtts) == 10  # B and C covered the gap

    def test_all_layers_except_phy_still_present_without_sniffers(self):
        # Even with zero usable captures, du/dk/dv come from the phone.
        testbed, phone, collector = build(seed=207)
        for sniffer in testbed.sniffers:
            sniffer.capture_loss = 1.0
            sniffer.rng = testbed.sim.rng.stream(f"dead:{sniffer.name}")
        tool = PingTool(phone, collector, testbed.server_ip, interval=0.05)
        tool.run_sync(5)
        layers = collector.layered_rtts()
        assert len(layers["du"]) == 5
        assert len(layers["dk"]) == 5
        # (dn still exists via packet stamps — the in-simulation ground
        # truth is independent of the modelled sniffer hardware.)
