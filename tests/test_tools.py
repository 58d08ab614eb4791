"""Tests for the baseline measurement tools (ping, httping, Java ping,
MobiPerf, ping2)."""

import pytest

from repro.core.measurement import ProbeCollector
from repro.sim.scheduler import Simulator
from repro.testbed.topology import Testbed
from repro.tools.base import run_until_complete
from repro.tools.httping import HttpingTool
from repro.tools.javaping import JavaPingTool
from repro.tools.mobiperf import MobiPerfTool
from repro.tools.ping import PingTool
from repro.tools.ping2 import Ping2Tool


def build(seed=41, rtt=0.03, phone_key="nexus5"):
    testbed = Testbed(seed=seed, emulated_rtt=rtt)
    phone = testbed.add_phone(phone_key)
    collector = ProbeCollector(phone)
    testbed.settle(0.5)
    return testbed, phone, collector


class TestRunUntilComplete:
    """The shared run loop behind every tool's ``run_sync``."""

    def test_completion_stops_run_at_completing_event(self):
        sim = Simulator(seed=1)
        ticks = []
        sim.schedule_periodic(0.01, lambda: ticks.append(sim.now))

        def start(on_complete):
            sim.schedule(0.055, on_complete, "result")

        assert run_until_complete(sim, start, "tool", deadline=10.0) \
            == "result"
        assert sim.now == pytest.approx(0.055)
        assert len(ticks) == 5
        assert sim.pending() == 1  # the train is still armed

    def test_completion_inside_start_does_not_run(self):
        sim = Simulator(seed=1)
        fired = []
        sim.schedule(0.01, fired.append, 1)
        assert run_until_complete(sim, lambda done: done("now"), "tool") \
            == "now"
        assert fired == [] and sim.now == 0.0

    def test_stalled(self):
        sim = Simulator(seed=1)
        with pytest.raises(RuntimeError, match="tool stalled"):
            run_until_complete(sim, lambda done: None, "tool")

    def test_deadline(self):
        sim = Simulator(seed=1)
        sim.schedule_periodic(0.1, lambda: None)

        def start(on_complete):
            sim.schedule(5.0, on_complete, None)

        with pytest.raises(RuntimeError, match="tool did not finish by 1.0s"):
            run_until_complete(sim, start, "tool", deadline=1.0)
        assert sim.now == 1.0

    def test_unrelated_stop_does_not_end_the_run(self):
        sim = Simulator(seed=1)
        sim.schedule(0.02, sim.stop)

        def start(on_complete):
            sim.schedule(0.05, on_complete, "late")

        assert run_until_complete(sim, start, "tool") == "late"
        assert sim.now == pytest.approx(0.05)

    def test_run_sync_leaves_clock_at_last_reply(self):
        testbed, phone, collector = build()
        tool = PingTool(phone, collector, testbed.server_ip, interval=0.01)
        samples = tool.run_sync(5)
        last = max(sample.sent_at + sample.rtt for sample in samples)
        assert testbed.sim.now == pytest.approx(last, abs=1e-3)


class TestPingTool:
    def test_fixed_rate_sending(self):
        testbed, phone, collector = build()
        tool = PingTool(phone, collector, testbed.server_ip, interval=0.01)
        samples = tool.run_sync(20)
        assert len(samples) == 20
        sends = sorted(s.sent_at for s in samples)
        gaps = [b - a for a, b in zip(sends, sends[1:])]
        assert all(g == pytest.approx(0.01, abs=1e-4) for g in gaps)

    def test_rtts_near_emulated_at_fast_interval(self):
        testbed, phone, collector = build()
        tool = PingTool(phone, collector, testbed.server_ip, interval=0.01)
        tool.run_sync(20)
        rtts = sorted(tool.rtts())
        # The very first probe may pay one bus wake (the phone idled
        # before the run); steady state stays close to the emulated RTT.
        assert all(0.030 < rtt < 0.040 for rtt in rtts[:-1])
        assert rtts[-1] < 0.050

    def test_slow_interval_inflates_via_bus_sleep(self):
        testbed, phone, collector = build()
        tool = PingTool(phone, collector, testbed.server_ip, interval=1.0)
        tool.run_sync(10)
        # Nexus 5, 30 ms < Tip (205 ms) so no PSM hit, but every probe pays
        # the SDIO wake (Table 2's 43 ms vs 33 ms at small intervals).
        assert min(tool.rtts()) > 0.038

    def test_user_times_reported_to_collector(self):
        testbed, phone, collector = build()
        tool = PingTool(phone, collector, testbed.server_ip, interval=0.01)
        tool.run_sync(5)
        records = collector.completed()
        assert len(records) == 5
        assert all(r.du is not None and r.du > 0 for r in records)

    def test_integer_quirk_on_nexus4_above_100ms(self):
        testbed, phone, collector = build(phone_key="nexus4", rtt=0.150)
        tool = PingTool(phone, collector, testbed.server_ip, interval=0.01)
        tool.run_sync(10)
        for rtt in tool.rtts():
            ms_value = rtt * 1e3
            assert ms_value == pytest.approx(round(ms_value), abs=1e-6)

    def test_no_quirk_below_100ms(self):
        testbed, phone, collector = build(phone_key="nexus4", rtt=0.030)
        tool = PingTool(phone, collector, testbed.server_ip, interval=0.01)
        tool.run_sync(5)
        assert any(abs(r * 1e3 - round(r * 1e3)) > 1e-6 for r in tool.rtts())

    def test_unreachable_target_times_out(self):
        from repro.net.addresses import ip

        testbed, phone, collector = build()
        tool = PingTool(phone, collector, ip("10.0.0.99"), interval=0.05,
                        timeout=0.3)
        samples = tool.run_sync(3)
        assert tool.loss_count() == 3
        assert len(samples) == 3

    def test_runtime_restored_after_run(self):
        testbed, phone, collector = build()
        phone.runtime = "dalvik"
        tool = PingTool(phone, collector, testbed.server_ip, interval=0.01)
        tool.run_sync(3)
        assert phone.runtime == "dalvik"


class TestHttpingTool:
    def test_sequential_probes_on_persistent_connection(self):
        testbed, phone, collector = build()
        tool = HttpingTool(phone, collector, testbed.server_ip,
                           interval=0.05)
        samples = tool.run_sync(10)
        assert len(samples) == 10
        assert tool.loss_count() == 0
        # Request/response time: one RTT + server processing.
        for rtt in tool.rtts():
            assert 0.030 < rtt < 0.045

    def test_only_one_tcp_connection_used(self):
        testbed, phone, collector = build()
        tool = HttpingTool(phone, collector, testbed.server_ip,
                           interval=0.02)
        tool.run_sync(10)
        assert testbed.server.http.requests_served == 10

    def test_interval_respected(self):
        testbed, phone, collector = build()
        tool = HttpingTool(phone, collector, testbed.server_ip, interval=0.2)
        samples = tool.run_sync(5)
        sends = [s.sent_at for s in samples]
        for a, b in zip(sends, sends[1:]):
            assert b - a >= 0.19

    @pytest.mark.parametrize("request_size", [10 ** 30, 0])
    def test_out_of_range_request_size_rejected_at_construction(
            self, request_size):
        # Construct only: a 31-digit request would never finish.
        testbed, phone, collector = build()
        with pytest.raises(ValueError, match="request_size"):
            HttpingTool(phone, collector, testbed.server_ip,
                        request_size=request_size)


class TestJavaPingTool:
    def test_syn_rst_measurement(self):
        testbed, phone, collector = build()
        tool = JavaPingTool(phone, collector, testbed.server_ip,
                            interval=0.05)
        samples = tool.run_sync(10)
        assert len(samples) == 10
        assert tool.loss_count() == 0

    def test_dalvik_overhead_visible(self):
        testbed, phone, collector = build()
        java = JavaPingTool(phone, collector, testbed.server_ip,
                            interval=0.01)
        java.run_sync(30)
        records = collector.completed()
        du_k = [r.du - r.dk for r in records if r.dk is not None]
        # Dalvik adds two runtime crossings; the median must exceed what a
        # native tool would show (~0.1 ms).
        du_k.sort()
        assert du_k[len(du_k) // 2] > 0.4e-3

    def test_open_port_syn_ack_also_works(self):
        testbed, phone, collector = build()
        tool = JavaPingTool(phone, collector, testbed.server_ip, port=80,
                            interval=0.05)
        samples = tool.run_sync(5)
        assert tool.loss_count() == 0


class TestMobiPerf:
    def test_method_validation(self):
        testbed, phone, collector = build()
        with pytest.raises(ValueError):
            MobiPerfTool(phone, collector, testbed.server_ip, method="warp")

    @pytest.mark.parametrize("method", ["ping", "inetaddress", "httpurl"])
    def test_all_methods_measure(self, method):
        testbed, phone, collector = build()
        tool = MobiPerfTool(phone, collector, testbed.server_ip,
                            method=method, interval=0.05)
        tool.run_sync(5)
        assert len(tool.rtts()) == 5
        assert tool.loss_count() == 0


class TestPing2:
    def test_double_ping_short_rtt_accurate(self):
        # Short path: the warm-up ping leaves everything awake; the probe
        # ping is clean.
        testbed, phone, _collector = build(rtt=0.02)
        tool = Ping2Tool(testbed.server_host, phone.ip_addr, interval=0.5)
        tool.run_sync(10)
        assert len(tool.rtts()) == 10
        import statistics

        median = statistics.median(tool.rtts())
        assert 0.020 < median < 0.030

    def test_first_ping_pays_wakeup(self):
        testbed, phone, _collector = build(rtt=0.02)
        tool = Ping2Tool(testbed.server_host, phone.ip_addr, interval=1.0)
        tool.run_sync(8)
        import statistics

        first = statistics.median(tool.first_ping_rtts)
        second = statistics.median(tool.rtts())
        assert first > second + 0.005  # warm-up absorbs the inflation

    def test_long_rtt_degrades(self):
        # RTT 80 ms > Tis (50 ms): by the time the probe ping arrives the
        # bus has demoted again — ping2's documented failure mode.
        testbed, phone, _collector = build(rtt=0.080, seed=43)
        tool = Ping2Tool(testbed.server_host, phone.ip_addr, interval=1.0)
        tool.run_sync(8)
        import statistics

        median = statistics.median(tool.rtts())
        assert median > 0.088  # inflated beyond the true 80 ms + stack cost
