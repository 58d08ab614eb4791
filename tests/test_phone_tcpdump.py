"""Tests for the phone-side tcpdump capture and its offline dk."""

import pytest

from repro.core.measurement import ProbeCollector
from repro.phone.tcpdump import PhoneTcpdump, kernel_rtts_from_pcap
from repro.sniffer.pcap import LINKTYPE_IEEE802_11, PcapWriter
from repro.testbed.topology import Testbed
from repro.tools.ping import PingTool


def build(seed=71, rtt=0.03):
    testbed = Testbed(seed=seed, emulated_rtt=rtt)
    phone = testbed.add_phone("nexus5")
    collector = ProbeCollector(phone)
    testbed.settle(0.5)
    return testbed, phone, collector


class TestPhoneTcpdump:
    def test_capture_and_offline_dk(self, tmp_path):
        path = tmp_path / "phone.pcap"
        testbed, phone, collector = build()
        with PhoneTcpdump(phone, path) as dump:
            tool = PingTool(phone, collector, testbed.server_ip,
                            interval=0.05)
            tool.run_sync(10)
        assert dump.packets_captured >= 20  # requests + replies
        offline = kernel_rtts_from_pcap(path, phone.ip_addr)
        live = {r.probe_id: r.dk for r in collector.completed()}
        assert set(offline) == set(live)
        for probe_id, dk in offline.items():
            # pcap rounds to microseconds.
            assert dk == pytest.approx(live[probe_id], abs=2e-6)

    def test_closed_capture_stops_recording(self, tmp_path):
        path = tmp_path / "phone.pcap"
        testbed, phone, collector = build()
        dump = PhoneTcpdump(phone, path)
        dump.close()
        tool = PingTool(phone, collector, testbed.server_ip, interval=0.05)
        tool.run_sync(3)
        assert dump.packets_captured == 0

    def test_tcp_probe_dk_prefers_substantive_response(self, tmp_path):
        path = tmp_path / "phone.pcap"
        testbed, phone, collector = build()
        with PhoneTcpdump(phone, path):
            record = collector.new_probe()
            conn = phone.stack.tcp.connect(
                testbed.server_ip, 80, meta=collector.meta_for(record))
            conn.on_connected = lambda c: c.send(
                100, meta=collector.meta_for(record))
            testbed.run(1.0)
        offline = kernel_rtts_from_pcap(path, phone.ip_addr)
        assert record.probe_id in offline
        assert offline[record.probe_id] > 0

    def test_wrong_linktype_rejected(self, tmp_path):
        path = tmp_path / "air.pcap"
        with PcapWriter(path, linktype=LINKTYPE_IEEE802_11) as writer:
            writer.write(0.0, b"x")
        from repro.net.addresses import ip

        with pytest.raises(ValueError):
            kernel_rtts_from_pcap(path, ip("192.168.1.2"))
