"""Tests for the wireless sniffers, the multi-sniffer merge, and the
on-air cross-check of the simulator's PHY stamps."""

import pytest

from repro.core.measurement import ProbeCollector
from repro.net.packet import TCP_ACK, TcpSegment
from repro.sniffer.merge import merge_records
from repro.testbed.topology import Testbed
from repro.tools.ping import PingTool


def capture_rtts(records, station_mac):
    """``{probe_id: tin - ton}`` read off a merged capture, independently
    of the packets' own ``phy`` stamps: per probe, the first uplink data
    frame gives ``ton`` and the first substantive downlink one (not a
    bare TCP ACK) gives ``tin``."""
    ton, tin = {}, {}
    for record in records:
        probe_id = record.probe_id
        if probe_id is None:
            continue
        frame = record.frame
        payload = frame.packet.payload
        if frame.src_mac == station_mac:
            ton.setdefault(probe_id, record.time)
        elif frame.dst_mac == station_mac and not (
                isinstance(payload, TcpSegment) and payload.flags == TCP_ACK
                and payload.payload_size == 0):
            tin.setdefault(probe_id, record.time)
    return {probe_id: tin[probe_id] - sent
            for probe_id, sent in ton.items() if probe_id in tin}


class SnifferBed:
    """A tiny testbed with one phone pinging the server."""

    def __init__(self, seed=0, sniffer_loss=0.0, count=5):
        self.testbed = Testbed(seed=seed, emulated_rtt=0.02,
                               sniffer_loss=sniffer_loss)
        self.phone = self.testbed.add_phone("nexus5")
        self.testbed.settle(0.3)
        self.phone.stack.register_ping(8, lambda p: None)
        for index in range(count):
            self.testbed.sim.schedule(
                0.05 * index, self.phone.stack.send_echo_request,
                self.testbed.server_ip, 8, index,
                meta={"probe_id": index + 1})
        self.testbed.run(0.05 * count + 0.5)


class TestWirelessSniffer:
    def test_captures_beacons_nulls_and_data(self):
        bed = SnifferBed()
        sniffer = bed.testbed.sniffers[0]
        assert sniffer.beacon_records()
        assert sniffer.data_records()
        assert len(sniffer.records_for_probe(1)) >= 2  # request + response

    def test_capture_loss_misses_frames(self):
        lossless = SnifferBed(seed=3, sniffer_loss=0.0)
        lossy = SnifferBed(seed=3, sniffer_loss=0.3)
        assert (len(lossy.testbed.sniffers[0].records)
                < len(lossless.testbed.sniffers[0].records))
        assert lossy.testbed.sniffers[0].frames_missed > 0


class TestMerge:
    def test_merge_recovers_lost_frames(self):
        bed = SnifferBed(seed=5, sniffer_loss=0.2)
        merged = merge_records(*bed.testbed.sniffers)
        for sniffer in bed.testbed.sniffers:
            assert len(merged) >= len(sniffer.records)
        # Merged capture must be strictly better than the worst sniffer.
        worst = min(len(s.records) for s in bed.testbed.sniffers)
        assert len(merged) > worst

    def test_merge_deduplicates(self):
        bed = SnifferBed(seed=5, sniffer_loss=0.0)
        merged = merge_records(*bed.testbed.sniffers)
        # Three lossless sniffers see identical traffic: merged == one of them.
        assert len(merged) == len(bed.testbed.sniffers[0].records)

    def test_merge_time_ordered(self):
        bed = SnifferBed(seed=5, sniffer_loss=0.1)
        merged = merge_records(*bed.testbed.sniffers)
        times = [record.time for record in merged]
        assert times == sorted(times)


class TestRttExtraction:
    def test_network_rtts_from_records(self):
        bed = SnifferBed(seed=7, count=5)
        rtts = capture_rtts(bed.testbed.merged_capture(), bed.phone.sta.mac)
        assert len(rtts) == 5
        for rtt in rtts.values():
            assert 0.019 < rtt < 0.030  # ~emulated 20 ms

    def test_rtts_match_packet_stamps(self):
        testbed = Testbed(seed=7, emulated_rtt=0.02)
        phone = testbed.add_phone("nexus5")
        collector = ProbeCollector(phone)
        testbed.settle(0.3)
        PingTool(phone, collector, testbed.server_ip, interval=0.05).run_sync(3)
        rtts = capture_rtts(testbed.merged_capture(), phone.sta.mac)
        truth = {record.probe_id: record.dn for record in collector.completed()}
        assert len(truth) == 3
        assert rtts.keys() == truth.keys()
        for probe_id, rtt in rtts.items():
            assert rtt == pytest.approx(truth[probe_id], abs=1e-12)
