"""Tests for pcap I/O, sniffers, multi-sniffer merge, and RTT extraction."""

import io

import pytest

from repro.net.addresses import ip
from repro.sniffer import pcap
from repro.sniffer.merge import coverage, merge_records
from repro.sniffer.pcap import (
    LINKTYPE_IEEE802_11,
    LINKTYPE_RAW,
    PcapReader,
    PcapWriter,
)
from repro.sniffer.rtt import completed_rtts, network_rtts, network_rtts_from_pcap
from repro.sniffer.sniffer import WirelessSniffer
from repro.testbed.topology import Testbed


class TestPcapFormat:
    def test_round_trip_in_memory(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer, linktype=LINKTYPE_RAW)
        writer.write(1.5, b"hello")
        writer.write(2.25, b"world!")
        buffer.seek(0)
        reader = PcapReader(buffer)
        assert reader.linktype == LINKTYPE_RAW
        records = list(reader)
        assert len(records) == 2
        assert records[0][0] == pytest.approx(1.5, abs=1e-6)
        assert records[0][1] == b"hello"
        assert records[1][1] == b"world!"

    def test_round_trip_on_disk(self, tmp_path):
        path = tmp_path / "capture.pcap"
        with PcapWriter(path) as writer:
            writer.write(0.001, b"\x01\x02\x03")
        with PcapReader(path) as reader:
            assert reader.linktype == LINKTYPE_IEEE802_11
            (timestamp, data), = list(reader)
            assert data == b"\x01\x02\x03"

    def test_microsecond_resolution(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        writer.write(123.456789, b"x")
        buffer.seek(0)
        (timestamp, _), = list(PcapReader(buffer))
        assert timestamp == pytest.approx(123.456789, abs=1e-6)

    def test_snaplen_truncates(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer, snaplen=4)
        writer.write(0.0, b"abcdefgh")
        buffer.seek(0)
        (_, data), = list(PcapReader(buffer))
        assert data == b"abcd"

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            PcapReader(io.BytesIO(b"\x00" * 24))

    def test_truncated_header_rejected(self):
        with pytest.raises(ValueError):
            PcapReader(io.BytesIO(b"\xd4\xc3"))

    @pytest.mark.parametrize("content", [b"\xd4\xc3", b"\x00" * 24],
                             ids=["truncated", "bad_magic"])
    def test_rejected_path_closes_its_file(self, tmp_path, monkeypatch,
                                           content):
        path = tmp_path / "bad.pcap"
        path.write_bytes(content)
        opened = []

        def spy_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(pcap, "open", spy_open, raising=False)
        with pytest.raises(ValueError):
            PcapReader(path)
        assert len(opened) == 1 and opened[0].closed


class SnifferBed:
    """A tiny testbed with one phone pinging the server."""

    def __init__(self, seed=0, sniffer_loss=0.0, count=5, pcap_path=None):
        self.testbed = Testbed(seed=seed, emulated_rtt=0.02,
                               sniffer_loss=sniffer_loss)
        if pcap_path is not None:
            self.extra_sniffer = WirelessSniffer(
                self.testbed.sim, self.testbed.channel, name="pcap-sniffer",
                pcap_path=pcap_path)
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

    def test_pcap_output_parses(self, tmp_path):
        path = tmp_path / "air.pcap"
        bed = SnifferBed(pcap_path=str(path))
        bed.extra_sniffer.close()
        with PcapReader(path) as reader:
            assert reader.linktype == LINKTYPE_IEEE802_11
            frames = list(reader)
        assert len(frames) == len(bed.extra_sniffer.records)


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

    def test_coverage_reports_fractions(self):
        bed = SnifferBed(seed=5, sniffer_loss=0.2)
        merged = merge_records(*bed.testbed.sniffers)
        fractions = coverage(merged, *bed.testbed.sniffers)
        assert set(fractions) == {"sniffer-A", "sniffer-B", "sniffer-C"}
        assert all(0.5 < f <= 1.0 for f in fractions.values())


class TestRttExtraction:
    def test_network_rtts_from_records(self):
        bed = SnifferBed(seed=7, count=5)
        merged = bed.testbed.merged_capture()
        transactions = network_rtts(merged, bed.phone.sta.mac)
        rtts = completed_rtts(transactions)
        assert len(rtts) == 5
        for rtt in rtts.values():
            assert 0.019 < rtt < 0.030  # ~emulated 20 ms

    def test_rtts_match_packet_stamps(self):
        bed = SnifferBed(seed=7, count=3)
        merged = bed.testbed.merged_capture()
        transactions = network_rtts(merged, bed.phone.sta.mac)
        for txn in transactions.values():
            assert txn.complete
            assert txn.rtt == pytest.approx(txn.tin - txn.ton)

    def test_network_rtts_from_pcap_file(self, tmp_path):
        path = tmp_path / "air.pcap"
        bed = SnifferBed(seed=9, count=4, pcap_path=str(path))
        bed.extra_sniffer.close()
        from_pcap = completed_rtts(
            network_rtts_from_pcap(path, bed.phone.sta.mac))
        in_memory = completed_rtts(
            network_rtts(bed.extra_sniffer.records, bed.phone.sta.mac))
        assert set(from_pcap) == set(in_memory)
        for probe_id, rtt in from_pcap.items():
            # pcap stores microsecond timestamps: allow 1 us rounding.
            assert rtt == pytest.approx(in_memory[probe_id], abs=2e-6)

    def test_pcap_linktype_validated(self, tmp_path):
        path = tmp_path / "raw.pcap"
        with PcapWriter(path, linktype=LINKTYPE_RAW) as writer:
            writer.write(0.0, b"xx")
        bed = SnifferBed(seed=1, count=1)
        with pytest.raises(ValueError):
            network_rtts_from_pcap(path, bed.phone.sta.mac)
