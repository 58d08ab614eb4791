"""Unit tests for 802.11 PHY parameters and frame sizes."""

import pytest

from repro.net.addresses import MacAddress, ip
from repro.net.packet import Packet, UdpDatagram
from repro.wifi.frames import BeaconFrame, DataFrame, NullDataFrame
from repro.wifi.phy import PhyParams


class TestPhyParams:
    def test_difs_is_sifs_plus_two_slots(self):
        phy = PhyParams()
        assert phy.difs == pytest.approx(phy.sifs + 2 * phy.slot_time)

    def test_airtime_scales_with_size_and_rate(self):
        phy = PhyParams()
        small = phy.airtime(100, 54e6)
        large = phy.airtime(1500, 54e6)
        slow = phy.airtime(100, 6e6)
        assert large > small
        assert slow > small
        # 1500 bytes at 54 Mbps: preamble + ~222us + extension.
        assert phy.airtime(1500, 54e6) == pytest.approx(
            20e-6 + 1500 * 8 / 54e6 + 6e-6)

    def test_contention_window_doubles_and_caps(self):
        phy = PhyParams(cw_min=15, cw_max=1023)
        assert phy.contention_window(0) == 15
        assert phy.contention_window(1) == 31
        assert phy.contention_window(2) == 63
        assert phy.contention_window(10) == 1023  # capped

    def test_data_exchange_time_includes_ack(self):
        phy = PhyParams()
        assert phy.data_exchange_time(1500, 54e6) == pytest.approx(
            phy.airtime(1500, 54e6) + phy.sifs + phy.ack_time())

    def test_channel_capacity_under_saturation_is_realistic(self):
        # Single saturated sender, 1470 B UDP at 54 Mbps with protection:
        # practical throughput must land in the 15-25 Mbps band the paper
        # cites for real 802.11g, far below the PHY rate.
        phy = PhyParams(protection_time=120e-6)
        frame_wire = 24 + 8 + 20 + 8 + 1470 + 4
        per_frame = (phy.difs + 7.5 * phy.slot_time + phy.protection_time
                     + phy.airtime(frame_wire, phy.data_rate_bps)
                     + phy.sifs + phy.ack_time())
        throughput = 1470 * 8 / per_frame
        assert 15e6 < throughput < 25e6


def _packet():
    return Packet(ip("192.168.1.2"), ip("10.0.0.2"),
                  UdpDatagram(40000, 7007, 32))


class TestFrames:
    def test_data_frame_wire_size(self):
        packet = _packet()
        frame = DataFrame(MacAddress.from_index(1), MacAddress.from_index(2),
                          packet)
        assert frame.wire_size == 24 + 8 + packet.wire_size + 4

    def test_null_frame_pm_bit(self):
        null = NullDataFrame(MacAddress.from_index(1),
                             MacAddress.from_index(2), pm=True)
        assert null.pm
        assert null.wire_size == 28

    def test_beacon_is_broadcast_and_needs_no_ack(self):
        beacon = BeaconFrame(MacAddress.from_index(1), 100)
        assert beacon.is_broadcast
        assert not beacon.needs_ack

    def test_beacon_tim_encoded(self):
        beacon = BeaconFrame(MacAddress.from_index(1), 100,
                             tim_aids={1, 3})
        assert beacon.tim_aids == frozenset({1, 3})
        # header 24 + fixed fields 12 + SSID IE (2 + 7) + rates IE 10 +
        # TIM IE (5 + a 1-byte bitmap for AIDs < 8) + FCS 4.
        assert beacon.wire_size == 24 + 12 + 9 + 10 + 6 + 4
        # AID 9 needs a second bitmap byte.
        wider = BeaconFrame(MacAddress.from_index(1), 100, tim_aids={9})
        assert wider.wire_size == beacon.wire_size + 1
