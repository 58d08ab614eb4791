"""Unit tests for packet models, checksums, and wire encoding."""

import sys

import pytest

from repro.net.addresses import MacAddress, ip
from repro.net.checksum import (
    internet_checksum, internet_checksum_batch, pseudo_header, verify_checksum,
)
from repro.net.packet import (
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    TCP_ACK,
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    IcmpEcho,
    IcmpTimeExceeded,
    Packet,
    TcpSegment,
    UdpDatagram,
    tcp_flag_names,
)
from repro.net import wire


class TestMacAddress:
    def test_string_round_trip(self):
        mac = MacAddress("02:00:00:00:00:2a")
        assert str(mac) == "02:00:00:00:00:2a"
        assert MacAddress(str(mac)) == mac

    def test_bytes_round_trip(self):
        mac = MacAddress.from_index(1234)
        assert MacAddress(mac.to_bytes()) == mac

    def test_broadcast(self):
        assert MacAddress.broadcast().is_broadcast
        assert not MacAddress.from_index(1).is_broadcast

    def test_from_index_unique(self):
        macs = {MacAddress.from_index(i) for i in range(100)}
        assert len(macs) == 100

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            MacAddress(b"\x00" * 5)
        with pytest.raises(ValueError):
            MacAddress.from_index(1 << 24)

    def test_hashable(self):
        table = {MacAddress.from_index(3): "x"}
        assert table[MacAddress.from_index(3)] == "x"


class TestChecksum:
    def test_rfc1071_example(self):
        # Classic example: the checksum of these words is 0xddf2.
        data = bytes.fromhex("00010203040506070809")
        checksum = internet_checksum(data)
        verified = data[:10] + checksum.to_bytes(2, "big")
        assert verify_checksum(verified)

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_zero_data(self):
        assert internet_checksum(b"\x00\x00") == 0xFFFF

    @pytest.mark.parametrize("numpy_present", [True, False])
    def test_batch_matches_scalar(self, numpy_present, monkeypatch):
        if numpy_present:
            pytest.importorskip("numpy")
        else:
            # A stripped install: the batch falls back to the scalar fold.
            monkeypatch.setitem(sys.modules, "numpy", None)
        blobs = [b"", b"\x01", bytes(range(7)), bytearray(range(40)),
                 memoryview(bytes(range(7, 14))), b"\xff" * 64,
                 bytes.fromhex("00010203040506070809")]
        assert internet_checksum_batch(blobs) == [
            internet_checksum(blob) for blob in blobs]

    def test_pseudo_header_layout(self):
        pseudo = pseudo_header(ip("1.2.3.4"), ip("5.6.7.8"), 17, 20)
        assert len(pseudo) == 12
        assert pseudo[:4] == bytes([1, 2, 3, 4])
        assert pseudo[9] == 17


class TestPayloads:
    def test_echo_reply_mirrors_request(self):
        request = IcmpEcho(ICMP_ECHO_REQUEST, ident=7, seq=3, payload_size=56)
        reply = request.make_reply()
        assert reply.icmp_type == ICMP_ECHO_REPLY
        assert (reply.ident, reply.seq, reply.payload_size) == (7, 3, 56)
        assert not reply.is_request

    def test_echo_rejects_non_echo_type(self):
        with pytest.raises(ValueError):
            IcmpEcho(11, 1, 1)

    def test_udp_port_validation(self):
        with pytest.raises(ValueError):
            UdpDatagram(0, 80)
        with pytest.raises(ValueError):
            UdpDatagram(80, 70000)

    def test_tcp_seq_space(self):
        assert TcpSegment(1, 2, 0, 0, TCP_SYN).seq_space == 1
        assert TcpSegment(1, 2, 0, 0, TCP_ACK).seq_space == 0
        assert TcpSegment(1, 2, 0, 0, TCP_FIN | TCP_ACK, 10).seq_space == 11

    def test_tcp_flag_names(self):
        assert tcp_flag_names(TCP_SYN | TCP_ACK) == "SYN|ACK"
        assert tcp_flag_names(0) == "none"

    def test_wire_sizes(self):
        assert IcmpEcho(8, 1, 1, 56).wire_size == 64
        assert UdpDatagram(1000, 2000, 100).wire_size == 108
        assert TcpSegment(1, 2, 0, 0, TCP_ACK, 100).wire_size == 120


class TestPacket:
    def test_ttl_validation(self):
        with pytest.raises(ValueError):
            Packet(ip("1.1.1.1"), ip("2.2.2.2"), IcmpEcho(8, 1, 1), ttl=0)

    def test_stamp_keeps_first(self):
        packet = Packet(ip("1.1.1.1"), ip("2.2.2.2"), IcmpEcho(8, 1, 1))
        packet.stamp("phy", 1.0)
        packet.stamp("phy", 2.0)
        assert packet.stamps["phy"] == 1.0

    def test_probe_id_from_meta(self):
        packet = Packet(ip("1.1.1.1"), ip("2.2.2.2"), IcmpEcho(8, 1, 1),
                        meta={"probe_id": 99})
        assert packet.probe_id == 99

    def test_flow_key_direction_specific(self):
        fwd = Packet(ip("1.1.1.1"), ip("2.2.2.2"),
                     UdpDatagram(1000, 2000, 10))
        rev = Packet(ip("2.2.2.2"), ip("1.1.1.1"),
                     UdpDatagram(2000, 1000, 10))
        assert fwd.flow_key() != rev.flow_key()


class TestWireRoundTrip:
    def _roundtrip(self, packet):
        return wire.decode_ipv4(wire.encode_ipv4(packet))

    def test_icmp_echo_roundtrip(self):
        packet = Packet(ip("10.0.0.1"), ip("10.0.0.2"),
                        IcmpEcho(8, 17, 4, 56), meta={"probe_id": 1234})
        decoded = self._roundtrip(packet)
        assert decoded.src == packet.src and decoded.dst == packet.dst
        assert decoded.payload.ident == 17 and decoded.payload.seq == 4
        assert decoded.probe_id == 1234

    def test_udp_roundtrip(self):
        packet = Packet(ip("10.0.0.1"), ip("10.0.0.2"),
                        UdpDatagram(40000, 7007, 32), ttl=1,
                        meta={"probe_id": 5})
        decoded = self._roundtrip(packet)
        assert decoded.ttl == 1
        assert decoded.payload.dst_port == 7007
        assert decoded.probe_id == 5

    def test_tcp_roundtrip(self):
        segment = TcpSegment(32768, 80, 1000, 2000, TCP_SYN | TCP_ACK, 0)
        packet = Packet(ip("1.2.3.4"), ip("5.6.7.8"), segment)
        decoded = self._roundtrip(packet)
        payload = decoded.payload
        assert (payload.seq, payload.ack) == (1000, 2000)
        assert payload.has(TCP_SYN) and payload.has(TCP_ACK)

    def test_time_exceeded_embeds_original_header(self):
        original = Packet(ip("10.0.0.1"), ip("10.0.0.2"),
                          UdpDatagram(40000, 33434, 8), ttl=1,
                          meta={"probe_id": 77})
        error = Packet(ip("192.168.1.1"), ip("10.0.0.1"),
                       IcmpTimeExceeded(original))
        decoded = self._roundtrip(error)
        assert isinstance(decoded.payload, IcmpTimeExceeded)
        inner = decoded.payload.original
        # RFC 792: only the header + 8 transport bytes are embedded, so
        # addresses and ports survive but the payload (and probe tag) do not.
        assert inner.src == original.src and inner.dst == original.dst
        assert inner.payload.dst_port == 33434
        assert decoded.probe_id is None

    def test_ip_header_checksum_valid(self):
        packet = Packet(ip("10.0.0.1"), ip("10.0.0.2"), IcmpEcho(8, 1, 1))
        raw = wire.encode_ipv4(packet)
        assert verify_checksum(raw[:20])

    def test_total_length_field(self):
        packet = Packet(ip("10.0.0.1"), ip("10.0.0.2"),
                        UdpDatagram(1000, 2000, 100))
        raw = wire.encode_ipv4(packet)
        assert len(raw) == packet.wire_size
        assert int.from_bytes(raw[2:4], "big") == packet.wire_size

    def test_no_probe_id_when_payload_small(self):
        packet = Packet(ip("10.0.0.1"), ip("10.0.0.2"),
                        UdpDatagram(1000, 2000, 4))
        decoded = self._roundtrip(packet)
        assert decoded.probe_id is None

    def test_truncated_input_rejected(self):
        with pytest.raises(ValueError):
            wire.decode_ipv4(b"\x45\x00\x00")

    def test_non_ipv4_rejected(self):
        with pytest.raises(ValueError):
            wire.decode_ipv4(b"\x60" + b"\x00" * 30)
