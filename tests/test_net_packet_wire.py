"""Unit tests for packet models, checksums, and wire encoding."""

import hashlib

import pytest

from repro.net.addresses import MacAddress, ip
from repro.net.checksum import (
    internet_checksum, pseudo_header, verify_checksum,
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
from tests.test_perf_smoke import wire_packets


class TestMacAddress:
    def test_string_round_trip(self):
        mac = MacAddress("02:00:00:00:00:2a")
        assert str(mac) == "02:00:00:00:00:2a"
        assert MacAddress(str(mac)) == mac

    def test_broadcast(self):
        assert MacAddress.broadcast().is_broadcast
        assert not MacAddress.from_index(1).is_broadcast

    def test_from_index_unique(self):
        macs = {MacAddress.from_index(i) for i in range(100)}
        assert len(macs) == 100

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            MacAddress(1 << 48)
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

    def test_batch_matches_scalar(self):
        packets = wire_packets()[:30] + [Packet(
            ip("192.168.1.1"), ip("10.0.0.1"),
            IcmpTimeExceeded(Packet(ip("10.0.0.1"), ip("10.0.0.2"),
                                    UdpDatagram(40000, 33434, 8), ttl=1)))]
        assert wire.encode_ipv4_batch(packets, ident=3) == [
            wire.encode_ipv4(packet, ident=3) for packet in packets]

    def test_truncated_input_rejected(self):
        with pytest.raises(ValueError):
            wire.decode_ipv4(b"\x45\x00\x00")

    def test_non_ipv4_rejected(self):
        with pytest.raises(ValueError):
            wire.decode_ipv4(b"\x60" + b"\x00" * 30)


def _sha256(blobs):
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(len(blob).to_bytes(4, "big"))
        digest.update(blob)
    return digest.hexdigest()


class TestWireBytesPinned:
    """The exact bytes ``encode_ipv4`` writes, pinned by SHA-256, so any
    change to the encoder's output (a checksum, a header field, the
    filler) shows here.
    """

    def test_perf_smoke_set(self):
        blobs = [wire.encode_ipv4(packet) for packet in wire_packets()]
        assert _sha256(blobs) == (
            "79c07731010b7e2bf3c91b2dc2b85d423508d957d12da3aaeba89a5513aa24ad")

    def test_icmp_time_exceeded(self):
        original = Packet(ip("10.0.0.1"), ip("10.0.0.2"),
                          UdpDatagram(40000, 33434, 8), ttl=1,
                          meta={"probe_id": 77})
        error = Packet(ip("192.168.1.1"), ip("10.0.0.1"),
                       IcmpTimeExceeded(original))
        assert _sha256([wire.encode_ipv4(error, ident=9)]) == (
            "c45dbaafdc6debf28fb6103a92832f99de1090a2cfa65830d95836b338dc572d")

    def test_odd_length_udp_payload(self):
        blobs = [wire.encode_ipv4(Packet(ip("10.0.0.1"), ip("10.0.0.2"),
                                         UdpDatagram(40000, 7007, size),
                                         meta={"probe_id": 5}))
                 for size in (1, 7, 9, 33, 513)]
        assert _sha256(blobs) == (
            "37a95820ed3b9d2228126c347226d9d8e69f20288ff0f343f673d687f7d5508b")


class TestMalformedDecode:
    """Malformed headers raise instead of decoding into a wrong packet."""

    def _udp(self, payload_size=30):
        return bytearray(wire.encode_ipv4(Packet(
            ip("10.0.0.1"), ip("10.0.0.2"),
            UdpDatagram(40000, 7007, payload_size))))

    def _tcp(self, payload_size=40):
        return bytearray(wire.encode_ipv4(Packet(
            ip("10.0.0.1"), ip("10.0.0.2"),
            TcpSegment(32768, 80, 1, 0, TCP_ACK, payload_size))))

    def test_ihl_below_five_rejected(self):
        raw = self._udp()
        raw[0] = (4 << 4) | 3
        with pytest.raises(ValueError, match="IHL"):
            wire.decode_ipv4(bytes(raw))

    def test_tcp_data_offset_below_five_rejected(self):
        raw = self._tcp()
        raw[20 + 12] = 2 << 4
        with pytest.raises(ValueError, match="data offset"):
            wire.decode_ipv4(bytes(raw))

    def test_tcp_data_offset_past_segment_rejected(self):
        raw = self._tcp(payload_size=0)
        raw[20 + 12] = 15 << 4
        with pytest.raises(ValueError, match="data offset"):
            wire.decode_ipv4(bytes(raw))

    @pytest.mark.parametrize("length", [0, 4, 7])
    def test_udp_length_below_header_rejected(self, length):
        raw = self._udp()
        raw[24:26] = length.to_bytes(2, "big")
        with pytest.raises(ValueError, match="UDP length"):
            wire.decode_ipv4(bytes(raw))

    def test_udp_length_past_datagram_rejected(self):
        raw = self._udp()
        assert len(raw) - 20 == 38
        raw[24:26] = (200).to_bytes(2, "big")
        with pytest.raises(ValueError, match="UDP length"):
            wire.decode_ipv4(bytes(raw))
