"""Unit tests for queues, links, interfaces, and the switch."""

import pytest

from repro.net.addresses import MacAddress, ip
from repro.net.interface import EthernetFrame, EthernetInterface
from repro.net.link import Link
from repro.net.packet import IcmpEcho, Packet, UdpDatagram
from repro.net.queues import DropTailQueue
from repro.net.switch import Switch


def make_packet(size=100):
    return Packet(ip("1.1.1.1"), ip("2.2.2.2"),
                  UdpDatagram(1000, 2000, size))


class TestDropTailQueue:
    def test_fifo_order(self):
        queue = DropTailQueue()
        items = [make_packet(i) for i in range(5)]
        for item in items:
            assert queue.enqueue(item)
        assert [queue.dequeue() for _ in range(5)] == items

    def test_packet_limit_drops_tail(self):
        queue = DropTailQueue(packet_limit=2)
        assert queue.enqueue(make_packet())
        assert queue.enqueue(make_packet())
        assert not queue.enqueue(make_packet())
        assert queue.stats.dropped == 1
        assert len(queue) == 2

    def test_byte_limit(self):
        queue = DropTailQueue(packet_limit=None, byte_limit=250)
        assert queue.enqueue(make_packet(100))  # 128 bytes on the wire
        assert not queue.enqueue(make_packet(200))
        assert queue.stats.bytes_dropped > 0

    def test_byte_accounting(self):
        queue = DropTailQueue()
        packet = make_packet(72)
        queue.enqueue(packet)
        assert queue.bytes_queued == packet.wire_size
        queue.dequeue()
        assert queue.bytes_queued == 0

    def test_dequeue_empty_returns_none(self):
        assert DropTailQueue().dequeue() is None

    def test_peek_does_not_remove(self):
        queue = DropTailQueue()
        packet = make_packet()
        queue.enqueue(packet)
        assert queue.peek() is packet
        assert len(queue) == 1

    def test_clear(self):
        queue = DropTailQueue()
        queue.enqueue(make_packet())
        queue.clear()
        assert queue.is_empty and queue.bytes_queued == 0

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            DropTailQueue(packet_limit=0)


class _Sink:
    def __init__(self):
        self.frames = []

    def handle_frame(self, frame, interface):
        self.frames.append(frame)


class TestLinkAndInterface:
    def _pair(self, sim, bandwidth=1e9, prop=1e-6):
        link = Link(sim, bandwidth_bps=bandwidth, propagation_delay=prop)
        sink_a, sink_b = _Sink(), _Sink()
        nic_a = EthernetInterface(sim, sink_a, MacAddress.from_index(1))
        nic_b = EthernetInterface(sim, sink_b, MacAddress.from_index(2))
        nic_a.attach_link(link)
        nic_b.attach_link(link)
        return nic_a, nic_b, sink_a, sink_b

    def test_frame_delivered_to_peer(self, sim):
        nic_a, nic_b, _, sink_b = self._pair(sim)
        frame = EthernetFrame(nic_b.mac, nic_a.mac, make_packet())
        nic_a.send(frame)
        sim.run()
        assert sink_b.frames == [frame]

    def test_delivery_time_includes_serialization_and_propagation(self, sim):
        nic_a, nic_b, _, sink_b = self._pair(sim, bandwidth=1e6, prop=1e-3)
        packet = make_packet(100)
        frame = EthernetFrame(nic_b.mac, nic_a.mac, packet)
        arrival = []
        nic_b.add_tap(lambda f, d: arrival.append(sim.now))
        nic_a.send(frame)
        sim.run()
        expected = frame.wire_size * 8 / 1e6 + 1e-3
        assert arrival[0] == pytest.approx(expected)

    def test_back_to_back_frames_serialize(self, sim):
        nic_a, nic_b, _, sink_b = self._pair(sim, bandwidth=1e6, prop=0.0)
        frame1 = EthernetFrame(nic_b.mac, nic_a.mac, make_packet(1000))
        frame2 = EthernetFrame(nic_b.mac, nic_a.mac, make_packet(1000))
        arrivals = []
        nic_b.add_tap(lambda f, d: arrivals.append(sim.now))
        nic_a.send(frame1)
        nic_a.send(frame2)
        sim.run()
        per_frame = frame1.wire_size * 8 / 1e6
        assert arrivals[1] - arrivals[0] == pytest.approx(per_frame)

    def test_back_to_back_at_free_time_and_after_idle_gap(self, sim):
        # Three frames at t=0 (two wait; one is still queued after the
        # pump sends the other), one sent at the very instant the
        # transmitter frees, one after an idle gap (no event at all).
        # Delivery order and times are those of the interface that
        # scheduled an ``eth-tx`` event per frame.
        nic_a, nic_b, _, sink_b = self._pair(sim, bandwidth=1e6, prop=1e-3)
        arrivals = []
        nic_b.add_tap(lambda f, d: arrivals.append(
            (sim.now, f.packet.payload.payload_size)))

        def send(size):
            nic_a.send(EthernetFrame(nic_b.mac, nic_a.mac, make_packet(size)))

        def send_at_free_time():
            assert nic_a._free_at == sim.now
            send(200)

        for size in (1000, 500, 400):
            send(size)
        sim.at(0.016784, send_at_free_time)
        sim.at(0.1, send, 300)
        sim.run()
        assert arrivals == [(0.009528000000000002, 1000), (0.014056, 500),
                            (0.017784, 400), (0.019912, 200),
                            (0.103928, 300)]
        assert nic_a.frames_sent == 5
        # Two pumps for the frames that waited, five deliveries and the
        # two scheduled sends.
        assert sim.events_fired == 9

    def test_full_duplex(self, sim):
        nic_a, nic_b, sink_a, sink_b = self._pair(sim)
        nic_a.send(EthernetFrame(nic_b.mac, nic_a.mac, make_packet()))
        nic_b.send(EthernetFrame(nic_a.mac, nic_b.mac, make_packet()))
        sim.run()
        assert len(sink_a.frames) == 1 and len(sink_b.frames) == 1

    def test_third_attach_rejected(self, sim):
        link = Link(sim)
        for index in range(2):
            nic = EthernetInterface(sim, _Sink(), MacAddress.from_index(index))
            nic.attach_link(link)
        extra = EthernetInterface(sim, _Sink(), MacAddress.from_index(9))
        with pytest.raises(RuntimeError):
            extra.attach_link(link)

    def test_send_without_link_rejected(self, sim):
        nic = EthernetInterface(sim, _Sink(), MacAddress.from_index(1))
        with pytest.raises(RuntimeError):
            nic.send(EthernetFrame(MacAddress.broadcast(), nic.mac,
                                   make_packet()))


class TestSwitch:
    def _star(self, sim, n=3):
        switch = Switch(sim)
        nics, sinks = [], []
        for index in range(n):
            sink = _Sink()
            nic = EthernetInterface(sim, sink, MacAddress.from_index(index + 1))
            link = Link(sim)
            nic.attach_link(link)
            switch.new_port(link)
            nics.append(nic)
            sinks.append(sink)
        return switch, nics, sinks

    def test_unknown_destination_flooded(self, sim):
        switch, nics, sinks = self._star(sim)
        nics[0].send(EthernetFrame(nics[2].mac, nics[0].mac, make_packet()))
        sim.run()
        # Flooded to both other ports (destination unknown).
        assert len(sinks[1].frames) == 1 and len(sinks[2].frames) == 1
        assert switch.frames_flooded == 1

    def test_learned_destination_unicast(self, sim):
        switch, nics, sinks = self._star(sim)
        # Teach the switch where nic2 lives (this frame itself floods).
        nics[2].send(EthernetFrame(nics[0].mac, nics[2].mac, make_packet()))
        sim.run()
        flooded_to_1 = len(sinks[1].frames)
        nics[0].send(EthernetFrame(nics[2].mac, nics[0].mac, make_packet()))
        sim.run()
        assert len(sinks[2].frames) == 1
        assert len(sinks[1].frames) == flooded_to_1  # no second flood
        assert switch.frames_forwarded == 1

    def test_broadcast_floods(self, sim):
        switch, nics, sinks = self._star(sim, n=4)
        nics[0].send(EthernetFrame(MacAddress.broadcast(), nics[0].mac,
                                   make_packet()))
        sim.run()
        assert all(len(s.frames) == 1 for s in sinks[1:])

    def test_no_reflection_to_ingress(self, sim):
        switch, nics, sinks = self._star(sim)
        nics[0].send(EthernetFrame(MacAddress.broadcast(), nics[0].mac,
                                   make_packet()))
        sim.run()
        assert len(sinks[0].frames) == 0
