"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.boxstats import BoxStats
from repro.analysis.cdf import Cdf
from repro.analysis.stats import SummaryStats, mean_ci, percentile
from repro.net import wire
from repro.net.addresses import MacAddress, ip
from repro.net.checksum import internet_checksum, verify_checksum
from repro.net.packet import (
    IcmpEcho, Packet, TcpSegment, UdpDatagram,
)
from repro.net.queues import DropTailQueue
from repro.sim.scheduler import Simulator
from repro.testbed.scenario import ScenarioSpec

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
sample_lists = st.lists(finite_floats, min_size=1, max_size=200)


class TestChecksumProperties:
    @given(st.binary(min_size=0, max_size=512))
    def test_checksum_verifies_after_append(self, data):
        checksum = internet_checksum(data)
        if len(data) % 2:
            data = data + b"\x00"
        assert verify_checksum(data + checksum.to_bytes(2, "big"))

    @given(st.binary(min_size=0, max_size=256))
    def test_checksum_in_16bit_range(self, data):
        assert 0 <= internet_checksum(data) <= 0xFFFF


class TestWireProperties:
    @given(
        ident=st.integers(0, 0xFFFF),
        seq=st.integers(0, 0xFFFF),
        size=st.integers(0, 600),
        ttl=st.integers(1, 255),
    )
    @settings(max_examples=50)
    def test_icmp_roundtrip(self, ident, seq, size, ttl):
        packet = Packet(ip("10.0.0.1"), ip("10.0.0.2"),
                        IcmpEcho(8, ident, seq, size), ttl=ttl)
        decoded = wire.decode_ipv4(wire.encode_ipv4(packet))
        assert decoded.ttl == ttl
        assert decoded.payload.ident == ident
        assert decoded.payload.seq == seq
        assert decoded.payload.payload_size == size

    @given(
        sport=st.integers(1, 0xFFFF),
        dport=st.integers(1, 0xFFFF),
        seq=st.integers(0, 0xFFFFFFFF),
        ack=st.integers(0, 0xFFFFFFFF),
        flags=st.integers(1, 0x1F),
        size=st.integers(0, 600),
    )
    @settings(max_examples=50)
    def test_tcp_roundtrip(self, sport, dport, seq, ack, flags, size):
        segment = TcpSegment(sport, dport, seq, ack, flags, size)
        packet = Packet(ip("1.2.3.4"), ip("5.6.7.8"), segment)
        decoded = wire.decode_ipv4(wire.encode_ipv4(packet)).payload
        assert (decoded.src_port, decoded.dst_port) == (sport, dport)
        assert (decoded.seq, decoded.ack) == (seq, ack)
        assert decoded.flags == flags
        assert decoded.payload_size == size

    @given(size=st.integers(8, 600), probe_id=st.integers(1, 2 ** 63))
    @settings(max_examples=50)
    def test_probe_id_survives_udp_encoding(self, size, probe_id):
        packet = Packet(ip("1.1.1.1"), ip("2.2.2.2"),
                        UdpDatagram(1000, 2000, size),
                        meta={"probe_id": probe_id})
        decoded = wire.decode_ipv4(wire.encode_ipv4(packet))
        assert decoded.probe_id == probe_id

    @given(value=st.integers(0, (1 << 48) - 1))
    def test_mac_roundtrip(self, value):
        mac = MacAddress(value)
        assert MacAddress(str(mac)) == mac


class TestStatsProperties:
    @given(sample_lists)
    def test_mean_within_range(self, values):
        mean, _ = mean_ci(values)
        assert min(values) - 1e-9 <= mean <= max(values) + 1e-9

    @given(sample_lists)
    def test_ci_nonnegative(self, values):
        _, ci = mean_ci(values)
        assert ci >= 0

    @given(sample_lists, st.floats(0, 100))
    def test_percentile_bounded_and_monotone(self, values, q):
        p = percentile(values, q)
        assert min(values) <= p <= max(values)
        assert percentile(values, 0) <= p <= percentile(values, 100)

    @given(sample_lists)
    def test_boxstats_ordering_invariants(self, values):
        box = BoxStats(values)
        assert box.q1 <= box.median <= box.q3
        assert box.whisker_low <= box.q1
        assert box.q3 <= box.whisker_high
        assert box.whisker_low >= min(values)
        assert box.whisker_high <= max(values)
        assert len(box.outliers) < len(values) or len(values) <= 2

    @given(sample_lists)
    def test_summarystats_consistency(self, values):
        stats = SummaryStats(values)
        tolerance = 1e-9 * max(1.0, abs(stats.maximum), abs(stats.minimum))
        assert stats.minimum <= stats.median <= stats.maximum
        assert stats.minimum - tolerance <= stats.mean <= stats.maximum + tolerance
        assert stats.stdev >= 0

    @given(sample_lists, finite_floats)
    def test_cdf_monotone_probability(self, values, x):
        cdf = Cdf(values)
        assert 0.0 <= cdf.probability(x) <= 1.0
        assert cdf.probability(x) <= cdf.probability(x + 1.0)

    @given(sample_lists,
           st.floats(min_value=0.01, max_value=1.0))
    def test_cdf_quantile_probability_galois(self, values, p):
        cdf = Cdf(values)
        v = cdf.quantile(p)
        assert cdf.probability(v) >= p - 1e-9


class TestQueueProperties:
    @given(st.lists(st.integers(0, 1400), min_size=0, max_size=100),
           st.integers(1, 50))
    def test_fifo_subsequence_under_drops(self, sizes, limit):
        queue = DropTailQueue(packet_limit=limit)
        packets = [
            Packet(ip("1.1.1.1"), ip("2.2.2.2"), UdpDatagram(1, 2, s))
            for s in sizes
        ]
        accepted = [p for p in packets if queue.enqueue(p)]
        drained = []
        while True:
            item = queue.dequeue()
            if item is None:
                break
            drained.append(item)
        assert drained == accepted
        assert queue.stats.dropped == len(packets) - len(accepted)
        assert queue.bytes_queued == 0

    @given(st.lists(st.integers(0, 1400), min_size=0, max_size=60))
    def test_byte_accounting_invariant(self, sizes):
        queue = DropTailQueue(packet_limit=None, byte_limit=5000)
        expected_bytes = 0
        for size in sizes:
            packet = Packet(ip("1.1.1.1"), ip("2.2.2.2"),
                            UdpDatagram(1, 2, size))
            if queue.enqueue(packet):
                expected_bytes += packet.wire_size
            assert queue.bytes_queued == expected_bytes
            assert queue.bytes_queued <= 5000


class TestSchedulerProperties:
    @given(st.lists(st.floats(min_value=0, max_value=100,
                              allow_nan=False), min_size=0, max_size=100))
    @settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator(seed=0)
        fire_times = []
        for delay in delays:
            sim.schedule(delay, lambda: fire_times.append(sim.now))
        sim.run()
        assert fire_times == sorted(fire_times)
        assert len(fire_times) == len(delays)

    @given(st.integers(0, 1000))
    def test_run_until_never_overshoots_events(self, n_events):
        sim = Simulator(seed=0)
        fired = []
        for index in range(min(n_events, 100)):
            sim.schedule(index * 0.1, fired.append, index)
        sim.run(until=2.05)
        assert all(i * 0.1 <= 2.05 for i in fired)


@st.composite
def scenario_specs(draw):
    """Valid, fully-parameterised scenario specs across both env families."""
    env = draw(st.sampled_from(("wifi", "cellular-3g", "cellular-lte")))
    return ScenarioSpec(
        env=env,
        phone=draw(st.sampled_from(("nexus5", "nexus4", "htc_one"))),
        tool=draw(st.sampled_from(("acutemon", "ping", "httping"))),
        emulated_rtt=draw(st.floats(min_value=0.005, max_value=0.2,
                                    allow_nan=False)),
        count=draw(st.integers(1, 50)),
        seed=draw(st.integers(0, 2 ** 31)),
        # Cross traffic and keeping the SDIO bus awake (bus_sleep=False)
        # are WiFi-only capabilities.
        cross_traffic=draw(st.booleans()) if env == "wifi" else False,
        bus_sleep=draw(st.booleans()) if env == "wifi" else True,
        observe=draw(st.booleans()),
    )


class TestFingerprintProperties:
    """The checkpoint cache key (docs/RESILIENCE.md): equal content ⇔
    equal fingerprint, stable across JSON round-trips."""

    @given(spec=scenario_specs())
    @settings(max_examples=50)
    def test_fingerprint_stable_across_json_round_trip(self, spec):
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored.fingerprint() == spec.fingerprint()

    @given(spec=scenario_specs())
    @settings(max_examples=50)
    def test_rebuilding_from_payload_preserves_fingerprint(self, spec):
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.fingerprint() == spec.fingerprint()
        assert clone.canonical_json() == spec.canonical_json()

    @given(a=scenario_specs(), b=scenario_specs())
    @settings(max_examples=100)
    def test_fingerprints_agree_exactly_when_content_does(self, a, b):
        assert (a.fingerprint() == b.fingerprint()) \
            == (a.to_dict() == b.to_dict())

    @given(spec=scenario_specs(), delta=st.integers(1, 10_000))
    @settings(max_examples=50)
    def test_seed_shift_always_moves_the_fingerprint(self, spec, delta):
        assert spec.replace(seed=spec.seed + delta).fingerprint() \
            != spec.fingerprint()
