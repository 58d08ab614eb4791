"""Engine performance benchmarks.

Unlike the table/figure benches (one pedantic round each), these use
pytest-benchmark conventionally to track the simulator's raw speed —
useful when changing the event loop, the DCF model, or the packet
encoders, where a regression quietly multiplies every experiment's wall
time.

PR 6 raised the workloads to steady-state sizes (100k chained events,
200k batched train ticks, 3000-packet wire batches) and split the
scheduler bench in two: the chained shape exercises the heap
scheduler's general path (schedule + fire per event), the train shape
its batched fast path.  ``tests/test_perf_smoke.py`` runs one-shot miniatures of
the same shapes inside tier-1 and gates them via
``scripts/bench_compare.py``.
"""

from repro.net import wire
from repro.net.addresses import ip
from repro.net.packet import IcmpEcho, Packet, TcpSegment, UdpDatagram
from repro.sim.scheduler import Simulator
from repro.testbed.scenario import ScenarioSpec, run_scenario

_CHAIN_EVENTS = 100_000
_TRAIN_EVENTS = 200_000 + 1_999  # probe train + watchdog (see perf smoke)
_WIRE_BATCH = 3_000


def test_perf_event_loop(benchmark):
    """General-path throughput: schedule + fire chains of events."""

    def run():
        sim = Simulator(seed=1)
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < _CHAIN_EVENTS:
                sim.schedule(1e-4, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    events = benchmark(run)
    assert events == _CHAIN_EVENTS


def test_perf_train_steady_state(benchmark):
    """Batched fast path: a dense periodic train plus one watchdog."""

    def run():
        sim = Simulator(seed=1)
        count = [0]

        def tick():
            count[0] += 1

        sim.schedule_periodic(1e-4, tick, label="probe:loop")
        sim.schedule_periodic(0.01, tick, phase=0.005,
                              label="watchdog:bus")
        sim.run(until=20.0)
        return count[0]

    assert benchmark(run) == _TRAIN_EVENTS


def test_perf_wire_encoding(benchmark):
    """Scalar IPv4/transport encode+decode round trips."""
    packets = [
        Packet(ip("10.0.0.1"), ip("10.0.0.2"), IcmpEcho(8, 1, 1, 56),
               meta={"probe_id": 1}),
        Packet(ip("10.0.0.1"), ip("10.0.0.2"), UdpDatagram(1000, 2000, 512),
               meta={"probe_id": 2}),
        Packet(ip("10.0.0.1"), ip("10.0.0.2"),
               TcpSegment(1000, 80, 5, 9, 0x18, 1024),
               meta={"probe_id": 3}),
    ]

    def run():
        total = 0
        for _ in range(200):
            for packet in packets:
                total += len(wire.encode_ipv4(packet))
                wire.decode_ipv4(wire.encode_ipv4(packet))
        return total

    assert benchmark(run) > 0


def test_perf_wire_batch_round_trip(benchmark):
    """Encode + decode of 3000 probe-id-varied packets (sniffer shape),
    one scalar ``encode_ipv4`` / ``decode_ipv4`` call each."""
    src, dst = ip("10.0.0.1"), ip("10.0.0.2")
    packets = []
    for index in range(_WIRE_BATCH):
        kind = index % 3
        if kind == 0:
            payload = IcmpEcho(8, 1, index & 0xFFFF, 56)
        elif kind == 1:
            payload = UdpDatagram(40_000 + (index % 100), 33_434, 512)
        else:
            payload = TcpSegment(40_000 + (index % 100), 80,
                                 index, 0, 0x18, 1024)
        packets.append(Packet(src, dst, payload,
                              meta={"probe_id": index + 1}))

    def run():
        for packet in packets:
            wire.decode_ipv4(wire.encode_ipv4(packet))
        return len(packets)

    assert benchmark(run) == _WIRE_BATCH


def test_perf_full_ping_experiment(benchmark):
    """End-to-end cost of one small multi-layer ping experiment."""

    def run():
        result = run_scenario(ScenarioSpec(
            phone="nexus5", tool="ping", emulated_rtt=0.03, interval=0.01,
            count=20, seed=5))
        return len(result.layers["du"])

    assert benchmark.pedantic(run, rounds=3, iterations=1) == 20
