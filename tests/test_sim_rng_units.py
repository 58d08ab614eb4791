"""Unit tests for RNG streams and unit helpers."""

import pytest

from repro.sim.rng import RngRegistry
from repro.sim.units import TU, bytes_to_bits, mbps, ms, tu, us


class TestRngRegistry:
    def test_streams_are_cached(self):
        registry = RngRegistry(1)
        assert registry.stream("a") is registry.stream("a")

    def test_streams_are_independent(self):
        registry = RngRegistry(1)
        a_first = registry.stream("a").random()
        # Drawing from b must not change a's future sequence.
        registry2 = RngRegistry(1)
        registry2.stream("b").random()
        assert registry2.stream("a").random() == a_first

    def test_seed_derivation_stable(self):
        assert (RngRegistry(5).stream("x").random()
                == RngRegistry(5).stream("x").random())

    def test_different_names_different_sequences(self):
        registry = RngRegistry(0)
        seq_a = [registry.stream("a").random() for _ in range(5)]
        seq_b = [registry.stream("b").random() for _ in range(5)]
        assert seq_a != seq_b

    def test_names_listing(self):
        registry = RngRegistry(0)
        registry.stream("zeta")
        registry.stream("alpha")
        assert registry.names() == ["alpha", "zeta"]
        assert "alpha" in registry


class TestUnits:
    def test_ms_us(self):
        assert ms(30) == pytest.approx(0.030)
        assert us(500) == pytest.approx(0.0005)

    def test_time_unit_is_1024_us(self):
        assert TU == pytest.approx(1024e-6)
        assert tu(100) == pytest.approx(0.1024)  # the paper's beacon interval

    def test_round_trips(self):
        assert ms(17) * 1e3 == pytest.approx(17)
        assert us(250) * 1e6 == pytest.approx(250)
        assert bytes_to_bits(1500) / 8 == 1500

    def test_rates(self):
        assert mbps(54) == 54e6
