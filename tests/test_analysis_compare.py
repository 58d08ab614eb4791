"""Tests for distribution comparison helpers."""

import random
import sys

import pytest

from repro.analysis.compare import dominates, ks_statistic, ks_test, median_shift


class TestKs:
    def test_identical_samples_zero(self):
        sample = [1.0, 2.0, 3.0]
        assert ks_statistic(sample, sample) == 0.0

    def test_disjoint_samples_one(self):
        assert ks_statistic([1, 2, 3], [10, 11, 12]) == 1.0

    def test_matches_scipy(self):
        rng = random.Random(1)
        a = [rng.gauss(0, 1) for _ in range(200)]
        b = [rng.gauss(0.5, 1) for _ in range(150)]
        ours = ks_statistic(a, b)
        statistic, p_value = ks_test(a, b)
        assert ours == pytest.approx(statistic, abs=1e-9)
        if p_value is not None:
            assert 0 <= p_value <= 1

    def test_p_value_is_none_without_scipy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.stats", None)
        a, b = [1.0, 2.0, 3.0], [2.5, 3.5, 4.5]
        assert ks_test(a, b) == (ks_statistic(a, b), None)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic([], [1])

    def test_shifted_distributions_large_distance(self):
        rng = random.Random(2)
        a = [rng.uniform(0.030, 0.035) for _ in range(100)]
        b = [rng.uniform(0.042, 0.047) for _ in range(100)]
        assert ks_statistic(a, b) == 1.0


class TestShiftAndDominance:
    def test_median_shift_sign(self):
        assert median_shift([5, 6, 7], [1, 2, 3]) == pytest.approx(4)
        assert median_shift([1, 2, 3], [5, 6, 7]) == pytest.approx(-4)

    def test_dominance(self):
        fast = [0.030 + i * 1e-4 for i in range(50)]
        slow = [0.043 + i * 1e-4 for i in range(50)]
        assert dominates(fast, slow)
        assert not dominates(slow, fast)

    def test_dominance_with_margin(self):
        fast = [1.0, 2.0, 3.0]
        slow = [1.5, 2.5, 3.5]
        assert dominates(fast, slow)
        assert not dominates(fast, slow, margin=1.0)

    def test_overlapping_distributions_do_not_dominate(self):
        rng = random.Random(3)
        a = [rng.gauss(0, 1) for _ in range(100)]
        b = [rng.gauss(0.1, 1) for _ in range(100)]
        assert not dominates(a, b)


class TestOnMeasurementData:
    def test_acutemon_dominates_ping(self):
        from repro.testbed.experiments import tool_comparison

        results = tool_comparison("nexus5", emulated_rtt=0.030, count=25,
                                  seed=401, tools=("acutemon", "ping"))
        assert dominates(results["acutemon"], results["ping"],
                         margin=0.005)
        statistic, _p = ks_test(results["acutemon"], results["ping"])
        assert statistic == 1.0  # fully separated distributions

    def test_background_traffic_ks_small(self):
        from repro.testbed.experiments import acutemon_experiment

        with_bg = acutemon_experiment(
            "nexus5", emulated_rtt=0.030, count=30, seed=402,
            bus_sleep=False)
        without_bg = acutemon_experiment(
            "nexus5", emulated_rtt=0.030, count=30, seed=402,
            bus_sleep=False, background_enabled=False,
            warmup_enabled=False)
        statistic = ks_statistic(with_bg.user_rtts, without_bg.user_rtts)
        # Figure 9's claim, quantified: the distributions nearly coincide.
        assert statistic < 0.45
        assert abs(median_shift(with_bg.user_rtts,
                                without_bg.user_rtts)) < 1.5e-3