"""Tests for the statistics and rendering helpers."""

import math
import sys

import pytest

from repro.analysis.boxstats import BoxStats
from repro.analysis.cdf import Cdf
from repro.analysis.render import (
    Table, fmt_mean_ci, fmt_ms, render_boxplot_row, render_cdf,
)
from repro.analysis import stats as stats_module
from repro.analysis.stats import (
    _T95, SummaryStats, _t_quantile, mean_ci, percentile,
)


class TestMeanCi:
    def test_known_values(self):
        mean, ci = mean_ci([1.0, 2.0, 3.0, 4.0, 5.0])
        assert mean == pytest.approx(3.0)
        # s = sqrt(2.5), sem = s/sqrt(5), t(4, 0.975) = 2.776.
        expected = 2.7764 * math.sqrt(2.5 / 5)
        assert ci == pytest.approx(expected, rel=1e-3)

    def test_single_sample_zero_ci(self):
        mean, ci = mean_ci([7.0])
        assert (mean, ci) == (7.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ci([])

    def test_ci_shrinks_with_n(self):
        import random

        rng = random.Random(1)
        small = mean_ci([rng.gauss(0, 1) for _ in range(10)])[1]
        large = mean_ci([rng.gauss(0, 1) for _ in range(1000)])[1]
        assert large < small

    def test_constant_series_zero_ci(self):
        assert mean_ci([2.0] * 50) == (2.0, 0.0)


def _hide_scipy(monkeypatch):
    """Make ``from scipy import stats`` raise ImportError."""
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.stats", None)


class TestStudentTTable:
    """The built-in 95% table is scipy's own values, so reports are
    byte-identical with or without scipy for up to 101 samples."""

    def test_table_is_scipy_exact(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        assert len(_T95) == 100
        for df in range(1, len(_T95) + 1):
            assert _T95[df - 1] == float(scipy_stats.t.ppf(0.975, df)), df

    def test_mean_ci_identical_without_scipy(self, monkeypatch):
        import random

        rng = random.Random(7)
        samples = [[rng.gauss(0.03, 0.004) for _ in range(n)]
                   for n in range(1, 102)]
        with_scipy = [mean_ci(values) for values in samples]
        _hide_scipy(monkeypatch)
        without_scipy = [mean_ci(values) for values in samples]
        assert without_scipy == with_scipy

    def test_beyond_table_uses_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for df in (101, 150, 1000):
            assert _t_quantile(df) == float(scipy_stats.t.ppf(0.975, df))
            assert stats_module._t95_beyond_table[df] == _t_quantile(df)

    def test_beyond_table_without_scipy_is_close(self, monkeypatch):
        monkeypatch.setattr(stats_module, "_t95_beyond_table", {})
        _hide_scipy(monkeypatch)
        # Exact quantiles from scipy; the Cornish-Fisher fallback is
        # within 3e-6 of them past the table.
        for df, exact in ((101, 1.983731002955606),
                          (150, 1.9759053308966201),
                          (1000, 1.9623390808264083)):
            assert _t_quantile(df) == pytest.approx(exact, abs=3e-6)
        assert stats_module._t95_beyond_table == {}

    def test_other_confidence_levels(self, monkeypatch):
        scipy_stats = pytest.importorskip("scipy.stats")
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        _mean, half = mean_ci(values, confidence=0.99)
        expected = float(scipy_stats.t.ppf(0.995, 4)) * math.sqrt(2.5 / 5)
        assert half == pytest.approx(expected, rel=1e-12)
        _hide_scipy(monkeypatch)
        with pytest.raises(ValueError, match="require scipy"):
            mean_ci(values, confidence=0.99)


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_median_even_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)

    def test_extremes(self):
        data = list(range(101))
        assert percentile(data, 0) == 0
        assert percentile(data, 100) == 100
        assert percentile(data, 25) == pytest.approx(25)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestSummaryStats:
    def test_fields(self):
        stats = SummaryStats([5, 1, 3])
        assert stats.minimum == 1 and stats.maximum == 5
        assert stats.mean == pytest.approx(3)
        assert stats.median == 3
        assert stats.n == 3

    def test_scaled(self):
        stats = SummaryStats([1.0, 2.0]).scaled(1000)
        assert stats.mean == pytest.approx(1500)


class TestBoxStats:
    def test_quartiles(self):
        box = BoxStats(list(range(1, 101)))
        assert box.median == pytest.approx(50.5)
        assert box.q1 == pytest.approx(25.75)
        assert box.q3 == pytest.approx(75.25)

    def test_outliers_excluded_from_whiskers(self):
        data = [1.0] * 10 + [2.0] * 10 + [100.0]  # obvious outlier
        box = BoxStats(data)
        assert 100.0 in box.outliers
        assert box.whisker_high <= 2.0

    def test_no_outliers_whiskers_are_extremes(self):
        data = [1, 2, 3, 4, 5, 6, 7, 8]
        box = BoxStats(data)
        assert box.whisker_low == 1 and box.whisker_high == 8
        assert box.outliers == []

    def test_degenerate_constant_data(self):
        box = BoxStats([5.0] * 10)
        assert box.median == box.q1 == box.q3 == 5.0
        assert box.iqr == 0.0
        assert box.outliers == []

    def test_outlier_fraction(self):
        data = [0.0] * 99 + [1000.0]
        assert BoxStats(data).outlier_fraction == pytest.approx(0.01)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxStats([])


class TestCdf:
    def test_probability_monotone(self):
        cdf = Cdf([1, 2, 3, 4, 5])
        assert cdf.probability(0) == 0.0
        assert cdf.probability(3) == pytest.approx(0.6)
        assert cdf.probability(10) == 1.0

    def test_quantile_inverse_of_probability(self):
        cdf = Cdf(list(range(100)))
        assert cdf.quantile(0.5) == 49
        assert cdf.quantile(1.0) == 99
        assert cdf.quantile(0.01) == 0

    def test_median(self):
        assert Cdf([1, 2, 3]).median == 2

    def test_shift_versus(self):
        slow = Cdf([11, 12, 13, 14, 15])
        fast = Cdf([1, 2, 3, 4, 5])
        shifts = slow.shift_versus(fast)
        assert all(s == pytest.approx(10) for s in shifts.values())

    def test_quantile_bounds_checked(self):
        cdf = Cdf([1])
        with pytest.raises(ValueError):
            cdf.quantile(0.0)

    def test_points_form_step_function(self):
        points = Cdf([1, 2]).points()
        assert points == [(1, 0.5), (2, 1.0)]


class TestRendering:
    def test_table_alignment(self):
        table = Table(["Phone", "RTT"], title="Demo")
        table.add_row("Nexus 5", "33.16")
        table.add_row("HTC One", "21.8")
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "Phone" in lines[1] and "RTT" in lines[1]
        assert len(lines) == 5

    def test_table_cell_count_enforced(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_fmt_helpers(self):
        assert fmt_ms(0.03316) == "33.16"
        stats = SummaryStats([0.030, 0.032])
        text = fmt_mean_ci(stats)
        assert text.startswith("31.00±")

    def test_boxplot_row_renders(self):
        box = BoxStats([0.001, 0.002, 0.003])
        text = render_boxplot_row("test", box)
        assert "median=" in text and "whiskers=" in text

    def test_cdf_row_renders(self):
        text = render_cdf(Cdf([0.03, 0.04]), label="ping")
        assert text.startswith("ping")
        assert "p50=" in text
