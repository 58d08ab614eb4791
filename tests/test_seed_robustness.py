"""Seed robustness: the headline shapes hold across independent seeds.

The integration tests pin shapes at one seed; these re-check the two
most important claims over several seeds, so a fluke draw cannot be
doing the work.
"""

import statistics

import pytest

from repro.testbed.scenario import ScenarioSpec, run_scenario

SEEDS = (11, 222, 3333)


class TestAcrossSeeds:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_acutemon_median_overhead_under_3ms(self, seed):
        result = run_scenario(ScenarioSpec(
            tool="acutemon", phone="nexus5", emulated_rtt=0.085, count=30,
            seed=seed))
        assert result.overheads.box("total").median < 3.3e-3

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sdio_inflation_at_1s_interval(self, seed):
        result = run_scenario(ScenarioSpec(
            tool="ping", phone="nexus5", emulated_rtt=0.030, interval=1.0,
            count=20, seed=seed))
        du = statistics.mean(result.layers["du"])
        dn = statistics.mean(result.layers["dn"])
        assert 0.008 < du - dn < 0.020  # ~one bus wake
        assert abs(dn - 0.0305) < 0.003  # network stays clean

    @pytest.mark.parametrize("seed", SEEDS)
    def test_psm_inflation_on_nexus4(self, seed):
        result = run_scenario(ScenarioSpec(
            tool="ping", phone="nexus4", emulated_rtt=0.060, interval=1.0,
            count=20, seed=seed))
        dn = statistics.mean(result.layers["dn"])
        assert dn > 0.085  # beacon buffering inflates the network RTT

    def test_seed_changes_samples_not_conclusions(self):
        medians = []
        for seed in SEEDS:
            result = run_scenario(ScenarioSpec(
                tool="acutemon", phone="nexus5", emulated_rtt=0.050, count=30,
                seed=seed))
            medians.append(statistics.median(result.user_rtts))
        # Different draws...
        assert len(set(medians)) == len(SEEDS)
        # ...same answer.
        assert max(medians) - min(medians) < 1.5e-3
