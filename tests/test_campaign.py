"""Tests for batch experiment campaigns."""

import pytest

from repro.testbed.campaign import Campaign, CellResult


class TestGrid:
    def test_cells_enumerate_full_grid(self):
        campaign = Campaign(phones=("nexus5", "nexus4"),
                            rtts=(0.02, 0.05), tools=("acutemon", "ping"))
        cells = list(campaign.cells())
        assert len(cells) == 8
        seeds = [spec.seed for spec in cells]
        assert len(set(seeds)) == 8  # unique per-cell seeds
        assert all(spec.env == "wifi" for spec in cells)

    def test_run_small_grid(self):
        campaign = Campaign(phones=("nexus5",), rtts=(0.02,),
                            tools=("acutemon", "ping"), count=5)
        visited = []
        results = campaign.run(
            progress=lambda *cell: visited.append(cell))
        assert len(results) == 2
        assert len(visited) == 2
        for result in results:
            assert len(result.rtts) == 5

    def test_acutemon_cells_carry_layers(self):
        campaign = Campaign(count=5)
        campaign.run()
        result = campaign.result_for("nexus5", 0.030, "acutemon")
        assert result is not None
        assert "dn" in result.layers and len(result.layers["dn"]) == 5

    def test_error_metric(self):
        result = CellResult("nexus5", 0.030, "acutemon", False, 0,
                            [0.0315, 0.0320, 0.0318])
        assert result.error() == pytest.approx(0.0018, abs=2e-4)

    def test_worst_error(self):
        campaign = Campaign(phones=("nexus5",), rtts=(0.03,),
                            tools=("acutemon", "ping"), count=5)
        campaign.run()
        worst, error = campaign.worst_error()
        # 1 s-interval ping is the less accurate tool by far.
        assert worst.tool == "ping"
        assert error > campaign.result_for("nexus5", 0.03,
                                           "acutemon").error()

    def test_determinism(self):
        first = Campaign(count=5)
        first.run()
        second = Campaign(count=5)
        second.run()
        assert first.results[0].rtts == second.results[0].rtts


class TestPersistence:
    def test_json_round_trip(self, tmp_path):
        campaign = Campaign(count=5)
        campaign.run()
        path = tmp_path / "campaign.json"
        campaign.save(path)
        loaded = Campaign.load(path)
        assert len(loaded) == len(campaign)
        original = campaign.results[0]
        restored = loaded.results[0]
        assert restored.key() == original.key()
        assert restored.rtts == original.rtts
        assert restored.layers == original.layers
