"""Tests for campaign execution through ``Campaign.run``.

The load-bearing property is *bit-identical determinism*: a pooled
multi-process run must produce exactly the results of the in-process
path, cell for cell, byte for byte, for any worker count.
"""

import json

import pytest

from repro.testbed import campaign as campaign_module
from repro.testbed.campaign import Campaign, CellResult, run_cell
from repro.testbed.fabric import (
    FabricRunner, MultiprocessTransport, run_shard_payload,
)


def small_grid(**overrides):
    """A fast 2x2x2 grid (8 cells, 3 probes each)."""
    params = dict(phones=("nexus5", "nexus4"), rtts=(0.02, 0.05),
                  tools=("acutemon", "ping"), count=3)
    params.update(overrides)
    return Campaign(**params)


def serialized(campaign):
    return json.dumps([result.to_dict() for result in campaign.results],
                      sort_keys=True)


class TestDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self):
        baseline = small_grid()
        baseline.run(workers=1)
        reference = serialized(baseline)
        for workers in (2, 4):
            campaign = small_grid()
            campaign.run(workers=workers)
            assert serialized(campaign) == reference, (
                f"workers={workers} diverged from serial run")

    def test_parallel_preserves_grid_order(self):
        campaign = small_grid()
        campaign.run(workers=4)
        expected = [spec.key() for spec in campaign.cells()]
        assert [result.key() for result in campaign.results] == expected

    def test_run_cell_matches_campaign_cell(self):
        campaign = small_grid(phones=("nexus5",), rtts=(0.02,),
                              tools=("ping",))
        campaign.run()
        (spec,) = campaign.cells()
        direct = run_cell(spec)
        assert direct.to_dict() == campaign.results[0].to_dict()


class TestSharding:
    def test_empty_grid(self):
        campaign = small_grid(phones=())
        runner = FabricRunner(campaign, workers=4)
        assert runner.run() == []
        assert campaign.results == []
        assert list(runner.plan.cells()) == []

    def test_single_cell(self):
        campaign = small_grid(phones=("nexus5",), rtts=(0.02,),
                              tools=("ping",))
        results = campaign.run(workers=4)
        assert len(results) == 1
        assert results[0].key() == ("wifi", "nexus5", 0.02, "ping", False)

    def test_more_workers_than_cells(self):
        campaign = small_grid(phones=("nexus5",), rtts=(0.02, 0.05),
                              tools=("ping",))
        reference = small_grid(phones=("nexus5",), rtts=(0.02, 0.05),
                               tools=("ping",))
        reference.run(workers=1)
        campaign.run(workers=16)
        assert serialized(campaign) == serialized(reference)

    def test_run_shard_round_trips_payloads(self):
        campaign = small_grid(phones=("nexus5",), rtts=(0.02,),
                              tools=("ping",))
        cells = list(campaign.cells())
        records = run_shard_payload(
            {"shard": 0, "collect_metrics": False, "policy": None,
             "specs": [spec.to_dict() for spec in cells]})
        assert len(records) == 1
        assert records[0]["attempts"] == 1
        assert records[0]["timeouts"] == 0
        restored = CellResult.from_dict(records[0]["cell"])
        assert restored.key() == ("wifi", "nexus5", 0.02, "ping", False)
        assert len(restored.rtts) == campaign.count
        assert restored.metrics is None

    def test_run_shard_carries_metrics_when_asked(self):
        campaign = small_grid(phones=("nexus5",), rtts=(0.02,),
                              tools=("ping",))
        cells = list(campaign.cells())
        records = run_shard_payload(
            {"shard": 0, "collect_metrics": True, "policy": None,
             "specs": [spec.to_dict() for spec in cells]})
        restored = CellResult.from_dict(records[0]["cell"])
        assert restored.metrics is not None
        names = {entry["name"] for entry in restored.metrics["metrics"]}
        assert "scheduler_events_fired" in names


class TestFallbacksAndProgress:
    def test_unavailable_start_method_falls_back_to_serial(
            self, monkeypatch):
        campaign = small_grid(phones=("nexus5",), rtts=(0.02,),
                              tools=("ping",))
        reference = small_grid(phones=("nexus5",), rtts=(0.02,),
                               tools=("ping",))
        reference.run()
        # No usable start method: the pool context is None.
        monkeypatch.setattr("repro.testbed.fabric.pool_context",
                            lambda: None)
        transport = MultiprocessTransport(workers=4)
        runner = FabricRunner(campaign, workers=4, transport=transport)
        results = runner.run()
        assert len(results) == 1
        assert serialized(campaign) == serialized(reference)
        counters = {metric["name"]: metric["value"]
                    for metric in campaign.run_metrics["metrics"]}
        assert counters.get("campaign.shards_stolen", 0) == 0

    def test_workers_one_runs_in_process(self):
        campaign = small_grid(phones=("nexus5",), rtts=(0.02,),
                              tools=("ping",))
        runner = FabricRunner(campaign, workers=1)
        runner.run()
        assert runner.plan is None
        assert len(campaign.results) == 1

    def test_progress_called_once_per_cell_parallel(self):
        campaign = small_grid(tools=("ping",))
        seen = []
        campaign.run(workers=2,
                     progress=lambda spec: seen.append(spec.key()))
        assert sorted(seen) == sorted(
            spec.key() for spec in campaign.cells())

    def test_campaign_run_workers_none_uses_cpu_count(self):
        campaign = small_grid(phones=("nexus5",), rtts=(0.02,),
                              tools=("ping",))
        reference = small_grid(phones=("nexus5",), rtts=(0.02,),
                               tools=("ping",))
        reference.run()
        campaign.run(workers=None)
        assert serialized(campaign) == serialized(reference)


class TestCheckpointResume:
    """Journal/resume plumbing at the runner level; the chaos suite
    (tests/test_campaign_chaos.py) covers crash scenarios."""

    def test_checkpointed_run_matches_plain_run(self, tmp_path):
        plain = small_grid(tools=("ping",))
        plain.run(workers=1)
        checkpointed = small_grid(tools=("ping",))
        checkpointed.run(workers=1,
                         checkpoint=tmp_path / "sweep.jsonl")
        assert serialized(checkpointed) == serialized(plain)

    def test_parallel_checkpoint_then_serial_resume(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        first = small_grid(tools=("ping",))
        first.run(workers=4, checkpoint=checkpoint)
        resumed = small_grid(tools=("ping",))
        resumed.run(workers=1, checkpoint=checkpoint, resume=True)
        assert serialized(resumed) == serialized(first)
        counters = {metric["name"]: metric["value"]
                    for metric in resumed.run_metrics["metrics"]}
        assert counters["campaign.cells_resumed"] == 4

    def test_resume_without_checkpoint_raises(self):
        campaign = small_grid(tools=("ping",))
        runner = FabricRunner(campaign, workers=2)
        with pytest.raises(ValueError, match="checkpoint"):
            runner.run(resume=True)


class TestProgressExactlyOnce:
    """``progress`` fires exactly once per cell in every mode."""

    def counted(self, campaign, **run_kwargs):
        from collections import Counter
        seen = Counter()
        campaign.run(progress=lambda spec: seen.update([spec.key()]),
                     **run_kwargs)
        expected = Counter(spec.key() for spec in campaign.cells())
        return seen, expected

    def test_serial_plain(self):
        seen, expected = self.counted(small_grid(tools=("ping",)),
                                      workers=1)
        assert seen == expected

    def test_serial_resilient(self, tmp_path):
        seen, expected = self.counted(
            small_grid(tools=("ping",)), workers=1,
            checkpoint=tmp_path / "sweep.jsonl", retries=1)
        assert seen == expected

    def test_parallel(self):
        seen, expected = self.counted(small_grid(tools=("ping",)),
                                      workers=4)
        assert seen == expected

    def test_resumed_cells_still_fire(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        first = small_grid(tools=("ping",))
        first.run(workers=1, checkpoint=checkpoint)
        seen, expected = self.counted(
            small_grid(tools=("ping",)), workers=1,
            checkpoint=checkpoint, resume=True)
        assert seen == expected


class TestProgressTiming:
    """In-process runs fire ``progress(spec)`` immediately before
    ``campaign.run_cell(spec)``, for every cell, in grid order."""

    def events(self, campaign, monkeypatch, **run_kwargs):
        real = campaign_module.run_cell
        events = []

        def recording_run_cell(spec, collect_metrics=False):
            events.append(("run", spec.key()))
            return real(spec, collect_metrics=collect_metrics)

        monkeypatch.setattr(campaign_module, "run_cell", recording_run_cell)
        campaign.run(progress=lambda spec: events.append(("progress",
                                                          spec.key())),
                     **run_kwargs)
        expected = []
        for spec in campaign.cells():
            expected += [("progress", spec.key()), ("run", spec.key())]
        return events, expected

    def test_plain_run(self, monkeypatch):
        events, expected = self.events(small_grid(tools=("ping",)),
                                       monkeypatch)
        assert events == expected

    def test_checkpointed_run(self, monkeypatch, tmp_path):
        events, expected = self.events(
            small_grid(tools=("ping",)), monkeypatch,
            checkpoint=tmp_path / "sweep.jsonl")
        assert events == expected

    def test_store_run(self, monkeypatch, tmp_path):
        events, expected = self.events(
            small_grid(tools=("ping",)), monkeypatch,
            store=tmp_path / "store")
        assert events == expected


class TestRunArguments:
    """``workers`` and ``shards`` are each ``None`` or an int >= 1."""

    @pytest.mark.parametrize("kwargs", [
        dict(workers=0), dict(workers=-3), dict(workers=True),
        dict(workers=2.0), dict(workers=0, shards=4), dict(shards=0),
        dict(shards=-1), dict(shards=False), dict(shards="2"),
    ])
    def test_invalid_counts_raise(self, kwargs, monkeypatch):
        def must_not_run(spec, collect_metrics=False):
            raise AssertionError("a cell ran despite invalid arguments")

        monkeypatch.setattr(campaign_module, "run_cell", must_not_run)
        campaign = small_grid(tools=("ping",))
        with pytest.raises(ValueError, match="must be None or an int"):
            campaign.run(**kwargs)


class TestResultIndex:
    def test_result_for_after_run(self):
        campaign = small_grid(tools=("ping",))
        campaign.run()
        result = campaign.result_for("nexus4", 0.05, "ping")
        assert result is not None
        assert result.key() == ("wifi", "nexus4", 0.05, "ping", False)
        assert campaign.result_for("nexus4", 0.05, "acutemon") is None

    def test_result_for_after_direct_assignment(self):
        campaign = Campaign(count=3)
        campaign.results = [CellResult("nexus5", 0.03, "ping", False, 0,
                                       [0.031])]
        assert campaign.result_for("nexus5", 0.03, "ping").rtts == [0.031]

    def test_result_for_after_merge(self):
        first = Campaign(count=3)
        first.results = [CellResult("nexus5", 0.03, "ping", False, 0,
                                    [0.031])]
        second = Campaign(count=3)
        second.results = [CellResult("nexus4", 0.03, "ping", False, 1,
                                     [0.032])]
        merged = Campaign(count=3)
        merged.results = first.results + second.results
        assert merged.result_for("nexus4", 0.03, "ping").seed == 1
        assert merged.result_for("nexus5", 0.03, "ping").seed == 0

    def test_result_for_after_load(self, tmp_path):
        campaign = Campaign(count=3)
        campaign.results = [CellResult("nexus5", 0.03, "ping", False, 0,
                                       [0.031])]
        path = tmp_path / "campaign.json"
        campaign.save(path)
        loaded = Campaign.load(path)
        assert loaded.result_for("nexus5", 0.03, "ping").rtts == [0.031]

    def test_first_result_wins_on_duplicate_keys(self):
        campaign = Campaign(count=3)
        campaign.results = [
            CellResult("nexus5", 0.03, "ping", False, 0, [0.031]),
            CellResult("nexus5", 0.03, "ping", False, 9, [0.099]),
        ]
        assert campaign.result_for("nexus5", 0.03, "ping").seed == 0


class TestMetricsDeterminism:
    """collect_metrics snapshots must be identical serial vs parallel."""

    GRID = dict(phones=("nexus5",), rtts=(0.02, 0.05),
                tools=("acutemon", "ping"), count=3)

    def test_parallel_merged_metrics_match_serial(self):
        serial = small_grid(**self.GRID)
        serial.run(workers=1, collect_metrics=True)
        reference = json.dumps(serial.merged_metrics(), sort_keys=True)
        assert serial.merged_metrics() is not None
        for workers in (2, 4):
            campaign = small_grid(**self.GRID)
            campaign.run(workers=workers, collect_metrics=True)
            merged = json.dumps(campaign.merged_metrics(), sort_keys=True)
            assert merged == reference, (
                f"workers={workers} merged metrics diverged")

    def test_collect_metrics_does_not_change_measurements(self):
        plain = small_grid(**self.GRID)
        plain.run(workers=1)
        observed = small_grid(**self.GRID)
        observed.run(workers=1, collect_metrics=True)
        for a, b in zip(plain.results, observed.results):
            assert a.rtts == b.rtts
            assert a.layers == b.layers

    def test_merged_metrics_none_without_collection(self):
        campaign = small_grid(phones=("nexus5",), rtts=(0.02,),
                              tools=("ping",))
        campaign.run(workers=1)
        assert campaign.merged_metrics() is None

    def test_metrics_survive_save_load(self, tmp_path):
        campaign = small_grid(phones=("nexus5",), rtts=(0.02,),
                              tools=("ping",))
        campaign.run(workers=1, collect_metrics=True)
        path = tmp_path / "campaign.json"
        campaign.save(path)
        loaded = Campaign.load(path)
        assert json.dumps(loaded.merged_metrics(), sort_keys=True) == \
            json.dumps(campaign.merged_metrics(), sort_keys=True)


class TestEnvironmentAxis:
    """One grid sweeping WiFi and cellular cells side by side."""

    GRID = dict(envs=("wifi", "cellular-lte"), phones=("nexus5",),
                rtts=(0.02, 0.05), tools=("acutemon", "ping"), count=3)

    def test_mixed_env_parallel_matches_serial_bit_for_bit(self):
        baseline = small_grid(**self.GRID)
        baseline.run(workers=1)
        reference = serialized(baseline)
        assert {r.env for r in baseline.results} == {"wifi",
                                                     "cellular-lte"}
        for workers in (2, 4):
            campaign = small_grid(**self.GRID)
            campaign.run(workers=workers)
            assert serialized(campaign) == reference, (
                f"workers={workers} diverged on the mixed-env grid")

    def test_mixed_env_merged_metrics_identical(self):
        serial = small_grid(**self.GRID)
        serial.run(workers=1, collect_metrics=True)
        reference = json.dumps(serial.merged_metrics(), sort_keys=True)
        parallel = small_grid(**self.GRID)
        parallel.run(workers=3, collect_metrics=True)
        merged = json.dumps(parallel.merged_metrics(), sort_keys=True)
        assert merged == reference
        # Cellular cells contribute RRC metrics into the same fold.
        assert "rrc" in reference or "cell" in reference or \
            "scheduler_events_fired" in reference

    def test_env_axis_outermost_keeps_single_env_seeds(self):
        # A wifi-only grid must assign the exact seeds it did before
        # the environment axis existed: base_seed + index * 7919.
        campaign = small_grid()
        for index, spec in enumerate(campaign.cells()):
            assert spec.seed == campaign.base_seed + index * 7919
            assert spec.env == "wifi"

    def test_result_for_distinguishes_envs(self):
        campaign = small_grid(envs=("wifi", "cellular-lte"),
                              phones=("nexus5",), rtts=(0.02,),
                              tools=("ping",))
        campaign.run()
        wifi = campaign.result_for("nexus5", 0.02, "ping")
        cell = campaign.result_for("nexus5", 0.02, "ping",
                                   env="cellular-lte")
        assert wifi is not None and cell is not None
        assert wifi.env == "wifi" and cell.env == "cellular-lte"
        assert wifi.seed != cell.seed

    def test_env_survives_save_load(self, tmp_path):
        campaign = small_grid(envs=("cellular-lte",), phones=("nexus5",),
                              rtts=(0.02,), tools=("ping",))
        campaign.run()
        path = tmp_path / "campaign.json"
        campaign.save(path)
        loaded = Campaign.load(path)
        assert loaded.envs == ("cellular-lte",)
        assert loaded.results[0].env == "cellular-lte"
        assert loaded.results[0].key() == campaign.results[0].key()

    def test_legacy_payload_defaults_to_wifi(self):
        restored = CellResult.from_dict({
            "phone": "nexus5", "rtt": 0.03, "tool": "ping",
            "cross_traffic": False, "seed": 0, "rtts": [0.031],
        })
        assert restored.env == "wifi"
        assert restored.key() == ("wifi", "nexus5", 0.03, "ping", False)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_acceptance_grid_is_stable(workers):
    """The ISSUE's acceptance grid: 2x2x2 cells, any worker count."""
    campaign = small_grid()
    campaign.run(workers=workers)
    assert len(campaign.results) == 8
    for result in campaign.results:
        assert len(result.rtts) == 3
