"""Tests for the sharded campaign fabric (planner, transports, runner).

Two layers of guarantees are pinned here:

* **Planner algebra** — Hypothesis properties: for every grid and every
  shard count 1..8, the planned shards are an *exact partition* of the
  grid (each cell in exactly one shard), assignment is the pure
  function ``shard_index(fingerprint, n)``.
* **The ISSUE acceptance matrix** — a 200-cell mixed WiFi+cellular
  campaign produces byte-identical results, merged metrics, and all
  three decomposition report formats across serial, 4-worker parallel,
  4-shard fabric, crash-then-resume, and cache-warm execution — and
  the cache-warm run executes zero cells.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.chaos import ChaosInjector, SimulatedCrash, crash_after
from repro.analysis.decompose import decompose_campaign, render_report
from repro.testbed.campaign import Campaign
from repro.testbed.fabric import (
    FabricRunner, InProcessTransport, MultiprocessTransport, ShardPlan,
    plan_shards, shard_index,
)
from repro.testbed.store import ResultStore

REPORT_FORMATS = ("text", "json", "prom")


def serialized(campaign):
    return json.dumps([result.to_dict() for result in campaign.results],
                      sort_keys=True)


def counters(campaign):
    return {metric["name"]: metric["value"]
            for metric in campaign.run_metrics["metrics"]}


def grid_cells(**grid):
    return list(enumerate(Campaign(**grid).cells()))


# -- planner units ------------------------------------------------------------


class TestShardIndex:
    def test_pure_function_of_fingerprint_and_count(self):
        fingerprint = "ab" * 32
        assert shard_index(fingerprint, 4) \
            == shard_index(fingerprint, 4)
        assert 0 <= shard_index(fingerprint, 4) < 4
        assert shard_index(fingerprint, 1) == 0

    def test_rejects_non_positive_counts(self):
        with pytest.raises(ValueError, match="shard_count"):
            shard_index("00" * 32, 0)

    def test_uses_leading_64_bits(self):
        # Two fingerprints differing only past the key prefix collide.
        a = "f" * 16 + "0" * 48
        b = "f" * 16 + "1" * 48
        assert shard_index(a, 7) == shard_index(b, 7)


class TestPlanShards:
    GRID = dict(envs=("wifi", "cellular-lte"), phones=("nexus5",),
                rtts=(0.02, 0.05), tools=("acutemon", "ping"), count=2)

    def test_assignments_follow_the_hash(self):
        cells = grid_cells(**self.GRID)
        plan = plan_shards(cells, 4)
        assert plan.shard_count == 4
        for sid, shard in enumerate(plan.shards):
            for index, spec in shard:
                fingerprint = spec.fingerprint()
                assert shard_index(fingerprint, 4) == sid
                assert plan.assignments[fingerprint] == sid

    def test_precomputed_fingerprints_change_nothing(self):
        cells = grid_cells(**self.GRID)
        fingerprints = [spec.fingerprint() for _, spec in cells]
        assert plan_shards(cells, 3).assignments \
            == plan_shards(cells, 3,
                           fingerprints=fingerprints).assignments

    def test_cells_iterates_shard_major(self):
        cells = grid_cells(**self.GRID)
        plan = plan_shards(cells, 4)
        flat = list(plan.cells())
        assert flat == [cell for shard in plan.shards for cell in shard]
        assert sorted(flat) == cells

    def test_repr_shows_shard_sizes(self):
        plan = plan_shards(grid_cells(**self.GRID), 2)
        assert "ShardPlan" in repr(plan)


# -- planner properties -------------------------------------------------------

grids = st.fixed_dictionaries({
    "envs": st.lists(
        st.sampled_from(["wifi", "cellular-lte", "cellular-3g"]),
        min_size=1, max_size=2, unique=True).map(tuple),
    "phones": st.lists(
        st.sampled_from(["nexus5", "nexus4", "htc_one"]),
        min_size=1, max_size=2, unique=True).map(tuple),
    "rtts": st.lists(
        st.floats(min_value=0.005, max_value=0.2,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=3, unique=True).map(tuple),
    "tools": st.lists(st.sampled_from(["acutemon", "ping", "httping"]),
                      min_size=1, max_size=2, unique=True).map(tuple),
    "count": st.integers(1, 2),
    "base_seed": st.integers(0, 2 ** 16),
})


class TestPlannerProperties:
    @given(grid=grids, shard_count=st.integers(1, 8))
    @settings(max_examples=50,
              suppress_health_check=[HealthCheck.too_slow])
    def test_shards_are_an_exact_partition(self, grid, shard_count):
        cells = grid_cells(**grid)
        plan = plan_shards(cells, shard_count)
        assert len(plan.shards) == shard_count
        flat = sorted(plan.cells())
        assert flat == cells  # every cell exactly once, none invented
        assert len(plan.assignments) == len(cells)
        for sid, shard in enumerate(plan.shards):
            for _, spec in shard:
                assert shard_index(spec.fingerprint(), shard_count) \
                    == sid


# -- transports ---------------------------------------------------------------


class TestInProcessTransport:
    GRID = dict(envs=("wifi",), phones=("nexus5",), rtts=(0.02, 0.05),
                tools=("acutemon", "ping"), count=2)

    def _tasks(self):
        plan = plan_shards(grid_cells(**self.GRID), 3)
        return [{"shard": sid, "collect_metrics": False, "policy": None,
                 "specs": [spec.to_dict() for _, spec in shard]}
                for sid, shard in enumerate(plan.shards) if shard], plan

    def test_dispatch_yields_in_task_order(self):
        tasks, plan = self._tasks()
        out = list(InProcessTransport().dispatch(tasks))
        assert [sid for sid, _, _ in out] \
            == [task["shard"] for task in tasks]
        for (sid, records, error), task in zip(out, tasks):
            assert error is None
            assert len(records) == len(task["specs"])

    def test_failed_task_reports_error_not_raise(self):
        tasks, _ = self._tasks()
        tasks[0]["specs"] = [{"malformed": True}]
        out = list(InProcessTransport().dispatch(tasks))
        sid, records, error = out[0]
        assert records is None and error is not None
        # Later tasks are unaffected by the earlier failure.
        assert all(err is None for _, _, err in out[1:])

    def test_multiprocess_transport_empty_dispatch(self):
        assert list(MultiprocessTransport().dispatch([])) == []


# -- the acceptance matrix ----------------------------------------------------

#: The ISSUE's acceptance grid: 2 envs x 1 phone x 50 RTTs x 2 tools
#: x 1 repeat = 200 mixed WiFi+cellular cells.
ACCEPT_GRID = dict(envs=("wifi", "cellular-lte"), phones=("nexus5",),
                   rtts=tuple(0.01 + 0.002 * i for i in range(50)),
                   tools=("acutemon", "ping"), count=1)


@pytest.fixture(scope="module")
def accept():
    """The uninterrupted serial reference every mode must reproduce."""
    campaign = Campaign(**ACCEPT_GRID)
    campaign.run(workers=1, collect_metrics=True)
    assert len(campaign.results) == 200
    report = decompose_campaign(campaign)
    return {
        "results": serialized(campaign),
        "metrics": json.dumps(campaign.merged_metrics(), sort_keys=True),
        "reports": {fmt: render_report(report, fmt)
                    for fmt in REPORT_FORMATS},
        "seeds": [result.seed for result in campaign.results],
    }


def assert_matches_reference(campaign, accept):
    """Byte-identical results, merged metrics, and all three reports."""
    assert campaign.quarantine == []
    assert serialized(campaign) == accept["results"]
    assert json.dumps(campaign.merged_metrics(), sort_keys=True) \
        == accept["metrics"]
    report = decompose_campaign(campaign)
    for fmt in REPORT_FORMATS:
        assert render_report(report, fmt) == accept["reports"][fmt]


class TestAcceptanceMatrix:
    def test_parallel_four_workers(self, accept):
        campaign = Campaign(**ACCEPT_GRID)
        campaign.run(workers=4, collect_metrics=True)
        assert_matches_reference(campaign, accept)

    def test_sharded_four_shards(self, accept):
        campaign = Campaign(**ACCEPT_GRID)
        campaign.run(shards=4, collect_metrics=True)
        assert_matches_reference(campaign, accept)
        stats = counters(campaign)
        assert stats["campaign.shards_planned"] == 4
        assert stats["campaign.cells_run"] == 200

    def test_sharded_in_process_transport(self, accept):
        campaign = Campaign(**ACCEPT_GRID)
        runner = FabricRunner(campaign, shard_count=4,
                              transport=InProcessTransport())
        runner.run(collect_metrics=True)
        assert runner.plan.shard_count == 4
        assert_matches_reference(campaign, accept)

    def test_crash_then_resume(self, accept, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        crashed = Campaign(**ACCEPT_GRID)
        with pytest.MonkeyPatch.context() as mp:
            crash_after(97, mp)
            with pytest.raises(SimulatedCrash):
                crashed.run(workers=1, checkpoint=checkpoint,
                            collect_metrics=True)
        resumed = Campaign(**ACCEPT_GRID)
        resumed.run(workers=1, checkpoint=checkpoint, resume=True,
                    collect_metrics=True)
        assert_matches_reference(resumed, accept)
        stats = counters(resumed)
        assert stats["campaign.cells_resumed"] == 97
        assert stats["campaign.cells_run"] == 103

    def test_cache_warm_executes_zero_cells(self, accept, tmp_path):
        root = tmp_path / "store"
        cold = Campaign(**ACCEPT_GRID)
        cold.run(workers=1, collect_metrics=True,
                 store=ResultStore(root))
        assert_matches_reference(cold, accept)
        assert counters(cold)["campaign.store_writes"] == 200
        # The warm run must never reach run_cell: every cell is served
        # from the store, and the injector would fail any execution.
        injector = ChaosInjector(always_fail=set(accept["seeds"]))
        with pytest.MonkeyPatch.context() as mp:
            injector.install(mp)
            warm = Campaign(**ACCEPT_GRID)
            warm.run(workers=1, collect_metrics=True,
                     store=ResultStore(root))
        assert injector.calls == {}
        assert_matches_reference(warm, accept)
        stats = counters(warm)
        assert stats["campaign.cache_hits"] == 200
        assert stats.get("campaign.cells_run", 0) == 0
        assert stats.get("campaign.store_writes", 0) == 0

    def test_sharded_warm_also_executes_zero_cells(self, accept,
                                                   tmp_path):
        root = tmp_path / "store"
        cold = Campaign(**ACCEPT_GRID)
        cold.run(shards=4, collect_metrics=True, store=ResultStore(root))
        assert_matches_reference(cold, accept)
        injector = ChaosInjector(always_fail=set(accept["seeds"]))
        with pytest.MonkeyPatch.context() as mp:
            injector.install(mp)
            warm = Campaign(**ACCEPT_GRID)
            warm.run(shards=4, collect_metrics=True,
                     store=ResultStore(root))
        assert injector.calls == {}
        assert_matches_reference(warm, accept)
        stats = counters(warm)
        assert stats["campaign.cache_hits"] == 200
        # Nothing pending, so nothing was planned or dispatched.
        assert stats.get("campaign.shards_planned", 0) == 0


# A grid over every registered environment: WiFi PSM and both RRC
# presets.  ``cellular-3g``, with its seconds-scale promotions, is in
# no other acceptance matrix.
MIXED_GRID = dict(envs=("wifi", "cellular-3g", "cellular-lte"),
                  phones=("nexus5",),
                  rtts=tuple(0.01 + 0.01 * i for i in range(8)),
                  tools=("acutemon", "ping"), count=2, base_seed=31)


@pytest.fixture(scope="module")
def accept_mixed():
    """Serial reference for the three-environment grid."""
    campaign = Campaign(**MIXED_GRID)
    campaign.run(workers=1, collect_metrics=True)
    assert len(campaign.results) == 48
    assert {result.env for result in campaign.results} \
        == set(MIXED_GRID["envs"])
    report = decompose_campaign(campaign)
    return {
        "results": serialized(campaign),
        "metrics": json.dumps(campaign.merged_metrics(), sort_keys=True),
        "reports": {fmt: render_report(report, fmt)
                    for fmt in REPORT_FORMATS},
        "seeds": [result.seed for result in campaign.results],
    }


class TestThreeEnvironmentAcceptance:
    """The acceptance matrix over a grid that includes WiFi, 3G and LTE
    cells: every execution mode must be bit-identical to the serial
    reference, merged metrics included."""

    def test_parallel_four_workers(self, accept_mixed):
        campaign = Campaign(**MIXED_GRID)
        campaign.run(workers=4, collect_metrics=True)
        assert_matches_reference(campaign, accept_mixed)

    def test_sharded_four_shards(self, accept_mixed):
        campaign = Campaign(**MIXED_GRID)
        campaign.run(shards=4, collect_metrics=True)
        assert_matches_reference(campaign, accept_mixed)
        stats = counters(campaign)
        assert stats["campaign.shards_planned"] == 4
        assert stats["campaign.cells_run"] == 48

    def test_crash_then_resume(self, accept_mixed, tmp_path):
        checkpoint = tmp_path / "mixed.jsonl"
        crashed = Campaign(**MIXED_GRID)
        with pytest.MonkeyPatch.context() as mp:
            crash_after(20, mp)
            with pytest.raises(SimulatedCrash):
                crashed.run(workers=1, checkpoint=checkpoint,
                            collect_metrics=True)
        resumed = Campaign(**MIXED_GRID)
        resumed.run(workers=1, checkpoint=checkpoint, resume=True,
                    collect_metrics=True)
        assert_matches_reference(resumed, accept_mixed)
        stats = counters(resumed)
        assert stats["campaign.cells_resumed"] == 20
        assert stats["campaign.cells_run"] == 28

    def test_cache_warm_executes_zero_cells(self, accept_mixed,
                                            tmp_path):
        root = tmp_path / "store"
        cold = Campaign(**MIXED_GRID)
        cold.run(workers=1, collect_metrics=True,
                 store=ResultStore(root))
        assert_matches_reference(cold, accept_mixed)
        injector = ChaosInjector(always_fail=set(accept_mixed["seeds"]))
        with pytest.MonkeyPatch.context() as mp:
            injector.install(mp)
            warm = Campaign(**MIXED_GRID)
            warm.run(workers=1, collect_metrics=True,
                     store=ResultStore(root))
        assert injector.calls == {}
        assert_matches_reference(warm, accept_mixed)
        stats = counters(warm)
        assert stats["campaign.cache_hits"] == 48
        assert stats.get("campaign.cells_run", 0) == 0


class TestFabricRunnerContract:
    GRID = dict(envs=("wifi",), phones=("nexus5",), rtts=(0.02, 0.05),
                tools=("acutemon", "ping"), count=2)

    def test_shard_count_must_be_positive(self):
        with pytest.raises(ValueError, match="shard_count"):
            FabricRunner(Campaign(**self.GRID), shard_count=0)

    def test_resume_requires_checkpoint(self):
        runner = FabricRunner(Campaign(**self.GRID), shard_count=2,
                              transport=InProcessTransport())
        with pytest.raises(ValueError, match="checkpoint"):
            runner.run(resume=True)

    def test_progress_fires_once_per_cell(self):
        campaign = Campaign(**self.GRID)
        runner = FabricRunner(campaign, shard_count=3,
                              transport=InProcessTransport())
        seen = []
        runner.run(progress=lambda spec: seen.append(spec.seed))
        assert sorted(seen) \
            == sorted(spec.seed for spec in campaign.cells())

    def test_plan_exposed_after_run(self):
        campaign = Campaign(**self.GRID)
        runner = FabricRunner(campaign, shard_count=3,
                              transport=InProcessTransport())
        assert runner.plan is None
        runner.run()
        assert isinstance(runner.plan, ShardPlan)
        assert sorted(runner.plan.cells()) \
            == list(enumerate(Campaign(**self.GRID).cells()))
