"""Chaos tests: campaigns survive crashes, hangs, and dying workers.

The acceptance grid is 12 mixed WiFi+cellular cells.  The properties
pinned here are the resilience layer's whole contract:

* killing the sweep after k completed cells, then resuming from the
  checkpoint, yields ``campaign.results`` *and* ``merged_metrics()``
  bit-identical to an uninterrupted serial run, for several k;
* an always-failing cell ends as a quarantined ``CellFailure`` after
  exactly N retries without failing the sweep;
* a transiently-failing cell clears within its retry budget and the
  run stays bit-identical;
* a hung cell trips the per-cell timeout and quarantines as
  ``kind="timeout"``;
* a worker killed mid-shard turns its unfinished shards into stolen
  shards, re-run in-process — nothing lost, nothing run twice;
* a truncated journal (any byte boundary) never duplicates or
  corrupts results on resume;
* a shard whose worker dies mid-grid is stolen back in-process and the
  sharded run stays bit-identical;
* a garbled or torn result-store segment degrades to cache misses —
  damaged cells re-execute, everything else stays cached, and the warm
  run still matches the reference;
* two writers appending to one store concurrently never clobber each
  other, and ``gc`` keeps every live record.
"""

import json
import multiprocessing

import pytest

from tests.chaos import (
    ChaosInjector, SimulatedCrash, corrupt_store_segment, crash_after,
)
from repro.testbed.campaign import Campaign, CellResult
from repro.testbed.fabric import FabricRunner, MultiprocessTransport
from repro.testbed.store import ResultStore

#: The ISSUE's acceptance grid: 2 envs x 1 phone x 3 RTTs x 2 tools.
GRID = dict(envs=("wifi", "cellular-lte"), phones=("nexus5",),
            rtts=(0.02, 0.05, 0.08), tools=("acutemon", "ping"),
            count=2)

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


def make_campaign():
    return Campaign(**GRID)


def serialized(campaign):
    return json.dumps([result.to_dict() for result in campaign.results],
                      sort_keys=True)


def counters(campaign):
    return {metric["name"]: metric["value"]
            for metric in campaign.run_metrics["metrics"]}


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted serial run every chaos scenario must match."""
    campaign = make_campaign()
    campaign.run(workers=1, collect_metrics=True)
    assert len(campaign.results) == 12
    return {
        "results": serialized(campaign),
        "metrics": json.dumps(campaign.merged_metrics(), sort_keys=True),
        "keys": [result.key() for result in campaign.results],
        "seeds": [result.seed for result in campaign.results],
    }


class TestCrashResume:
    @pytest.mark.parametrize("k", [1, 5, 11])
    def test_resume_after_crash_is_bit_identical(self, k, tmp_path,
                                                 reference):
        checkpoint = tmp_path / "sweep.jsonl"
        crashed = make_campaign()
        with pytest.MonkeyPatch.context() as mp:
            dying = crash_after(k, mp)
            with pytest.raises(SimulatedCrash):
                crashed.run(workers=1, checkpoint=checkpoint,
                            collect_metrics=True)
        assert dying.state["completed"] == k
        journaled = [line for line in
                     checkpoint.read_text(encoding="utf-8").splitlines()
                     if line]
        assert len(journaled) == k

        resumed = make_campaign()
        resumed.run(workers=1, checkpoint=checkpoint, resume=True,
                    collect_metrics=True)
        assert serialized(resumed) == reference["results"]
        assert json.dumps(resumed.merged_metrics(), sort_keys=True) \
            == reference["metrics"]
        assert counters(resumed)["campaign.cells_resumed"] == k
        assert counters(resumed)["campaign.cells_run"] == 12 - k

    def test_parallel_resume_matches_serial_reference(self, tmp_path,
                                                      reference):
        checkpoint = tmp_path / "sweep.jsonl"
        crashed = make_campaign()
        with pytest.MonkeyPatch.context() as mp:
            crash_after(5, mp)
            with pytest.raises(SimulatedCrash):
                crashed.run(workers=1, checkpoint=checkpoint,
                            collect_metrics=True)
        resumed = make_campaign()
        resumed.run(workers=3, checkpoint=checkpoint, resume=True,
                    collect_metrics=True)
        assert serialized(resumed) == reference["results"]
        assert json.dumps(resumed.merged_metrics(), sort_keys=True) \
            == reference["metrics"]

    def test_resume_reruns_nothing_already_journaled(self, tmp_path,
                                                     reference):
        checkpoint = tmp_path / "sweep.jsonl"
        first = make_campaign()
        first.run(workers=1, checkpoint=checkpoint, collect_metrics=True)
        # A second resumed run must not execute a single cell.
        injector = ChaosInjector(
            always_fail={seed for seed in reference["seeds"]})
        with pytest.MonkeyPatch.context() as mp:
            injector.install(mp)
            again = make_campaign()
            again.run(workers=1, checkpoint=checkpoint, resume=True,
                      collect_metrics=True)
        assert injector.calls == {}
        assert serialized(again) == reference["results"]
        assert counters(again)["campaign.cells_resumed"] == 12


class TestQuarantine:
    def test_always_failing_cell_quarantined_after_exact_retries(
            self, monkeypatch, reference):
        bad_seed = reference["seeds"][3]
        retries = 3
        injector = ChaosInjector(always_fail={bad_seed})
        injector.install(monkeypatch)
        campaign = make_campaign()
        campaign.run(workers=1, retries=retries)
        assert len(campaign.results) == 11
        assert len(campaign.quarantine) == 1
        failure = campaign.quarantine[0]
        assert failure.failure is True
        assert failure.kind == "error"
        assert failure.seed == bad_seed
        assert failure.attempts == retries + 1
        assert "ChaosError" in failure.error
        assert "always fails" in failure.traceback
        assert injector.calls[bad_seed] == retries + 1
        stats = counters(campaign)
        assert stats["campaign.retries"] == retries
        assert stats["campaign.cells_quarantined"] == 1
        # The surviving 11 cells are untouched by the bad one.
        good_keys = [key for key in reference["keys"]
                     if key != failure.key()]
        assert [result.key() for result in campaign.results] == good_keys

    def test_transient_failure_clears_within_budget(self, monkeypatch,
                                                    reference):
        flaky_seed = reference["seeds"][7]
        injector = ChaosInjector(fail_times={flaky_seed: 2})
        injector.install(monkeypatch)
        campaign = make_campaign()
        campaign.run(workers=1, retries=2, collect_metrics=True)
        assert campaign.quarantine == []
        assert injector.calls[flaky_seed] == 3
        assert serialized(campaign) == reference["results"]
        assert json.dumps(campaign.merged_metrics(), sort_keys=True) \
            == reference["metrics"]
        assert counters(campaign)["campaign.retries"] == 2

    def test_hung_cell_trips_timeout_and_quarantines(self, monkeypatch,
                                                     reference):
        hung_seed = reference["seeds"][0]
        injector = ChaosInjector(hang={hung_seed}, hang_seconds=30.0)
        injector.install(monkeypatch)
        campaign = make_campaign()
        campaign.run(workers=1, cell_timeout=0.2, retries=1)
        assert len(campaign.quarantine) == 1
        failure = campaign.quarantine[0]
        assert failure.kind == "timeout"
        assert failure.attempts == 2
        assert failure.timeouts == 2
        assert "wall-clock budget" in failure.error
        assert len(campaign.results) == 11
        stats = counters(campaign)
        assert stats["campaign.cell_timeouts"] == 2

    def test_quarantined_cell_not_journaled_so_resume_retries_it(
            self, tmp_path, reference):
        bad_seed = reference["seeds"][3]
        checkpoint = tmp_path / "sweep.jsonl"
        with pytest.MonkeyPatch.context() as mp:
            ChaosInjector(always_fail={bad_seed}).install(mp)
            broken = make_campaign()
            broken.run(workers=1, retries=1, checkpoint=checkpoint,
                       collect_metrics=True)
        assert len(broken.quarantine) == 1
        # The fault is gone now; resume runs only the quarantined cell
        # and the sweep converges on the uninterrupted reference.
        healed = make_campaign()
        healed.run(workers=1, checkpoint=checkpoint, resume=True,
                   collect_metrics=True)
        assert healed.quarantine == []
        assert serialized(healed) == reference["results"]
        stats = counters(healed)
        assert stats["campaign.cells_resumed"] == 11
        assert stats["campaign.cells_run"] == 1


@pytest.mark.skipif(not FORK_AVAILABLE,
                    reason="worker-kill chaos needs the fork start method")
class TestWorkerDeath:
    def test_killed_worker_degrades_pool_and_completes(self, monkeypatch,
                                                       reference):
        victim_seed = reference["seeds"][6]
        injector = ChaosInjector(kill_worker={victim_seed})
        injector.install(monkeypatch)
        campaign = make_campaign()
        # Run under a fault policy so the in-parent rerun of the victim
        # cell quarantines instead of failing the sweep.
        from repro.testbed.resilience import FaultPolicy
        runner = FabricRunner(
            campaign, workers=2,
            transport=MultiprocessTransport(workers=2))
        runner.run(fault_policy=FaultPolicy(retries=0),
                   collect_metrics=True)
        assert len(campaign.results) + len(campaign.quarantine) == 12
        assert len(campaign.quarantine) == 1
        failure = campaign.quarantine[0]
        assert failure.seed == victim_seed
        assert "ran in-parent" in failure.error
        stats = counters(campaign)
        assert stats["campaign.shards_stolen"] >= 1
        # Surviving cells are bit-identical to the reference run.
        by_key = {key: None for key in reference["keys"]}
        reference_results = json.loads(reference["results"])
        for payload in reference_results:
            by_key[CellResult.from_dict(payload).key()] = payload
        for result in campaign.results:
            assert result.to_dict() == by_key[result.key()]

    def test_progress_fires_once_per_cell_despite_worker_death(
            self, monkeypatch, reference):
        victim_seed = reference["seeds"][6]
        ChaosInjector(kill_worker={victim_seed}).install(monkeypatch)
        from repro.testbed.resilience import FaultPolicy
        campaign = make_campaign()
        runner = FabricRunner(
            campaign, workers=2,
            transport=MultiprocessTransport(workers=2))
        seen = []
        runner.run(progress=lambda spec: seen.append(spec.seed),
                   fault_policy=FaultPolicy())
        assert sorted(seen) == sorted(reference["seeds"])


class TestCrashPointSweep:
    """Truncate the journal at *every* byte; resume must stay clean."""

    SMALL = dict(envs=("wifi",), phones=("nexus5",), rtts=(0.02, 0.05),
                 tools=("acutemon", "ping"), count=2)

    @staticmethod
    def _stub_run_cell(spec, collect_metrics=False):
        # Deterministic, instant stand-in for a real cell: the sweep
        # needs hundreds of resumes, one per byte boundary.
        return CellResult(spec.phone, spec.emulated_rtt, spec.tool,
                          spec.cross_traffic, spec.seed,
                          [spec.seed * 1e-6, spec.emulated_rtt],
                          env=spec.env)

    def test_every_byte_boundary_resumes_cleanly(self, tmp_path,
                                                 monkeypatch):
        from repro.testbed import campaign as campaign_module
        monkeypatch.setattr(campaign_module, "run_cell",
                            self._stub_run_cell)
        full = Campaign(**self.SMALL)
        checkpoint = tmp_path / "full.jsonl"
        full.run(workers=1, checkpoint=checkpoint)
        reference = serialized(full)
        reference_keys = [result.key() for result in full.results]
        journal_bytes = checkpoint.read_bytes()
        # A record is readable once all its content bytes survive; the
        # trailing newline itself is optional for the final line.
        intact_line_ends = [offset
                            for offset, byte in enumerate(journal_bytes)
                            if byte == 0x0A]
        for cut in range(len(journal_bytes) + 1):
            truncated = tmp_path / "cut.jsonl"
            truncated.write_bytes(journal_bytes[:cut])
            campaign = Campaign(**self.SMALL)
            campaign.run(workers=1, checkpoint=truncated, resume=True)
            assert serialized(campaign) == reference, (
                f"resume diverged at byte {cut}")
            keys = [result.key() for result in campaign.results]
            assert keys == reference_keys, (
                f"duplicate or missing cells at byte {cut}")
            stats = counters(campaign)
            cached = sum(1 for end in intact_line_ends if end <= cut)
            assert stats.get("campaign.cells_resumed", 0) == cached
            assert stats.get("campaign.cells_run", 0) == 4 - cached


@pytest.mark.skipif(not FORK_AVAILABLE,
                    reason="shard-kill chaos needs the fork start method")
class TestShardDeath:
    """A dead shard is stolen back in-process, bit-identically."""

    def test_killed_shard_is_stolen_and_run_stays_identical(
            self, monkeypatch, reference):
        victim_seed = reference["seeds"][6]
        injector = ChaosInjector(kill_shard={victim_seed})
        injector.install(monkeypatch)
        campaign = make_campaign()
        runner = FabricRunner(
            campaign, shard_count=4,
            transport=MultiprocessTransport(workers=2))
        runner.run(collect_metrics=True)
        assert runner.plan.shard_count == 4
        assert campaign.quarantine == []
        assert serialized(campaign) == reference["results"]
        assert json.dumps(campaign.merged_metrics(), sort_keys=True) \
            == reference["metrics"]
        stats = counters(campaign)
        # At least the victim's shard failed over; a broken pool may
        # take unfinished siblings with it — all must be stolen.
        assert stats["campaign.shards_stolen"] >= 1
        assert stats["campaign.shards_planned"] \
            >= stats["campaign.shards_stolen"]
        assert stats["campaign.cells_run"] == 12

    def test_progress_fires_once_per_cell_despite_shard_death(
            self, monkeypatch, reference):
        victim_seed = reference["seeds"][6]
        ChaosInjector(kill_shard={victim_seed}).install(monkeypatch)
        campaign = make_campaign()
        runner = FabricRunner(
            campaign, shard_count=4,
            transport=MultiprocessTransport(workers=2))
        seen = []
        runner.run(progress=lambda spec: seen.append(spec.seed))
        assert sorted(seen) == sorted(reference["seeds"])


class TestStoreCorruption:
    """A damaged store segment costs cache hits, never correctness."""

    def _cold_store(self, tmp_path, reference):
        root = tmp_path / "store"
        cold = make_campaign()
        cold.run(workers=1, collect_metrics=True, store=ResultStore(root))
        assert serialized(cold) == reference["results"]
        return root

    @pytest.mark.parametrize("mode,drop_index", [
        ("garble", False),   # unreadable record mid-segment
        ("truncate", False),  # torn final record (crash during put)
        ("garble", True),    # ... and the index accelerator is gone too
    ])
    def test_damage_degrades_to_misses_and_recovers(self, tmp_path,
                                                    reference, mode,
                                                    drop_index):
        root = self._cold_store(tmp_path, reference)
        damaged = corrupt_store_segment(root, mode=mode,
                                        drop_index=drop_index)
        # One writer, so one segment; each mode kills exactly one record.
        assert len(damaged) == 1
        warm = make_campaign()
        warm.run(workers=1, collect_metrics=True, store=ResultStore(root))
        assert warm.quarantine == []
        assert serialized(warm) == reference["results"]
        assert json.dumps(warm.merged_metrics(), sort_keys=True) \
            == reference["metrics"]
        stats = counters(warm)
        assert stats["campaign.cells_run"] == 1
        assert stats["campaign.cache_hits"] == 11
        assert stats["campaign.cache_misses"] == 1
        # The re-executed cell was written back: the next run is whole.
        healed = make_campaign()
        healed.run(workers=1, collect_metrics=True,
                   store=ResultStore(root))
        assert serialized(healed) == reference["results"]
        assert counters(healed)["campaign.cache_hits"] == 12

    def test_gc_scrubs_damage_from_the_store(self, tmp_path, reference):
        root = self._cold_store(tmp_path, reference)
        corrupt_store_segment(root, mode="garble")
        summary = ResultStore(root).gc()
        assert summary["live"] == 11  # the garbled record is gone
        assert summary["removed_segments"] == 1
        stats = ResultStore(root).stats()
        assert stats["segments"] == 1
        assert stats["live"] == 11 and stats["skipped"] == 0


class TestConcurrentWriters:
    """Two stores appending to one root never clobber each other."""

    def test_interleaved_writers_and_gc_keep_every_record(
            self, tmp_path, reference):
        root = tmp_path / "store"
        cold = make_campaign()
        cold.run(workers=1, collect_metrics=True)
        fingerprints = [spec.fingerprint()
                        for spec in make_campaign().cells()]
        writer_a = ResultStore(root)
        writer_b = ResultStore(root)
        for i, (fp, result) in enumerate(zip(fingerprints,
                                             cold.results)):
            (writer_a if i % 2 == 0 else writer_b).put(fp, result)
        writer_a.close()
        writer_b.close()
        stats = ResultStore(root).stats()
        assert stats["segments"] == 2  # private segment per writer
        assert stats["records"] == 12 and stats["live"] == 12
        # The merged store warms a campaign without executing a cell.
        injector = ChaosInjector(
            always_fail=set(reference["seeds"]))
        with pytest.MonkeyPatch.context() as mp:
            injector.install(mp)
            warm = make_campaign()
            warm.run(workers=1, collect_metrics=True,
                     store=ResultStore(root))
        assert injector.calls == {}
        assert serialized(warm) == reference["results"]
        assert json.dumps(warm.merged_metrics(), sort_keys=True) \
            == reference["metrics"]
        assert counters(warm)["campaign.cache_hits"] == 12
        # Compaction folds both writers' segments into one, losslessly.
        summary = ResultStore(root).gc()
        assert summary == {"live": 12, "removed_segments": 2,
                           "dropped": 0}
        with pytest.MonkeyPatch.context() as mp:
            injector.install(mp)
            again = make_campaign()
            again.run(workers=1, collect_metrics=True,
                      store=ResultStore(root))
        assert serialized(again) == reference["results"]
