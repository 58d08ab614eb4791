"""Unit tests for :mod:`repro.testbed.resilience`.

The chaos suite (``tests/test_campaign_chaos.py``) exercises the layer
end to end; these tests pin the individual contracts — policy
validation and backoff schedules, the journal's record format and torn
tail tolerance, failure round-trips, and the retry/timeout loop —
against cheap stub cells.
"""

import json

import pytest

from repro.testbed import campaign as campaign_module
from repro.testbed.campaign import Campaign, CellResult
from repro.testbed.resilience import (
    JOURNAL_VERSION, CellFailure, CellTimeout, CheckpointJournal,
    FaultPolicy, append_journal_record, result_from_dict,
    run_cell_with_policy,
)
from repro.testbed.scenario import ScenarioSpec


def make_spec(**overrides):
    params = dict(phone="nexus5", tool="ping", emulated_rtt=0.02,
                  count=2, seed=11)
    params.update(overrides)
    return ScenarioSpec(**params)


def stub_result(spec):
    return CellResult(spec.phone, spec.emulated_rtt, spec.tool,
                      spec.cross_traffic, spec.seed, [0.021, 0.022],
                      env=spec.env)


class TestFaultPolicy:
    def test_defaults_are_no_ops(self):
        policy = FaultPolicy()
        assert policy.cell_timeout is None
        assert policy.retries == 0
        assert policy.backoff == 0.0

    def test_deterministic_exponential_backoff(self):
        policy = FaultPolicy(retries=4, backoff=0.5)
        assert [policy.delay(attempt) for attempt in range(4)] == \
            [0.5, 1.0, 2.0, 4.0]

    def test_round_trips_through_dict(self):
        policy = FaultPolicy(cell_timeout=2.5, retries=3, backoff=0.1)
        clone = FaultPolicy.from_dict(policy.to_dict())
        assert clone.to_dict() == policy.to_dict()

    @pytest.mark.parametrize("kwargs", [
        {"cell_timeout": 0}, {"cell_timeout": -1},
        {"cell_timeout": True}, {"cell_timeout": "5"},
        {"retries": -1}, {"retries": 1.5}, {"retries": True},
        {"backoff": -0.1}, {"backoff": "fast"}, {"backoff": False},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            FaultPolicy(**kwargs)


class TestCellFailure:
    def test_from_spec_captures_identity_and_kind(self):
        spec = make_spec(env="cellular-lte")
        failure = CellFailure.from_spec(spec, ValueError("boom"),
                                        traceback_text="tb", attempts=3,
                                        timeouts=1)
        assert failure.failure is True
        assert failure.kind == "error"
        assert failure.error == "ValueError: boom"
        assert failure.key() == spec.key()
        assert failure.seed == spec.seed

    def test_timeout_kind(self):
        failure = CellFailure.from_spec(make_spec(), CellTimeout("slow"))
        assert failure.kind == "timeout"

    def test_round_trips_through_dict(self):
        failure = CellFailure.from_spec(make_spec(), ValueError("boom"),
                                        traceback_text="tb", attempts=2)
        payload = json.loads(json.dumps(failure.to_dict()))
        clone = CellFailure.from_dict(payload)
        assert clone.to_dict() == failure.to_dict()

    def test_result_from_dict_dispatches_on_failure_flag(self):
        spec = make_spec()
        success = stub_result(spec)
        failure = CellFailure.from_spec(spec, ValueError("boom"))
        assert isinstance(result_from_dict(success.to_dict()), CellResult)
        assert isinstance(result_from_dict(failure.to_dict()),
                          CellFailure)

    def test_cell_result_is_not_a_failure(self):
        assert stub_result(make_spec()).failure is False


class TestCheckpointJournal:
    def test_append_load_round_trip(self, tmp_path):
        spec = make_spec()
        result = stub_result(spec)
        journal = CheckpointJournal(tmp_path / "ck.jsonl")
        with journal:
            journal.append(spec.fingerprint(), result)
        cache = CheckpointJournal(tmp_path / "ck.jsonl").load()
        assert cache == {spec.fingerprint(): result.to_dict()}

    def test_records_carry_version(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with CheckpointJournal(path) as journal:
            journal.append("fp", stub_result(make_spec()))
        (record,) = [json.loads(line) for line in
                     path.read_text(encoding="utf-8").splitlines()]
        assert record["v"] == JOURNAL_VERSION

    def test_missing_file_loads_empty(self, tmp_path):
        assert CheckpointJournal(tmp_path / "absent.jsonl").load() == {}

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        spec = make_spec()
        with CheckpointJournal(path) as journal:
            journal.append(spec.fingerprint(), stub_result(spec))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "fingerprint": "abc", "resu')
        cache = CheckpointJournal(path).load()
        assert list(cache) == [spec.fingerprint()]

    def test_invalid_record_is_skipped_and_reading_continues(self,
                                                             tmp_path):
        path = tmp_path / "ck.jsonl"
        good = {"v": JOURNAL_VERSION, "fingerprint": "aa",
                "result": {"x": 1}}
        wrong_version = {"v": 99, "fingerprint": "bb", "result": {}}
        later = {"v": JOURNAL_VERSION, "fingerprint": "cc",
                 "result": {"x": 2}}
        lines = [json.dumps(record) for record in
                 (good, wrong_version, later)]
        lines.insert(2, '{"v": 1, "fingerprint": !!garbled!!')
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        journal = CheckpointJournal(path)
        assert journal.load() == {"aa": {"x": 1}, "cc": {"x": 2}}
        assert journal.scan()[1:] == (2, 2)  # records read, lines skipped

    def test_later_records_win_on_duplicate_fingerprint(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        lines = [{"v": JOURNAL_VERSION, "fingerprint": "aa",
                  "result": {"x": 1}},
                 {"v": JOURNAL_VERSION, "fingerprint": "aa",
                  "result": {"x": 2}}]
        path.write_text("\n".join(json.dumps(line) for line in lines),
                        encoding="utf-8")
        assert CheckpointJournal(path).load()["aa"] == {"x": 2}

    def test_append_requires_open(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "ck.jsonl")
        with pytest.raises(RuntimeError, match="not open"):
            journal.append("fp", stub_result(make_spec()))

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "er" / "ck.jsonl"
        with CheckpointJournal(path) as journal:
            journal.append("fp", stub_result(make_spec()))
        assert path.exists()

    def test_helper_writes_one_line_per_record(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            append_journal_record(handle, {"a": 1})
            append_journal_record(handle, {"b": 2})
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == [{"a": 1},
                                                        {"b": 2}]


class TestRunCellWithPolicy:
    def test_success_passes_through(self, monkeypatch):
        spec = make_spec()
        monkeypatch.setattr(campaign_module, "run_cell",
                            lambda s, collect_metrics=False:
                            stub_result(s))
        result, stats = run_cell_with_policy(spec, FaultPolicy(retries=2))
        assert isinstance(result, CellResult)
        assert stats == {"attempts": 1, "timeouts": 0}

    def test_transient_failure_recovers(self, monkeypatch):
        spec = make_spec()
        state = {"failures": 2}

        def flaky(s, collect_metrics=False):
            if state["failures"]:
                state["failures"] -= 1
                raise RuntimeError("transient")
            return stub_result(s)

        monkeypatch.setattr(campaign_module, "run_cell", flaky)
        result, stats = run_cell_with_policy(spec, FaultPolicy(retries=2))
        assert isinstance(result, CellResult)
        assert stats == {"attempts": 3, "timeouts": 0}

    def test_exhausted_retries_quarantine(self, monkeypatch):
        spec = make_spec()

        def broken(s, collect_metrics=False):
            raise RuntimeError("permanent")

        monkeypatch.setattr(campaign_module, "run_cell", broken)
        result, stats = run_cell_with_policy(spec, FaultPolicy(retries=2))
        assert isinstance(result, CellFailure)
        assert result.attempts == 3
        assert "RuntimeError: permanent" == result.error
        assert "permanent" in result.traceback
        assert stats == {"attempts": 3, "timeouts": 0}

    def test_hung_cell_times_out(self, monkeypatch):
        import time as time_module
        spec = make_spec()

        def hung(s, collect_metrics=False):
            time_module.sleep(30)

        monkeypatch.setattr(campaign_module, "run_cell", hung)
        result, stats = run_cell_with_policy(
            spec, FaultPolicy(cell_timeout=0.05))
        assert isinstance(result, CellFailure)
        assert result.kind == "timeout"
        assert stats == {"attempts": 1, "timeouts": 1}

    def test_no_policy_means_single_plain_attempt(self, monkeypatch):
        spec = make_spec()
        calls = []
        monkeypatch.setattr(
            campaign_module, "run_cell",
            lambda s, collect_metrics=False:
            (calls.append(s), stub_result(s))[1])
        result, stats = run_cell_with_policy(spec)
        assert len(calls) == 1
        assert stats == {"attempts": 1, "timeouts": 0}


class TestCampaignIntegration:
    GRID = dict(phones=("nexus5",), rtts=(0.02,), tools=("ping",),
                count=2)

    def test_resume_without_checkpoint_raises(self):
        campaign = Campaign(**self.GRID)
        with pytest.raises(ValueError, match="checkpoint"):
            campaign.run(workers=1, resume=True)

    def test_quarantine_survives_save_load(self, tmp_path, monkeypatch):
        def broken(spec, collect_metrics=False):
            raise RuntimeError("dead cell")

        monkeypatch.setattr(campaign_module, "run_cell", broken)
        campaign = Campaign(**self.GRID)
        campaign.run(workers=1, retries=1)
        assert len(campaign.quarantine) == 1
        path = tmp_path / "campaign.json"
        campaign.save(path)
        loaded = Campaign.load(path)
        assert len(loaded.quarantine) == 1
        assert loaded.quarantine[0].to_dict() \
            == campaign.quarantine[0].to_dict()

    def test_save_without_quarantine_stays_legacy(self, tmp_path):
        campaign = Campaign(**self.GRID)
        campaign.run(workers=1)
        path = tmp_path / "campaign.json"
        campaign.save(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert "quarantine" not in payload
        assert Campaign.load(path).quarantine == []

    def test_plain_serial_run_resets_resilience_state(self):
        campaign = Campaign(**self.GRID)

        def broken(spec, collect_metrics=False):
            raise RuntimeError("dead cell")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(campaign_module, "run_cell", broken)
            campaign.run(workers=1, retries=1)
        assert len(campaign.quarantine) == 1
        assert campaign.run_metrics is not None
        campaign.run(workers=1)
        assert campaign.quarantine == []
        counters = {metric["name"]: metric["value"]
                    for metric in campaign.run_metrics["metrics"]}
        assert counters.get("campaign.cells_quarantined", 0) == 0

    def test_resumed_save_is_byte_identical(self, tmp_path):
        checkpoint = tmp_path / "ck.jsonl"
        original = Campaign(**self.GRID)
        original.run(workers=1, checkpoint=checkpoint)
        original.save(tmp_path / "original.json")
        resumed = Campaign(**self.GRID)
        resumed.run(workers=1, checkpoint=checkpoint, resume=True)
        resumed.save(tmp_path / "resumed.json")
        # The journal preserves payload key order verbatim, so the
        # resumed save file matches byte for byte — not just JSON-equal.
        assert (tmp_path / "resumed.json").read_bytes() \
            == (tmp_path / "original.json").read_bytes()

    def test_scalar_knobs_build_a_policy(self, monkeypatch):
        calls = []

        def broken(spec, collect_metrics=False):
            calls.append(spec.seed)
            raise RuntimeError("dead cell")

        monkeypatch.setattr(campaign_module, "run_cell", broken)
        campaign = Campaign(**self.GRID)
        campaign.run(workers=1, retries=2)
        assert len(calls) == 3
        assert campaign.quarantine[0].attempts == 3
