"""Unit tests for the persistent content-addressed result store.

The store's contract (docs/FABRIC.md): fingerprints in, byte-identical
payloads out, across processes and campaigns; tolerant reads that turn
corruption into cache misses instead of crashes; a directory of
journal segments with no index; ``gc`` that compacts without losing a
live record.
"""

import json

import pytest

from repro.testbed.campaign import CellResult
from repro.testbed.resilience import JOURNAL_VERSION
from repro.testbed.store import ResultStore


class FakePayload:
    """Minimal ``to_dict``-bearing stand-in for a CellResult."""

    def __init__(self, payload):
        self.payload = payload

    def to_dict(self):
        return self.payload


def fp(n):
    """A deterministic 64-hex-digit pseudo-fingerprint."""
    return f"{n:064x}"


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestRoundTrip:
    def test_put_get_contains(self, store):
        payload = {"phone": "nexus5", "rtts": [0.05, 0.051]}
        store.put(fp(1), FakePayload(payload))
        assert store.get(fp(1)) == payload
        assert store.contains(fp(1))
        assert store.get(fp(2)) is None
        assert not store.contains(fp(2))

    def test_own_put_visible_after_first_read(self, store):
        assert store.get(fp(1)) is None  # loads the (empty) store
        store.put(fp(1), FakePayload({"a": 1}))
        assert store.get(fp(1)) == {"a": 1}

    def test_round_trip_survives_reopen(self, store, tmp_path):
        store.put(fp(1), FakePayload({"a": 1}))
        store.close()
        fresh = ResultStore(tmp_path / "store")
        assert fresh.get(fp(1)) == {"a": 1}

    def test_real_cell_result_round_trips_exactly(self, store):
        result = CellResult("nexus5", 0.05, "acutemon", False, 1234,
                            [0.051, 0.0505, 0.0522], env="wifi")
        store.put(fp(7), result)
        store.close()
        assert store.get(fp(7)) == result.to_dict()
        assert CellResult.from_dict(store.get(fp(7))).key() \
            == result.key()

    def test_later_record_wins_within_and_across_segments(self, store,
                                                          tmp_path):
        store.put(fp(1), FakePayload({"version": "old"}))
        store.put(fp(1), FakePayload({"version": "mid"}))
        store.close()
        second = ResultStore(tmp_path / "store")
        second.put(fp(1), FakePayload({"version": "new"}))
        second.close()
        assert ResultStore(tmp_path / "store").get(fp(1)) \
            == {"version": "new"}

    def test_ensure_coerces_paths_and_passes_instances(self, tmp_path):
        assert ResultStore.ensure(None) is None
        instance = ResultStore(tmp_path / "store")
        assert ResultStore.ensure(instance) is instance
        coerced = ResultStore.ensure(tmp_path / "other")
        assert isinstance(coerced, ResultStore)
        assert coerced.root == tmp_path / "other"

    def test_context_manager_opens_and_closes(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            store.put(fp(1), FakePayload({"a": 1}))
            assert store._writer is not None
        assert store._writer is None

    def test_durable_put_fsyncs_per_record(self, tmp_path):
        store = ResultStore(tmp_path / "store", durable=True)
        store.put(fp(1), FakePayload({"a": 1}))
        store.close()
        assert store.get(fp(1)) == {"a": 1}

    def test_private_segment_per_writer(self, tmp_path):
        a = ResultStore(tmp_path / "store")
        b = ResultStore(tmp_path / "store")
        a.put(fp(1), FakePayload({"w": "a"}))
        b.put(fp(2), FakePayload({"w": "b"}))
        a.close()
        b.close()
        names = ResultStore(tmp_path / "store").segment_names()
        assert len(names) == 2 and len(set(names)) == 2


class TestTolerantReads:
    def _segment_path(self, store):
        names = store.segment_names()
        assert len(names) == 1
        return store.segment_dir / names[0]

    def test_wrong_version_record_is_skipped_not_fatal(self, store,
                                                       tmp_path):
        store.put(fp(1), FakePayload({"a": 1}))
        store.close()
        segment = self._segment_path(store)
        with segment.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"v": 99, "fingerprint": fp(2),
                                     "result": {"future": True}}) + "\n")
        fresh = ResultStore(tmp_path / "store")
        assert fresh.get(fp(2)) is None
        assert fresh.get(fp(1)) == {"a": 1}
        assert fresh.stats()["skipped"] == 1

    def test_garbled_middle_line_skips_one_record(self, store, tmp_path):
        for n in range(3):
            store.put(fp(n), FakePayload({"n": n}))
        store.close()
        segment = self._segment_path(store)
        lines = segment.read_text(encoding="utf-8").splitlines()
        lines[1] = '{"v": 1, "fingerprint": !!torn!!'
        segment.write_text("\n".join(lines) + "\n", encoding="utf-8")
        fresh = ResultStore(tmp_path / "store")
        assert fresh.get(fp(0)) == {"n": 0}
        assert fresh.get(fp(1)) is None
        assert fresh.get(fp(2)) == {"n": 2}

    def test_non_dict_and_shapeless_records_skipped(self, store,
                                                    tmp_path):
        store.put(fp(1), FakePayload({"a": 1}))
        store.close()
        segment = self._segment_path(store)
        with segment.open("a", encoding="utf-8") as handle:
            handle.write('["not", "a", "dict"]\n')
            handle.write(json.dumps({"v": JOURNAL_VERSION,
                                     "fingerprint": 42,
                                     "result": {}}) + "\n")
            handle.write(json.dumps({"v": JOURNAL_VERSION,
                                     "fingerprint": fp(3),
                                     "result": "not-a-dict"}) + "\n")
        fresh = ResultStore(tmp_path / "store")
        assert fresh.get(fp(1)) == {"a": 1}
        assert fresh.get(fp(3)) is None
        assert fresh.stats()["skipped"] == 3

    def test_leftover_index_file_is_ignored(self, store, tmp_path):
        """Stores once kept an ``index.jsonl`` locator in their root; a
        stale or garbled one left behind changes nothing."""
        store.put(fp(1), FakePayload({"a": 1}))
        store.put(fp(2), FakePayload({"b": 2}))
        store.close()
        (tmp_path / "store" / "index.jsonl").write_text(
            json.dumps({"v": JOURNAL_VERSION, "fingerprint": fp(1),
                        "segment": "seg-gone.jsonl"}) + "\n"
            + json.dumps({"v": JOURNAL_VERSION, "fingerprint": fp(3),
                          "result": {"ghost": True}}) + "\n"
            + '{"v": 1, "fingerprint": !!torn!!\n', encoding="utf-8")
        fresh = ResultStore(tmp_path / "store")
        assert fresh.get(fp(1)) == {"a": 1}
        assert fresh.get(fp(2)) == {"b": 2}
        assert fresh.get(fp(3)) is None
        stats = fresh.stats()
        assert stats["segments"] == 1 and stats["live"] == 2
        assert stats["skipped"] == 0

    def test_missing_store_directory_is_just_empty(self, tmp_path):
        fresh = ResultStore(tmp_path / "never-written")
        assert fresh.get(fp(1)) is None
        assert fresh.segment_names() == []
        assert fresh.stats()["segments"] == 0


class TestGc:
    def test_gc_compacts_duplicates_and_stale_versions(self, store,
                                                       tmp_path):
        store.put(fp(1), FakePayload({"version": "old"}))
        store.put(fp(2), FakePayload({"b": 2}))
        store.close()
        second = ResultStore(tmp_path / "store")
        second.put(fp(1), FakePayload({"version": "new"}))
        second.close()
        names = store.segment_names()
        with (store.segment_dir / names[0]).open(
                "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"v": 99, "fingerprint": fp(3),
                                     "result": {}}) + "\n")
        worker = ResultStore(tmp_path / "store")
        summary = worker.gc()
        # Dropped: the superseded fp(1) plus the foreign-version line.
        assert summary == {"live": 2, "removed_segments": 2,
                           "dropped": 2}
        assert worker.get(fp(1)) == {"version": "new"}
        assert worker.get(fp(2)) == {"b": 2}
        stats = worker.stats()
        assert stats["segments"] == 1 and stats["records"] == 2

    def test_gc_is_idempotent(self, store):
        store.put(fp(1), FakePayload({"a": 1}))
        store.close()
        first = store.gc()
        second = store.gc()
        assert first["live"] == second["live"] == 1
        assert second["dropped"] == 0
        assert store.get(fp(1)) == {"a": 1}

    def test_gc_counts_duplicates_within_one_segment(self, store):
        """Two puts of one fingerprint from one writer: gc removes one
        record and says so."""
        store.put(fp(1), FakePayload({"version": "old"}))
        store.put(fp(1), FakePayload({"version": "new"}))
        store.close()
        assert store.gc() == {"live": 1, "removed_segments": 1,
                              "dropped": 1}
        assert store.get(fp(1)) == {"version": "new"}

    def test_gc_on_empty_store(self, store):
        assert store.gc() == {"live": 0, "removed_segments": 0,
                              "dropped": 0}


class TestStats:
    def test_stats_shape_and_counts(self, store):
        for n in range(4):
            store.put(fp(n), FakePayload({"n": n}))
        store.put(fp(0), FakePayload({"n": "dup"}))
        store.close()
        stats = store.stats()
        assert set(stats) == {"path", "segments", "records", "live",
                              "skipped", "bytes"}
        assert stats["segments"] == 1
        assert stats["records"] == 4  # dict per segment: later dup wins
        assert stats["live"] == 4
        assert stats["bytes"] > 0
        assert stats["path"].endswith("store")
