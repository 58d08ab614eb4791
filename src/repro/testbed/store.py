"""Persistent content-addressed result store: memoization as a service.

The checkpoint journal (:mod:`repro.testbed.resilience`) makes one
campaign resumable; this module makes every campaign — past or future,
across processes — reuse cells any earlier run already computed.  The
:class:`ResultStore` maps a cell's content address
(:meth:`~repro.testbed.scenario.ScenarioSpec.fingerprint`) to its
serialized :class:`~repro.testbed.campaign.CellResult` payload, metrics
snapshot included, so a cache-warm sweep re-emits every cell
byte-identically without executing anything.

On-disk layout (``docs/FABRIC.md``)::

    <root>/
      segments/seg-<writer>-<n>.jsonl   # append-only record files

Each segment is a :class:`~repro.testbed.resilience.CheckpointJournal`
— same record format, same version, same tolerant reader — so a
checkpoint and a store segment are interchangeable files.  Every writer
appends to its **own** segment (the name embeds the writer id), which
is what makes concurrent ``put`` from several processes safe: no two
processes ever share an append handle.

The first :meth:`~ResultStore.get` reads every segment, in sorted name
order, into memory; later records win on duplicate fingerprints, and a
writer's own ``put`` is visible at once.  An unusable line is skipped
(and counted in :meth:`~ResultStore.stats`): a corrupted record simply
misses the cache and the cell re-executes.  :meth:`~ResultStore.gc`
compacts the live records into one fresh segment and drops unusable and
superseded records.

Lint rule ``RL107`` keeps the journal's module the only place that
opens record files directly; everything else goes through the classes.
"""

import os
import pathlib

from repro.testbed.resilience import CheckpointJournal

_SEGMENT_DIR = "segments"

#: Per-process counter so two stores opened by one process get distinct
#: segment names (the writer id embeds the pid for cross-process
#: uniqueness; no wall clock involved, so naming stays deterministic
#: for a given process history).
_WRITER_SEQ = [0]


def _new_segment_name(suffix=""):
    _WRITER_SEQ[0] += 1
    # Zero-padded so lexicographic segment order == creation order for
    # one writer (later segments win on duplicate fingerprints).
    return f"seg-{os.getpid()}-{_WRITER_SEQ[0]:08d}{suffix}.jsonl"


class ResultStore:
    """Content-addressed cache of completed campaign cells.

    Parameters
    ----------
    root:
        Directory holding the store (created on first write).
    durable:
        ``fsync`` each appended record — survives power loss at a disk
        round-trip per cell; the default (``flush`` only) survives
        process crashes.
    """

    __slots__ = ("root", "durable", "_cache", "_writer")

    def __init__(self, root, durable=False):
        self.root = pathlib.Path(root)
        self.durable = durable
        self._cache = None  # {fingerprint: payload}, read on first get
        self._writer = None  # this writer's private segment

    @classmethod
    def ensure(cls, store):
        """Coerce a path (or ``None``/instance) to a store instance."""
        if store is None or isinstance(store, cls):
            return store
        return cls(store)

    # -- paths ---------------------------------------------------------------

    @property
    def segment_dir(self):
        return self.root / _SEGMENT_DIR

    def segment_names(self):
        """Every segment file name, sorted (deterministic scan order)."""
        try:
            names = [entry.name for entry in self.segment_dir.iterdir()
                     if entry.name.endswith(".jsonl")]
        except OSError:
            return []
        return sorted(names)

    # -- reading -------------------------------------------------------------

    def _scan_segments(self):
        """``[(name, cache, records, skipped), ...]`` in segment order."""
        return [(name,) + CheckpointJournal(self.segment_dir / name).scan()
                for name in self.segment_names()]

    def _load(self):
        if self._cache is None:
            cache = {}
            for _, segment, _, _ in self._scan_segments():
                cache.update(segment)
            self._cache = cache
        return self._cache

    def contains(self, fingerprint):
        """Whether the store holds a result for this content address."""
        return self.get(fingerprint) is not None

    def get(self, fingerprint):
        """The cached result payload for ``fingerprint``, or ``None``."""
        return self._load().get(fingerprint)

    # -- writing -------------------------------------------------------------

    def open(self):
        """Open a private segment for appending; returns self."""
        if self._writer is None:
            self._writer = CheckpointJournal(
                self.segment_dir / _new_segment_name(),
                durable=self.durable).open()
        return self

    def put(self, fingerprint, result):
        """Store one completed cell under its content address.

        ``result`` is a :class:`~repro.testbed.campaign.CellResult` (or
        anything with ``to_dict()``).  Opens the writer segment on first
        use; one record is one flushed line.
        """
        if self._writer is None:
            self.open()
        payload = self._writer.append(fingerprint, result)
        if self._cache is not None:
            self._cache[fingerprint] = payload
        return fingerprint

    def close(self):
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __enter__(self):
        return self.open()

    def __exit__(self, exc_type, exc, tb):
        self.close()

    # -- maintenance ---------------------------------------------------------

    def gc(self):
        """Compact live records into one fresh segment.

        Drops superseded duplicates and unusable lines (stale versions
        included) and removes the old segments.  Safe to run on a store
        nobody is writing; returns a summary dict
        (``live``/``removed_segments``/``dropped`` counts).
        """
        self.close()
        scans = self._scan_segments()
        live = {}
        dropped = 0
        for _, segment, records, skipped in scans:
            live.update(segment)
            dropped += records + skipped
        dropped -= len(live)
        with CheckpointJournal(
                self.segment_dir / _new_segment_name("-gc")) as compacted:
            for fingerprint in sorted(live):
                compacted.append(fingerprint, live[fingerprint])
        for name, _, _, _ in scans:
            try:
                (self.segment_dir / name).unlink()
            except OSError:
                pass
        self._cache = live
        return {"live": len(live), "removed_segments": len(scans),
                "dropped": dropped}

    def stats(self):
        """Occupancy summary: segments, records, live entries, bytes.

        ``records`` counts distinct fingerprints per segment, summed.
        """
        scans = self._scan_segments()
        live = {}
        total_bytes = 0
        for name, segment, _, _ in scans:
            live.update(segment)
            try:
                total_bytes += (self.segment_dir / name).stat().st_size
            except OSError:
                pass
        return {
            "path": str(self.root),
            "segments": len(scans),
            "records": sum(len(segment) for _, segment, _, _ in scans),
            "live": len(live),
            "skipped": sum(skipped for _, _, _, skipped in scans),
            "bytes": total_bytes,
        }

    def __repr__(self):
        state = "open" if self._writer is not None else "closed"
        return f"<ResultStore {self.root} {state}>"
