"""Structured trace recording.

Components emit trace records — ``(time, category, message, fields)`` —
through the simulator's recorder.  Tests use traces to assert *why*
something happened (e.g. "the bus demoted exactly once"), and the examples
use them to narrate a measurement run.

Recording is off by default so the hot path costs a single attribute check.
Hot call sites should guard on :attr:`TraceRecorder.enabled` *before*
calling :meth:`TraceRecorder.record` — that skips the call frame and the
keyword-argument packing entirely when tracing is off::

    if sim.trace.enabled:
        sim.trace.record(sim.now, "sdio", "bus sleep", bus=self.name)

(``repro lint`` rule ``RL001`` checks that every call site keeps the
guard.)  The recorder keeps a per-category index so
``select(category=...)`` is O(matches), and counts records dropped by
the ``limit`` per category.
"""

from collections import Counter


class TraceRecord:
    """One trace entry."""

    __slots__ = ("time", "category", "message", "fields")

    def __init__(self, time, category, message, fields):
        self.time = time
        self.category = category
        self.message = message
        self.fields = fields

    def __repr__(self):
        extra = " ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"[{self.time * 1e3:10.3f}ms] {self.category}: {self.message} {extra}".rstrip()


class TraceRecorder:
    """Collects :class:`TraceRecord` objects, optionally filtered by category."""

    __slots__ = ("enabled", "categories", "limit", "records", "dropped",
                 "dropped_by_category", "_by_category")

    def __init__(self, enabled=True, categories=None, limit=None):
        self.enabled = enabled
        self.categories = set(categories) if categories else None
        self.limit = limit
        self.records = []
        self.dropped = 0
        self.dropped_by_category = Counter()
        self._by_category = {}

    def record(self, time, category, message, **fields):
        """Store one record (honouring the category filter and limit)."""
        if not self.enabled:
            return
        if self.categories is not None and category not in self.categories:
            return
        if self.limit is not None and len(self.records) >= self.limit:
            self.dropped += 1
            self.dropped_by_category[category] += 1
            return
        entry = TraceRecord(time, category, message, fields)
        self.records.append(entry)
        bucket = self._by_category.get(category)
        if bucket is None:
            bucket = self._by_category[category] = []
        bucket.append(entry)

    def select(self, category=None, message=None):
        """Return records matching a category and/or message substring.

        With a ``category`` the per-category index makes this O(matches)
        rather than a scan of every record.
        """
        if category is not None:
            candidates = self._by_category.get(category, [])
            if message is None:
                return list(candidates)
        else:
            candidates = self.records
        out = []
        for record in candidates:
            if message is not None and message not in record.message:
                continue
            out.append(record)
        return out

    def count(self, category=None, message=None):
        """Number of matching records."""
        if category is not None and message is None:
            return len(self._by_category.get(category, ()))
        return len(self.select(category=category, message=message))

    def summary(self, dropped=False):
        """Counter of records per category.

        With ``dropped=True``, returns ``{"recorded": Counter,
        "dropped": Counter}`` so limit-induced losses are visible next
        to what survived.
        """
        recorded = Counter({category: len(bucket)
                            for category, bucket in self._by_category.items()
                            if bucket})
        if dropped:
            return {"recorded": recorded,
                    "dropped": Counter(self.dropped_by_category)}
        return recorded

    def clear(self):
        """Drop all stored records and reset the dropped accounting."""
        self.records.clear()
        self._by_category.clear()
        self.dropped = 0
        self.dropped_by_category.clear()

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)
