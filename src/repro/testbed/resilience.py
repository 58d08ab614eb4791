"""Fault-tolerant, resumable campaign execution.

The paper's results are all large parameter sweeps (Tables 2-5 span
phone models x PSM timeouts x nRTT x congestion); at production scale a
crashed worker or one hung cell must not discard an hour of completed
cells.  This module provides the three pieces the campaign runners wire
together:

* **Checkpoint journal** — :class:`CheckpointJournal`, an append-only
  JSONL file of completed cell results keyed by the content-addressed
  :meth:`~repro.testbed.scenario.ScenarioSpec.fingerprint` of each
  spec.  Every record is written through :func:`append_journal_record`
  (one ``write`` + ``flush`` per record), so a crash can only tear the
  final line — which the tolerant reader skips like any other unusable
  line.  It is the only code that reads or appends cell records: the
  persistent :class:`~repro.testbed.store.ResultStore` is a directory
  of journals.  Invariant ``RL104`` flags journal writes that bypass
  the helper.
* **Content-addressed cell cache** — :meth:`CheckpointJournal.load`
  returns ``{fingerprint: result payload}``; a resumed campaign skips
  journaled cells and re-emits their cached results byte-for-byte, so
  an interrupted sweep restarts in O(remaining cells) and the final
  result list (merged metrics included) is bit-identical to an
  uninterrupted run.
* **Per-cell fault policy** — :class:`FaultPolicy` bounds each cell
  with a wall-clock timeout, deterministic retry backoff, and a retry
  budget; :func:`run_cell_with_policy` applies it and converts a cell
  that still fails into a quarantined :class:`CellFailure` carrying the
  captured exception and traceback.  One pathological cell fails the
  cell, never the sweep.

``run_cell`` is resolved late through :mod:`repro.testbed.campaign`
(module attribute, not a bound import) so the chaos test layer
(``tests/chaos.py``) can inject worker kills, transient exceptions, and
hung cells at a single choke point.  See ``docs/RESILIENCE.md``.
"""

import json
import math
import os
import pathlib
import threading
import time
import traceback

from repro.testbed import campaign as _campaign

#: Journal record schema version; bumped if the record shape changes.
JOURNAL_VERSION = 1


class CellTimeout(Exception):
    """A cell exceeded its :class:`FaultPolicy` wall-clock budget."""


class FaultPolicy:
    """Per-cell fault handling: timeout, bounded retries, backoff.

    Parameters
    ----------
    cell_timeout:
        Wall-clock seconds one attempt of one cell may take; ``None``
        (default) disables the timeout and the cell runs inline with no
        thread overhead.  Simulated time is unaffected — the budget is
        host time, for catching genuinely hung cells.
    retries:
        How many times a failing (raising or timed-out) cell is re-run
        before it is quarantined.  ``retries=N`` means at most ``N + 1``
        attempts.  A retried cell is deterministic, so a transient
        failure that clears produces the exact result an untroubled run
        would have.
    backoff:
        Base of the deterministic backoff slept between attempts, in
        wall-clock seconds: attempt ``i`` (0-based) waits
        ``backoff * 2**i``.  The schedule is a pure function of the
        policy — no jitter — so fault handling never introduces
        nondeterminism.

    Every wait must fit ``threading.TIMEOUT_MAX`` (about 292 years):
    NaN, infinite or larger budgets, and a backoff schedule whose last
    sleep exceeds it, raise ``ValueError`` here instead of failing every
    cell of a run.
    """

    __slots__ = ("cell_timeout", "retries", "backoff")

    def __init__(self, cell_timeout=None, retries=0, backoff=0.0):
        # The chained comparisons are False for NaN, so they reject it.
        if cell_timeout is not None:
            if (isinstance(cell_timeout, bool)
                    or not isinstance(cell_timeout, (int, float))
                    or not 0 < cell_timeout <= threading.TIMEOUT_MAX):
                raise ValueError(
                    f"cell_timeout must be a positive finite number or "
                    f"None, got {cell_timeout!r}")
        if isinstance(retries, bool) or not isinstance(retries, int) \
                or retries < 0:
            raise ValueError(f"retries must be an int >= 0, got {retries!r}")
        if isinstance(backoff, bool) \
                or not isinstance(backoff, (int, float)) \
                or not 0 <= backoff <= threading.TIMEOUT_MAX:
            raise ValueError(
                f"backoff must be a finite number >= 0, got {backoff!r}")
        self.cell_timeout = cell_timeout
        self.retries = retries
        self.backoff = backoff
        if retries and self.delay(retries - 1) > threading.TIMEOUT_MAX:
            raise ValueError(
                f"backoff {backoff!r} with {retries} retries sleeps "
                f"longer than {threading.TIMEOUT_MAX:g}s before the last "
                "retry")

    def delay(self, attempt):
        """The deterministic sleep after failed attempt ``attempt``
        (0-based): ``backoff * 2**attempt``, ``inf`` past the float
        range."""
        try:
            return math.ldexp(self.backoff, attempt)
        except OverflowError:
            return math.inf

    def to_dict(self):
        """JSON-ready payload (crosses the worker process boundary)."""
        return {"cell_timeout": self.cell_timeout, "retries": self.retries,
                "backoff": self.backoff}

    @classmethod
    def from_dict(cls, data):
        return cls(**data)

    def __repr__(self):
        return (f"<FaultPolicy timeout={self.cell_timeout} "
                f"retries={self.retries} backoff={self.backoff}>")


class CellFailure:
    """A quarantined campaign cell: grid identity plus the captured error.

    Mirrors :class:`~repro.testbed.campaign.CellResult`'s identity
    fields (same :meth:`key`) but carries no samples; ``failure`` is
    ``True`` so runners and reports can split result lists cheaply.
    ``kind`` is ``"timeout"`` when the final attempt hit the policy's
    wall-clock budget, ``"error"`` otherwise.
    """

    failure = True

    __slots__ = ("env", "phone", "rtt", "tool", "cross_traffic", "seed",
                 "error", "traceback", "attempts", "timeouts", "kind")

    def __init__(self, phone, rtt, tool, cross_traffic, seed, error="",
                 traceback="", attempts=1, timeouts=0, kind="error",
                 env="wifi"):
        self.phone = phone
        self.rtt = rtt
        self.tool = tool
        self.cross_traffic = cross_traffic
        self.seed = seed
        self.error = error
        self.traceback = traceback
        self.attempts = attempts
        self.timeouts = timeouts
        self.kind = kind
        self.env = env

    @classmethod
    def from_spec(cls, spec, error, traceback_text="", attempts=1,
                  timeouts=0):
        kind = "timeout" if isinstance(error, CellTimeout) else "error"
        return cls(spec.phone, spec.emulated_rtt, spec.tool,
                   spec.cross_traffic, spec.seed,
                   error=f"{type(error).__name__}: {error}",
                   traceback=traceback_text, attempts=attempts,
                   timeouts=timeouts, kind=kind, env=spec.env)

    def key(self):
        return (self.env, self.phone, self.rtt, self.tool,
                self.cross_traffic)

    def to_dict(self):
        return {
            "failure": True, "env": self.env, "phone": self.phone,
            "rtt": self.rtt, "tool": self.tool,
            "cross_traffic": self.cross_traffic, "seed": self.seed,
            "error": self.error, "traceback": self.traceback,
            "attempts": self.attempts, "timeouts": self.timeouts,
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(data["phone"], data["rtt"], data["tool"],
                   data["cross_traffic"], data["seed"],
                   error=data.get("error", ""),
                   traceback=data.get("traceback", ""),
                   attempts=data.get("attempts", 1),
                   timeouts=data.get("timeouts", 0),
                   kind=data.get("kind", "error"),
                   env=data.get("env", "wifi"))

    def __repr__(self):
        return (f"<CellFailure {self.env}:{self.phone} "
                f"{self.rtt * 1e3:.0f}ms {self.tool} kind={self.kind} "
                f"attempts={self.attempts}>")


def result_from_dict(payload):
    """Revive a journal/shard payload: ``CellResult`` or ``CellFailure``."""
    if payload.get("failure"):
        return CellFailure.from_dict(payload)
    return _campaign.CellResult.from_dict(payload)


# -- the checkpoint journal ---------------------------------------------------


def append_journal_record(handle, record):
    """The atomic-append helper every checkpoint write goes through.

    One record becomes exactly one ``write()`` of a complete JSONL line
    followed by a ``flush()``, so the journal can only ever be torn at
    its final line — once data reaches the OS it survives a process
    crash, and the tolerant loader discards a torn tail.  Invariant
    ``RL104`` flags journal/checkpoint writes that bypass this helper.

    Key order is preserved verbatim (no ``sort_keys``): a resumed cell
    must re-emit the exact payload the original run produced, byte for
    byte, through ``Campaign.save()`` — canonicalisation belongs to the
    fingerprint (``ScenarioSpec.canonical_json()``), not the record.
    """
    line = json.dumps(record, separators=(",", ":")) + "\n"
    handle.write(line)
    handle.flush()


class CheckpointJournal:
    """Append-only JSONL file of completed campaign cells.

    The one reader and writer of cell record files: a campaign
    checkpoint is one journal, and a
    :class:`~repro.testbed.store.ResultStore` is a directory of them
    (one private segment per writer).  Each line is one record::

        {"v": 1, "fingerprint": "<sha256 of the spec>", "result": {...}}

    where ``result`` is the ``CellResult.to_dict()`` payload — the same
    JSON that round-trips :meth:`Campaign.save`/``load`` and the worker
    protocol, so a cached cell re-emits byte-identically.  Only
    successful cells are journaled: a quarantined cell re-runs on
    resume (its failure may have been transient).

    Reads are tolerant: a line that does not parse, carries another
    version, or has the wrong shape is skipped and counted, and reading
    continues — a damaged record is a cache miss, never a crash or a
    lost tail.  A crash can only tear the final line, which is skipped
    the same way.

    ``durable=True`` adds an ``fsync`` per record — survives power loss
    at the cost of a disk round-trip per cell; the default (``flush``
    only) survives process crashes, which is the fault model the chaos
    suite exercises.
    """

    __slots__ = ("path", "durable", "_handle")

    def __init__(self, path, durable=False):
        self.path = pathlib.Path(path)
        self.durable = durable
        self._handle = None

    # -- reading --------------------------------------------------------------

    def scan(self):
        """One tolerant pass: ``(cache, records, skipped)``.

        ``cache`` is ``{fingerprint: payload}`` with later records
        winning on duplicate fingerprints (a journal reused without
        ``resume`` appends fresh results after the old ones);
        ``records`` counts the valid records read, duplicates included;
        ``skipped`` counts the unusable lines.  A missing or unreadable
        file scans as empty.
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            return {}, 0, 0
        cache = {}
        records = skipped = 0
        for line in text.split("\n"):
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if (not isinstance(record, dict)
                    or record.get("v") != JOURNAL_VERSION
                    or not isinstance(record.get("fingerprint"), str)
                    or not isinstance(record.get("result"), dict)):
                skipped += 1
                continue
            cache[record["fingerprint"]] = record["result"]
            records += 1
        return cache, records, skipped

    def load(self):
        """The content-addressed cell cache: ``{fingerprint: payload}``."""
        return self.scan()[0]

    # -- writing --------------------------------------------------------------

    def open(self):
        """Open for appending (creating parent directories); returns self."""
        if self._handle is None:
            if self.path.parent != pathlib.Path("."):
                self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self

    def append(self, fingerprint, result):
        """Journal one completed cell (must be :meth:`open`).

        ``result`` is a :class:`~repro.testbed.campaign.CellResult` (or
        anything with ``to_dict()``) or an already serialized payload
        dict; returns the payload written.
        """
        if self._handle is None:
            raise RuntimeError("journal is not open for appending")
        payload = result if isinstance(result, dict) else result.to_dict()
        append_journal_record(self._handle, {
            "v": JOURNAL_VERSION, "fingerprint": fingerprint,
            "result": payload,
        })
        if self.durable:
            os.fsync(self._handle.fileno())
        return payload

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self.open()

    def __exit__(self, exc_type, exc, tb):
        self.close()

    def __repr__(self):
        state = "open" if self._handle is not None else "closed"
        return f"<CheckpointJournal {self.path} {state}>"


# -- fault-policy execution ---------------------------------------------------


def _call_with_timeout(fn, timeout):
    """Run ``fn()`` with a wall-clock budget; raises :class:`CellTimeout`.

    ``timeout=None`` calls inline (zero overhead).  Otherwise the call
    runs on a daemon thread and the caller waits ``join(timeout)`` — a
    cell that never returns is abandoned (the thread dies with the
    process), which is the only portable way to survive a wedged cell
    without killing the whole worker.
    """
    if timeout is None:
        return fn()
    outcome = {}

    def target():
        try:
            outcome["result"] = fn()
        except BaseException as exc:  # re-raised in the waiting caller
            outcome["error"] = exc

    worker = threading.Thread(target=target, daemon=True,
                              name="repro-cell-attempt")
    worker.start()
    worker.join(timeout)
    if worker.is_alive():
        raise CellTimeout(
            f"cell exceeded its {timeout:g}s wall-clock budget")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


def run_cell_with_policy(spec, policy=None, collect_metrics=False):
    """Execute one cell under a :class:`FaultPolicy`.

    Returns ``(result, stats)`` where ``result`` is a
    :class:`~repro.testbed.campaign.CellResult` on success or a
    :class:`CellFailure` after the retry budget is exhausted, and
    ``stats`` is ``{"attempts": n, "timeouts": m}`` for the runner's
    metrics.  ``run_cell`` is looked up on the campaign module at call
    time so chaos injectors (and only chaos injectors) can replace it.
    """
    policy = FaultPolicy() if policy is None else policy
    timeouts = 0
    last_error = None
    last_traceback = ""
    for attempt in range(policy.retries + 1):
        try:
            result = _call_with_timeout(
                lambda: _campaign.run_cell(
                    spec, collect_metrics=collect_metrics),
                policy.cell_timeout)
        except CellTimeout as exc:
            timeouts += 1
            last_error = exc
            last_traceback = ""
        except Exception as exc:
            last_error = exc
            last_traceback = "".join(traceback.format_exception(
                type(exc), exc, exc.__traceback__))
        else:
            return result, {"attempts": attempt + 1, "timeouts": timeouts}
        if attempt < policy.retries:
            time.sleep(policy.delay(attempt))
    failure = CellFailure.from_spec(
        spec, last_error, traceback_text=last_traceback,
        attempts=policy.retries + 1, timeouts=timeouts)
    return failure, {"attempts": policy.retries + 1, "timeouts": timeouts}
