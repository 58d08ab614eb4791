"""Campaign execution: one runner, in-process or sharded over a transport.

:class:`FabricRunner` is the only campaign runner;
:meth:`~repro.testbed.campaign.Campaign.run` always builds one.  A run
has three steps:

* **Cache pre-pass** — cells already in the checkpoint journal (on
  resume), then cells in the persistent
  :class:`~repro.testbed.store.ResultStore`, are installed without
  executing; only the remaining *pending* cells run.  Both caches are
  the same record files read by the same tolerant
  :class:`~repro.testbed.resilience.CheckpointJournal` (a store is a
  directory of them), so a damaged record is a cache miss either way.
  Every fresh successful cell is appended to each one in use.
* **Execution** — with ``workers=1`` and no shard count, pending cells
  run in-process in grid order, and ``progress(spec)`` fires just
  before each one.  Otherwise :func:`plan_shards` partitions them by
  content address (``shard_index(spec.fingerprint(), n)``, a pure
  function of spec and shard count, so two hosts planning the same grid
  agree without talking), a :class:`ShardTransport` executes the
  shards, and ``progress`` fires as each cell merges.
* **Work stealing** — a shard the transport reports failed (worker
  killed, pool broken) re-runs in-process under the same fault policy.
  A cell's outcome depends only on its spec, so a stolen shard produces
  exactly what its worker would have.

A shard travels as one JSON-ready task payload (``{"shard": n,
"collect_metrics": ..., "policy": ..., "specs": [...]}``) and comes
back as a JSON-ready list of cell records; :func:`run_shard_payload` is
the executable half of that protocol.  :class:`InProcessTransport` and
:class:`MultiprocessTransport` implement the seam; a socket transport
for remote hosts only has to move the same two payloads.

Every path — serial, pooled, sharded, resumed, cache-warm — emits
bit-identical results, merged metrics, and reports (pinned by
``tests/test_fabric.py``).  See ``docs/FABRIC.md``.
"""

import concurrent.futures
import multiprocessing
import os

from repro.obs import names as _names
from repro.obs.metrics import MetricsRegistry
from repro.testbed import campaign as _campaign
from repro.testbed import resilience as _resilience
from repro.testbed.scenario import ScenarioSpec
from repro.testbed.store import ResultStore

#: Hex digits of the fingerprint used as the shard key.  64 bits of a
#: SHA-256 is plenty for balance and keeps the arithmetic exact in
#: every JSON-adjacent runtime a future socket transport might talk to.
_KEY_HEX_DIGITS = 16

#: Shards per worker when no shard count is given: small enough to
#: amortise task dispatch, large enough that a slow cell does not
#: serialise the tail of the run.
_CHUNKS_PER_WORKER = 4


def shard_index(fingerprint, shard_count):
    """The home shard for a content address: stable, uniform, portable."""
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count!r}")
    return int(fingerprint[:_KEY_HEX_DIGITS], 16) % shard_count


class ShardPlan:
    """A deterministic partition of grid cells into shards.

    ``shards`` is a tuple of per-shard cell tuples (each cell a
    ``(grid_index, spec)`` pair, in grid order within the shard);
    ``assignments`` maps each cell's fingerprint to its shard id.
    """

    __slots__ = ("shard_count", "shards", "assignments")

    def __init__(self, shard_count, shards, assignments):
        self.shard_count = shard_count
        self.shards = tuple(tuple(shard) for shard in shards)
        self.assignments = dict(assignments)

    def cells(self):
        """Every planned cell, shard-major (shard 0 first)."""
        for shard in self.shards:
            yield from shard

    def __repr__(self):
        sizes = [len(shard) for shard in self.shards]
        return f"<ShardPlan shards={sizes}>"


def plan_shards(cells, shard_count, fingerprints=None):
    """Partition ``cells`` (``(index, spec)`` pairs) by content address.

    ``fingerprints`` optionally supplies each cell's precomputed
    fingerprint (same order as ``cells``) so callers that already paid
    for the hashes do not pay twice.  Every cell lands in exactly one
    shard — the union of the planned shards is an exact partition of
    the input (a Hypothesis property pins this for all grids and shard
    counts).
    """
    if fingerprints is None:
        fingerprints = [spec.fingerprint() for _, spec in cells]
    shards = [[] for _ in range(shard_count)]
    assignments = {}
    for (index, spec), fingerprint in zip(cells, fingerprints):
        home = shard_index(fingerprint, shard_count)
        shards[home].append((index, spec))
        assignments[fingerprint] = home
    return ShardPlan(shard_count, shards, assignments)


# -- running cells ------------------------------------------------------------


def default_worker_count():
    """One worker per CPU (at least one)."""
    return os.cpu_count() or 1


def pool_context():
    """The preferred multiprocessing context, or ``None`` if unusable.

    ``fork`` when the platform offers it (cheapest, and fork workers
    inherit chaos-test monkeypatching), otherwise the platform default;
    ``None`` makes callers fall back to in-process execution.
    """
    try:
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        return None


def _run_cell(spec, policy, collect_metrics):
    """One cell under the optional fault policy: ``(result, stats)``.

    Without a policy a raising cell fails the run (the historical
    contract); under one, failures become quarantined ``CellFailure``
    results.  ``run_cell`` is resolved through the campaign module at
    call time so fork-started workers observe chaos-test monkeypatching.
    """
    if policy is None:
        result = _campaign.run_cell(spec, collect_metrics=collect_metrics)
        return result, {"attempts": 1, "timeouts": 0}
    return _resilience.run_cell_with_policy(
        spec, policy, collect_metrics=collect_metrics)


def run_shard_payload(task):
    """Execute one shard task payload; returns its cell record list.

    ``task`` is the JSON-ready dict a transport moves to a worker.  Each
    returned record pairs a cell payload with its attempt stats::

        {"cell": {...}, "attempts": 1, "timeouts": 0}

    Module-level so it pickles under every start method (fork or spawn).
    """
    policy = task["policy"]
    if policy is not None:
        policy = _resilience.FaultPolicy.from_dict(policy)
    records = []
    for payload in task["specs"]:
        result, stats = _run_cell(ScenarioSpec.from_dict(payload), policy,
                                  task["collect_metrics"])
        records.append({"cell": result.to_dict(),
                        "attempts": stats["attempts"],
                        "timeouts": stats["timeouts"]})
    return records


# -- the transport seam -------------------------------------------------------


class ShardTransport:
    """Where shard tasks execute: the host/process seam.

    ``dispatch(tasks)`` consumes a list of shard task payloads and
    yields one ``(shard_id, records, error)`` triple per task, *in task
    order* (deterministic merging is the runner's job, ordered delivery
    is the transport's).  ``records`` is the shard's cell record list
    on success; on failure it is ``None`` and ``error`` carries the
    exception, which tells the runner to steal the shard.  Implementing
    these semantics over a socket — ship the task dict, read back the
    record list — is all a remote-host transport needs.
    """

    def dispatch(self, tasks):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__}>"


class InProcessTransport(ShardTransport):
    """Run every shard in the calling process (no pool, no pickling)."""

    def dispatch(self, tasks):
        for task in tasks:
            try:
                yield task["shard"], run_shard_payload(task), None
            except Exception as exc:
                yield task["shard"], None, exc


class MultiprocessTransport(ShardTransport):
    """One process-pool future per shard; a broken pool fails per-shard.

    Worker processes are long-lived and reused across shards; the pool
    has ``workers`` processes (``None``: one per CPU), capped at the
    number of shards.  A shard whose worker dies (or whose pool cannot
    deliver) is reported as a per-shard failure rather than failing the
    dispatch, so the runner can steal exactly the affected shards; if
    the pool cannot be created at all, every task runs in-process.
    """

    def __init__(self, workers=None):
        self.workers = workers

    def dispatch(self, tasks):
        if not tasks:
            return
        context = pool_context()
        workers = self.workers or default_worker_count()
        workers = max(1, min(workers, len(tasks)))
        if context is None:
            yield from InProcessTransport().dispatch(tasks)
            return
        try:
            executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, mp_context=context)
        except (OSError, ValueError):  # pragma: no cover - exotic platforms
            yield from InProcessTransport().dispatch(tasks)
            return
        with executor:
            futures = [executor.submit(run_shard_payload, task)
                       for task in tasks]
            for task, future in zip(tasks, futures):
                try:
                    yield task["shard"], future.result(), None
                except Exception as exc:  # BrokenProcessPool, OSError, ...
                    yield task["shard"], None, exc


# -- the runner ---------------------------------------------------------------


def _check_count(name, value):
    """Return ``value`` if it is ``None`` or an int >= 1 (not a bool);
    raise ``ValueError`` otherwise."""
    if value is None or (isinstance(value, int)
                         and not isinstance(value, bool) and value >= 1):
        return value
    raise ValueError(f"{name} must be None or an int >= 1, got {value!r}")


class FabricRunner:
    """Execute a campaign's grid, in-process or as shards over a transport.

    Parameters
    ----------
    campaign:
        The campaign whose grid should be executed.  :meth:`run`
        replaces its ``results``, ``quarantine`` and ``run_metrics``.
    shard_count:
        How many shards to plan.  ``None`` derives it from ``workers``
        (``workers * 4``, capped at the number of pending cells).
    transport:
        A :class:`ShardTransport`; default :class:`MultiprocessTransport`.
    workers:
        ``1`` (the default) with no ``shard_count`` runs every cell
        in-process.  Otherwise the default transport's pool size:
        ``None`` — or ``1`` with an explicit ``shard_count`` — means one
        worker per CPU.
    """

    def __init__(self, campaign, shard_count=None, transport=None,
                 workers=1):
        self.campaign = campaign
        self.shard_count = _check_count("shard_count", shard_count)
        self.workers = _check_count("workers", workers)
        self.transport = transport
        #: The :class:`ShardPlan` of the most recent sharded run (pending
        #: cells only — cached cells are never planned).
        self.plan = None
        #: Runner counters for the most recent run (``campaign.*``).
        self.metrics = MetricsRegistry(enabled=True)

    def run(self, progress=None, collect_metrics=False, checkpoint=None,
            resume=False, fault_policy=None, store=None):
        """Execute the grid and install the merged results.

        ``progress(spec)`` fires exactly once per cell: immediately for
        cells restored from a cache, just before each cell that runs
        in-process (stolen shards included), and as each cell merges
        from a pool.  ``collect_metrics`` makes every cell run observed
        and carry its metrics snapshot home through the same JSON
        round-trip as the rest of the result.

        ``checkpoint`` (a path) journals every completed cell through a
        :class:`~repro.testbed.resilience.CheckpointJournal`;
        ``resume=True`` re-emits journaled cells instead of running
        them.  ``store`` (a path or
        :class:`~repro.testbed.store.ResultStore`) is consulted before
        any cell executes and records every fresh successful cell.
        ``fault_policy`` applies a per-cell timeout/retry budget; cells
        that exhaust it become quarantined
        :class:`~repro.testbed.resilience.CellFailure` entries on
        ``campaign.quarantine`` instead of failing the sweep.

        Returns the successful result list (also assigned to
        ``campaign.results``, in grid order); ``campaign.run_metrics``
        receives this run's counter snapshot.
        """
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint path")
        cells = list(self.campaign.cells())
        self.metrics = MetricsRegistry(enabled=True)
        self.plan = None
        self._slots = [None] * len(cells)
        self._store = ResultStore.ensure(store)
        self._journal = (None if checkpoint is None
                         else _resilience.CheckpointJournal(checkpoint))
        self._fingerprints = None
        if self._journal is not None or self._store is not None:
            self._fingerprints = [spec.fingerprint() for spec in cells]
        pending = self._prepare(cells, resume, progress)
        try:
            if self._journal is not None:
                self._journal.open()
            # The store opens its writer segment lazily on first put,
            # so a fully warm run leaves no empty segment behind.
            if self.shard_count is None and self.workers == 1:
                self._run_local(pending, progress, fault_policy,
                                collect_metrics)
            else:
                self._run_sharded(pending, progress, fault_policy,
                                  collect_metrics)
        finally:
            if self._journal is not None:
                self._journal.close()
            if self._store is not None:
                self._store.close()
        campaign = self.campaign
        campaign.results = [cell for cell in self._slots if not cell.failure]
        campaign.quarantine = [cell for cell in self._slots if cell.failure]
        campaign.run_metrics = self.metrics.snapshot()
        return campaign.results

    def _count(self, name, amount=1):
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc(name, amount)

    def _prepare(self, cells, resume, progress):
        """The cache pre-pass: returns the pending ``(index, spec)`` cells.

        Consults the checkpoint journal first (this run's own past),
        then the persistent result store (any past run's cells): a
        cached cell is installed into its slot immediately — counted as
        ``campaign.cells_resumed`` or ``campaign.cache_hits``, with
        ``progress`` fired — and only the remainder is pending.
        """
        store = self._store
        cache = self._journal.load() if resume else {}
        pending = []
        for index, spec in enumerate(cells):
            fingerprint = (None if self._fingerprints is None
                           else self._fingerprints[index])
            payload = cache.get(fingerprint) if cache else None
            if payload is not None:
                self._count(_names.CAMPAIGN_CELLS_RESUMED)
            elif store is not None:
                payload = store.get(fingerprint)
                if payload is not None:
                    self._count(_names.CAMPAIGN_CACHE_HITS)
            if payload is not None:
                self._slots[index] = _resilience.result_from_dict(payload)
                if progress is not None:
                    progress(spec)
            else:
                pending.append((index, spec))
        if store is not None:
            self._count(_names.CAMPAIGN_CACHE_MISSES, len(pending))
        return pending

    def _merge_cell(self, index, result, stats):
        """Install one finished cell: slot, counters, journal, store."""
        self._slots[index] = result
        self._count(_names.CAMPAIGN_RETRIES, stats["attempts"] - 1)
        self._count(_names.CAMPAIGN_CELL_TIMEOUTS, stats["timeouts"])
        if result.failure:
            self._count(_names.CAMPAIGN_CELLS_QUARANTINED)
            return
        self._count(_names.CAMPAIGN_CELLS_RUN)
        if self._journal is not None:
            self._journal.append(self._fingerprints[index], result)
            self._count(_names.CAMPAIGN_CHECKPOINT_WRITES)
        if self._store is not None:
            self._store.put(self._fingerprints[index], result)
            self._count(_names.CAMPAIGN_STORE_WRITES)

    def _run_local(self, cells, progress, policy, collect_metrics):
        """Run ``(index, spec)`` cells in-process, in order, firing
        ``progress`` just before each cell runs."""
        for index, spec in cells:
            if progress is not None:
                progress(spec)
            result, stats = _run_cell(spec, policy, collect_metrics)
            self._merge_cell(index, result, stats)

    def _run_sharded(self, pending, progress, policy, collect_metrics):
        """Plan ``pending`` into shards, dispatch them, steal failures."""
        shard_count = self.shard_count
        if shard_count is None:
            workers = self.workers or default_worker_count()
            shard_count = max(1, min(len(pending),
                                     workers * _CHUNKS_PER_WORKER))
        fingerprints = (None if self._fingerprints is None
                        else [self._fingerprints[index]
                              for index, _ in pending])
        self.plan = plan = plan_shards(pending, shard_count, fingerprints)
        shards = [(sid, shard) for sid, shard in enumerate(plan.shards)
                  if shard]
        self._count(_names.CAMPAIGN_SHARDS_PLANNED, len(shards))
        policy_payload = None if policy is None else policy.to_dict()
        tasks = [{"shard": sid,
                  "collect_metrics": collect_metrics,
                  "policy": policy_payload,
                  "specs": [spec.to_dict() for _, spec in shard]}
                 for sid, shard in shards]
        transport = self.transport
        if transport is None:
            transport = MultiprocessTransport(
                workers=None if self.workers == 1 else self.workers)
        for sid, records, error in transport.dispatch(tasks):
            shard = plan.shards[sid]
            if error is not None:
                self._count(_names.CAMPAIGN_SHARDS_STOLEN)
                self._run_local(shard, progress, policy, collect_metrics)
                continue
            for (index, spec), record in zip(shard, records):
                self._merge_cell(
                    index, _resilience.result_from_dict(record["cell"]),
                    record)
                if progress is not None:
                    progress(spec)
