"""Batch experiment campaigns.

A *campaign* is a grid of experiment cells (environment x phone x
emulated RTT x tool x cross-traffic) run deterministically and collected
into a serialisable result set — the structure behind "we run the full
Table 5 sweep nightly" workflows.  The grid enumerates
:class:`~repro.testbed.scenario.ScenarioSpec` objects, so one campaign
can sweep WiFi and cellular cells side by side.  Results round-trip
through JSON so separate processes (or machines) can split the grid and
merge; per-cell seeds make every cell independent, which is what lets
:class:`~repro.testbed.fabric.FabricRunner` run the grid in-process or
shard it across worker processes with bit-identical output.
"""

import itertools
import json

from repro.analysis.stats import SummaryStats
from repro.obs.metrics import (check_snapshot, is_finite_number,
                                merge_snapshots)
from repro.testbed.scenario import ScenarioSpec, run_scenario


class CampaignFileError(ValueError):
    """A file :meth:`Campaign.load` cannot read back: missing, not JSON,
    or not the record :meth:`Campaign.save` writes."""


def _is_str(value):
    return isinstance(value, str)


#: The fields of a saved cell record (result or quarantined failure)
#: and the check each value must pass; ``env`` may be absent (WiFi).
_CELL_FIELDS = {
    "env": _is_str, "phone": _is_str, "tool": _is_str,
    "rtt": is_finite_number, "seed": lambda value: type(value) is int,
    "cross_traffic": lambda value: isinstance(value, bool),
}
_RESULT_FIELDS = dict(
    _CELL_FIELDS,
    rtts=lambda value: (isinstance(value, list)
                        and all(map(is_finite_number, value))),
    layers=lambda value: value is None or isinstance(value, dict))


def _check_cell(record, fields, where):
    """Raise :class:`CampaignFileError` unless ``record`` has ``fields``."""
    if not isinstance(record, dict):
        raise CampaignFileError(f"{where} is not an object")
    record = dict({"env": "wifi", "layers": None}, **record)
    for field, valid in fields.items():
        if field not in record or not valid(record[field]):
            raise CampaignFileError(f"{where} has no valid {field!r}")
    if record.get("metrics") is not None:
        try:
            check_snapshot(record["metrics"])
        except ValueError as exc:
            raise CampaignFileError(f"{where}: {exc}") from None


class CellResult:
    """The outcome of one campaign cell."""

    #: Successful cells are not failures; quarantined
    #: :class:`~repro.testbed.resilience.CellFailure` entries override
    #: this, so ``result.failure`` splits any mixed list cheaply.
    failure = False

    __slots__ = ("phone", "rtt", "tool", "cross_traffic", "seed",
                 "rtts", "layers", "metrics", "env")

    def __init__(self, phone, rtt, tool, cross_traffic, seed, rtts,
                 layers=None, metrics=None, env="wifi"):
        self.phone = phone
        self.rtt = rtt
        self.tool = tool
        self.cross_traffic = cross_traffic
        self.seed = seed
        self.rtts = rtts
        self.layers = layers or {}
        self.metrics = metrics  # snapshot dict when run with collect_metrics
        self.env = env

    def summary(self):
        return SummaryStats(self.rtts)

    def error(self):
        """Median |measured - emulated| (seconds)."""
        stats = self.summary()
        return abs(stats.median - self.rtt)

    def to_dict(self):
        payload = {
            "env": self.env,
            "phone": self.phone, "rtt": self.rtt, "tool": self.tool,
            "cross_traffic": self.cross_traffic, "seed": self.seed,
            "rtts": self.rtts, "layers": self.layers,
        }
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        return payload

    @classmethod
    def from_dict(cls, data):
        return cls(data["phone"], data["rtt"], data["tool"],
                   data["cross_traffic"], data["seed"], data["rtts"],
                   data.get("layers"), data.get("metrics"),
                   env=data.get("env", "wifi"))

    def key(self):
        return (self.env, self.phone, self.rtt, self.tool,
                self.cross_traffic)

    def __repr__(self):
        return (f"<CellResult {self.env}:{self.phone} {self.rtt * 1e3:.0f}ms "
                f"{self.tool} n={len(self.rtts)}>")


def run_cell(spec, collect_metrics=False):
    """Execute one campaign cell and return its :class:`CellResult`.

    Module-level (rather than a Campaign method) so worker processes can
    import and run cells from a serialized
    :class:`~repro.testbed.scenario.ScenarioSpec` without materialising
    a campaign object.  With ``collect_metrics`` the cell's simulator
    runs with observability enabled and the result carries a
    deterministic metrics snapshot (instrumentation never touches RNG
    streams or the event schedule, so the measured RTTs are identical
    either way).
    """
    if collect_metrics and not spec.observe:
        spec = spec.replace(observe=True)
    result = run_scenario(spec)
    rtts = result.user_rtts
    layers = dict(result.layers) if spec.tool == "acutemon" else {}
    metrics = result.metrics_snapshot() if collect_metrics else None
    return CellResult(spec.phone, spec.emulated_rtt, spec.tool,
                      spec.cross_traffic, spec.seed, rtts, layers, metrics,
                      env=spec.env)


class Campaign:
    """A deterministic grid of measurement cells."""

    def __init__(self, phones=("nexus5",), rtts=(0.030,),
                 tools=("acutemon",), cross_traffic=(False,),
                 count=30, base_seed=0, envs=("wifi",)):
        self.envs = tuple(envs)
        self.phones = tuple(phones)
        self.rtts = tuple(rtts)
        self.tools = tuple(tools)
        self.cross_traffic = tuple(cross_traffic)
        self.count = count
        self.base_seed = base_seed
        self.results = []
        #: Cells that exhausted their fault policy this run, as
        #: :class:`~repro.testbed.resilience.CellFailure` objects.
        self.quarantine = []
        #: Runner-level counter snapshot (``campaign.cells_run``,
        #: ``campaign.cells_resumed``, ``campaign.retries``, ...) from
        #: the most recent run; ``None`` before the first.
        self.run_metrics = None

    @property
    def results(self):
        return self._results

    @results.setter
    def results(self, value):
        # Assigning the result list (run(), load(), merged_with(), tests)
        # rebuilds the key index so result_for() stays O(1) and
        # consistent.  First occurrence wins on duplicate keys, matching
        # the linear scan this index replaced.
        self._results = list(value)
        index = {}
        for result in self._results:
            index.setdefault(result.key(), result)
        self._index = index

    def _append_result(self, result):
        self._results.append(result)
        self._index.setdefault(result.key(), result)

    def cells(self):
        """The full grid as :class:`ScenarioSpec` objects.

        Deterministic order with per-cell seeds; the environment axis is
        outermost, so single-environment grids keep the same seed per
        (phone, rtt, tool, cross) cell they had before the axis existed.
        """
        grid = itertools.product(self.envs, self.phones, self.rtts,
                                 self.tools, self.cross_traffic)
        for index, (env, phone, rtt, tool, cross) in enumerate(grid):
            yield ScenarioSpec(
                env=env, phone=phone, tool=tool, emulated_rtt=rtt,
                count=self.count, cross_traffic=cross,
                seed=self.base_seed + index * 7919,
            )

    def run(self, progress=None, workers=1, collect_metrics=False,
            checkpoint=None, resume=False, fault_policy=None,
            cell_timeout=None, retries=0, retry_backoff=0.0, shards=None,
            store=None, transport=None):
        """Execute every cell; returns the result list.

        Every run goes through one
        :class:`~repro.testbed.fabric.FabricRunner`.  ``workers=1`` (the
        default) with ``shards=None`` runs the cells in-process, in grid
        order.  Any other combination plans the pending cells into
        fingerprint-keyed shards — ``shards`` of them, or ``workers * 4``
        capped at the number of pending cells — and executes them over
        ``transport`` (default: a process pool of ``workers`` processes;
        ``None``, or ``1`` alongside ``shards``, means one per CPU).  A
        shard whose worker dies is stolen back and re-run in-process.
        ``workers`` and ``shards`` must each be ``None`` or an int
        >= 1; anything else raises ``ValueError``.

        ``progress`` (if given) is called exactly once per cell with its
        :class:`ScenarioSpec`: just before the cell runs in-process, as
        its result merges from a pool, and immediately for cells
        restored from a cache.  ``collect_metrics`` runs every cell
        with observability enabled and attaches a metrics snapshot to
        each :class:`CellResult` (see :meth:`merged_metrics`).

        Resilience (see ``docs/RESILIENCE.md``): ``checkpoint`` names a
        :class:`~repro.testbed.resilience.CheckpointJournal` JSONL file
        that records each completed cell as it finishes; with
        ``resume=True`` cells already journaled are skipped and their
        cached results re-emitted.  ``cell_timeout`` / ``retries`` /
        ``retry_backoff`` build a per-cell
        :class:`~repro.testbed.resilience.FaultPolicy` (or pass
        ``fault_policy`` directly); cells that exhaust the policy land
        in :attr:`quarantine` as ``CellFailure`` objects instead of
        failing the sweep.  :attr:`run_metrics` carries the runner's
        counters (``campaign.cells_run``, ``campaign.retries``, ...).

        Fabric (see ``docs/FABRIC.md``): ``store`` names a persistent
        :class:`~repro.testbed.store.ResultStore` directory (or passes
        an instance) consulted before any cell executes — cells any
        earlier campaign already computed are re-emitted from the cache
        and fresh cells are recorded for the next run.  Every path —
        serial, pooled, sharded, resumed, cache-warm — produces
        bit-identical results, merged metrics, and reports.
        """
        from repro.testbed.fabric import FabricRunner

        runner = FabricRunner(self, shard_count=shards, transport=transport,
                              workers=workers)
        if fault_policy is None and (cell_timeout is not None or retries
                                     or retry_backoff):
            from repro.testbed.resilience import FaultPolicy
            fault_policy = FaultPolicy(cell_timeout=cell_timeout,
                                       retries=retries,
                                       backoff=retry_backoff)
        return runner.run(progress=progress, collect_metrics=collect_metrics,
                          checkpoint=checkpoint, resume=resume,
                          fault_policy=fault_policy, store=store)

    # -- persistence ----------------------------------------------------------

    def save(self, path):
        payload = {
            "count": self.count,
            "base_seed": self.base_seed,
            "envs": list(self.envs),
            "results": [result.to_dict() for result in self.results],
        }
        if self.quarantine:
            payload["quarantine"] = [failure.to_dict()
                                     for failure in self.quarantine]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    @classmethod
    def load(cls, path):
        """Read back a file :meth:`save` wrote.

        Raises :class:`CampaignFileError` when the file is missing or
        unreadable, is not JSON, or is not a campaign record: a cell
        record lacking a field or holding one of the wrong type, or a
        metrics snapshot :func:`~repro.obs.metrics.check_snapshot`
        rejects (pre-sketch histograms included).
        """
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError, RecursionError) as exc:
            raise CampaignFileError(f"cannot read {path}: {exc}") from None
        if not (isinstance(payload, dict)
                and all(type(payload.get(field)) is int
                        for field in ("count", "base_seed"))
                and isinstance(payload.get("results"), list)
                and isinstance(payload.get("quarantine", []), list)
                and isinstance(payload.get("envs", []), list)
                and all(map(_is_str, payload.get("envs", [])))):
            raise CampaignFileError(
                f"{path} is not a campaign record: an object with integer "
                f"'count' and 'base_seed' and a 'results' list")
        for index, item in enumerate(payload["results"]):
            _check_cell(item, _RESULT_FIELDS, f"result {index}")
        for index, item in enumerate(payload.get("quarantine", [])):
            _check_cell(item, _CELL_FIELDS, f"quarantined cell {index}")
        campaign = cls(count=payload["count"],
                       base_seed=payload["base_seed"],
                       envs=tuple(payload.get("envs", ("wifi",))))
        campaign.results = [CellResult.from_dict(item)
                            for item in payload["results"]]
        if payload.get("quarantine"):
            from repro.testbed.resilience import CellFailure
            campaign.quarantine = [CellFailure.from_dict(item)
                                   for item in payload["quarantine"]]
        return campaign

    def merged_with(self, other):
        """Combine result sets (later cells win on key collision)."""
        envs = tuple(dict.fromkeys(self.envs + other.envs))
        merged = Campaign(count=self.count, base_seed=self.base_seed,
                          envs=envs)
        by_key = {result.key(): result for result in self.results}
        for result in other.results:
            by_key[result.key()] = result
        merged.results = list(by_key.values())
        return merged

    # -- queries ------------------------------------------------------------------

    def merged_metrics(self):
        """Fold every cell's metrics snapshot into one campaign-wide view.

        Counters and histogram sketches sum across cells; gauges keep the
        last cell's value (grid order).  Returns ``None`` when no cell
        carries metrics (i.e. the campaign ran without
        ``collect_metrics``).  Because each cell's snapshot is
        deterministic and the fold follows grid order, the merged view
        is identical for serial and parallel runs — WiFi and cellular
        cells fold into the same registry view.
        """
        snapshots = [result.metrics for result in self.results
                     if result.metrics is not None]
        if not snapshots:
            return None
        return merge_snapshots(snapshots)

    def result_for(self, phone, rtt, tool, cross_traffic=False, env="wifi"):
        return self._index.get((env, phone, rtt, tool, cross_traffic))

    def worst_error(self):
        """(CellResult, error) for the least accurate cell."""
        if not self.results:
            return None, None
        worst = max(self.results, key=lambda result: result.error())
        return worst, worst.error()

    def __len__(self):
        return len(self.results)
