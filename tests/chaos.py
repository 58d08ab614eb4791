"""Chaos-injection harness for the campaign resilience tests.

The resilience layer resolves ``run_cell`` through the campaign module
at call time (``repro.testbed.campaign.run_cell``), which gives the
chaos tests a single choke point: patching that attribute injects
faults into every execution path — the serial runner, the resilient
runner, and (under the ``fork`` start method) pool workers, which
inherit the patched module.

:class:`ChaosInjector` wraps the real ``run_cell`` and misbehaves for
selected cells, keyed by ``spec.seed`` (unique per cell in a campaign
grid, stable across runs and processes):

* ``fail_times`` — raise :class:`ChaosError` the first N times a cell
  is attempted (transient fault; retries should clear it),
* ``always_fail`` — raise on every attempt (permanent fault; the cell
  should end quarantined),
* ``hang`` — sleep far past any cell timeout (wedged cell),
* ``kill_worker`` — ``os._exit`` the executing process when it is not
  the parent (a worker dying mid-shard; in-parent execution falls back
  to ``always_fail`` semantics so the grid still cannot complete the
  cell silently),
* ``kill_shard`` — like ``kill_worker`` in a worker process, but runs
  the cell *normally* when executed in the parent: the fault model for
  the fabric's work stealing, where a stolen shard must complete
  in-process with the exact results its dead worker would have
  produced,
* ``crash_after`` — :func:`crash_after` raises :class:`SimulatedCrash`
  once N cells have completed, simulating the sweep process dying
  between cells (checkpoint + resume should recover).

:func:`corrupt_store_segment` truncates or garbles a persistent result
store on disk so the cache-recovery chaos tests can pin that a damaged
segment degrades to cache misses instead of poisoning the campaign.

Attempt counts are recorded in :attr:`ChaosInjector.calls` so tests can
assert exact retry budgets.  State lives in the parent process; fork
workers see a copy, which is why per-cell triggers key off the spec
(deterministic) rather than shared counters.
"""

import os
import time

from repro.testbed import campaign as _campaign


class ChaosError(RuntimeError):
    """The injected cell failure."""


class SimulatedCrash(BaseException):
    """Raised to simulate the whole sweep process dying mid-run.

    Derives from ``BaseException`` so no fault policy or retry loop can
    swallow it — exactly like a SIGKILL, the run just stops.
    """


class ChaosInjector:
    """A misbehaving stand-in for ``run_cell``; see the module docstring.

    Parameters map cell seeds to behaviours::

        ChaosInjector(fail_times={seed: 2}, always_fail={seed2},
                      hang={seed3}, kill_worker={seed4})
    """

    def __init__(self, fail_times=None, always_fail=None, hang=None,
                 kill_worker=None, kill_shard=None, hang_seconds=120.0):
        self.fail_times = dict(fail_times or {})
        self.always_fail = set(always_fail or ())
        self.hang = set(hang or ())
        self.kill_worker = set(kill_worker or ())
        self.kill_shard = set(kill_shard or ())
        self.hang_seconds = hang_seconds
        self.parent_pid = os.getpid()
        #: seed -> number of times the cell was attempted (parent
        #: process only; fork workers mutate their own copy).
        self.calls = {}
        self._real = _campaign.run_cell

    def __call__(self, spec, collect_metrics=False):
        seed = spec.seed
        self.calls[seed] = self.calls.get(seed, 0) + 1
        if seed in self.kill_worker:
            if os.getpid() != self.parent_pid:
                os._exit(17)
            raise ChaosError(f"cell seed={seed} ran in-parent after "
                             "its worker was killed")
        if seed in self.kill_shard and os.getpid() != self.parent_pid:
            os._exit(19)
        if seed in self.hang:
            time.sleep(self.hang_seconds)
        if seed in self.always_fail:
            raise ChaosError(f"cell seed={seed} always fails")
        remaining = self.fail_times.get(seed, 0)
        if remaining > 0:
            self.fail_times[seed] = remaining - 1
            raise ChaosError(f"cell seed={seed} transient failure "
                            f"({remaining} left)")
        return self._real(spec, collect_metrics=collect_metrics)

    def install(self, monkeypatch):
        """Patch ``campaign.run_cell`` for the test's lifetime."""
        monkeypatch.setattr(_campaign, "run_cell", self)
        return self


def crash_after(n, monkeypatch):
    """Patch ``run_cell`` to die (``SimulatedCrash``) after ``n`` cells.

    The first ``n`` cells complete normally; the ``n+1``-th attempt
    raises :class:`SimulatedCrash` before doing any work — modelling a
    sweep killed between cells.  Returns the patched callable (its
    ``completed`` attribute counts finished cells).
    """
    real = _campaign.run_cell
    state = {"completed": 0}

    def dying_run_cell(spec, collect_metrics=False):
        if state["completed"] >= n:
            raise SimulatedCrash(f"simulated crash after {n} cells")
        result = real(spec, collect_metrics=collect_metrics)
        state["completed"] += 1
        return result

    dying_run_cell.state = state
    monkeypatch.setattr(_campaign, "run_cell", dying_run_cell)
    return dying_run_cell


def corrupt_store_segment(store_root, mode="garble", drop_index=False):
    """Damage a persistent result store in place; returns segments hit.

    ``mode="garble"`` overwrites the middle line of each segment with
    non-JSON bytes (an unreadable record inside an otherwise healthy
    segment); ``mode="truncate"`` chops each segment mid-line (a torn
    tail, as left by a crash during ``put``).  ``drop_index=True``
    additionally deletes an ``index.jsonl`` left in the root by older
    stores; stores no longer write one, so on a fresh store it is a
    no-op.
    """
    import pathlib

    root = pathlib.Path(store_root)
    segment_dir = root / "segments"
    damaged = []
    for segment in sorted(segment_dir.glob("*.jsonl")):
        lines = segment.read_text(encoding="utf-8").split("\n")
        body = [line for line in lines if line]
        if not body:
            continue
        if mode == "garble":
            body[len(body) // 2] = '{"v": 1, "fingerprint": !!corrupt!!'
            segment.write_text("\n".join(body) + "\n", encoding="utf-8")
        elif mode == "truncate":
            text = "\n".join(body)
            segment.write_text(text[:len(text) - len(body[-1]) // 2],
                               encoding="utf-8")
        else:
            raise ValueError(f"unknown corruption mode {mode!r}")
        damaged.append(segment.name)
    if drop_index:
        index = root / "index.jsonl"
        if index.exists():
            index.unlink()
    return damaged
