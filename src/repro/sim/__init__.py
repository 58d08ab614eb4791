"""Discrete-event simulation kernel.

Everything in :mod:`repro` runs on top of this small, deterministic
event-driven simulator.  The design goals are:

* **Determinism** — two runs with the same seed produce bit-identical
  event orders, metrics and spans.  All randomness flows through named
  :class:`~repro.sim.rng.RngRegistry` streams; wall-clock time never
  enters the simulation.
* **Transparency** — the scheduler is one binary heap with an exact
  ``(time, seq)`` total order (see :mod:`repro.sim.scheduler`); every
  simulator carries a metrics registry and a span tracker
  (:mod:`repro.obs`) that record what happened and why.
* **Callback style** — components schedule plain callables.  Periodic
  work uses :meth:`~repro.sim.scheduler.Simulator.schedule_periodic`
  trains (batched on the fast path); helper classes
  (:class:`~repro.sim.timers.Timer`,
  :class:`~repro.sim.timers.PeriodicTimer`) cover the recurring patterns
  used by stations (PSM timeouts) and cellular modems (RRC demotion).
"""

from repro.sim.errors import SchedulerError, SimTimeError, SimulationError
from repro.sim.events import Event, PeriodicEvent
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Simulator
from repro.sim.timers import PeriodicTimer, Timer
from repro.sim.units import (
    KIBIBYTE,
    MEBIBYTE,
    TU,
    bytes_to_bits,
    mbps,
    ms,
    tu,
    us,
)

__all__ = [
    "Event",
    "PeriodicEvent",
    "PeriodicTimer",
    "RngRegistry",
    "SchedulerError",
    "SimTimeError",
    "SimulationError",
    "Simulator",
    "Timer",
    "KIBIBYTE",
    "MEBIBYTE",
    "TU",
    "bytes_to_bits",
    "mbps",
    "ms",
    "tu",
    "us",
]
