"""The paper's core contribution.

* :mod:`repro.core.measurement` — the multi-layer timestamp ledger of
  Figure 1: every probe transaction is tracked at the user, kernel,
  driver and PHY vantage points.
* :mod:`repro.core.overhead` — the delay-overhead decomposition
  (Δdu−k, Δdk−v, Δdv−n, Δdk−n) of §2.1.
* :mod:`repro.core.warmup` — the warm-up/background timing policy
  ``Tprom < dpre < min(Tis, Tip)`` and ``db < min(Tis, Tip)`` of §4.1.
* :mod:`repro.core.acutemon` — **AcuteMon** itself: a background-traffic
  thread that keeps the SDIO bus and the 802.11 MAC awake, plus a
  measurement thread sending K probes.
* :mod:`repro.core.calibration` — inference of a phone's ``Tis``/``Tip``
  and listen interval from probing or sniffing (the paper's stated
  future work, §4.1).
"""

from repro.core.acutemon import AcuteMon, AcuteMonConfig
from repro.core.calibrated import OverheadCalibrator
from repro.core.calibration import TimerCalibrator
from repro.core.measurement import ProbeCollector, ProbeRecord
from repro.core.overhead import OverheadSet, decompose
from repro.core.warmup import WarmupPlan, WarmupPolicy

__all__ = [
    "AcuteMon",
    "AcuteMonConfig",
    "OverheadCalibrator",
    "OverheadSet",
    "ProbeCollector",
    "ProbeRecord",
    "TimerCalibrator",
    "WarmupPlan",
    "WarmupPolicy",
    "decompose",
]
