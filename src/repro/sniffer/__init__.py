"""Wireless sniffers and multi-sniffer merging.

The paper's testbed places three wire-synchronised sniffers next to the
AP to estimate the on-air timestamps ``ton``/``tin`` (the ground truth
``dn``).  This package provides:

* :mod:`repro.sniffer.sniffer` — a channel monitor that records every
  successful transmission, optionally with capture loss,
* :mod:`repro.sniffer.merge` — multi-sniffer merging, which recovers a
  complete view from individually lossy captures (why the paper used
  three sniffers).

The simulator stamps ``ton``/``tin`` on every packet itself, so
:attr:`~repro.core.measurement.ProbeRecord.dn` needs no capture; the
captures feed the passive ``Tip`` inference of Table 4.
"""

from repro.sniffer.merge import merge_records
from repro.sniffer.sniffer import FrameRecord, WirelessSniffer

__all__ = [
    "FrameRecord",
    "WirelessSniffer",
    "merge_records",
]
