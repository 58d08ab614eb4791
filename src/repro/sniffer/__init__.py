"""A wireless sniffer on the simulated channel.

The paper's testbed placed three wire-synchronised sniffers next to the
AP and merged their captures, because a real monitor-mode capture
misses frames.  A simulated monitor misses none, so one
:class:`~repro.sniffer.sniffer.WirelessSniffer` sees the whole channel,
and the testbed builds none by default: code that reads the air
attaches one to ``testbed.channel``.

The simulator stamps ``ton``/``tin`` on every packet itself, so
:attr:`~repro.core.measurement.ProbeRecord.dn` needs no capture; the
capture feeds the passive ``Tip`` inference of Table 4.
"""

from repro.sniffer.sniffer import FrameRecord, WirelessSniffer

__all__ = [
    "FrameRecord",
    "WirelessSniffer",
]
