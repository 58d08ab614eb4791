"""The measurement tools compared in the paper.

* :mod:`repro.tools.ping` — ICMP ping with a configurable sending
  interval (the §3.1 root-cause experiment uses 10 ms and 1 s), including
  the Nexus 4 quirk of integer-millisecond output above 100 ms.
* :mod:`repro.tools.httping` — httping-style HTTP request/response RTTs
  over a persistent connection.
* :mod:`repro.tools.javaping` — the paper's "Java ping": MobiPerf's
  ``InetAddress`` method re-implemented, TCP SYN -> RST against a closed
  port, timed from the Dalvik runtime.
* :mod:`repro.tools.mobiperf` — MobiPerf's three measurement methods.
* :mod:`repro.tools.ping2` — Sui et al.'s server-side double ping, the
  prior-art mitigation AcuteMon is compared against.

AcuteMon itself lives in :mod:`repro.core.acutemon`.
"""

from repro.tools.base import MeasurementTool, RttSample
from repro.tools.httping import HttpingTool
from repro.tools.javaping import JavaPingTool
from repro.tools.mobiperf import MobiPerfTool
from repro.tools.ping import PingTool
from repro.tools.ping2 import Ping2Tool

__all__ = [
    "HttpingTool",
    "JavaPingTool",
    "MeasurementTool",
    "MobiPerfTool",
    "Ping2Tool",
    "PingTool",
    "RttSample",
]
