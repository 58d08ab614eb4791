"""IEEE 802.11 (WiFi) medium, access point, and stations.

This package models the wireless half of the paper's Figure 2 testbed:

* :mod:`repro.wifi.phy` — 802.11g timing constants and airtime math,
* :mod:`repro.wifi.frames` — beacon/data/null/PS-Poll frames and their
  on-air sizes,
* :mod:`repro.wifi.channel` — a DCF-style shared medium with contention,
  collisions, retries, and monitor (sniffer) taps,
* :mod:`repro.wifi.sta` — station MAC with the **adaptive power-save
  state machine** (CAM ↔ PS, the PSM timeout ``Tip``, listen intervals)
  that §3.2.2 of the paper identifies as an nRTT inflation source,
* :mod:`repro.wifi.ap` — access point with beacon generation, TIM,
  per-station power-save buffering, and an embedded first-hop router,
* :mod:`repro.wifi.host` — a plain IP host on a WiFi station (the
  wireless load generator).
"""

from repro.wifi.ap import AccessPoint
from repro.wifi.channel import WifiChannel
from repro.wifi.frames import BeaconFrame, DataFrame, NullDataFrame
from repro.wifi.host import WifiHost
from repro.wifi.phy import PhyParams
from repro.wifi.sta import PowerState, Station

__all__ = [
    "AccessPoint",
    "BeaconFrame",
    "DataFrame",
    "NullDataFrame",
    "PhyParams",
    "PowerState",
    "Station",
    "WifiChannel",
    "WifiHost",
]
