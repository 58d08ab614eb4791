"""The simulated Android smartphone.

The phone is a layered pipeline matching the paper's Figure 1::

    measurement app (user space; native C or Dalvik runtime)
        |  tou / tiu
    kernel (socket layer; bpf capture tap)
        |  tok / tik
    WNIC driver (dpc + rxframe threads; SDIO bus sleep state machine)
        |  tov / tiv  (dvsend / dvrecv instrumentation)
    802.11 station MAC (adaptive PSM)  ->  the air (ton / tin)

Each layer both *delays* packets (with chipset- and phone-specific
distributions) and *stamps* them, so the paper's overhead decomposition
(Δdu−k, Δdk−v, Δdv−n) falls out of plain arithmetic.
"""

from repro.phone.chipset import ChipsetProfile
from repro.phone.driver import SdioBus, WnicDriver
from repro.phone.energy import EnergyMeter, PowerProfile
from repro.phone.latency import DelayDistribution
from repro.phone.phone import Phone
from repro.phone.profiles import (
    GALAXY_GRAND,
    HTC_ONE,
    NEXUS_4,
    NEXUS_5,
    PHONES,
    XPERIA_J,
    PhoneProfile,
    phone_profile,
)

__all__ = [
    "ChipsetProfile",
    "DelayDistribution",
    "EnergyMeter",
    "PowerProfile",
    "GALAXY_GRAND",
    "HTC_ONE",
    "NEXUS_4",
    "NEXUS_5",
    "PHONES",
    "Phone",
    "PhoneProfile",
    "SdioBus",
    "WnicDriver",
    "XPERIA_J",
    "phone_profile",
]
