"""repro — reproduction of *Demystifying and Puncturing the Inflated
Delay in Smartphone-based WiFi Network Measurement* (Li, Wu, Chang, Mok;
CoNEXT 2016).

The package simulates the paper's entire measurement environment — an
Android phone's layered network stack (with the SDIO bus-sleep state
machine and 802.11 adaptive PSM that inflate measured RTTs), a DCF WiFi
channel, the first-hop AP/router, the Figure 2 testbed — and
implements **AcuteMon**, the warm-up/background-traffic scheme that
keeps the phone awake during measurement, along with every baseline
tool the paper compares against.

Quick start::

    from repro import ScenarioSpec, run_scenario
    spec = ScenarioSpec(phone="nexus5", tool="acutemon",
                        emulated_rtt=0.03, count=100)
    result = run_scenario(spec)
    print(result.overheads.box("dk_n"))
    print(result.tool.loss_count())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.core.acutemon import AcuteMon, AcuteMonConfig
from repro.core.calibration import TimerCalibrator
from repro.core.measurement import ProbeCollector
from repro.core.overhead import decompose
from repro.core.warmup import WarmupPolicy
from repro.obs import MetricsRegistry, enable_observability
from repro.phone.profiles import PHONES, phone_profile
from repro.testbed.environment import build_environment, environment_keys
from repro.testbed.experiments import tool_comparison
from repro.testbed.scenario import ScenarioSpec, run_scenario, tool_keys
from repro.testbed.topology import Testbed

__version__ = "1.0.0"

__all__ = [
    "AcuteMon",
    "AcuteMonConfig",
    "MetricsRegistry",
    "PHONES",
    "ProbeCollector",
    "ScenarioSpec",
    "Testbed",
    "TimerCalibrator",
    "WarmupPolicy",
    "build_environment",
    "decompose",
    "enable_observability",
    "environment_keys",
    "phone_profile",
    "run_scenario",
    "tool_comparison",
    "tool_keys",
    "__version__",
]
