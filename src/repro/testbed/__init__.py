"""The measurement environments and experiment layers.

:class:`~repro.testbed.topology.Testbed` assembles the paper's Figure 2
WiFi environment: measurement server and load server behind a switch,
the AP bridging to the WLAN, three wireless sniffers, an optional
iPerf-style load generator, and instrumented phones.  The
:mod:`~repro.testbed.environment` registry adds the cellular
environments behind the same protocol, and
:mod:`~repro.testbed.scenario` describes experiment cells declaratively;
:mod:`repro.testbed.experiments` provides the experiment runners the
benchmarks are built on.
"""

from repro.testbed.campaign import Campaign, CellResult
from repro.testbed.environment import (
    ENVIRONMENTS,
    Environment,
    build_environment,
    environment_keys,
    register_environment,
)
from repro.testbed.experiments import (
    acutemon_experiment,
    ping_experiment,
    tool_comparison,
)
from repro.testbed.fabric import (
    FabricRunner,
    InProcessTransport,
    MultiprocessTransport,
    ShardPlan,
    ShardTransport,
    plan_shards,
    shard_index,
)
from repro.testbed.resilience import (
    CellFailure,
    CellTimeout,
    CheckpointJournal,
    FaultPolicy,
)
from repro.testbed.store import ResultStore
from repro.testbed.scenario import (
    TOOLS,
    ScenarioError,
    ScenarioSpec,
    register_tool,
    run_scenario,
    tool_keys,
)
from repro.testbed.topology import Testbed

__all__ = [
    "Campaign",
    "CellFailure",
    "CellResult",
    "CellTimeout",
    "CheckpointJournal",
    "ENVIRONMENTS",
    "Environment",
    "FabricRunner",
    "FaultPolicy",
    "InProcessTransport",
    "MultiprocessTransport",
    "ResultStore",
    "ScenarioError",
    "ScenarioSpec",
    "ShardPlan",
    "ShardTransport",
    "TOOLS",
    "Testbed",
    "acutemon_experiment",
    "build_environment",
    "environment_keys",
    "ping_experiment",
    "plan_shards",
    "register_environment",
    "register_tool",
    "run_scenario",
    "shard_index",
    "tool_comparison",
    "tool_keys",
]
