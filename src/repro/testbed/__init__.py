"""The measurement environments and experiment layers.

:class:`~repro.testbed.topology.Testbed` assembles the paper's Figure 2
WiFi environment: measurement server and load server behind a switch,
the AP bridging to the WLAN, three wireless sniffers, an optional
iPerf-style load generator, and instrumented phones.  The
:mod:`~repro.testbed.environment` registry adds the cellular
environments behind the same protocol, and
:mod:`~repro.testbed.scenario` describes experiment cells declaratively.
Every cell is a :class:`~repro.testbed.scenario.ScenarioSpec`, and
:func:`~repro.testbed.scenario.run_scenario` runs it and returns an
:class:`~repro.testbed.experiments.ExperimentResult`.
"""

from repro.testbed.campaign import Campaign, CellResult
from repro.testbed.environment import (
    ENVIRONMENTS,
    Environment,
    build_environment,
    environment_keys,
    register_environment,
)
from repro.testbed.experiments import tool_comparison
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
    "build_environment",
    "environment_keys",
    "plan_shards",
    "register_environment",
    "register_tool",
    "run_scenario",
    "shard_index",
    "tool_comparison",
    "tool_keys",
]
