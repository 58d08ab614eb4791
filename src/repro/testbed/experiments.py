"""Experiment runners.

Each function maps its keyword arguments onto one
:class:`~repro.testbed.scenario.ScenarioSpec`, executes it, and returns
an :class:`ExperimentResult` — these are the building blocks of every
table/figure benchmark and of the integration tests.  The spec layer is
the single source of truth for cell construction (environment, phone,
tool, settle ordering); these wrappers only exist for call-site
ergonomics and historical signatures.
"""

from repro.core.acutemon import AcuteMon
from repro.core.overhead import decompose
from repro.obs import attribute_probes, finalize_sim_metrics
from repro.testbed.scenario import ScenarioSpec, run_scenario


class ExperimentResult:
    """Everything one experiment cell produced."""

    def __init__(self, testbed, phone, collector, samples):
        self.testbed = testbed
        self.phone = phone
        self.collector = collector
        self.samples = samples
        self.layers = collector.layered_rtts()
        self.overheads = decompose(collector.completed())
        self.tool = None
        self.spec = None
        self.acutemon = None
        # Causal delay decomposition (docs/OBSERVABILITY.md): in observed
        # cells, split each probe's RTT into mechanism components from
        # the recorded spans and aggregate them into the metrics
        # registry, where they ride the ordinary snapshot/merge pipeline.
        sim = testbed.sim
        self.attributions = []
        if sim.spans.enabled:
            self.attributions = attribute_probes(
                collector, sim.spans,
                metrics=sim.metrics if sim.metrics.enabled else None)

    @property
    def user_rtts(self):
        """RTTs as reported by the tool (seconds)."""
        return [s.rtt for s in self.samples if s.rtt is not None]

    @property
    def spans(self):
        """The cell's recorded spans (empty unless built with observe)."""
        return self.testbed.sim.spans

    def metrics_snapshot(self, include_volatile=False):
        """Deterministic metrics dump (scheduler gauges refreshed first)."""
        sim = self.testbed.sim
        finalize_sim_metrics(sim)
        return sim.metrics.snapshot(include_volatile=include_volatile)

    def __repr__(self):
        return f"<ExperimentResult probes={len(self.samples)}>"


def ping_experiment(phone_key="nexus5", emulated_rtt=30e-3, interval=1.0,
                    count=100, seed=0, bus_sleep=True, cross_traffic=False,
                    timeout=1.0, observe=False):
    """The §3.1 root-cause experiment: multi-layer ping measurement.

    Returns an :class:`ExperimentResult` whose ``layers`` dict holds the
    du/dk/dv/dn series of Table 2 and whose phone's driver ``samples``
    hold the dvsend/dvrecv instrumentation of Table 3.
    """
    spec = ScenarioSpec(
        phone=phone_key, tool="ping", emulated_rtt=emulated_rtt,
        count=count, interval=interval, seed=seed,
        cross_traffic=cross_traffic, bus_sleep=bus_sleep, observe=observe,
        tool_params={"timeout": timeout},
    )
    env, phone, collector = spec.build()
    phone.driver.clear_samples()
    return spec.execute(env, phone, collector)


def acutemon_experiment(phone_key="nexus5", emulated_rtt=30e-3, count=100,
                        seed=0, config=None, cross_traffic=False,
                        bus_sleep=True, observe=False, **config_kwargs):
    """One AcuteMon run (§4.2): warm-up + background + K probes.

    ``config_kwargs`` map onto :class:`AcuteMonConfig`; alternatively
    pass a prebuilt ``config`` object (which then wins outright).
    """
    spec = ScenarioSpec(
        phone=phone_key, tool="acutemon", emulated_rtt=emulated_rtt,
        count=count, seed=seed, cross_traffic=cross_traffic,
        bus_sleep=bus_sleep, observe=observe,
        tool_params=config_kwargs if config is None else {},
    )
    if config is None:
        return run_scenario(spec)
    env, phone, collector = spec.build()
    monitor = AcuteMon(phone, collector, env.server_ip, config=config)
    samples = monitor.run_sync()
    result = ExperimentResult(env, phone, collector, samples)
    result.tool = monitor
    result.acutemon = monitor
    result.spec = spec
    return result


def tool_experiment(tool_name, phone_key="nexus5", emulated_rtt=30e-3,
                    count=100, seed=0, cross_traffic=False, interval=1.0,
                    observe=False, env="wifi", tool_params=None):
    """Run one registered tool (see :data:`~repro.testbed.scenario.TOOLS`)
    in a fresh environment.

    Returns an :class:`ExperimentResult`; for non-AcuteMon tools its
    ``layers`` stay meaningful only where the tool's probes traverse the
    instrumented stack.  Pass ``observe=True`` to enable the metrics
    registry and span tracker of the cell's simulator.
    """
    spec = ScenarioSpec(
        env=env, phone=phone_key, tool=tool_name, emulated_rtt=emulated_rtt,
        count=count, interval=interval, seed=seed,
        cross_traffic=cross_traffic, observe=observe,
        tool_params=tool_params,
    )
    return run_scenario(spec)


def tool_comparison(phone_key="nexus5", emulated_rtt=30e-3, count=100,
                    seed=0, cross_traffic=False, interval=1.0,
                    tools=("acutemon", "httping", "ping", "javaping")):
    """The §4.3 comparison: RTT distributions per tool.

    Each tool runs in its own fresh testbed (tools would otherwise keep
    each other's phone awake).  Returns ``{tool_name: [rtt_seconds]}``.
    """
    results = {}
    for index, tool_name in enumerate(tools):
        tool_seed = seed + index * 1000
        result = tool_experiment(
            tool_name, phone_key, emulated_rtt, count=count, seed=tool_seed,
            cross_traffic=cross_traffic, interval=interval,
        )
        results[tool_name] = result.user_rtts
    return results


def ping2_experiment(phone_key="nexus5", emulated_rtt=30e-3, count=100,
                     seed=0, interval=1.0, observe=False):
    """Sui et al.'s server-side double ping against an idle phone.

    Returns an :class:`ExperimentResult` like every other runner; the
    :class:`~repro.tools.ping2.Ping2Tool` itself (with its
    ``first_ping_rtts``) is on ``result.tool``.
    """
    spec = ScenarioSpec(
        phone=phone_key, tool="ping2", emulated_rtt=emulated_rtt,
        count=count, interval=interval, seed=seed, observe=observe,
    )
    return run_scenario(spec)
