"""Experiment results.

:class:`ExperimentResult` is what
:func:`~repro.testbed.scenario.run_scenario` returns for one cell: the
tool's samples, the per-layer RTTs, the overhead decomposition and, in
observed cells, the causal delay attribution.  Cells themselves are
built one way only, as a :class:`~repro.testbed.scenario.ScenarioSpec`;
:func:`tool_comparison` runs one spec per tool for the §4.3 comparison.
"""

from repro.core.overhead import decompose
from repro.obs import attribute_probes, finalize_sim_metrics
from repro.testbed.scenario import ScenarioSpec, run_scenario


class ExperimentResult:
    """Everything one experiment cell produced.

    ``tool`` is the tool object that drove the cell (an
    :class:`~repro.core.acutemon.AcuteMon` for AcuteMon cells) and
    ``spec`` the :class:`~repro.testbed.scenario.ScenarioSpec` it ran.
    """

    def __init__(self, testbed, phone, collector, samples, tool, spec):
        self.testbed = testbed
        self.phone = phone
        self.collector = collector
        self.samples = samples
        self.tool = tool
        self.spec = spec
        self.layers = collector.layered_rtts()
        self.overheads = decompose(collector.completed())
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


def tool_comparison(phone_key="nexus5", emulated_rtt=30e-3, count=100,
                    seed=0, cross_traffic=False, interval=1.0,
                    tools=("acutemon", "httping", "ping", "javaping")):
    """The §4.3 comparison: RTT distributions per tool.

    Each tool runs in its own fresh testbed (tools would otherwise keep
    each other's phone awake), seeded ``seed + index * 1000`` by its
    position in ``tools``.  Returns ``{tool_name: [rtt_seconds]}``.
    """
    results = {}
    for index, tool_name in enumerate(tools):
        spec = ScenarioSpec(
            phone=phone_key, tool=tool_name, emulated_rtt=emulated_rtt,
            count=count, interval=interval, seed=seed + index * 1000,
            cross_traffic=cross_traffic,
        )
        results[tool_name] = run_scenario(spec).user_rtts
    return results
