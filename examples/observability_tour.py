#!/usr/bin/env python3
"""Tour of the observability layer: metrics, spans, and exporters.

One AcuteMon cell runs with ``observe=True``, which switches on the
two observation records of the cell's simulator (both off by default,
one attribute check per call site when disabled):

* ``sim.metrics`` — counters, gauges, and sketch-backed latency
  histograms from the instrumented SDIO bus, PSM state machine,
  scheduler, driver, and measurement core,
* ``sim.spans`` — named sim-time intervals (``sdio.promotion``,
  ``psm.beacon_wait``, ``measurement.probe``, ...), each of which also
  feeds a latency histogram.

The script then prints the delay decomposition the registry captured
and writes all three export formats (Prometheus text, JSON-lines,
Chrome trace-event JSON) to a temporary directory.  Load the
``.trace.json`` in chrome://tracing or https://ui.perfetto.dev to *see*
a probe span covering the bus promotion that inflated it.

Finally it shows the causal side of the story: every probe's RTT split
exactly into mechanism components (``du == sdio.promotion +
psm.beacon_wait + queueing + airtime + wire + unattributed`` on the
integer-nanosecond grid), and the campaign-scale report —
``python -m repro report`` — that says which mechanism dominates in
each grid slice.

Run:  python examples/observability_tour.py
"""

import json
import tempfile
from pathlib import Path

from repro import ScenarioSpec, run_scenario
from repro.analysis import decompose_campaign, render_report
from repro.obs import to_prometheus, write_chrome_trace, write_snapshot
from repro.testbed.campaign import Campaign


def ms(value):
    return f"{value * 1e3:7.3f} ms" if value is not None else "      —"


def main():
    print("Running one observed AcuteMon cell (nexus5, 30 ms, 20 probes)")
    result = run_scenario(ScenarioSpec(phone="nexus5", tool="acutemon",
                                       emulated_rtt=0.030, count=20, seed=7,
                                       observe=True))
    sim = result.testbed.sim
    snapshot = result.metrics_snapshot()

    print(f"\nScheduler: {sim.events_fired} events fired, "
          f"{sim.events_canceled} cancelled, "
          f"{len(sim.spans)} spans")

    print("\nCounters:")
    for metric in sim.metrics.metrics():
        if metric.kind == "counter" and not metric.volatile \
                and not metric.name.startswith("scheduler_"):
            labels = " ".join(f"{k}={v}" for k, v in metric.labels)
            print(f"  {metric.name:36s} {labels:28s} {metric.value}")

    print("\nLatency histograms (the delay decomposition):")
    for name in ("probe_du_seconds", "probe_dn_seconds",
                 "probe_inflation_seconds", "sdio_promotion_seconds",
                 "psm_beacon_wait_seconds", "driver_dvsend_seconds"):
        for metric in sim.metrics.metrics():
            if metric.name != name or not metric.count:
                continue
            print(f"  {name:28s} n={metric.count:3d}  p50={ms(metric.p50)}"
                  f"  p95={ms(metric.p95)}  max={ms(metric.maximum)}")

    inflation = sim.metrics.get("probe_inflation_seconds",
                                labels={"kind": "probe"})
    if inflation is not None and inflation.count:
        print(f"\nUser-level RTT exceeded the on-air RTT by "
              f"{ms(inflation.p50).strip()} at the median — the inflation "
              "the paper demystifies; AcuteMon's warm-up keeps it small.")

    out_dir = Path(tempfile.mkdtemp(prefix="repro-obs-"))
    write_snapshot(out_dir / "cell.prom", snapshot)
    write_snapshot(out_dir / "cell.jsonl", snapshot)
    write_chrome_trace(out_dir / "cell.trace.json", sim.spans)
    trace = json.loads((out_dir / "cell.trace.json").read_text())
    prom_lines = to_prometheus(snapshot).count("\n")
    print(f"\nExports written to {out_dir}:")
    print(f"  cell.prom        {prom_lines} lines of Prometheus text")
    print(f"  cell.jsonl       {len(snapshot['metrics'])} metric objects")
    print(f"  cell.trace.json  {len(trace['traceEvents'])} trace events "
          "(open in chrome://tracing)")

    print("\nCausal attribution: one 1s-interval ping probe, split exactly")
    ping = run_scenario(ScenarioSpec(phone="nexus5", tool="ping",
                                     emulated_rtt=0.030, count=5, seed=7,
                                     observe=True))
    attribution = ping.attributions[0]
    for component, seconds in attribution.components().items():
        print(f"  {component:16s} {ms(seconds)}")
    print(f"  {'= du':16s} {ms(attribution.total)}   "
          "(integer-ns identity, residual never negative)")

    print("\nCampaign decomposition report (ping vs AcuteMon, 20 ms wire):")
    campaign = Campaign(phones=("nexus5",), rtts=(0.02,),
                        tools=("ping", "acutemon"), count=10, base_seed=7)
    campaign.run(collect_metrics=True)
    report = decompose_campaign(campaign)
    print(render_report(report, "text"))
    print("ping pays the SDIO promotion (Tprom) on every probe; AcuteMon's"
          "\nwarm-up keeps the bus awake, so its promotion share is zero.")


if __name__ == "__main__":
    main()
