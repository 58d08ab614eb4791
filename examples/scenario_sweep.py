#!/usr/bin/env python3
"""Scenario sweep: one campaign grid spanning WiFi and cellular LTE.

Declares a mixed-environment grid with the declarative scenario layer,
runs it in-process through the campaign runner, and shows that
the same tool on the same emulated path answers differently depending
on the radio access network in front of it (802.11 PSM/bus-sleep vs
LTE RRC promotions).  The sweep is journaled to a checkpoint file and
then resumed (docs/RESILIENCE.md): the resumed run re-emits every cell
from the journal without re-executing anything.  It finishes with the
campaign fabric (docs/FABRIC.md): the grid runs cold into a persistent
result store, then a second campaign over the same grid runs warm out
of it — zero cells executed, bit-identical results.

Run:  python examples/scenario_sweep.py
"""

import statistics
import tempfile
from pathlib import Path

from repro import ScenarioSpec, run_scenario
from repro.analysis.analytic import predict_for_profile
from repro.testbed.campaign import Campaign


GRID = dict(envs=("wifi", "cellular-lte"), phones=("nexus5",),
            rtts=(0.020, 0.050), tools=("acutemon", "ping"),
            count=8, base_seed=7)


def main():
    campaign = Campaign(**GRID)
    cells = list(campaign.cells())
    print(f"Sweeping {len(cells)} cells: "
          f"{{wifi, cellular-lte}} x {{20, 50}} ms x "
          f"{{acutemon, ping}} on a Nexus 5...")
    checkpoint = Path(tempfile.mkdtemp()) / "sweep.ckpt.jsonl"
    campaign.run(workers=1, checkpoint=checkpoint,
                 progress=lambda spec: print(f"  ran {spec.describe()}"))

    print()
    print(f"{'env':<14}{'RTT':>7}  {'tool':<10}{'median (ms)':>12}"
          f"{'error (ms)':>12}")
    for result in campaign.results:
        print(f"{result.env:<14}{result.rtt * 1e3:>5.0f}ms  "
              f"{result.tool:<10}{result.summary().median * 1e3:>12.2f}"
              f"{result.error() * 1e3:>12.2f}")

    print()
    print("Every cell above is a plain ScenarioSpec — serializable,")
    print("replayable, and bit-identical under any worker count:")
    spec = ScenarioSpec(env="cellular-lte", tool="acutemon",
                        emulated_rtt=0.050, count=8, seed=7)
    print(f"  {spec.to_json()}")
    result = run_scenario(spec)
    match = campaign.result_for("nexus5", 0.050, "acutemon",
                                env="cellular-lte")
    replayed = sorted(result.user_rtts)[len(result.user_rtts) // 2]
    print(f"  replayed median: {replayed * 1e3:.2f} ms "
          f"(campaign cell uses its own grid seed: "
          f"{match.summary().median * 1e3:.2f} ms)")

    # Every completed cell was journaled under its spec's fingerprint;
    # an interrupted sweep restarts from the journal.  Resuming the
    # finished sweep re-emits all cells from cache — nothing re-runs.
    print()
    print(f"Resuming from {checkpoint.name} "
          f"({len(checkpoint.read_text().splitlines())} journal records):")
    resumed = Campaign(**GRID)
    resumed.run(workers=1, checkpoint=checkpoint, resume=True)
    counters = {metric["name"]: metric["value"]
                for metric in resumed.run_metrics["metrics"]
                if metric["kind"] == "counter"}
    print(f"  cells resumed from cache: "
          f"{counters.get('campaign.cells_resumed', 0)}, "
          f"re-executed: {counters.get('campaign.cells_run', 0)}")
    identical = [a.to_dict() for a in campaign.results] \
        == [b.to_dict() for b in resumed.results]
    print(f"  resumed results bit-identical to the original run: "
          f"{identical}")

    # The checkpoint journal's scope is one sweep; the result store
    # (docs/FABRIC.md) memoizes cells *across* campaigns.  Run the
    # grid cold into a store, then a brand-new campaign over the same
    # grid warms up from it without executing a single cell.
    store = Path(tempfile.mkdtemp()) / "results.cache"
    cold = Campaign(**GRID)
    cold.run(workers=1, store=store)
    warm = Campaign(**GRID)
    warm.run(workers=1, store=store)
    counters = {metric["name"]: metric["value"]
                for metric in warm.run_metrics["metrics"]
                if metric["kind"] == "counter"}
    print()
    print(f"Warm re-run from the result store ({store.name}):")
    print(f"  cache hits: {counters.get('campaign.cache_hits', 0)}, "
          f"cells executed: {counters.get('campaign.cells_run', 0)}")
    identical = [a.to_dict() for a in cold.results] \
        == [b.to_dict() for b in warm.results]
    print(f"  warm results bit-identical to the cold run: {identical}")

    # Theory vs simulation (docs/ANALYTIC.md): the closed-form model
    # predicts the WiFi cells before they run.  A phone-*initiated*
    # ping never pays the TIM beacon wait (the phone wakes itself to
    # send), so its inflation is the SDIO promotion term alone; a
    # *downlink* probe at the same load would also pay ~BI/2 of beacon
    # wait — the asymmetry the paper's tools exploit.
    prediction = predict_for_profile("nexus5", offered_load=1.0,
                                     base_rtt=0.020)
    predicted_up = (0.020
                    + prediction["bus_sleep_probability"]
                    * prediction["tprom"])
    cell = campaign.result_for("nexus5", 0.020, "ping", env="wifi")
    simulated = statistics.fmean(cell.rtts)
    print()
    print("Theory vs simulation for the {wifi, 20 ms, ping} cell:")
    print(f"  predicted mean RTT, uplink ping:   "
          f"{predicted_up * 1e3:.1f} ms "
          f"(base 20.0 ms + Tprom {prediction['tprom'] * 1e3:.1f} ms "
          f"x P(bus asleep) {prediction['bus_sleep_probability']:.2f})")
    print(f"  simulated mean RTT:                "
          f"{simulated * 1e3:.1f} ms")
    print(f"  a downlink probe would add the TIM wait: "
          f"+{prediction['psm_mean_beacon_wait'] * 1e3:.1f} ms "
          f"-> {prediction['psm_mean_delay'] * 1e3:.1f} ms")
    print("  tests/test_analytic_validation.py pins these agreements "
          "within declared envelopes.")


if __name__ == "__main__":
    main()
