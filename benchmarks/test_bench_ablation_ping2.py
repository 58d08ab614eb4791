"""Ablation A2 — ping2 (Sui et al.) vs AcuteMon across path lengths.

§1 of the paper: "ping2 can be used only for network paths with short
nRTT and cannot remove the inflations completely, because, when nRTT is
long, the device could fall back to the inactive state again before it
receives the response packet and starts the second ping."

This bench sweeps the emulated RTT across the Nexus 5's ``Tis`` (50 ms)
and shows the crossover: ping2's error is small below it and jumps by
the bus wake above it, while AcuteMon's error stays flat.
"""

import statistics

from repro.analysis.render import Table
from repro.testbed.scenario import ScenarioSpec, run_scenario

from paper_reference import save_report

PROBES = 30
RTTS_MS = (10, 20, 35, 50, 65, 85, 110, 135)


def run_sweep():
    rows = {}
    for index, rtt_ms in enumerate(RTTS_MS):
        rtt = rtt_ms * 1e-3
        cell = dict(phone="nexus5", emulated_rtt=rtt, count=PROBES,
                    seed=9700 + index)
        ping2 = run_scenario(ScenarioSpec(tool="ping2", **cell))
        acute = run_scenario(ScenarioSpec(tool="acutemon", **cell))
        rows[rtt_ms] = {
            "ping2_err": statistics.median(ping2.tool.rtts()) - rtt,
            "acute_err": statistics.median(acute.user_rtts) - rtt,
        }
    return rows


def test_ablation_ping2_crossover(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    table = Table(
        ["Emulated RTT (ms)", "ping2 median error (ms)",
         "AcuteMon median error (ms)"],
        title="Ablation A2: ping2 vs AcuteMon error across path lengths "
              "(Nexus 5, Tis=50ms)",
    )
    for rtt_ms, row in rows.items():
        table.add_row(rtt_ms, f"{row['ping2_err'] * 1e3:.2f}",
                      f"{row['acute_err'] * 1e3:.2f}")
    save_report("ablation_ping2", table.render())

    short = [row["ping2_err"] for rtt, row in rows.items() if rtt <= 35]
    long = [row["ping2_err"] for rtt, row in rows.items() if rtt >= 65]
    # ping2 works on short paths...
    assert max(short) < 6e-3
    # ...and degrades by roughly a bus wake on long ones.
    assert min(long) > max(short) + 3e-3
    # AcuteMon's error is small and flat everywhere.
    acute_errs = [row["acute_err"] for row in rows.values()]
    assert max(acute_errs) < 5e-3
    assert max(acute_errs) - min(acute_errs) < 3e-3
    # On long paths AcuteMon strictly beats ping2.
    for rtt_ms, row in rows.items():
        if rtt_ms >= 65:
            assert row["acute_err"] < row["ping2_err"], rtt_ms
