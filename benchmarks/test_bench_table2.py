"""Table 2 — RTTs measured at different layers (§3.1).

Regenerates the multi-layer ping experiment: Nexus 4 and Nexus 5,
emulated RTTs of 30 ms and 60 ms, packet sending intervals of 10 ms and
1 s, 100 ICMP probes per cell.  Reports du (app), dk (tcpdump) and dn
(sniffers) with 95% confidence intervals, alongside the paper's values.

Expected shape: at 10 ms intervals all layers sit near the emulated RTT;
at 1 s intervals the Nexus 5 inflates *internally* (SDIO bus wake, one
wake at 30 ms, two at 60 ms) while the Nexus 4 at 60 ms inflates mostly
*in the network* (Tip = 40 ms < RTT, so responses wait for beacons).
"""

from repro.analysis.render import Table, fmt_mean_ci
from repro.analysis.stats import SummaryStats
from repro.testbed.scenario import ScenarioSpec, run_scenario

from paper_reference import TABLE2, PHONE_NAMES, save_report

PROBES = 100
CELLS = [
    (phone, rtt_ms, label, interval)
    for phone in ("nexus4", "nexus5")
    for rtt_ms in (30, 60)
    for label, interval in (("10ms", 0.010), ("1s", 1.0))
]


def run_table2():
    rows = {}
    for index, (phone, rtt_ms, label, interval) in enumerate(CELLS):
        result = run_scenario(ScenarioSpec(
            phone=phone, tool="ping", emulated_rtt=rtt_ms * 1e-3,
            interval=interval, count=PROBES, seed=1000 + index,
        ))
        rows[(phone, rtt_ms, label)] = {
            layer: SummaryStats(result.layers[layer])
            for layer in ("du", "dk", "dn")
        }
    return rows


def test_table2_multilayer_rtts(benchmark):
    rows = benchmark.pedantic(run_table2, rounds=1, iterations=1)

    table = Table(
        ["Phone", "RTT", "Intv.",
         "du (ms)", "dk (ms)", "dn (ms)",
         "paper du", "paper dk", "paper dn"],
        title=f"Table 2: RTTs measured at different layers "
              f"(mean±95% CI over {PROBES} probes)",
    )
    for (phone, rtt_ms, label), stats in rows.items():
        paper = TABLE2[(phone, rtt_ms, label)]
        table.add_row(
            PHONE_NAMES[phone], f"{rtt_ms}ms", label,
            fmt_mean_ci(stats["du"]), fmt_mean_ci(stats["dk"]),
            fmt_mean_ci(stats["dn"]),
            f"{paper[0]:.2f}", f"{paper[1]:.2f}", f"{paper[2]:.2f}",
        )
    save_report("table2", table.render())

    # Shape assertions.
    def du(phone, rtt, label):
        return rows[(phone, rtt, label)]["du"].mean * 1e3

    def dn(phone, rtt, label):
        return rows[(phone, rtt, label)]["dn"].mean * 1e3

    # Fast probing is accurate everywhere.
    for phone in ("nexus4", "nexus5"):
        for rtt in (30, 60):
            assert abs(du(phone, rtt, "10ms") - rtt) < 5
    # 1 s probing inflates du on both phones.
    assert du("nexus5", 30, "1s") > du("nexus5", 30, "10ms") + 5
    assert du("nexus4", 60, "1s") > du("nexus4", 60, "10ms") + 15
    # Nexus 5's inflation is internal (dn stays clean) ...
    assert abs(dn("nexus5", 30, "1s") - 31) < 4
    # ... Nexus 4's 60 ms inflation is in the network (PSM buffering).
    assert dn("nexus4", 60, "1s") > 90
