"""Figure 3 — box plots of Δdk−n and Δdu−k (§3.1).

Same experiment as Table 2, rendered as the overhead decomposition:
kernel-to-PHY overhead (where SDIO wake and PSM buffering land) and
user-to-kernel overhead (tiny; occasionally *negative* on the Nexus 4
because its ping truncates RTTs above 100 ms to integer milliseconds).
"""

from repro.analysis.render import render_boxplot_row
from repro.testbed.scenario import ScenarioSpec, run_scenario

from paper_reference import save_report

PROBES = 100
CELLS = [
    ("nexus4", 30, "10ms", 0.010),
    ("nexus5", 30, "10ms", 0.010),
    ("nexus4", 30, "1s", 1.0),
    ("nexus5", 30, "1s", 1.0),
    ("nexus4", 60, "10ms", 0.010),
    ("nexus4", 60, "1s", 1.0),
    ("nexus5", 60, "10ms", 0.010),
    ("nexus5", 60, "1s", 1.0),
]


def run_fig3():
    cells = {}
    for index, (phone, rtt_ms, label, interval) in enumerate(CELLS):
        result = run_scenario(ScenarioSpec(
            phone=phone, tool="ping", emulated_rtt=rtt_ms * 1e-3,
            interval=interval, count=PROBES, seed=3000 + index,
        ))
        cells[(phone, rtt_ms, label)] = result.overheads
    return cells


def test_fig3_overhead_boxplots(benchmark):
    cells = benchmark.pedantic(run_fig3, rounds=1, iterations=1)

    lines = ["Figure 3: kernel-phy (dk_n) and user-kernel (du_k) overheads",
             "", "-- Δdk−n (ms) --"]
    for key, overheads in cells.items():
        phone, rtt, label = key
        lines.append(render_boxplot_row(
            f"{phone} {rtt}ms ({label})", overheads.box("dk_n")))
    lines.append("")
    lines.append("-- Δdu−k (ms) --")
    for key, overheads in cells.items():
        phone, rtt, label = key
        lines.append(render_boxplot_row(
            f"{phone} {rtt}ms ({label})", overheads.box("du_k")))
    save_report("fig3", "\n".join(lines))

    def dk_n(phone, rtt, label):
        return cells[(phone, rtt, label)].box("dk_n").median * 1e3

    # Figure 3(a)/(c): small overheads (< ~4 ms) at 10 ms intervals.
    assert dk_n("nexus4", 30, "10ms") < 4
    assert dk_n("nexus5", 30, "10ms") < 4
    # At 1 s, Nexus 5's Δdk−n exceeds Nexus 4's (SDIO vs SMD wake cost).
    assert dk_n("nexus5", 60, "1s") > dk_n("nexus4", 60, "1s")
    assert dk_n("nexus5", 60, "1s") > 10  # paper: ~18 ms median
    # Δdu−k stays sub-millisecond in every cell.
    for key, overheads in cells.items():
        assert abs(overheads.box("du_k").median) < 1e-3, key
