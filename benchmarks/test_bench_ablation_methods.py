"""Ablation A7 — AcuteMon probe methods.

§4.1: "In the current version, AcuteMon uses TCP control messages (TCP
SYN/ACK packets) and TCP data packets (HTTP request and response) to
measure nRTT ... The implementation can be easily extended to UDP and
ICMP packets."  All four are implemented; this bench verifies the
measured nRTT and the overhead decomposition are method-independent
(within the small per-protocol costs), so tool choice is a deployment
question, not an accuracy one.
"""

import statistics

from repro.analysis.render import Table
from repro.testbed.scenario import ScenarioSpec, run_scenario

from paper_reference import save_report

PROBES = 60
METHODS = ("tcp_syn", "http", "icmp", "udp")
RTT = 0.050


def run_methods():
    cells = {}
    for index, method in enumerate(METHODS):
        result = run_scenario(ScenarioSpec(
            phone="nexus5", tool="acutemon", emulated_rtt=RTT,
            count=PROBES, seed=9980 + index,
            tool_params={"probe_method": method},
        ))
        cells[method] = result
    return cells


def test_ablation_probe_methods(benchmark):
    cells = benchmark.pedantic(run_methods, rounds=1, iterations=1)

    table = Table(
        ["Method", "median du (ms)", "median dn (ms)",
         "overhead median (ms)", "losses"],
        title=f"Ablation A7: AcuteMon probe methods "
              f"(Nexus 5, emulated RTT {RTT * 1e3:.0f} ms)",
    )
    medians = {}
    for method, result in cells.items():
        du = statistics.median(result.user_rtts)
        dn = statistics.median(result.layers["dn"])
        overhead = result.overheads.box("total").median
        medians[method] = overhead
        table.add_row(method, f"{du * 1e3:.2f}", f"{dn * 1e3:.2f}",
                      f"{overhead * 1e3:.2f}",
                      result.tool.loss_count())
    save_report("ablation_methods", table.render())

    for method, result in cells.items():
        dn = statistics.median(result.layers["dn"])
        assert abs(dn - RTT) < 3e-3, method
        assert result.tool.loss_count() == 0, method
        assert medians[method] < 4e-3, method
    # Method-independence: all overhead medians within ~1.5 ms of each
    # other (HTTP adds the server's application turn-around).
    assert max(medians.values()) - min(medians.values()) < 1.5e-3
