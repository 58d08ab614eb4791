"""Figure 9 — effect of AcuteMon's own background traffic (§4.4).

The control experiment: with the SDIO sleep feature disabled in the
driver and an emulated RTT (30 ms) safely below the Nexus 5's PSM
timeout (~205 ms), the phone stays awake with or without background
traffic — so any difference between the two CDFs is the footprint of
the background packets themselves.  The paper finds that difference
negligible; the congested-network RTT increase comes from the cross
traffic, not from AcuteMon's ~50 packets.
"""

from repro.analysis.cdf import Cdf
from repro.analysis.render import render_cdf
from repro.testbed.scenario import ScenarioSpec, run_scenario

from paper_reference import save_report

PROBES = 100


def run_fig9():
    def one(background, cross):
        result = run_scenario(ScenarioSpec(
            phone="nexus5", tool="acutemon", emulated_rtt=0.030,
            count=PROBES, seed=9000, cross_traffic=cross, bus_sleep=False,
            tool_params={"background_enabled": background,
                         "warmup_enabled": background},
        ))
        return result.user_rtts

    return {
        "with_bg": one(background=True, cross=True),
        "without_bg": one(background=False, cross=True),
        "no_cross": one(background=True, cross=False),
    }


def test_fig9_background_traffic_effect(benchmark):
    series = benchmark.pedantic(run_fig9, rounds=1, iterations=1)

    cdfs = {name: Cdf(values) for name, values in series.items()}
    lines = ["Figure 9: AcuteMon with/without background traffic "
             "(bus sleep disabled, cross traffic, ms)"]
    for name in ("with_bg", "without_bg", "no_cross"):
        lines.append(render_cdf(cdfs[name], label=name))
    shift = cdfs["with_bg"].shift_versus(cdfs["without_bg"])
    lines.append("")
    lines.append("with_bg - without_bg quantile shifts (ms): "
                 + "  ".join(f"p{int(p * 100)}={d * 1e3:+.2f}"
                             for p, d in shift.items()))
    save_report("fig9", "\n".join(lines))

    # The background traffic's own effect is very small (< ~1.5 ms at the
    # median), while cross traffic accounts for the visible shift.
    bg_effect = abs(cdfs["with_bg"].median - cdfs["without_bg"].median)
    cross_effect = cdfs["with_bg"].median - cdfs["no_cross"].median
    assert bg_effect < 1.5e-3
    assert cross_effect > bg_effect
