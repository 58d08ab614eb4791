"""Ablation A1 — sweeping AcuteMon's dpre and db around the demotion
timers.

DESIGN.md calls out the warm-up policy ``Tprom < dpre < min(Tis, Tip)``
and ``db < min(Tis, Tip)`` as the load-bearing design choice; this bench
sweeps both knobs on the Nexus 5 (Tis = 50 ms, Tip ~ 205 ms → floor
50 ms) and shows the cliff: overheads stay flat while the constraint
holds and jump by the bus wake cost once ``db`` crosses ``Tis``.
"""

from repro.analysis.render import Table
from repro.core.overhead import decompose
from repro.core.warmup import WarmupPolicy
from repro.phone.profiles import NEXUS_5
from repro.testbed.scenario import ScenarioSpec, run_scenario

from paper_reference import save_report

PROBES = 50
DB_SWEEP_MS = (5, 10, 20, 30, 40, 45, 60, 80, 100)
DPRE_SWEEP_MS = (5, 10, 20, 35, 45)


def run_sweep():
    policy = WarmupPolicy.for_profile(NEXUS_5)
    db_rows = {}
    for index, db_ms in enumerate(DB_SWEEP_MS):
        result = run_scenario(ScenarioSpec(
            phone="nexus5", tool="acutemon", emulated_rtt=0.030,
            count=PROBES, seed=9500 + index,
            # sparse probes: the BT must carry the load
            tool_params={"db": db_ms * 1e-3, "probe_gap": 0.150},
        ))
        overheads = decompose(result.collector.completed())
        db_rows[db_ms] = {
            "median": overheads.box("total").median,
            "p90": sorted(overheads.series("total"))[
                int(0.9 * len(overheads.series("total")))],
            "plan_valid": policy.plan(db=db_ms * 1e-3).valid,
            "bus_sleeps": result.phone.driver.bus.sleep_count,
        }
    dpre_rows = {}
    for index, dpre_ms in enumerate(DPRE_SWEEP_MS):
        result = run_scenario(ScenarioSpec(
            phone="nexus5", tool="acutemon", emulated_rtt=0.030, count=10,
            seed=9600 + index, tool_params={"dpre": dpre_ms * 1e-3},
        ))
        records = result.collector.completed()
        first = records[0] if records else None
        dpre_rows[dpre_ms] = {
            "first_overhead": (first.du - first.dn) if first else None,
            "plan_valid": policy.plan(dpre=dpre_ms * 1e-3).valid,
        }
    return db_rows, dpre_rows


def test_ablation_warmup_timing(benchmark):
    db_rows, dpre_rows = benchmark.pedantic(run_sweep, rounds=1,
                                            iterations=1)

    table = Table(
        ["db (ms)", "policy says", "median overhead (ms)",
         "p90 (ms)", "bus sleeps"],
        title="Ablation A1a: background interval db vs overhead "
              "(Nexus 5, Tis=50ms, probes 150ms apart)",
    )
    for db_ms, row in db_rows.items():
        table.add_row(
            db_ms, "valid" if row["plan_valid"] else "VIOLATES",
            f"{row['median'] * 1e3:.2f}", f"{row['p90'] * 1e3:.2f}",
            row["bus_sleeps"],
        )
    report = table.render()

    table2 = Table(
        ["dpre (ms)", "policy says", "first-probe overhead (ms)"],
        title="Ablation A1b: warm-up lead dpre vs first-probe overhead",
    )
    for dpre_ms, row in dpre_rows.items():
        overhead = row["first_overhead"]
        table2.add_row(
            dpre_ms, "valid" if row["plan_valid"] else "VIOLATES",
            f"{overhead * 1e3:.2f}" if overhead is not None else "?",
        )
    save_report("ablation_timing", report + "\n\n" + table2.render())

    valid_medians = [row["median"] for db, row in db_rows.items()
                     if row["plan_valid"]]
    invalid_medians = [row["median"] for db, row in db_rows.items()
                       if not row["plan_valid"]]
    assert valid_medians and invalid_medians
    # Valid plans: flat, small overhead; invalid: the bus sleeps between
    # background packets and probes pay the wake.
    assert max(valid_medians) < 4e-3
    assert max(invalid_medians) > max(valid_medians) + 4e-3
    # The policy's verdict matches the observed cliff.
    for db_ms, row in db_rows.items():
        if db_ms <= 40:
            assert row["plan_valid"], db_ms
        if db_ms >= 60:
            assert not row["plan_valid"], db_ms

    # dpre below Tprom starts probing before the bus is up: the first
    # probe still eats (part of) the promotion delay.
    short = dpre_rows[5]["first_overhead"]
    comfortable = dpre_rows[20]["first_overhead"]
    assert short is not None and comfortable is not None
    assert short > comfortable
