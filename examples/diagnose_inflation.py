#!/usr/bin/env python3
"""Root-cause walk-through: *why* a 1-second ping lies on a phone.

Recreates the paper's §3 analysis end to end:

1. ping at a 10 ms interval — every layer agrees with the emulated RTT;
2. ping at the 1 s default — the user-level RTT inflates;
3. the overhead decomposition places the inflation below the kernel;
4. the driver instrumentation shows the SDIO bus wake (dvsend/dvrecv);
5. the sniffer capture shows PSM null frames and beacon-buffered
   responses on a phone whose PSM timeout is shorter than the path RTT.

Run:  python examples/diagnose_inflation.py
"""

import statistics

from repro import ScenarioSpec, run_scenario
from repro.analysis.stats import SummaryStats
from repro.sniffer.sniffer import WirelessSniffer


def section(title):
    print()
    print(f"== {title} ==")


def layer_means(result):
    return {layer: SummaryStats(values).mean * 1e3
            for layer, values in result.layers.items() if values}


def ping_spec(phone, rtt, interval, seed):
    return ScenarioSpec(phone=phone, tool="ping", emulated_rtt=rtt,
                        interval=interval, count=60, seed=seed)


def ping(phone, rtt, interval, seed):
    return run_scenario(ping_spec(phone, rtt, interval, seed))


def main():
    rtt = 0.060  # emulate a 60 ms path, like the paper's tc setup

    section("1. Nexus 5, ping every 10 ms (phone never sleeps)")
    fast = ping("nexus5", rtt, interval=0.010, seed=1)
    means = layer_means(fast)
    print(f"   du={means['du']:.2f}  dk={means['dk']:.2f}  "
          f"dv={means['dv']:.2f}  dn={means['dn']:.2f}  (ms)")
    print("   All layers sit just above the emulated 60 ms. Accurate.")

    section("2. Nexus 5, ping every 1 s (the default!)")
    slow = ping("nexus5", rtt, interval=1.0, seed=2)
    means = layer_means(slow)
    print(f"   du={means['du']:.2f}  dk={means['dk']:.2f}  "
          f"dv={means['dv']:.2f}  dn={means['dn']:.2f}  (ms)")
    print("   du inflated by "
          f"~{means['du'] - 60:.0f} ms — but dn is still clean: the network")
    print("   is fine; the phone itself inflates the measurement.")

    section("3. Where? The overhead decomposition (paper §2.1)")
    for name, label in (("du_k", "user-kernel"), ("dk_v", "kernel-driver"),
                        ("dv_n", "driver-phy")):
        box = slow.overheads.box(name)
        print(f"   Δd {label:14s} median {box.median * 1e3:7.3f} ms")
    print("   The inflation lives between the driver and the air.")

    section("4. The smoking gun: SDIO bus wake (paper §3.2.1)")
    driver = slow.phone.driver
    dvsend = [s.duration for s in driver.samples if s.kind == "send"]
    dvrecv = [s.duration for s in driver.samples if s.kind == "recv"]
    woken = [s for s in driver.samples if s.wake_paid]
    print(f"   dvsend mean {statistics.mean(dvsend) * 1e3:.2f} ms, "
          f"dvrecv mean {statistics.mean(dvrecv) * 1e3:.2f} ms")
    print(f"   bus sleeps: {driver.bus.sleep_count}, "
          f"wake penalties paid: {len(woken)}")
    print("   With a 1 s interval the bus demotes between probes "
          "(Tis = 50 ms); both")
    print("   directions pay the ~10 ms promotion delay because "
          "RTT (60 ms) > Tis.")

    section("5. And on a Nexus 4 (Tip = 40 ms): PSM hits the *network* RTT")
    # The testbed builds no sniffer: attach one to the settled cell, so
    # it captures the measurement itself.
    spec = ping_spec("nexus4", rtt, interval=1.0, seed=3)
    env, phone, collector = spec.build()
    sniffer = WirelessSniffer(env.sim, env.channel)
    n4 = spec.execute(env, phone, collector)
    means = layer_means(n4)
    print(f"   du={means['du']:.2f}  dn={means['dn']:.2f}  (ms)")
    pm_nulls = [r for r in sniffer.null_records() if r.frame.pm]
    beacons_with_tim = [r for r in sniffer.beacon_records()
                        if r.frame.tim_aids]
    print(f"   sniffer saw {len(pm_nulls)} PM=1 null frames (dozes) and")
    print(f"   {len(beacons_with_tim)} beacons advertising buffered frames:")
    print("   responses sat at the AP until the next beacon "
          "(102.4 ms interval),")
    print("   inflating even the sniffer-measured nRTT. "
          "Two phones, one path, two answers.")

    section("Conclusion")
    print("   Energy saving (SDIO sleep + adaptive PSM) is the source of")
    print("   inflated smartphone RTTs. AcuteMon's warm-up/background")
    print("   traffic removes both — see examples/quickstart.py.")


if __name__ == "__main__":
    main()
