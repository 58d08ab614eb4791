#!/usr/bin/env python3
"""Train AcuteMon's timers for an unknown phone (the paper's future work).

The AcuteMon prototype hard-codes dpre = db = 20 ms, which only works
because every tested phone satisfies Tprom < 20 ms < min(Tis, Tip).
§4.1 proposes *training* instead.  This example runs the calibration
suite against a phone the program pretends not to know:

1. infer the SDIO idle window Tis and promotion delay Tprom by ramping
   idle gaps until the RTT jumps,
2. infer the PSM timeout Tip from the sniffer's PM-bit null frames,
3. infer the actual listen interval from TIM-to-fetch distances,
4. derive a valid (dpre, db) plan from the calibrated values,
5. run AcuteMon with the derived plan and verify the overhead,
6. sweep the phone across emulated RTTs on a pool of two worker
   processes (``workers=2``) — results are bit-identical to an
   in-process sweep, just faster on multi-core machines (see
   docs/PERFORMANCE.md).

Run:  python examples/calibrate_and_plan.py [phone_key]
"""

import sys

from repro.core.acutemon import AcuteMon, AcuteMonConfig
from repro.core.calibration import TimerCalibrator
from repro.core.measurement import ProbeCollector
from repro.core.overhead import decompose
from repro.core.warmup import WarmupPolicy
from repro.testbed.campaign import Campaign
from repro.testbed.topology import Testbed


def fmt(seconds):
    return f"{seconds * 1e3:.1f} ms" if seconds is not None else "unknown"


def main():
    phone_key = sys.argv[1] if len(sys.argv) > 1 else "galaxy_grand"
    print(f"Calibrating '{phone_key}' (pretending its timers are unknown)")

    testbed = Testbed(seed=13, emulated_rtt=0.0)
    phone = testbed.add_phone(phone_key)
    collector = ProbeCollector(phone)
    testbed.settle(0.5)
    calibrator = TimerCalibrator(phone, collector, testbed.server_ip)

    print("  [1/3] ramping idle gaps to find the SDIO window...")
    sdio = calibrator.infer_sdio(repeats=4)
    print(f"        Tis ≈ {fmt(sdio.t_is)}   Tprom ≈ {fmt(sdio.t_prom)}")

    print("  [2/3] generating doze cycles and sniffing PM bits...")
    for index in range(8):
        testbed.sim.schedule(index * 1.2, phone.stack.send_echo_request,
                             testbed.server_ip, 9, index)
    phone.stack.udp_bind(4444, lambda p: None)
    for index in range(4):
        testbed.sim.schedule(1.5 * index + 0.7,
                             testbed.server_host.stack.send_udp,
                             phone.ip_addr, 4444, None, 32)
    testbed.run(11.0)
    capture = testbed.merged_capture()
    psm = calibrator.infer_psm_from_sniffer(capture)
    listen = calibrator.infer_listen_interval(capture)
    print(f"        Tip ≈ {fmt(psm.t_ip)}   "
          f"listen interval = {listen.listen_interval}")

    calibration = sdio.merged_with(psm).merged_with(listen)
    policy = WarmupPolicy.from_calibration(calibration)
    plan = policy.recommend()
    print("  [3/3] derived warm-up plan: "
          f"dpre = {plan.dpre * 1e3:.1f} ms, db = {plan.db * 1e3:.1f} ms "
          f"({'valid' if plan.valid else 'INVALID'})")

    truth = phone.profile
    print()
    print("  ground truth for comparison: "
          f"Tis = {truth.sdio_idle_window * 1e3:.0f} ms, "
          f"Tip = {truth.psm_timeout * 1e3:.0f} ms "
          f"(±{truth.psm_timeout_jitter * 1e3:.0f} ms jitter)")

    print()
    print("Running AcuteMon with the calibrated plan "
          "(emulated RTT 85 ms, 50 probes)...")
    testbed.set_emulated_rtt(0.085)
    config = AcuteMonConfig(dpre=plan.dpre, db=plan.db, probe_count=50)
    monitor = AcuteMon(phone, collector, testbed.server_ip, config=config)
    done = []
    monitor.start(on_complete=lambda r: done.append(r))
    while not done:
        testbed.sim.step()
    records = [collector.get(o.probe_id) for o in monitor.results]
    overheads = decompose([r for r in records if r and r.complete])
    print(f"  median delay overhead: "
          f"{overheads.box('total').median * 1e3:.2f} ms "
          "(paper target: < 3 ms)")

    print()
    print("Sweeping the calibrated phone across emulated RTTs "
          "(pooled campaign, workers=2)...")
    campaign = Campaign(phones=(phone_key,), rtts=(0.020, 0.085),
                        tools=("acutemon",), count=10, base_seed=13)
    campaign.run(workers=2)
    for cell in campaign.results:
        print(f"  {cell.rtt * 1e3:3.0f} ms emulated -> median error "
              f"{cell.error() * 1e3:.2f} ms (n={len(cell.rtts)})")


if __name__ == "__main__":
    main()
