"""The fully automatic pipeline: calibrate, plan, measure, correct.

Stitches together the pieces the paper describes separately —

1. timer training (:class:`~repro.core.calibration.TimerCalibrator`,
   the §4.1 future work),
2. warm-up planning (:class:`~repro.core.warmup.WarmupPolicy`, §4.1),
3. the AcuteMon measurement itself (§4.1-§4.2), and
4. overhead calibration for corrected nRTT estimates (§4.2.2)

— into one call: :meth:`AutoAcuteMon.measure`.  This is what a deployed
app would run on a phone model it has never seen.
"""

from repro.core.acutemon import AcuteMon, AcuteMonConfig
from repro.core.calibrated import OverheadCalibrator
from repro.core.calibration import TimerCalibrator
from repro.core.warmup import WarmupPolicy
from repro.tools.base import run_until_complete


class AutoMeasurementResult:
    """Everything one automatic measurement produced."""

    __slots__ = ("calibration", "plan", "raw_rtts", "corrected_rtts",
                 "overhead")

    def __init__(self, calibration, plan, raw_rtts, corrected_rtts,
                 overhead):
        self.calibration = calibration
        self.plan = plan
        self.raw_rtts = raw_rtts
        self.corrected_rtts = corrected_rtts
        self.overhead = overhead

    def __repr__(self):
        return (f"<AutoMeasurementResult n={len(self.raw_rtts)} "
                f"overhead={self.overhead * 1e3:.2f}ms>")


class AutoAcuteMon:
    """Calibrating AcuteMon front end.

    Parameters
    ----------
    phone / collector / server_ip:
        As for :class:`~repro.core.acutemon.AcuteMon`.  The server must
        run the UDP echo service (for timer training) in addition to the
        probe target.
    """

    def __init__(self, phone, collector, server_ip, udp_echo_port=7007):
        self.phone = phone
        self.sim = phone.sim
        self.collector = collector
        self.server_ip = server_ip
        self.udp_echo_port = udp_echo_port
        self.calibration = None
        self.plan = None
        self._overhead_calibrator = OverheadCalibrator()

    # -- step 1+2: timers and plan ----------------------------------------

    #: Timer training needs a *nearby* reference: once the path RTT
    #: approaches the demotion timers, probe responses themselves trip
    #: bus wakes and PSM buffering and the inference conflates effects
    #: (the same failure mode the paper ascribes to ping2 on long paths).
    MAX_REFERENCE_RTT = 0.035

    def calibrate(self, sniffer_records=None):
        """Infer the phone's timers and derive a warm-up plan.

        Raises if the reference path is too long to calibrate against —
        point ``server_ip`` at a close echo server (first hop or LAN).
        """
        calibrator = TimerCalibrator(self.phone, self.collector,
                                     self.server_ip,
                                     udp_echo_port=self.udp_echo_port)
        try:
            baseline = [
                rtt for rtt in (calibrator._echo_probe() for _ in range(3))
                if rtt is not None
            ]
            if not baseline:
                raise RuntimeError("reference server does not answer echoes")
            if min(baseline) > self.MAX_REFERENCE_RTT:
                raise RuntimeError(
                    f"reference path RTT ~{min(baseline) * 1e3:.0f}ms is too "
                    "long for timer training (responses themselves trip the "
                    "energy savers); calibrate against a nearby echo server"
                )
            result = calibrator.infer_sdio()
            result = result.merged_with(calibrator.infer_psm())
            if sniffer_records is not None:
                result = result.merged_with(
                    calibrator.infer_psm_from_sniffer(sniffer_records))
        finally:
            calibrator.close()
        self.calibration = result
        if result.t_is is None or result.t_ip is None:
            raise RuntimeError(
                f"calibration incomplete: {result!r}; cannot derive a plan")
        policy = WarmupPolicy.from_calibration(result)
        self.plan = policy.recommend()
        return self.plan

    # -- step 3+4: measure and correct ----------------------------------------

    def measure(self, probe_count=100, probe_method="tcp_syn",
                train_overhead=True, **config_kwargs):
        """Run one AcuteMon measurement with the derived plan.

        With ``train_overhead`` the first run also trains the overhead
        calibrator from the sniffer ground truth in the probe records
        (when available), so ``corrected_rtts`` are unbiased.
        """
        if self.plan is None:
            self.calibrate()
        config = AcuteMonConfig(
            dpre=self.plan.dpre, db=self.plan.db,
            probe_count=probe_count, probe_method=probe_method,
            **config_kwargs,
        )
        monitor = AcuteMon(self.phone, self.collector, self.server_ip,
                           config=config)
        run_until_complete(self.sim, monitor.start, "AutoAcuteMon")
        raw = monitor.rtts()
        records = [self.collector.get(outcome.probe_id)
                   for outcome in monitor.results]
        completed = [r for r in records if r is not None and r.complete]
        if train_overhead:
            self._overhead_calibrator.train_from_records(completed)
        if self._overhead_calibrator.trained:
            overhead = self._overhead_calibrator.overhead()
            corrected = self._overhead_calibrator.correct_all(raw)
        else:
            overhead = 0.0
            corrected = list(raw)
        return AutoMeasurementResult(self.calibration, self.plan, raw,
                                     corrected, overhead)
