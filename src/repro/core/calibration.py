"""Inferring a phone's energy-saving timers (the paper's future work).

§4.1 notes that the prototype's empirical ``dpre = db = 20 ms`` "could be
inappropriate for some smartphone models, because both Tis and Tip are
tunable.  ...  A simple solution is training the program to obtain
suitable values."  This module implements that training:

* :meth:`TimerCalibrator.infer_sdio` ramps the idle gap between probe
  pairs and finds the change point where the user-level RTT jumps by the
  bus promotion delay — yielding both ``Tis`` and ``Tprom``.
* :meth:`TimerCalibrator.infer_psm` asks the echo server to delay its
  responses (an in-band stand-in for a long path) and finds the delay at
  which responses start hitting power-save buffering — yielding ``Tip``.
* :meth:`TimerCalibrator.infer_psm_from_sniffer` and
  :meth:`TimerCalibrator.infer_listen_interval` read the same values
  directly from a monitor-mode capture (PM-bit null frames and TIM
  beacons), the way a testbed operator would.

The result feeds :meth:`repro.core.warmup.WarmupPolicy.from_calibration`.
"""

from repro.analysis.stats import percentile


class CalibrationResult:
    """Inferred timer values for one phone."""

    def __init__(self, t_is=None, t_prom=None, t_ip=None,
                 listen_interval=None, details=None):
        self.t_is = t_is
        self.t_prom = t_prom
        self.t_ip = t_ip
        self.listen_interval = listen_interval
        self.details = details if details is not None else {}

    def merged_with(self, other):
        """Combine two partial results (later values win when both set)."""
        merged = CalibrationResult(
            t_is=other.t_is if other.t_is is not None else self.t_is,
            t_prom=other.t_prom if other.t_prom is not None else self.t_prom,
            t_ip=other.t_ip if other.t_ip is not None else self.t_ip,
            listen_interval=(
                other.listen_interval
                if other.listen_interval is not None
                else self.listen_interval
            ),
        )
        merged.details = {**self.details, **other.details}
        return merged

    def __repr__(self):
        def fmt(value):
            return f"{value * 1e3:.1f}ms" if value is not None else "?"

        return (
            f"<CalibrationResult Tis={fmt(self.t_is)} "
            f"Tprom={fmt(self.t_prom)} Tip={fmt(self.t_ip)} "
            f"L={self.listen_interval}>"
        )


class TimerCalibrator:
    """Active/passive inference of Tis, Tprom, Tip and the listen interval.

    Runs the simulation inline (it owns the event loop while measuring),
    so create it, call the ``infer_*`` methods, and read the results.
    """

    def __init__(self, phone, collector, server_ip, udp_echo_port=7007,
                 probe_timeout=2.0):
        self.phone = phone
        self.sim = phone.sim
        self.collector = collector
        self.server_ip = server_ip
        self.udp_echo_port = udp_echo_port
        self.probe_timeout = probe_timeout
        self._port = phone.stack.allocate_port()
        self._reply_box = {}
        self._binding = phone.stack.udp_bind(
            self._port, phone.user_wrap(self._on_reply))

    def close(self):
        self._binding.close()

    # -- probe plumbing ------------------------------------------------------

    def _on_reply(self, packet):
        probe_id = packet.probe_id
        if probe_id in self._reply_box:
            self._reply_box[probe_id] = self.sim.now

    def _echo_probe(self, echo_delay=0.0):
        """Send one UDP echo probe; returns its user-level RTT or None."""
        record = self.collector.new_probe(kind="probe")
        meta = self.collector.meta_for(record)
        if echo_delay > 0:
            meta["echo_delay"] = echo_delay
        self._reply_box[record.probe_id] = None
        t0 = self.phone.user_send(lambda: self.phone.stack.send_udp(
            self.server_ip, self.udp_echo_port, src_port=self._port,
            payload_size=32, meta=meta,
        ))
        self.collector.record_user_send(record.probe_id, t0)
        deadline = self.sim.now + echo_delay + self.probe_timeout
        while self._reply_box[record.probe_id] is None and self.sim.now < deadline:
            if not self.sim.step():
                break
        t_reply = self._reply_box.pop(record.probe_id)
        if t_reply is None:
            self.collector.record_timeout(record.probe_id)
            return None
        self.collector.record_user_recv(record.probe_id, t_reply)
        return t_reply - t0

    def _idle(self, duration):
        """Let the phone sit idle for ``duration``."""
        self.sim.run(until=self.sim.now + duration)

    # -- SDIO: Tis and Tprom ---------------------------------------------------

    def infer_sdio(self, gaps=None, repeats=7, jump_threshold=1e-3):
        """Ramp the idle gap before a probe; find the bus-wake change point.

        For each candidate gap the phone idles that long after the
        previous response, then probes; once the gap exceeds ``Tis`` the
        bus has demoted and the RTT jumps by roughly ``Tprom``.

        The change-point statistic is the per-gap *minimum* RTT: the
        driver's receive-path cost is heavy-tailed (Table 3), so medians
        wobble by a millisecond, while the minimum pins the distribution
        floor and shifts only when the wake delay appears.
        """
        if gaps is None:
            gaps = [g * 1e-3 for g in range(5, 105, 5)]
        minima = {}
        for gap in gaps:
            samples = []
            for _ in range(repeats):
                # Ensure a known-awake starting point, then idle precisely.
                warm = self._echo_probe()
                if warm is None:
                    continue
                self._idle(gap)
                rtt = self._echo_probe()
                if rtt is not None:
                    samples.append(rtt)
            if samples:
                minima[gap] = min(samples)
        if len(minima) < 2:
            return CalibrationResult(details={"sdio_minima": minima})
        ordered = sorted(minima)
        base = minima[ordered[0]]
        t_is = None
        for gap in ordered:
            if minima[gap] - base > jump_threshold:
                t_is = gap
                break
        t_prom = None
        if t_is is not None:
            high = [minima[g] for g in ordered if g >= t_is]
            low = [minima[g] for g in ordered if g < t_is]
            if high and low:
                t_prom = percentile(high, 50) - percentile(low, 50)
        return CalibrationResult(t_is=t_is, t_prom=t_prom,
                                 details={"sdio_minima": minima})

    # -- PSM: Tip -------------------------------------------------------------

    def infer_psm(self, delays=None, repeats=3, inflation_threshold=15e-3):
        """Ramp server-side response delays to find the PSM timeout.

        A response delayed by more than ``Tip`` (minus the path RTT)
        finds the station dozing and waits for a beacon; the measured
        RTT then exceeds ``delay + baseline`` by tens of milliseconds.
        """
        if delays is None:
            delays = [d * 1e-3 for d in range(20, 520, 20)]
        baseline_samples = [
            rtt for rtt in (self._echo_probe() for _ in range(repeats))
            if rtt is not None
        ]
        if not baseline_samples:
            return CalibrationResult()
        baseline = percentile(baseline_samples, 50)
        inflations = {}
        t_ip = None
        for delay in delays:
            hits = 0
            samples = 0
            for _ in range(repeats):
                rtt = self._echo_probe(echo_delay=delay)
                if rtt is None:
                    continue
                samples += 1
                if rtt - delay - baseline > inflation_threshold:
                    hits += 1
            if samples:
                inflations[delay] = hits / samples
            if samples and hits * 2 > samples:
                t_ip = delay + baseline
                break
        return CalibrationResult(
            t_ip=t_ip,
            details={"psm_baseline": baseline, "psm_hits": inflations},
        )

    # -- passive (sniffer-based) inference ------------------------------------

    def infer_psm_from_sniffer(self, records):
        """Read ``Tip`` straight from the capture.

        Each null frame with PM=1 marks a doze; its gap from the phone's
        previous data activity is one Tip sample.
        """
        mac = self.phone.sta.mac
        last_activity = None
        samples = []
        for record in records:
            frame = record.frame
            if record.is_data and (frame.src_mac == mac or frame.dst_mac == mac):
                last_activity = record.end_time
            elif record.is_null and frame.src_mac == mac:
                if frame.pm and last_activity is not None:
                    samples.append(record.time - last_activity)
                last_activity = record.end_time
        if not samples:
            return CalibrationResult()
        return CalibrationResult(
            t_ip=percentile(samples, 50),
            details={"psm_sniffer_samples": samples},
        )

    def infer_listen_interval(self, records):
        """Count beacons between a buffered-traffic TIM and the fetch.

        With the actual listen interval L the station reacts to every
        (L+1)-th beacon; every phone in Table 4 turned out to honour
        L = 0 (react at the first TIM'd beacon).
        """
        mac = self.phone.sta.mac
        aid = self.phone.sta.aid
        skipped = None
        samples = []
        for record in records:
            frame = record.frame
            if record.is_beacon:
                if aid in frame.tim_aids:
                    if skipped is None:
                        skipped = 0
                    else:
                        skipped += 1
            elif record.is_null and frame.src_mac == mac and not frame.pm:
                if skipped is not None:
                    samples.append(skipped)
                skipped = None
            elif record.is_data and frame.src_mac == mac:
                skipped = None
        if not samples:
            return CalibrationResult()
        return CalibrationResult(
            listen_interval=int(percentile(samples, 50)),
            details={"listen_samples": samples},
        )
