"""Tests for timer inference (the paper's future-work training, §4.1)."""

import pytest

from repro.core.calibration import CalibrationResult, TimerCalibrator
from repro.core.measurement import ProbeCollector
from repro.core.warmup import WarmupPolicy
from repro.sniffer.sniffer import WirelessSniffer
from repro.testbed.topology import Testbed


def build(phone_key="nexus5", seed=51):
    testbed = Testbed(seed=seed, emulated_rtt=0.0)
    testbed.sniffer = WirelessSniffer(testbed.sim, testbed.channel)
    phone = testbed.add_phone(phone_key)
    collector = ProbeCollector(phone)
    testbed.settle(0.5)
    calibrator = TimerCalibrator(phone, collector, testbed.server_ip)
    return testbed, phone, calibrator


class TestCalibrationResult:
    def test_merge_later_values_win(self):
        first = CalibrationResult(t_is=0.05, details={"a": 1})
        second = CalibrationResult(t_ip=0.2, details={"b": 2})
        merged = first.merged_with(second)
        assert merged.t_is == 0.05 and merged.t_ip == 0.2
        assert merged.details == {"a": 1, "b": 2}

    def test_repr_handles_missing(self):
        assert "?" in repr(CalibrationResult())


class TestSdioInference:
    def test_nexus5_tis_recovered(self):
        _testbed, phone, calibrator = build("nexus5")
        result = calibrator.infer_sdio(
            gaps=[g * 1e-3 for g in range(20, 95, 10)], repeats=3)
        # True Tis is 50 ms; the ramp has 10 ms resolution.
        assert result.t_is is not None
        assert 0.045 <= result.t_is <= 0.075

    def test_nexus5_tprom_magnitude(self):
        _testbed, phone, calibrator = build("nexus5")
        result = calibrator.infer_sdio(
            gaps=[0.02, 0.03, 0.07, 0.08, 0.09], repeats=4)
        assert result.t_prom is not None
        # BCM4339 wake is ~8.5-13.5 ms.
        assert 0.006 < result.t_prom < 0.018

    def test_qualcomm_shorter_window_detected(self):
        _testbed, phone, calibrator = build("nexus4")
        result = calibrator.infer_sdio(
            gaps=[g * 1e-3 for g in range(10, 65, 5)], repeats=4)
        assert result.t_is is not None
        assert result.t_is <= 0.040  # true value 25 ms

    def test_calibration_feeds_warmup_policy(self):
        _testbed, phone, calibrator = build("nexus5")
        result = calibrator.infer_sdio(
            gaps=[0.02, 0.04, 0.06, 0.08], repeats=3)
        result = result.merged_with(CalibrationResult(t_ip=0.205))
        policy = WarmupPolicy.from_calibration(result)
        plan = policy.recommend()
        assert plan.valid


class TestPsmInference:
    def test_nexus5_tip_recovered_by_probing(self):
        _testbed, phone, calibrator = build("nexus5")
        result = calibrator.infer_psm(
            delays=[d * 1e-3 for d in range(100, 320, 30)], repeats=3)
        assert result.t_ip is not None
        # True Tip ~205 ms (±20 ms jitter); ramp resolution 30 ms.
        assert 0.13 <= result.t_ip <= 0.30

    def test_sniffer_based_tip_inference(self):
        testbed, phone, calibrator = build("nexus5")
        # Generate idle-then-active cycles so PM=1 nulls appear.
        for i in range(6):
            testbed.sim.schedule(
                i * 1.0, phone.stack.send_echo_request,
                testbed.server_ip, 2, i)
        testbed.run(7.0)
        records = testbed.sniffer.records
        result = calibrator.infer_psm_from_sniffer(records)
        assert result.t_ip is not None
        assert result.t_ip == pytest.approx(0.205, abs=0.035)

    def test_listen_interval_inferred_as_zero(self):
        testbed, phone, calibrator = build("nexus5")
        phone.stack.udp_bind(4444, lambda p: None)
        # Doze, then receive buffered downlink, several times.
        for i in range(4):
            testbed.sim.schedule(
                1.5 * i + 1.0, testbed.server_host.stack.send_udp,
                phone.ip_addr, 4444, None, 32)
        testbed.run(7.0)
        records = testbed.sniffer.records
        result = calibrator.infer_listen_interval(records)
        assert result.listen_interval == 0

    def test_empty_capture_returns_unknowns(self):
        _testbed, phone, calibrator = build("nexus5")
        result = calibrator.infer_psm_from_sniffer([])
        assert result.t_ip is None
        result = calibrator.infer_listen_interval([])
        assert result.listen_interval is None
