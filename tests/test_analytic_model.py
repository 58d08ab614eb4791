"""Hand-computed edge cases for :mod:`repro.analysis.analytic`.

Every expected value here is worked out by hand from the model
equations (docs/ANALYTIC.md), never read back from the simulator —
these tests pin the *model*, ``test_analytic_validation.py`` pins the
simulator against it.
"""

import math

import pytest

from repro.analysis.analytic import (
    ARRIVALS_PERIODIC,
    AnalyticError,
    predict_for_profile,
    psm_doze_probability,
    psm_listen_period,
    psm_mean_beacon_wait,
    psm_mean_delay,
    saturation_throughput,
)

BI = 0.1024  # the testbed's 100 TU beacon interval


class TestPsmEdgeCases:
    def test_zero_offered_load_always_dozing(self):
        # load = 0: every probe finds the station asleep, the full
        # beacon wait applies.  E[du] = 0.03 + 1.0 * BI/2 = 0.0812.
        assert psm_doze_probability(0.0, 0.205) == 1.0
        assert psm_mean_delay(0.0, BI, 0.205, base_rtt=0.03) == \
            pytest.approx(0.03 + BI / 2)

    def test_listen_interval_one_doubles_the_wait(self):
        # L = 1: the station hears every 2nd beacon.  Period 2*BI,
        # mean wait BI — exactly double the L=0 case.
        assert psm_listen_period(BI, 1) == pytest.approx(2 * BI)
        assert psm_mean_beacon_wait(BI, 1) == pytest.approx(BI)
        assert psm_mean_beacon_wait(BI, 1) == \
            pytest.approx(2 * psm_mean_beacon_wait(BI, 0))

    def test_degenerate_beacon_interval_rejected(self):
        for bad in (0.0, -0.1024, float("inf"), float("nan")):
            with pytest.raises(AnalyticError):
                psm_mean_beacon_wait(bad, 0)

    def test_degenerate_listen_interval_rejected(self):
        for bad in (-1, 0.5, True, "0"):
            with pytest.raises(AnalyticError):
                psm_listen_period(BI, bad)

    def test_poisson_doze_probability_hand_value(self):
        # load 5/s, Tip 205 ms: exp(-1.025) = 0.35878...
        assert psm_doze_probability(5.0, 0.205) == \
            pytest.approx(math.exp(-1.025))

    def test_periodic_arrivals_are_a_step(self):
        # 1/load > Tip keeps dozing possible; 1/load < Tip pins CAM.
        assert psm_doze_probability(4.0, 0.205, ARRIVALS_PERIODIC) == 1.0
        assert psm_doze_probability(10.0, 0.205, ARRIVALS_PERIODIC) == 0.0

    def test_unknown_arrival_process_rejected(self):
        with pytest.raises(AnalyticError, match="unknown arrival"):
            psm_doze_probability(1.0, 0.205, "martian")

    def test_mean_delay_with_bus_sleep_term(self):
        # load 2/s, Tip 205ms, Tis 50ms, Tprom 10ms, base 30ms, L=0:
        #   P(doze) = exp(-0.41), P(bus) = exp(-0.1)
        #   E[du] = 0.03 + exp(-0.41)*0.0512 + exp(-0.1)*0.010
        expected = (0.03 + math.exp(-0.41) * 0.0512
                    + math.exp(-0.1) * 0.010)
        assert psm_mean_delay(2.0, BI, 0.205, base_rtt=0.03,
                              tis=0.050, tprom=0.010) == \
            pytest.approx(expected)


class TestThroughputEdgeCases:
    def test_single_sta_saturation_hand_value(self):
        # 1500 B at 54 Mbps with 300 us overhead per exchange:
        #   bits = 12000; airtime = 12000/54e6 = 222.2 us
        #   S = 12000 / (522.2 us) = 22.978 Mbps
        bits = 1500 * 8
        expected = bits / (bits / 54e6 + 300e-6)
        assert saturation_throughput(1500, 54e6, 300e-6) == \
            pytest.approx(expected)
        assert saturation_throughput(1500, 54e6, 300e-6) == \
            pytest.approx(22.978e6, rel=1e-3)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(AnalyticError):
            saturation_throughput(0, 54e6, 300e-6)
        with pytest.raises(AnalyticError):
            saturation_throughput(1500, 54e6, 0.0)


class TestProfilePredictions:
    def test_nexus5_idle_prediction_hand_value(self):
        # nexus5: Tip 205 ms, Tis 50 ms, Tprom = broadcom wake mean.
        # Idle (load 0): both sleep probabilities are 1, so
        #   E[du] = base + BI/2 + Tprom.
        prediction = predict_for_profile("nexus5", offered_load=0.0,
                                         base_rtt=0.03)
        assert prediction["psm_doze_probability"] == 1.0
        assert prediction["bus_sleep_probability"] == 1.0
        assert prediction["psm_mean_delay"] == \
            pytest.approx(0.03 + BI / 2 + prediction["tprom"])

    def test_listen_interval_override(self):
        base = predict_for_profile("nexus5")
        doubled = predict_for_profile("nexus5", listen_interval=1)
        assert doubled["psm_mean_beacon_wait"] == \
            pytest.approx(2 * base["psm_mean_beacon_wait"])
