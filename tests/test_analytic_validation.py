"""Theory vs simulation: the analytic cross-validation harness.

Holds the simulator to the closed-form predictions of
:mod:`repro.analysis.analytic` within declared error envelopes:

* **PSM mean delay**: across a listen-interval × probe-spacing grid,
  the cold-probe RTT inflation (PSM cell minus CAM baseline) must land
  within ``PSM_MEAN_ENVELOPE`` relative error of the Agrawal-model
  prediction ``(L + 1) * BI / 2``, and the per-probe inflation must
  respect the model's hard ``(L + 1) * BI`` ceiling.
* **Model monotonicity** (hypothesis properties): delay non-decreasing
  in the listen interval and non-increasing in the offered load.

Probes fire on an **absolute** time grid (unlike ``ping2``, whose next
round starts relative to the previous reply and therefore phase-locks
to the beacon schedule).  Spacings are ``(n + φ) * BI`` with φ the
golden-ratio fraction, so probe phases form a low-discrepancy sequence
over every listen period in the grid.  Envelope rationale lives in
``docs/ANALYTIC.md``.
"""

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.analytic import (
    psm_mean_beacon_wait,
    psm_mean_delay,
)
from repro.testbed.environment import build_environment

BI = 0.1024

#: Declared relative-error envelope on the PSM mean beacon wait
#: (docs/ANALYTIC.md: low-discrepancy phase sampling at n=30 probes).
PSM_MEAN_ENVELOPE = 0.25

#: Slack added to per-probe ceilings: wired RTT, airtime, and SDIO
#: promotion variability on top of the power-save wait term.
CEILING_SLACK = 0.060

#: Probes per grid cell.
COUNT = 30

#: Golden-ratio fraction: successive probe phases step by φ of the
#: beacon interval — the classic low-discrepancy stride.
PHI = 0.381966

#: Probe spacings (seconds) — all beyond Tip (205 ms) so every probe
#: finds the phone dozing, all offset from the beacon grid by φ * BI.
SPACINGS = tuple((n + PHI) * BI for n in (6, 7, 9))

LISTEN_INTERVALS = (0, 1, 2)


def run_cold_probes(spacing, listen_interval=0, psm_enabled=True,
                    count=COUNT):
    """Fire ``count`` server-side pings at an absolute ``spacing`` grid.

    Every probe finds the phone fully idle (spacing >> Tip), so each
    RTT carries the full power-save inflation.  Returns the sorted RTTs.
    """
    env = build_environment("wifi", seed=9, emulated_rtt=0.020)
    phone = env.attach_phone("nexus5", psm_enabled=psm_enabled)
    phone.sta.psm.listen_interval = listen_interval
    phone.sta.psm.timeout_jitter = 0.0
    env.settle(1.0)

    stack = env.server_host.stack
    rtts, sent = [], {}

    def on_reply(packet):
        t0 = sent.pop(packet.probe_id, None)
        if t0 is not None:
            rtts.append(env.sim.now - t0)

    handle = stack.register_ping(0x7A11, on_reply)

    def fire(probe_id):
        sent[probe_id] = env.sim.now
        stack.send_echo_request(phone.ip_addr, 0x7A11,
                                probe_id & 0xFFFF,
                                meta={"probe_id": probe_id})

    start = env.sim.now
    for k in range(count):
        env.sim.schedule(k * spacing, fire, k + 1)
    env.sim.run(until=start + count * spacing + 2.0)
    handle.close()
    assert len(rtts) == count, f"lost {count - len(rtts)} probes"
    return sorted(rtts)


@pytest.fixture(scope="module")
def cam_baseline():
    """Mean cold RTT with PSM forced off: the empirical base RTT.

    Bus sleep stays enabled, so SDIO promotion appears in both the
    baseline and the power-save cells and cancels in the difference.
    """
    rtts = run_cold_probes(SPACINGS[1], psm_enabled=False)
    return statistics.fmean(rtts)


class TestPsmMeanDelayGrid:
    @pytest.mark.parametrize("listen_interval", LISTEN_INTERVALS)
    @pytest.mark.parametrize("spacing", SPACINGS)
    def test_mean_inflation_matches_model(self, listen_interval, spacing,
                                          cam_baseline):
        rtts = run_cold_probes(spacing, listen_interval)
        mean_wait = statistics.fmean(rtts) - cam_baseline
        predicted = psm_mean_beacon_wait(BI, listen_interval)
        assert mean_wait == pytest.approx(predicted,
                                          rel=PSM_MEAN_ENVELOPE)

    @pytest.mark.parametrize("listen_interval", LISTEN_INTERVALS)
    def test_per_probe_wait_respects_listen_period_ceiling(
            self, listen_interval, cam_baseline):
        # No single beacon wait can exceed one listen period: the p100
        # of the inflation is bounded by (L + 1) * BI plus slack.
        rtts = run_cold_probes(SPACINGS[0], listen_interval)
        ceiling = (listen_interval + 1) * BI + CEILING_SLACK
        assert rtts[-1] - cam_baseline <= ceiling

    def test_busy_phone_never_waits_for_beacons(self, cam_baseline):
        # Probe spacing below Tip keeps the station in CAM: the doze
        # probability term is 0 and the beacon wait disappears.
        rtts = run_cold_probes(0.15)
        mean_wait = statistics.fmean(rtts) - cam_baseline
        assert mean_wait < BI / 4

    def test_profile_level_prediction_tracks_simulation(self,
                                                        cam_baseline):
        # The full psm_mean_delay chain (periodic arrivals, load below
        # the Tip threshold -> P(doze)=1) against the simulated mean.
        spacing = SPACINGS[2]
        rtts = run_cold_probes(spacing, listen_interval=1)
        predicted_wait = psm_mean_delay(
            1.0 / spacing, BI, 0.205, listen_interval=1,
            arrivals="periodic")
        mean_wait = statistics.fmean(rtts) - cam_baseline
        assert mean_wait == pytest.approx(predicted_wait,
                                          rel=PSM_MEAN_ENVELOPE)


class TestModelMonotonicity:
    @given(
        listen_a=st.integers(0, 10),
        step=st.integers(1, 10),
        load=st.floats(0.0, 20.0),
        beacon=st.floats(0.01, 0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_delay_non_decreasing_in_listen_interval(
            self, listen_a, step, load, beacon):
        lo = psm_mean_delay(load, beacon, 0.205,
                            listen_interval=listen_a)
        hi = psm_mean_delay(load, beacon, 0.205,
                            listen_interval=listen_a + step)
        assert hi >= lo

    @given(
        load_a=st.floats(0.0, 50.0),
        extra=st.floats(0.0, 50.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_delay_non_increasing_in_offered_load(self, load_a, extra):
        busy = psm_mean_delay(load_a + extra, BI, 0.205)
        idle = psm_mean_delay(load_a, BI, 0.205)
        assert busy <= idle
