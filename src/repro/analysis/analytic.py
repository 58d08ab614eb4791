"""Closed-form delay and throughput predictors for the power-save stack.

Everything else in :mod:`repro.analysis` summarises what the simulator
*did*; this module predicts what it *should* do.  The models are the
analytical successors of the paper's measured mechanisms:

* **Adaptive PSM** (Agrawal et al.'s M/G/1-with-vacations treatment of
  802.11 power save, specialised to the paper's testbed): a station
  whose inter-arrival gap exceeds the PSM timeout ``Tip`` dozes, and a
  downlink probe that finds it dozing waits for the next beacon whose
  TIM it listens to.  With listen interval ``L`` the station hears
  every ``(L+1)``-th beacon, so a probe arriving at a uniformly random
  phase waits ``(L+1) * BI / 2`` on average.

``tests/test_analytic_validation.py`` holds the simulator to these
predictions within declared error envelopes; the per-metric envelopes
and their rationale live in ``docs/ANALYTIC.md``, alongside the mapping
from every symbol here to its :class:`~repro.testbed.scenario.ScenarioSpec`
field.
"""

import math

#: Inter-arrival process assumptions for the doze-probability term.
ARRIVALS_POISSON = "poisson"
ARRIVALS_PERIODIC = "periodic"


class AnalyticError(ValueError):
    """A model was evaluated outside its domain (degenerate input)."""


def _require_positive(name, value):
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not math.isfinite(value) or value <= 0:
        raise AnalyticError(f"{name} must be a positive finite number, "
                            f"got {value!r}")
    return value


def _require_non_negative(name, value):
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not math.isfinite(value) or value < 0:
        raise AnalyticError(f"{name} must be a non-negative finite "
                            f"number, got {value!r}")
    return value


def _require_listen_interval(value):
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise AnalyticError(f"listen_interval must be an integer >= 0, "
                            f"got {value!r}")
    return value


# -- adaptive PSM ----------------------------------------------------------


def psm_listen_period(beacon_interval, listen_interval=0):
    """Seconds between the beacons a dozing station actually hears.

    With listen interval ``L`` the station wakes for every
    ``(L + 1)``-th beacon (§3.2.2; every phone in Table 4 honours
    ``L = 0``, i.e. every beacon).
    """
    _require_positive("beacon_interval", beacon_interval)
    _require_listen_interval(listen_interval)
    return (listen_interval + 1) * beacon_interval


def psm_mean_beacon_wait(beacon_interval, listen_interval=0):
    """Mean TIM wait of a downlink frame reaching a dozing station.

    The frame arrives at a uniformly random phase of the listen period,
    so it waits half of it: ``(L + 1) * BI / 2``.
    """
    return psm_listen_period(beacon_interval, listen_interval) / 2.0


def psm_doze_probability(offered_load, timeout, arrivals=ARRIVALS_POISSON):
    """Probability a probe finds the station past an idle timeout.

    ``offered_load`` is the probe rate in arrivals/second; ``timeout``
    is the idle window that triggers the sleep transition (``Tip`` for
    PSM doze, ``Tis`` for SDIO bus sleep).  Poisson arrivals give
    ``P(gap > timeout) = exp(-load * timeout)``; periodic arrivals are
    the deterministic step function.  Zero load means the station is
    always idle long enough: probability 1.
    """
    _require_non_negative("offered_load", offered_load)
    _require_positive("timeout", timeout)
    if arrivals == ARRIVALS_POISSON:
        return math.exp(-offered_load * timeout)
    if arrivals == ARRIVALS_PERIODIC:
        if offered_load == 0:
            return 1.0
        return 1.0 if 1.0 / offered_load > timeout else 0.0
    raise AnalyticError(f"unknown arrival process {arrivals!r}")


def psm_mean_delay(offered_load, beacon_interval, tip, listen_interval=0,
                   base_rtt=0.0, tis=None, tprom=0.0,
                   arrivals=ARRIVALS_POISSON):
    """Mean user-level RTT of a downlink probe under adaptive PSM.

    The paper's §3 decomposition, in expectation::

        E[du] = base_rtt
              + P(dozing)    * (L + 1) * BI / 2     (TIM beacon wait)
              + P(bus asleep) * Tprom               (SDIO promotion)

    ``base_rtt`` is the wired path plus the awake-path processing
    costs; ``tis``/``tprom`` default to no bus-sleep term.  Delay is
    non-decreasing in ``listen_interval`` and ``beacon_interval`` and
    non-increasing in ``offered_load`` — properties pinned by
    hypothesis in the validation harness.
    """
    _require_non_negative("base_rtt", base_rtt)
    _require_non_negative("tprom", tprom)
    wait = psm_mean_beacon_wait(beacon_interval, listen_interval)
    p_doze = psm_doze_probability(offered_load, tip, arrivals)
    p_bus = 0.0
    if tis is not None and tprom > 0.0:
        p_bus = psm_doze_probability(offered_load, tis, arrivals)
    return base_rtt + p_doze * wait + p_bus * tprom


def saturation_throughput(payload_bytes, data_rate_bps, per_frame_overhead):
    """Single-STA saturation throughput in bits/second.

    Under saturation an adaptive-PSM station never dozes (activity
    keeps resetting ``Tip``), so the PSM saturation throughput equals
    the plain DCF exchange rate: payload bits over the per-frame
    exchange time (DIFS + mean backoff + preamble + SIFS + ACK,
    collapsed into ``per_frame_overhead``) plus the payload airtime.
    """
    _require_positive("payload_bytes", payload_bytes)
    _require_positive("data_rate_bps", data_rate_bps)
    _require_positive("per_frame_overhead", per_frame_overhead)
    payload_bits = payload_bytes * 8.0
    return payload_bits / (payload_bits / data_rate_bps + per_frame_overhead)


# -- spec-level convenience ------------------------------------------------


def predict_for_profile(profile, beacon_interval=0.1024, offered_load=0.0,
                        base_rtt=0.0, listen_interval=None,
                        arrivals=ARRIVALS_POISSON):
    """All PSM predictions for one phone profile, as a flat dict.

    ``profile`` is a :class:`~repro.phone.profiles.PhoneProfile` (or a
    registry key); ``Tip``/``Tis``/``Tprom``/``L`` come straight from
    it, so the numbers line up with what ``ScenarioSpec(phone=...)``
    would simulate.  The dict is what ``repro analytic`` prints.
    """
    from repro.phone.profiles import coerce_profile

    profile = coerce_profile(profile)
    if listen_interval is None:
        listen_interval = profile.listen_interval_actual
    tip = profile.psm_timeout
    tis = profile.sdio_idle_window
    tprom = profile.chipset.wake_delay.mean
    return {
        "phone": profile.key,
        "beacon_interval": beacon_interval,
        "listen_interval": listen_interval,
        "offered_load": offered_load,
        "tip": tip,
        "tis": tis,
        "tprom": tprom,
        "psm_listen_period":
            psm_listen_period(beacon_interval, listen_interval),
        "psm_mean_beacon_wait":
            psm_mean_beacon_wait(beacon_interval, listen_interval),
        "psm_doze_probability":
            psm_doze_probability(offered_load, tip, arrivals),
        "bus_sleep_probability":
            psm_doze_probability(offered_load, tis, arrivals),
        "psm_mean_delay":
            psm_mean_delay(offered_load, beacon_interval, tip,
                           listen_interval=listen_interval,
                           base_rtt=base_rtt, tis=tis, tprom=tprom,
                           arrivals=arrivals),
    }
