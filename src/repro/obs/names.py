"""The declared name table for every metric and span the model emits.

Invariant RL106 (tests/test_source_invariants.py) bans inline string
literals at ``metrics.*``/``spans.*`` call sites: names must be
constants imported from this module.  That keeps the vocabulary — in
particular the delay-decomposition component names the report pipeline
keys on — in one place where a rename is a one-line diff instead of a
grep across the stack.

Constants are grouped by subsystem; the ``METRIC_NAMES`` / ``SPAN_NAMES``
frozensets at the bottom are the canonical registries (tests assert the
constants stay in sync with them).
"""

# -- scheduler ------------------------------------------------------------

SCHEDULER_EVENTS_FIRED_TOTAL = "scheduler_events_fired_total"
SCHEDULER_EVENTS_CANCELED_TOTAL = "scheduler_events_canceled_total"
SCHEDULER_HANDLER_SELF_SECONDS_TOTAL = "scheduler_handler_self_seconds_total"

# End-of-run gauges pushed by ``finalize_sim_metrics``.
SCHEDULER_EVENTS_FIRED = "scheduler_events_fired"
SCHEDULER_EVENTS_CANCELED = "scheduler_events_canceled"
SCHEDULER_PENDING_EVENTS = "scheduler_pending_events"
SIM_CLOCK_SECONDS = "sim_clock_seconds"

# -- SDIO bus / WNIC driver ----------------------------------------------

SDIO_WAKES_TOTAL = "sdio_wakes_total"
SDIO_SLEEPS_TOTAL = "sdio_sleeps_total"
DRIVER_DVSEND_SECONDS = "driver_dvsend_seconds"
DRIVER_DVRECV_SECONDS = "driver_dvrecv_seconds"

# -- 802.11 power save ----------------------------------------------------

PSM_TRANSITIONS_TOTAL = "psm_transitions_total"
AP_PS_FRAMES_BUFFERED_TOTAL = "ap_ps_frames_buffered_total"
AP_PS_BUFFER_DROPS_TOTAL = "ap_ps_buffer_drops_total"

# -- measurement core -----------------------------------------------------

PROBE_DU_SECONDS = "probe_du_seconds"
PROBE_DN_SECONDS = "probe_dn_seconds"
PROBE_INFLATION_SECONDS = "probe_inflation_seconds"
PROBE_TIMEOUTS_TOTAL = "probe_timeouts_total"
PROBE_COMPONENT_SECONDS = "probe_component_seconds"

ACUTEMON_WARMUP_PACKETS_TOTAL = "acutemon_warmup_packets_total"
ACUTEMON_BACKGROUND_PACKETS_TOTAL = "acutemon_background_packets_total"
ACUTEMON_PROBES_TOTAL = "acutemon_probes_total"

# -- campaign fabric ------------------------------------------------------
# Runner-level counters for campaign execution (``campaign.run_metrics``):
# cell outcomes, checkpoint/resume traffic, the persistent result-store
# cache, and shard planning/stealing.

CAMPAIGN_CELLS_RUN = "campaign.cells_run"
CAMPAIGN_CELLS_RESUMED = "campaign.cells_resumed"
CAMPAIGN_CELLS_QUARANTINED = "campaign.cells_quarantined"
CAMPAIGN_RETRIES = "campaign.retries"
CAMPAIGN_CELL_TIMEOUTS = "campaign.cell_timeouts"
CAMPAIGN_CHECKPOINT_WRITES = "campaign.checkpoint_writes"
CAMPAIGN_CACHE_HITS = "campaign.cache_hits"
CAMPAIGN_CACHE_MISSES = "campaign.cache_misses"
CAMPAIGN_STORE_WRITES = "campaign.store_writes"
CAMPAIGN_SHARDS_PLANNED = "campaign.shards_planned"
CAMPAIGN_SHARDS_STOLEN = "campaign.shards_stolen"

# -- spans ----------------------------------------------------------------

SPAN_SDIO_ASLEEP = "sdio.asleep"
SPAN_SDIO_PROMOTION = "sdio.promotion"
SPAN_DRIVER_QUEUEING = "driver.queueing"
SPAN_PSM_DOZE = "psm.doze"
SPAN_PSM_BEACON_WAIT = "psm.beacon_wait"
SPAN_PSM_BUFFERED = "psm.buffered"
SPAN_WLAN_AIRTIME = "wlan.airtime"
SPAN_WIRE_NETEM = "wire.netem"
SPAN_MEASUREMENT_PROBE = "measurement.probe"

#: Every metric name the model may register (span-derived histogram
#: names like ``psm_doze_seconds`` are generated by
#: :func:`repro.obs.spans.span_metric_name` and intentionally absent).
METRIC_NAMES = frozenset({
    SCHEDULER_EVENTS_FIRED_TOTAL,
    SCHEDULER_EVENTS_CANCELED_TOTAL,
    SCHEDULER_HANDLER_SELF_SECONDS_TOTAL,
    SCHEDULER_EVENTS_FIRED,
    SCHEDULER_EVENTS_CANCELED,
    SCHEDULER_PENDING_EVENTS,
    SIM_CLOCK_SECONDS,
    SDIO_WAKES_TOTAL,
    SDIO_SLEEPS_TOTAL,
    DRIVER_DVSEND_SECONDS,
    DRIVER_DVRECV_SECONDS,
    PSM_TRANSITIONS_TOTAL,
    AP_PS_FRAMES_BUFFERED_TOTAL,
    AP_PS_BUFFER_DROPS_TOTAL,
    PROBE_DU_SECONDS,
    PROBE_DN_SECONDS,
    PROBE_INFLATION_SECONDS,
    PROBE_TIMEOUTS_TOTAL,
    PROBE_COMPONENT_SECONDS,
    ACUTEMON_WARMUP_PACKETS_TOTAL,
    ACUTEMON_BACKGROUND_PACKETS_TOTAL,
    ACUTEMON_PROBES_TOTAL,
    CAMPAIGN_CELLS_RUN,
    CAMPAIGN_CELLS_RESUMED,
    CAMPAIGN_CELLS_QUARANTINED,
    CAMPAIGN_RETRIES,
    CAMPAIGN_CELL_TIMEOUTS,
    CAMPAIGN_CHECKPOINT_WRITES,
    CAMPAIGN_CACHE_HITS,
    CAMPAIGN_CACHE_MISSES,
    CAMPAIGN_STORE_WRITES,
    CAMPAIGN_SHARDS_PLANNED,
    CAMPAIGN_SHARDS_STOLEN,
})

#: Every span name the model may record.
SPAN_NAMES = frozenset({
    SPAN_SDIO_ASLEEP,
    SPAN_SDIO_PROMOTION,
    SPAN_DRIVER_QUEUEING,
    SPAN_PSM_DOZE,
    SPAN_PSM_BEACON_WAIT,
    SPAN_PSM_BUFFERED,
    SPAN_WLAN_AIRTIME,
    SPAN_WIRE_NETEM,
    SPAN_MEASUREMENT_PROBE,
})
