"""802.11 station MAC with adaptive power-save (the paper's §3.2.2).

The state machine:

* **CAM** (Constantly Awake Mode): receiver always on.  Any data
  activity (tx or rx) restarts the PSM timeout ``Tip``.
* When ``Tip`` expires with nothing queued, the station announces sleep
  with a null frame carrying PM=1 and enters **PS** (doze) once that
  frame is ACKed.
* In PS the receiver is off except around the target beacon times the
  station listens to — every ``listen_interval + 1``-th beacon.  The
  paper measured the *actual* listen interval of every phone to be 0,
  i.e. the station wakes for **every** beacon (102.4 ms apart), which
  bounds the PSM-induced inflation at just over one beacon interval.
  The wake is a deadline, not an event: the station keeps the next
  wake on its grid (``anchor + k * period``), its receiver is on from
  that instant until it handles a beacon, and a handled beacon moves
  the deadline to the first wake after it.  A wake at exactly another
  event's instant is already in effect for that event.
* A beacon whose TIM includes the station's AID means the AP holds
  buffered downlink frames: the station wakes, signals PM=0 with a null
  frame, and the AP flushes.
* An uplink send while dozing wakes the station immediately ("a
  smartphone enters CAM immediately when sending out packets", §4.1).

``Tip`` is phone-dependent (Table 4: ~40 ms on Nexus 4 up to ~400 ms on
HTC One) and in practice jittery — the demotion decision rides on driver
polling.  ``timeout_jitter`` models that: each re-arm draws
``Tip + U(-jitter, +jitter)``.
"""

import math

from repro.obs.names import (
    PSM_TRANSITIONS_TOTAL,
    SPAN_PSM_BEACON_WAIT,
    SPAN_PSM_DOZE,
)
from repro.sim.timers import Timer
from repro.sim.units import tu
from repro.wifi.channel import Radio
from repro.wifi.frames import BeaconFrame, DataFrame, NullDataFrame, PsPollFrame

_INF = math.inf


class PowerState:
    """Station power states."""

    AWAKE = "AWAKE"  # CAM
    DOZE = "DOZE"  # PS


#: Power-save flavours.  Adaptive is what every phone in Table 4 runs;
#: static is the legacy scheme whose "RTT round-up effect" (Krashinsky &
#: Balakrishnan, cited as [19]) made vendors abandon it.
MODE_ADAPTIVE = "adaptive"
MODE_STATIC = "static"


class PsmConfig:
    """Power-save parameters for one station.

    ``listen_interval_assoc`` is the value announced during association
    (1 for the wcnss driver, 10 for bcmdhd); ``listen_interval`` is the
    value the station actually honours (0 for every phone in Table 4).

    ``mode`` selects adaptive PSM (dwell in CAM for ``timeout`` after
    activity, wake with PM=0 nulls) or static PSM (return to PS right
    after each exchange, uplink data carries PM=1, buffered frames are
    retrieved one PS-Poll at a time).
    """

    def __init__(self, enabled=True, timeout=0.2, timeout_jitter=0.0,
                 listen_interval=0, listen_interval_assoc=1,
                 beacon_guard=300e-6, mode=MODE_ADAPTIVE):
        if timeout <= 0:
            raise ValueError("PSM timeout must be positive")
        if listen_interval < 0:
            raise ValueError("listen interval must be >= 0")
        if mode not in (MODE_ADAPTIVE, MODE_STATIC):
            raise ValueError(f"unknown PSM mode {mode!r}")
        self.enabled = enabled
        self.timeout = timeout
        self.timeout_jitter = timeout_jitter
        self.listen_interval = listen_interval
        self.listen_interval_assoc = listen_interval_assoc
        self.beacon_guard = beacon_guard
        self.mode = mode

    @property
    def is_static(self):
        return self.mode == MODE_STATIC

    @classmethod
    def disabled(cls):
        return cls(enabled=False, timeout=1.0)


class Station(Radio):
    """A WiFi client (the phone's WNIC, or the load generator's)."""

    def __init__(self, sim, channel, mac, psm=None, rng=None, name="sta"):
        super().__init__(sim, channel, mac, name=name)
        self.psm = psm if psm is not None else PsmConfig()
        self.rng = rng if rng is not None else sim.rng.stream(f"sta:{name}")
        self.ap = None
        self.aid = None
        self.power_state = PowerState.AWAKE
        self.on_packet = None  # callable(packet): upper-layer delivery
        self.on_state_change = None  # callable(old, new, reason)
        self._psm_timer = Timer(sim, self._psm_timeout, label=f"psm:{name}")
        self._fetching = False  # static mode: mid PS-Poll retrieval
        # The TBTT wake deadline while dozing: wake k is at
        # ``_wake_anchor + k * _wake_period``; ``_next_wake`` is the
        # pending one (``inf`` when disarmed).
        self._wake_anchor = 0.0
        self._wake_period = None
        self._wake_index = 0
        self._next_wake = _INF
        self._beacon_interval = None
        self._beacon_wait_start = None
        self._doze_started = None
        self._tx_seq = 0
        self.state_transitions = []  # (time, old, new, reason) for analysis
        self.doze_count = 0
        self.null_frames_sent = 0
        self.ps_polls_sent = 0

    # -- association ----------------------------------------------------

    def associate(self, ap):
        """Join the AP's BSS."""
        self.ap = ap
        self.aid = ap.associate(self, self.psm.listen_interval_assoc)
        self._beacon_interval = tu(ap.beacon_interval_tu)
        self._arm_psm_timer()
        return self.aid

    @property
    def associated(self):
        return self.ap is not None

    @property
    def receiver_active(self):
        return (self.power_state == PowerState.AWAKE or self._fetching
                or self.sim.now >= self._next_wake)

    def receiver_active_at(self, t):
        return (self.power_state == PowerState.AWAKE or self._fetching
                or t >= self._next_wake)

    # -- uplink -----------------------------------------------------------

    def send_packet(self, packet, pm_override=None):
        """Transmit one IP packet to the AP (infrastructure uplink)."""
        if not self.associated:
            raise RuntimeError(f"{self.name}: not associated")
        if self.power_state == PowerState.DOZE:
            self._wake("uplink")
        if pm_override is None:
            # Static PSM announces PS on every uplink frame, so the AP
            # keeps buffering; adaptive stations transmit with PM=0.
            pm = self.psm.enabled and self.psm.is_static
        else:
            pm = bool(pm_override)
        self._tx_seq = (self._tx_seq + 1) & 0xFFF
        frame = DataFrame(self.ap.mac, self.mac, packet, pm=pm,
                          seq=self._tx_seq)
        return self.enqueue_frame(frame)

    # -- channel hooks -----------------------------------------------------

    def frame_delivered(self, frame):
        super().frame_delivered(frame)
        if isinstance(frame, BeaconFrame):
            self._handle_beacon(frame.beacon_interval_tu, frame.tim_aids,
                                self.sim.now)
            return
        if isinstance(frame, DataFrame) and frame.dst_mac == self.mac:
            if self.psm.enabled and self.psm.is_static:
                self._static_data_received(frame)
            else:
                self._touch_activity()
            if self.on_packet is not None:
                self.on_packet(frame.packet)

    def frame_transmitted(self, frame):
        super().frame_transmitted(frame)
        if isinstance(frame, NullDataFrame) and frame.pm:
            self._enter_doze()
            return
        if self.psm.enabled and self.psm.is_static:
            self._static_tx_done()
        else:
            self._touch_activity()

    def quiet_beacon_delivered(self, beacon_interval_tu, at):
        self.frames_received += 1
        self._handle_beacon(beacon_interval_tu, (), at)

    def frame_dropped(self, frame):
        if isinstance(frame, NullDataFrame) and frame.pm:
            # The sleep announcement never got through; stay awake and
            # let the idle timer try again.
            self._arm_psm_timer()

    # -- static PSM (legacy) ----------------------------------------------

    def _static_tx_done(self):
        """Static mode returns to PS the moment nothing is queued."""
        if self.has_pending() or self._fetching:
            return
        if self.power_state == PowerState.AWAKE:
            self._enter_doze()

    def _static_data_received(self, frame):
        """One buffered frame arrived in response to a PS-Poll."""
        if frame.more_data and self.associated:
            self.ps_polls_sent += 1
            self.enqueue_frame(PsPollFrame(self.ap.mac, self.mac, self.aid))
        else:
            self._fetching = False
            if self.power_state == PowerState.DOZE:
                self._schedule_beacon_listen()
            elif not self.has_pending():
                self._enter_doze()

    # -- power management ----------------------------------------------------

    def _touch_activity(self):
        """Data activity: (re)enter CAM and restart the PSM timeout."""
        if self.power_state == PowerState.DOZE:
            self._wake("activity")
        else:
            self._arm_psm_timer()

    def _arm_psm_timer(self):
        if not (self.psm.enabled and self.associated):
            return
        if self.psm.is_static:
            return  # static mode dozes immediately, no CAM dwell
        timeout = self.psm.timeout
        if self.psm.timeout_jitter:
            timeout += self.rng.uniform(-self.psm.timeout_jitter,
                                        self.psm.timeout_jitter)
        self._psm_timer.restart(max(1e-4, timeout))

    def _psm_timeout(self):
        if self.power_state == PowerState.DOZE:
            return
        if self.has_pending():
            # Traffic still queued: not idle, try again later.
            self._arm_psm_timer()
            return
        self.null_frames_sent += 1
        self.enqueue_frame(NullDataFrame(self.ap.mac, self.mac, pm=True))

    def _enter_doze(self):
        if self.power_state == PowerState.DOZE:
            return
        reason = "static-ps" if self.psm.is_static else "psm-timeout"
        self._set_state(PowerState.DOZE, reason)
        self.doze_count += 1
        self._psm_timer.cancel()
        self._schedule_beacon_listen()

    def _wake(self, reason):
        self._cancel_beacon_listen()
        self._fetching = False
        self._beacon_wait_start = None
        if self.power_state != PowerState.AWAKE:
            self._set_state(PowerState.AWAKE, reason)
        self._arm_psm_timer()

    def _set_state(self, new_state, reason):
        old = self.power_state
        self.power_state = new_state
        self.state_transitions.append((self.sim.now, old, new_state, reason))
        sim = self.sim
        if sim.metrics.enabled:
            sim.metrics.inc(PSM_TRANSITIONS_TOTAL,
                            labels={"sta": self.name, "to": new_state,
                                    "reason": reason})
        if new_state == PowerState.DOZE:
            self._doze_started = sim.now
        elif self._doze_started is not None:
            if sim.spans.enabled:
                sim.spans.record(SPAN_PSM_DOZE, self._doze_started, sim.now,
                                 sta=self.name, reason=reason)
            self._doze_started = None
        if self.on_state_change is not None:
            self.on_state_change(old, new_state, reason)

    # -- beacon handling -----------------------------------------------------

    def _next_listen_tbtt(self, at=None):
        """The next target beacon time this station listens to, after
        ``at`` (default: now).

        Beacon k goes on the air at ``k * interval`` (AP schedule); with
        listen interval L the station listens to beacons whose index is a
        multiple of (L + 1).
        """
        if at is None:
            at = self.sim.now
        interval = self._beacon_interval
        stride = self.psm.listen_interval + 1
        next_index = int(at / interval) + 1
        while next_index % stride:
            next_index += 1
        return next_index * interval

    def _schedule_beacon_listen(self, at=None):
        """Arm (or keep) the TBTT wake deadline while dozing, at ``at``
        (default: now).

        Wake ``k`` turns the receiver on ``beacon_guard`` before the
        ``k``-th listened beacon.  A deadline armed on the current grid
        is kept as-is — this method then only restarts the beacon-wait
        span clock — and re-armed from scratch when the beacon interval
        changed.
        """
        if at is None:
            at = self.sim.now
        self._beacon_wait_start = at
        period = (self.psm.listen_interval + 1) * self._beacon_interval
        if self._next_wake != _INF and self._wake_period == period:
            return
        wake_at = max(self._next_listen_tbtt(at) - self.psm.beacon_guard, at)
        self._wake_anchor = self._next_wake = wake_at
        self._wake_period = period
        self._wake_index = 0

    def _cancel_beacon_listen(self):
        self._next_wake = _INF

    def _handle_beacon(self, beacon_interval_tu, tim_aids, at):
        """A beacon with ``tim_aids`` ended at ``at``."""
        self._beacon_interval = tu(beacon_interval_tu)
        if self.power_state != PowerState.DOZE or at < self._next_wake:
            return
        if self.sim.spans.enabled and self._beacon_wait_start is not None:
            self.sim.spans.record(
                SPAN_PSM_BEACON_WAIT, self._beacon_wait_start, at,
                sta=self.name, tim=self.aid in tim_aids)
        self._beacon_wait_start = None
        if self.aid in tim_aids:
            if self.psm.is_static:
                # Legacy PSM: poll for one buffered frame, stay in PS.
                # No TBTT wakes while fetching; _static_data_received
                # re-arms the deadline once the retrieval completes.
                self._cancel_beacon_listen()
                self._fetching = True
                self.ps_polls_sent += 1
                self.enqueue_frame(PsPollFrame(self.ap.mac, self.mac, self.aid))
            else:
                # Adaptive PSM: wake and fetch (PM=0 null flushes the AP).
                self._wake("tim")
                self.null_frames_sent += 1
                self.enqueue_frame(NullDataFrame(self.ap.mac, self.mac,
                                                 pm=False))
        else:
            # The next wake is the first on the grid after this beacon.
            index = self._wake_index
            anchor = self._wake_anchor
            period = self._wake_period
            wake = self._next_wake
            while wake <= at:
                index += 1
                wake = anchor + index * period
            self._wake_index = index
            self._next_wake = wake
            self._schedule_beacon_listen(at)

    def __repr__(self):
        return f"<Station {self.name} {self.power_state}>"
