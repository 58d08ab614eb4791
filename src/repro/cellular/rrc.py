"""The Radio Resource Control (RRC) state machine.

A 3G/UMTS-style three-state machine (the well-studied shape from the
RRC literature the paper's reference [34] builds on):

* **CELL_DCH** — dedicated channel: full rate, lowest latency.
* **CELL_FACH** — shared channel: tiny rate, high latency; carrying more
  than a few hundred bytes forces a promotion to DCH.
* **IDLE** — no radio connection: any transfer first pays a promotion
  delay of seconds; downlink additionally waits for paging.

Inactivity demotes DCH -> FACH after ``t1`` and FACH -> IDLE after
``t2``.  These demotions are to cellular measurements what SDIO sleep
and PSM are to WiFi ones: a probe that arrives after the tail timers
have fired reports the promotion delay, not the network RTT.
"""

from repro.phone.latency import DelayDistribution
from repro.sim.timers import Timer


class RrcState:
    IDLE = "IDLE"
    FACH = "CELL_FACH"
    DCH = "CELL_DCH"


class RrcConfig:
    """Timers, promotion delays, and per-state channel characteristics."""

    def __init__(self,
                 promo_idle_dch=None, promo_fach_dch=None,
                 t1=5.0, t2=12.0,
                 fach_threshold=400,
                 dch_latency=None, fach_latency=None,
                 dch_rate_bps=4e6, fach_rate_bps=32e3,
                 paging_delay=None):
        self.promo_idle_dch = promo_idle_dch or DelayDistribution(1.6, 2.0, 2.6)
        self.promo_fach_dch = promo_fach_dch or DelayDistribution(0.9, 1.2, 1.6)
        self.t1 = t1
        self.t2 = t2
        #: FACH can only carry small transfers; larger ones promote.
        self.fach_threshold = fach_threshold
        self.dch_latency = dch_latency or DelayDistribution.from_ms(18, 25, 40)
        self.fach_latency = fach_latency or DelayDistribution.from_ms(90, 150, 250)
        self.dch_rate_bps = dch_rate_bps
        self.fach_rate_bps = fach_rate_bps
        self.paging_delay = paging_delay or DelayDistribution.from_ms(200, 600, 1200)

    @classmethod
    def umts_3g(cls):
        """The classic 3G/UMTS profile (the defaults)."""
        return cls()

    @classmethod
    def lte(cls):
        """An LTE-flavoured profile.

        LTE collapses FACH into short-DRX behaviour and promotes in
        ~100 ms rather than seconds, with a ~10 s connected tail — the
        RRC *mechanism* is the same, only an order of magnitude gentler,
        which is why RRC-aware probing still matters there.
        """
        return cls(
            promo_idle_dch=DelayDistribution.from_ms(80, 120, 260),
            promo_fach_dch=DelayDistribution.from_ms(15, 25, 50),
            t1=10.0,  # connected -> short DRX
            t2=2.0,  # short DRX -> idle
            fach_threshold=1200,
            dch_latency=DelayDistribution.from_ms(8, 15, 30),
            fach_latency=DelayDistribution.from_ms(25, 40, 80),
            dch_rate_bps=50e6, fach_rate_bps=1e6,
            paging_delay=DelayDistribution.from_ms(40, 130, 640),
        )


class RrcMachine:
    """Network-controlled RRC state shared by the phone and the tower."""

    def __init__(self, sim, config=None, rng=None, name="rrc"):
        self.sim = sim
        self.config = config if config is not None else RrcConfig()
        self.rng = rng if rng is not None else sim.rng.stream(f"rrc:{name}")
        self.name = name
        self._rrc_promo_label = f"rrc-promo:{self.name}"
        self.state = RrcState.IDLE
        self.on_state_change = None
        self.promotions = 0
        self.demotions = 0
        self.pagings = 0
        self.state_transitions = []  # (time, old, new, reason)
        self._promoting = False
        self._promotion_waiters = []
        self._demotion_timer = Timer(sim, self._demote, label=f"rrc:{name}")

    # -- state plumbing ----------------------------------------------------

    def _set_state(self, new_state, reason):
        old = self.state
        if old == new_state:
            return
        self.state = new_state
        self.state_transitions.append((self.sim.now, old, new_state, reason))
        if self.on_state_change is not None:
            self.on_state_change(old, new_state, reason)

    def _arm_demotion(self):
        if self.state == RrcState.DCH:
            self._demotion_timer.restart(self.config.t1)
        elif self.state == RrcState.FACH:
            self._demotion_timer.restart(self.config.t2)
        else:
            self._demotion_timer.cancel()

    def _demote(self):
        if self._promoting:
            return
        self.demotions += 1
        if self.state == RrcState.DCH:
            self._set_state(RrcState.FACH, "t1-expired")
        elif self.state == RrcState.FACH:
            self._set_state(RrcState.IDLE, "t2-expired")
        self._arm_demotion()

    def touch(self):
        """Data activity in the current state: reset the tail timer."""
        self._arm_demotion()

    # -- channel access -----------------------------------------------------

    def latency(self):
        """One-way air-interface latency draw for the current state."""
        if self.state == RrcState.DCH:
            return self.config.dch_latency.draw(self.rng)
        return self.config.fach_latency.draw(self.rng)

    def rate_bps(self):
        if self.state == RrcState.DCH:
            return self.config.dch_rate_bps
        return self.config.fach_rate_bps

    def request_channel(self, nbytes, ready, paging=False):
        """Ask for a channel able to carry ``nbytes``; ``ready()`` fires
        once the state allows transmission.

        ``paging`` marks a network-initiated (downlink) request from
        IDLE, which additionally pays the paging delay.
        """
        if self.state == RrcState.DCH:
            self.touch()
            ready()
            return
        if self.state == RrcState.FACH and nbytes <= self.config.fach_threshold:
            self.touch()
            ready()
            return
        self._promotion_waiters.append(ready)
        if not self._promoting:
            self._begin_promotion(paging)

    def _begin_promotion(self, paging):
        self._promoting = True
        self._demotion_timer.cancel()
        delay = 0.0
        if self.state == RrcState.IDLE and paging:
            self.pagings += 1
            delay += self.config.paging_delay.draw(self.rng)
        if self.state == RrcState.IDLE:
            delay += self.config.promo_idle_dch.draw(self.rng)
        else:
            delay += self.config.promo_fach_dch.draw(self.rng)
        self.sim.post(self.sim.now + delay, self._finish_promotion,
                      label=self._rrc_promo_label)

    def _finish_promotion(self):
        self._promoting = False
        self.promotions += 1
        self._set_state(RrcState.DCH, "promotion")
        self._arm_demotion()
        waiters, self._promotion_waiters = self._promotion_waiters, []
        for ready in waiters:
            ready()

    def __repr__(self):
        return f"<RrcMachine {self.name} {self.state}>"
