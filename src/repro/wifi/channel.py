"""The shared wireless medium with DCF-style contention.

A single :class:`WifiChannel` arbitrates all transmissions within the
testbed's one collision domain (everything sits within 0.5 m in the
paper's Figure 2 — no hidden terminals, no capture effect).

The model is a *centralised* DCF round: whenever the medium goes idle,
every backlogged radio holds a residual backoff counter (drawn uniformly
from its current contention window); the radio with the lowest counter
transmits after DIFS + counter slots, losers freeze and keep the residue.
Equal counters collide: the frames overlap on the air, nobody is
delivered, and the colliding radios redraw from a doubled window.  This
reproduces the delay and throughput behaviour of per-slot DCF without
simulating every idle slot.

A round is an event only where it can be lost.  A beacon (a priority
frame) that finds the medium idle, with no contender, no pending round
and no monitor, wins its round whoever joins during DIFS, so it goes on
the air DIFS from now without one; a contender that joins meanwhile
defers to its busy window, as it would have after losing the round.
With a monitor attached every beacon keeps its round, because monitors
(the energy meter among them) read the receivers' state at ``tx_start``.

A quiet beacon is not even an event.  When its TIM is empty, the medium
is in the same idle state, and the scheduler reports that nothing can
fire before the beacon ends
(:meth:`~repro.sim.scheduler.Simulator.clear_through`), the access point
calls :meth:`WifiChannel.air_quiet_beacon`: no frame, no contender and
no delivery event.  The channel updates, at once, what the delivery
would have updated at the beacon's end — the busy window, the stats,
the frame counters and each listening radio's beacon handling (a
radio's :meth:`Radio.quiet_beacon_delivered`, asked through
:meth:`Radio.receiver_active_at` for the end instant).

Unicast data is followed by SIFS + ACK (modelled as channel busy time).
A missing receiver (e.g. a station that dozed between queueing and
delivery) behaves like a lost ACK: the sender retries.

Monitors registered with :meth:`WifiChannel.add_monitor` observe every
physical transmission with its airtime boundaries — they are the paper's
wireless sniffers.
"""

from repro.net.queues import DropTailQueue
from repro.obs.names import SPAN_WLAN_AIRTIME
from repro.wifi.frames import BeaconFrame, DataFrame
from repro.wifi.phy import PhyParams


class Radio:
    """A device attached to the wireless medium.

    Subclasses (stations, the AP radio) override the ``frame_*`` hooks.
    Frames queue locally; the channel pulls them when contention is won.
    """

    def __init__(self, sim, channel, mac, name="", queue_limit=250):
        self.sim = sim
        self.channel = channel
        self.mac = mac
        self.name = name or str(mac)
        self.queue = DropTailQueue(packet_limit=queue_limit)
        self._priority = []
        self.frames_sent = 0
        self.frames_received = 0
        channel.attach(self)

    @property
    def receiver_active(self):
        """Whether the radio can currently hear the medium."""
        return True

    def receiver_active_at(self, t):
        """Whether the radio will hear the medium at ``t``, when no
        event fires before then (a quiet beacon's end)."""
        return self.receiver_active

    def enqueue_frame(self, frame, priority=False):
        """Queue a frame for transmission; returns False on tail drop."""
        if priority:
            self._priority.append(frame)
        else:
            if not self.queue.enqueue(frame):
                return False
        self.channel.notify_backlogged(self)
        return True

    def has_pending(self):
        return bool(self._priority) or not self.queue.is_empty

    def next_frame(self):
        """Pop the next frame to transmit (priority frames first)."""
        if self._priority:
            return self._priority.pop(0)
        return self.queue.dequeue()

    def transmit_rate(self, frame):
        """Rate used for ``frame`` (beacons go out at the beacon rate)."""
        phy = self.channel.phy
        if isinstance(frame, BeaconFrame):
            return phy.beacon_rate_bps
        return phy.data_rate_bps

    # -- hooks -----------------------------------------------------------

    def frame_delivered(self, frame):
        """A frame addressed to (or heard by) this radio arrived."""
        self.frames_received += 1

    def frame_transmitted(self, frame):
        """Our frame went out successfully (ACKed if unicast)."""
        self.frames_sent += 1

    def frame_dropped(self, frame):
        """Our frame exhausted its retry budget."""

    def quiet_beacon_delivered(self, beacon_interval_tu, at):
        """An empty-TIM beacon ended at ``at`` with no frame built
        (:meth:`WifiChannel.air_quiet_beacon`); what
        :meth:`frame_delivered` does with such a beacon."""
        self.frames_received += 1

    def __repr__(self):
        return f"<Radio {self.name}>"


class _Contender:
    __slots__ = ("radio", "frame", "backoff", "retries", "priority")

    def __init__(self, radio, frame, backoff, priority=False):
        self.radio = radio
        self.frame = frame
        self.backoff = backoff
        self.retries = 0
        self.priority = priority


class ChannelStats:
    __slots__ = ("transmissions", "collisions", "retries", "drops", "busy_time")

    def __init__(self):
        self.transmissions = 0
        self.collisions = 0
        self.retries = 0
        self.drops = 0
        self.busy_time = 0.0


class WifiChannel:
    """One 802.11 collision domain."""

    def __init__(self, sim, phy=None, rng=None, name="wlan"):
        self.sim = sim
        self.phy = phy if phy is not None else PhyParams()
        self.rng = rng if rng is not None else sim.rng.stream(f"wifi:{name}")
        self.name = name
        self.stats = ChannelStats()
        self._radios = []
        self._by_mac = {}
        self._contenders = {}
        self._busy_until = 0.0
        self._round_event = None
        self._monitors = []
        #: Airtime by ``(wire size, rate)``; the PHY's arithmetic, once.
        self._airtimes = {}
        #: SIFS + ACK: what an acked frame keeps the medium busy past
        #: its own airtime.
        self._ack_exchange = self.phy.sifs + self.phy.ack_time()
        self._difs = self.phy.difs
        self._slot_time = self.phy.slot_time
        self._round_label = f"dcf-round:{name}"
        self._deliver_label = f"wifi-deliver:{name}"
        self._ack_label = f"wifi-ack:{name}"
        self._noack_label = f"wifi-noack:{name}"

    # -- topology ----------------------------------------------------------

    def attach(self, radio):
        self._radios.append(radio)
        self._by_mac[radio.mac] = radio

    def add_monitor(self, callback):
        """Register ``callback(frame, tx_start, tx_end, status)``.

        ``status`` is ``'ok'`` or ``'collision'``.  Monitors hear
        everything — they model the external sniffers.
        """
        self._monitors.append(callback)

    # -- contention ---------------------------------------------------------

    def notify_backlogged(self, radio):
        """A radio has frames queued; enter it into contention."""
        if radio in self._contenders:
            return
        frame = radio.next_frame()
        if frame is None:
            return
        contender = self._contend(radio, frame)
        if (contender.priority and len(self._contenders) == 1
                and self._round_event is None and not self._monitors
                and self.sim.now >= self._busy_until):
            # A beacon on an idle, uncontended medium wins the round it
            # would wait DIFS for, whoever joins meanwhile: go on the
            # air DIFS from now with no round event.  Monitors keep the
            # round, since they read receivers' state at ``tx_start``.
            self._transmit(contender, self._difs)
            return
        self._schedule_round()

    def _contend(self, radio, frame):
        """Enter ``frame`` into contention at CWmin: a beacon with
        priority and no backoff, anything else with a random one."""
        priority = isinstance(frame, BeaconFrame)
        backoff = 0 if priority else self.rng.randint(0, self.phy.cw_min)
        self._contenders[radio] = contender = _Contender(radio, frame,
                                                         backoff, priority)
        return contender

    def air_quiet_beacon(self, sender, size, beacon_interval_tu):
        """Air an empty-TIM beacon of ``size`` bytes as bookkeeping.

        Applies only when the medium has no contender, no round, no
        monitor and no busy window, and the scheduler reports nothing
        can fire before the beacon ends; returns ``False`` otherwise,
        and the caller sends a frame.  Else updates now what the frame
        path (DIFS, then the airtime, then the delivery) would update
        at the end instant, and returns ``True``.
        """
        sim = self.sim
        now = sim.now
        if (self._contenders or self._round_event is not None
                or self._monitors or now < self._busy_until):
            return False
        rate = self.phy.beacon_rate_bps
        air = self._airtimes.get((size, rate))
        if air is None:
            air = self._airtimes[size, rate] = self.phy.airtime(size, rate)
        tx_end = now + self._difs + air
        if not sim.clear_through(tx_end):
            return False
        self._busy_until = tx_end
        self.stats.transmissions += 1
        self.stats.busy_time += air
        for radio in self._radios:
            if radio is not sender and radio.receiver_active_at(tx_end):
                radio.quiet_beacon_delivered(beacon_interval_tu, tx_end)
        sender.frames_sent += 1  # what frame_transmitted counts
        return True

    def _schedule_round(self):
        contenders = self._contenders
        if not contenders:
            return
        start = max(self.sim.now, self._busy_until)
        if len(contenders) == 1:
            (contender,) = contenders.values()
            min_backoff = contender.backoff
        else:
            min_backoff = min(c.backoff for c in contenders.values())
        resolve_at = start + self._difs + min_backoff * self._slot_time
        if self._round_event is not None:
            if self._round_event.time <= resolve_at:
                return
            self._round_event.cancel()
        self._round_event = self.sim.at(resolve_at, self._resolve,
                                        label=self._round_label)

    def _resolve(self):
        self._round_event = None
        if not self._contenders:
            return
        if self.sim.now < self._busy_until:
            self._schedule_round()
            return
        if len(self._contenders) == 1:
            # A lone contender wins with its backoff as drawn.
            (contender,) = self._contenders.values()
            self._transmit(contender)
            return
        contenders = list(self._contenders.values())
        priority = [c for c in contenders if c.priority]
        if priority:
            winners = [priority[0]]
        else:
            min_backoff = min(c.backoff for c in contenders)
            winners = [c for c in contenders if c.backoff == min_backoff]
            for contender in contenders:
                if contender not in winners:
                    contender.backoff -= min_backoff
        if len(winners) == 1:
            self._transmit(winners[0])
        else:
            self._collide(winners)

    def _transmit(self, contender, defer=0.0):
        """Put ``contender``'s frame on the air ``defer`` seconds from now."""
        frame = contender.frame
        radio = contender.radio
        del self._contenders[radio]
        sim = self.sim
        now = sim.now + defer
        is_data = isinstance(frame, DataFrame)
        size = frame.wire_size
        rate = radio.transmit_rate(frame)
        air = self._airtimes.get((size, rate))
        if air is None:
            air = self._airtimes[size, rate] = self.phy.airtime(size, rate)
        # ERP protection (CTS-to-self) precedes data frames in b/g mode.
        protection = self.phy.protection_time if is_data else 0.0
        tx_start = now + protection
        tx_end = tx_start + air
        busy = protection + air + (
            self._ack_exchange if frame.needs_ack else 0.0
        )
        self._busy_until = now + busy
        self.stats.transmissions += 1
        self.stats.busy_time += busy
        if is_data:
            frame.packet.stamp("phy", tx_start)
            if sim.spans.enabled and frame.packet.probe_id is not None:
                sim.spans.record(SPAN_WLAN_AIRTIME, tx_start, tx_end,
                                 probe_id=frame.packet.probe_id,
                                 bytes=size)
        for monitor in self._monitors:
            monitor(frame, tx_start, tx_end, "ok")
        sim.post(tx_end, self._deliver, contender, tx_start,
                 label=self._deliver_label)

    def _deliver(self, contender, tx_start):
        frame = contender.frame
        sender = contender.radio
        if frame.is_broadcast:
            for radio in self._radios:
                if radio is not sender and radio.receiver_active:
                    radio.frame_delivered(frame)
            sender.frame_transmitted(frame)
            self._complete(sender)
            return
        receiver = self._by_mac.get(frame.dst_mac)
        if receiver is not None and receiver.receiver_active:
            receiver.frame_delivered(frame)
            # ACK consumes SIFS + ACK airtime; sender learns success then.
            self.sim.post(self._busy_until, self._acked, sender, frame,
                          label=self._ack_label)
        else:
            # No ACK will come: retry after the ACK timeout (~busy window).
            self.sim.post(self._busy_until, self._failed, contender,
                          label=self._noack_label)

    def _acked(self, sender, frame):
        sender.frame_transmitted(frame)
        self._complete(sender)

    def _failed(self, contender):
        self._retry(contender)
        self._schedule_round()

    def _complete(self, radio):
        # The radio may have re-entered contention while its previous
        # frame was still on the air (notify_backlogged during the busy
        # window) — never clobber that contender or its frame is lost.
        if radio not in self._contenders and radio.has_pending():
            self._contend(radio, radio.next_frame())
        self._schedule_round()

    def _collide(self, winners):
        phy = self.phy
        self.stats.collisions += 1
        tx_start = self.sim.now
        longest = 0.0
        for contender in winners:
            rate = contender.radio.transmit_rate(contender.frame)
            air = phy.airtime(contender.frame.wire_size, rate)
            longest = max(longest, air)
            for monitor in self._monitors:
                monitor(contender.frame, tx_start, tx_start + air, "collision")
        # EIFS-like penalty after a corrupted frame.
        self._busy_until = tx_start + longest + phy.sifs + phy.ack_time()
        for contender in winners:
            self._retry(contender)
        self._schedule_round()

    def _retry(self, contender):
        """Handle a failed attempt (collision or missing ACK).

        Works whether or not the contender is still registered — the
        no-ACK path removed it when transmission started.
        """
        phy = self.phy
        radio = contender.radio
        contender.retries += 1
        if contender.retries > phy.retry_limit:
            self.stats.drops += 1
            self._contenders.pop(radio, None)
            radio.frame_dropped(contender.frame)
            if radio.has_pending():
                self._contend(radio, radio.next_frame())
            return
        self.stats.retries += 1
        cw = phy.contention_window(contender.retries)
        contender.backoff = 0 if contender.priority else self.rng.randint(0, cw)
        self._contenders[radio] = contender

    @property
    def is_busy(self):
        return self.sim.now < self._busy_until

    def __repr__(self):
        return f"<WifiChannel {self.name} radios={len(self._radios)}>"
