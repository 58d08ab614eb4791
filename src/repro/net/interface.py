"""Ethernet frames and interfaces.

:class:`EthernetInterface` is the L2 attachment point used by hosts,
switches, routers, and the AP's wired port.  It owns a drop-tail egress
queue and serialises frames onto its :class:`~repro.net.link.Link` one at
a time.  Taps (callbacks) observe frames in both directions.

The transmitter is a deadline, not an event: ``_free_at`` is when the
frame on the wire finishes serialising.  A frame sent to an idle port
with an empty queue goes onto the link at once, with no event of its
own; a pump event (``eth-tx``) is scheduled at ``_free_at`` only while
frames wait in the queue, and it re-arms itself while frames remain.
"""

ETHERNET_OVERHEAD = 38  # preamble + SFD + header + FCS + minimum IFG, bytes


class EthernetFrame:
    """An Ethernet frame carrying one IP packet."""

    __slots__ = ("dst_mac", "src_mac", "packet", "wire_size")

    def __init__(self, dst_mac, src_mac, packet):
        self.dst_mac = dst_mac
        self.src_mac = src_mac
        self.packet = packet
        self.wire_size = ETHERNET_OVERHEAD + packet.wire_size

    def __repr__(self):
        return f"EthernetFrame({self.src_mac} -> {self.dst_mac} {self.packet!r})"


class EthernetInterface:
    """One Ethernet port.

    ``owner`` must implement ``handle_frame(frame, interface)``; it is
    invoked for every frame arriving from the link.  Sending is
    store-and-forward: frames queue in ``egress`` and are clocked out at
    link speed.
    """

    def __init__(self, sim, owner, mac, queue=None, name=""):
        from repro.net.queues import DropTailQueue

        self._sim = sim
        self.owner = owner
        self.mac = mac
        self.link = None
        self.egress = queue if queue is not None else DropTailQueue()
        self.name = name
        self._eth_tx_label = f"eth-tx:{self.name}"
        self._free_at = 0.0
        self._pump_pending = False
        self._taps = []
        self.frames_sent = 0
        self.frames_received = 0

    def attach_link(self, link):
        """Connect this interface to a link end."""
        if self.link is not None:
            raise RuntimeError(f"interface {self.name or self.mac} already attached")
        self.link = link
        link.attach(self)

    def add_tap(self, callback):
        """Register ``callback(frame, direction)``; direction is 'tx' or 'rx'."""
        self._taps.append(callback)

    def send(self, frame):
        """Queue a frame for transmission; returns ``False`` if tail-dropped."""
        if self.link is None:
            raise RuntimeError(f"interface {self.name or self.mac} has no link")
        if not self.egress.enqueue(frame):
            return False
        if not self._pump_pending:
            if self._sim.now >= self._free_at:
                self._transmit()
            else:
                self._arm_pump()
        return True

    def _transmit(self):
        """Put the queue's head frame on the link now; if more frames
        wait, pump again when it has been clocked out."""
        frame = self.egress.dequeue()
        for tap in self._taps:
            tap(frame, "tx")
        self._free_at = self._sim.now + self.link.transmit(self, frame)
        self.frames_sent += 1
        if not self.egress.is_empty:
            self._arm_pump()

    def _arm_pump(self):
        self._pump_pending = True
        self._sim.post(self._free_at, self._pump, label=self._eth_tx_label)

    def _pump(self):
        self._pump_pending = False
        self._transmit()

    def receive_from_link(self, frame):
        """Link delivery entry point."""
        self.frames_received += 1
        for tap in self._taps:
            tap(frame, "rx")
        self.owner.handle_frame(frame, self)

    def __repr__(self):
        return f"<EthernetInterface {self.name or ''} mac={self.mac}>"
