"""Ethernet frames and interfaces.

:class:`EthernetInterface` is the L2 attachment point used by hosts,
switches, routers, and the AP's wired port.  It owns a drop-tail egress
queue and serialises frames onto its :class:`~repro.net.link.Link` one at
a time.  Taps (callbacks) observe frames in both directions.
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
        self._transmitting = False
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
        self._pump()
        return True

    def _pump(self):
        if self._transmitting or self.egress.is_empty:
            return
        frame = self.egress.dequeue()
        self._transmitting = True
        for tap in self._taps:
            tap(frame, "tx")
        tx_time = self.link.transmit(self, frame)
        self.frames_sent += 1
        self._sim.schedule(tx_time, self._transmit_done, label=self._eth_tx_label)

    def _transmit_done(self):
        self._transmitting = False
        self._pump()

    def receive_from_link(self, frame):
        """Link delivery entry point."""
        self.frames_received += 1
        for tap in self._taps:
            tap(frame, "rx")
        self.owner.handle_frame(frame, self)

    def __repr__(self):
        return f"<EthernetInterface {self.name or ''} mac={self.mac}>"
