"""Full-duplex point-to-point wired links."""

from repro.sim.units import bytes_to_bits


class Link:
    """A wired link between two interfaces.

    Each direction serialises independently (full duplex) at
    ``bandwidth_bps`` and then propagates for ``propagation_delay``
    seconds.  The link itself never reorders or drops; loss and delay
    variation belong to :mod:`repro.net.netem`.
    """

    def __init__(self, sim, bandwidth_bps=1e9, propagation_delay=1e-6, name=""):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if propagation_delay < 0:
            raise ValueError("propagation delay must be >= 0")
        self._sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        self.name = name
        self._link_deliver_label = f"link-deliver:{self.name}"
        self._ends = [None, None]

    def attach(self, interface):
        """Attach an interface to the first free end; returns the end index."""
        for index in (0, 1):
            if self._ends[index] is None:
                self._ends[index] = interface
                return index
        raise RuntimeError(f"link {self.name or id(self)} already has two ends")

    def peer_of(self, interface):
        """The interface at the other end, or ``None`` if unattached."""
        if interface is self._ends[0]:
            return self._ends[1]
        if interface is self._ends[1]:
            return self._ends[0]
        raise ValueError("interface is not attached to this link")

    def serialization_time(self, wire_size):
        """Seconds to clock ``wire_size`` bytes onto the medium."""
        return bytes_to_bits(wire_size) / self.bandwidth_bps

    def transmit(self, sender, frame):
        """Deliver ``frame`` from ``sender`` to the peer after tx + propagation.

        Called by the sending interface once its egress scheduler decides
        the frame goes out *now*; the return value is the serialisation
        time so the sender knows when its transmitter frees up.
        """
        peer = self.peer_of(sender)
        tx_time = self.serialization_time(frame.wire_size)
        if peer is not None:
            sim = self._sim
            sim.post(sim.now + (tx_time + self.propagation_delay),
                     peer.receive_from_link, frame,
                     label=self._link_deliver_label)
        return tx_time

    def __repr__(self):
        return (
            f"<Link {self.name or id(self)} {self.bandwidth_bps / 1e6:.0f}Mbps "
            f"prop={self.propagation_delay * 1e6:.1f}us>"
        )
