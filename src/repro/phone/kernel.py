"""The phone's kernel layer: socket path costs and the capture tap.

The paper records kernel timestamps with bpf on a rooted shell.  :class:`KernelLayer` reproduces that vantage point: every
packet is stamped and offered to registered taps

* on TX at ``dev_queue_xmit`` time — after the socket-layer cost, right
  before the driver, and
* on RX at ``netif_rx_ni`` time — as the driver hands the packet up,
  before socket demux.
"""


class KernelLayer:
    """Kernel networking between the IP stack and the WNIC driver."""

    def __init__(self, sim, rng, tx_cost, rx_cost, name="kernel"):
        self.sim = sim
        self.rng = rng
        self.tx_cost = tx_cost
        self.rx_cost = rx_cost
        self.name = name
        self._kernel_tx_label = f"kernel-tx:{self.name}"
        self._kernel_rx_label = f"kernel-rx:{self.name}"
        self.driver = None  # wired by the Phone
        self.deliver_up = None  # wired by the Phone (toward the stack)
        self._taps = []
        self.packets_tx = 0
        self.packets_rx = 0

    def add_tap(self, callback):
        """Register ``callback(packet, direction)`` (direction 'tx'/'rx');
        the equivalent of a bpf capture on the phone."""
        self._taps.append(callback)

    # -- TX: stack -> driver -------------------------------------------

    def transmit(self, packet):
        self.packets_tx += 1
        self.sim.schedule(
            self.tx_cost.draw(self.rng), self._tx_tap, packet,
            label=self._kernel_tx_label,
        )

    def _tx_tap(self, packet):
        packet.stamp("kernel", self.sim.now)
        for tap in self._taps:
            tap(packet, "tx")
        self.driver.start_xmit(packet)

    # -- RX: driver -> stack ----------------------------------------------

    def receive(self, packet):
        self.packets_rx += 1
        packet.stamp("kernel", self.sim.now)
        for tap in self._taps:
            tap(packet, "rx")
        self.sim.schedule(
            self.rx_cost.draw(self.rng), self.deliver_up, packet,
            label=self._kernel_rx_label,
        )
