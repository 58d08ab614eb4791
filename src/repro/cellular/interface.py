"""The cellular air interface: phone radio and cell tower.

The phone's :class:`CellularInterface` plays the role the WiFi station
plays on WLAN: packets wait for the RRC machine to grant a channel, then
pay the state's latency and serialisation.  The :class:`CellTower`
bridges the air interface onto a wired segment through an embedded
first-hop :class:`~repro.net.router.Router` — which is what makes
AcuteMon's TTL=1 warm-up/background packets behave identically here
(dropped at the first hop, ICMP time-exceeded back to the phone).
"""

from repro.net.router import Router, RouterPort
from repro.sim.units import bytes_to_bits


class CellularInterface:
    """The phone-side radio.

    ``deliver_up(packet)`` is wired by the phone (toward its driver or
    kernel); ``send_packet`` is called from below the kernel on TX.
    """

    def __init__(self, sim, rrc, rng=None, name="cell0"):
        self.sim = sim
        self.rrc = rrc
        self.rng = rng if rng is not None else sim.rng.stream(f"cell:{name}")
        self.name = name
        self._cell_ul_label = f"cell-ul:{self.name}"
        self.tower = None
        self.deliver_up = None
        self.packets_tx = 0
        self.packets_rx = 0

    def attach(self, tower, ip_addr):
        self.tower = tower
        tower.register_phone(ip_addr, self)

    def send_packet(self, packet):
        """Uplink entry point (from the phone's kernel/driver)."""
        if self.tower is None:
            raise RuntimeError(f"{self.name}: not attached to a tower")
        self.rrc.request_channel(packet.wire_size,
                                 lambda: self._transmit(packet))

    def _transmit(self, packet):
        self.packets_tx += 1
        packet.stamp("phy", self.sim.now)
        airtime = (bytes_to_bits(packet.wire_size) / self.rrc.rate_bps()
                   + self.rrc.latency())
        self.rrc.touch()
        self.sim.post(self.sim.now + airtime, self.tower.receive_uplink,
                      packet, label=self._cell_ul_label)

    def receive_downlink(self, packet):
        """Tower delivery toward the phone stack."""
        self.packets_rx += 1
        self.rrc.touch()
        if self.deliver_up is not None:
            self.deliver_up(packet)


class CellTower:
    """Base station + first-hop router.

    The wired side is attached with :meth:`add_wired_port` (same API as
    the WiFi AP); the cellular side is a router port whose transmit goes
    over the air interface, honouring the phone's RRC state — downlink
    to an IDLE phone pays paging + promotion, exactly the effect the
    paper's ping2 discussion worries about.
    """

    def __init__(self, sim, cell_ip, cell_network, rng=None, name="tower",
                 send_time_exceeded=True):
        self.sim = sim
        self.name = name
        self._cell_dl_label = f"cell-dl:{self.name}"
        self.router = Router(sim, name=f"{name}.router", rng=rng,
                             send_time_exceeded=send_time_exceeded)
        self._phones = {}  # ip -> CellularInterface
        self.cell_port = RouterPort("cell", cell_ip, cell_network,
                                    transmit=self._downlink_transmit)
        self.router.add_port(self.cell_port)
        self.packets_paged = 0

    def add_wired_port(self, name, ip_addr, network, arp_table, link=None):
        return self.router.add_ethernet_port(name, ip_addr, network,
                                             arp_table, link=link)

    def register_phone(self, ip_addr, interface):
        self._phones[ip_addr] = interface

    # -- uplink -----------------------------------------------------------

    def receive_uplink(self, packet):
        self.router.route_packet(packet, ingress=self.cell_port)

    # -- downlink ---------------------------------------------------------

    def _downlink_transmit(self, packet, next_hop):
        interface = self._phones.get(next_hop)
        if interface is None:
            return  # unknown subscriber: drop
        rrc = interface.rrc
        from repro.cellular.rrc import RrcState

        paging = rrc.state == RrcState.IDLE
        if paging:
            self.packets_paged += 1
        rrc.request_channel(
            packet.wire_size,
            lambda: self._deliver(interface, packet),
            paging=paging,
        )

    def _deliver(self, interface, packet):
        rrc = interface.rrc
        packet.stamp("phy", self.sim.now)
        airtime = (bytes_to_bits(packet.wire_size) / rrc.rate_bps()
                   + rrc.latency())
        self.sim.post(self.sim.now + airtime, interface.receive_downlink,
                      packet, label=self._cell_dl_label)

    def __repr__(self):
        return f"<CellTower {self.name} phones={len(self._phones)}>"
