"""IP routing.

The testbed AP is the phone's first-hop router; its L3 behaviour matters
to AcuteMon because warm-up/background packets are sent with TTL=1 and
must "be dropped at the first-hop router" (paper §4.1).  The
:class:`Router` here decrements TTL, drops expired datagrams, and
(configurably) returns ICMP time-exceeded to the sender — which AcuteMon
deliberately ignores.

Ports are L2-agnostic: an Ethernet port wraps a NIC, while the AP
registers a wireless port whose transmit function goes through the 802.11
MAC.  This keeps one routing core for both media.
"""

import ipaddress

from repro.net.interface import EthernetFrame, EthernetInterface
from repro.net.packet import IcmpTimeExceeded, Packet
from repro.net.stack import IpStack


class RouterPort:
    """One logical router interface.

    ``transmit(packet, next_hop_ip)`` must resolve L2 details and send.
    """

    def __init__(self, name, ip_addr, network, transmit):
        self.name = name
        self.ip_addr = ip_addr
        self.network = ipaddress.IPv4Network(network)
        self.transmit = transmit

    def __repr__(self):
        return f"<RouterPort {self.name} {self.ip_addr} net={self.network}>"


class Router:
    """A routing core with longest-prefix-match forwarding and TTL handling."""

    def __init__(self, sim, name="router", send_time_exceeded=True, rng=None,
                 forwarding_delay=20e-6):
        self.sim = sim
        self.name = name
        self._route_label = f"route:{self.name}"
        self._ttl_exceeded_label = f"ttl-exceeded:{self.name}"
        self.send_time_exceeded = send_time_exceeded
        self.forwarding_delay = forwarding_delay
        self.ports = []
        self.routes = []  # (IPv4Network, port, next_hop_ip or None)
        self.stack = None
        self._rng = rng
        self.packets_forwarded = 0
        self.packets_expired = 0
        self.packets_unroutable = 0
        self.packets_unresolved = 0

    # -- configuration --------------------------------------------------

    def add_port(self, port):
        """Register a port and its connected route."""
        self.ports.append(port)
        self.add_route(port.network, port)
        if self.stack is None:
            # The first port's address doubles as the router's control-plane
            # identity (so the gateway answers pings).
            self.stack = IpStack(
                self.sim, port.ip_addr, transmit=self._stack_egress,
                rng=self._rng, name=self.name,
            )
        return port

    def add_ethernet_port(self, name, ip_addr, network, arp_table, link=None):
        """Create an Ethernet-backed port (wired side of the AP)."""
        from repro.net.addresses import MacAddress

        nic = EthernetInterface(
            self.sim, owner=self,
            mac=MacAddress.from_index(len(self.ports) + 1, oui=0x02AA00),
            name=f"{self.name}.{name}",
        )
        if link is not None:
            nic.attach_link(link)
        arp_table.register(ip_addr, nic.mac)

        def transmit(packet, next_hop):
            if not arp_table.knows(next_hop):
                # Unresolvable neighbour (failed ARP): drop, like a real
                # router whose ARP request went unanswered.
                self.packets_unresolved += 1
                return
            dst_mac = arp_table.lookup(next_hop)
            nic.send(EthernetFrame(dst_mac, nic.mac, packet))

        port = RouterPort(name, ip_addr, network, transmit)
        port.nic = nic
        port.arp = arp_table
        nic.router_port = port
        self.add_port(port)
        return port

    def add_route(self, network, port, next_hop=None):
        """Install a route; more-specific prefixes win."""
        network = ipaddress.IPv4Network(network)
        self.routes.append((network, port, next_hop))
        self.routes.sort(key=lambda route: route[0].prefixlen, reverse=True)

    # -- L2 entry points --------------------------------------------------

    def handle_frame(self, frame, nic):
        """Ethernet ingress (wired router ports)."""
        if frame.dst_mac != nic.mac and not frame.dst_mac.is_broadcast:
            return
        self.route_packet(frame.packet, ingress=getattr(nic, "router_port", None))

    # -- forwarding --------------------------------------------------------

    def route_packet(self, packet, ingress=None):
        """Route one packet arriving on ``ingress`` (or locally generated)."""
        if any(packet.dst == port.ip_addr for port in self.ports):
            self.stack.deliver(packet)
            return
        if packet.ttl <= 1:
            self.packets_expired += 1
            if self.send_time_exceeded:
                self._emit_time_exceeded(packet, ingress)
            return
        packet.ttl -= 1
        route = self.lookup_route(packet.dst)
        if route is None:
            self.packets_unroutable += 1
            return
        network, port, next_hop = route
        self.packets_forwarded += 1
        target = next_hop if next_hop is not None else packet.dst
        if self.forwarding_delay:
            self.sim.post(self.sim.now + self.forwarding_delay, port.transmit,
                          packet, target, label=self._route_label)
        else:
            port.transmit(packet, target)

    def lookup_route(self, dst):
        """Longest-prefix-match; returns the route tuple or ``None``."""
        for route in self.routes:
            if dst in route[0]:
                return route
        return None

    def _emit_time_exceeded(self, packet, ingress):
        if isinstance(packet.payload, IcmpTimeExceeded):
            return  # never generate ICMP errors about ICMP errors
        source_ip = ingress.ip_addr if ingress is not None else self.ports[0].ip_addr
        error = Packet(
            source_ip, packet.src, IcmpTimeExceeded(packet),
            meta=dict(packet.meta), created_at=self.sim.now,
        )
        self.sim.post(
            self.sim.now + self.forwarding_delay, self.route_packet, error,
            label=self._ttl_exceeded_label,
        )

    def _stack_egress(self, packet):
        self.route_packet(packet)

    def __repr__(self):
        return f"<Router {self.name} ports={len(self.ports)}>"
