"""The transport-layer stack shared by hosts and the phone kernel.

:class:`IpStack` demultiplexes inbound IPv4 packets to ICMP/UDP/TCP
handlers and funnels outbound packets to whatever lower layer its owner
wires in — an Ethernet NIC for wired hosts, the WNIC driver chain for the
simulated smartphone.  Keeping this layer L2-agnostic is what lets the
same tools (:mod:`repro.tools`) run unchanged on a wired host or on the
phone model.
"""

from repro.net.packet import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    IcmpEcho,
    IcmpTimeExceeded,
    Packet,
    UdpDatagram,
)
from repro.net.tcp import TcpStack

EPHEMERAL_PORT_FIRST = 32768
EPHEMERAL_PORT_LAST = 60999


class PingHandle:
    """Registration of an ICMP echo ident; replies arrive via the callback."""

    def __init__(self, stack, ident, callback):
        self._stack = stack
        self.ident = ident
        self.callback = callback

    def close(self):
        self._stack._ping_handles.pop(self.ident, None)


class UdpBinding:
    """A bound UDP port; datagrams arrive via ``callback(packet)``."""

    def __init__(self, stack, port, callback):
        self._stack = stack
        self.port = port
        self.callback = callback

    def close(self):
        self._stack._udp_bindings.pop(self.port, None)


class IpStack:
    """IPv4 endpoint: ICMP echo, UDP sockets, and a TCP stack.

    Parameters
    ----------
    sim:
        The simulator.
    local_ip:
        This endpoint's address.
    transmit:
        ``callable(packet)`` pushing an outbound packet toward the network.
    rng:
        Optional :class:`random.Random` for ISNs and processing jitter.
    proc_delay / proc_jitter:
        Mean and half-width (uniform) of the host processing delay applied
        when *this stack itself* generates a response (echo replies).  The
        paper treats server processing as microsecond-level (citing TCP
        data-probe results); the default reflects that.
    """

    def __init__(self, sim, local_ip, transmit, rng=None, name="",
                 proc_delay=100e-6, proc_jitter=50e-6):
        self.sim = sim
        self.local_ip = local_ip
        self.name = name or str(local_ip)
        self._echo_reply_label = f"echo-reply:{self.name}"
        self._transmit = transmit
        self.rng = rng
        self.proc_delay = proc_delay
        self.proc_jitter = proc_jitter
        self.echo_responder_enabled = True
        self.tcp = TcpStack(self)
        self._ping_handles = {}
        self._udp_bindings = {}
        self._icmp_error_handlers = []
        self._next_ephemeral = EPHEMERAL_PORT_FIRST
        self.packets_sent = 0
        self.packets_received = 0
        self.packets_dropped = 0

    # -- outbound --------------------------------------------------------

    def send(self, packet):
        """Push one packet down to the attached lower layer."""
        self.packets_sent += 1
        self._transmit(packet)

    def send_echo_request(self, dst, ident, seq, payload_size=56, ttl=None, meta=None):
        """Convenience: build and send an ICMP echo request."""
        echo = IcmpEcho(icmp_type=8, ident=ident, seq=seq, payload_size=payload_size)
        packet = Packet(self.local_ip, dst, echo, ttl=ttl or Packet.DEFAULT_TTL,
                        meta=meta, created_at=self.sim.now)
        self.send(packet)
        return packet

    def send_udp(self, dst, dst_port, src_port=None, payload_size=0, ttl=None, meta=None):
        """Convenience: build and send a UDP datagram."""
        if src_port is None:
            src_port = self.allocate_port()
        datagram = UdpDatagram(src_port, dst_port, payload_size)
        packet = Packet(self.local_ip, dst, datagram, ttl=ttl or Packet.DEFAULT_TTL,
                        meta=meta, created_at=self.sim.now)
        self.send(packet)
        return packet

    def allocate_port(self):
        """Next ephemeral port (wraps around the Linux default range)."""
        port = self._next_ephemeral
        self._next_ephemeral += 1
        if self._next_ephemeral > EPHEMERAL_PORT_LAST:
            self._next_ephemeral = EPHEMERAL_PORT_FIRST
        return port

    # -- inbound ---------------------------------------------------------

    def deliver(self, packet):
        """Demultiplex one inbound packet addressed to this endpoint."""
        self.packets_received += 1
        protocol = packet.protocol
        if protocol == PROTO_ICMP:
            self._deliver_icmp(packet)
        elif protocol == PROTO_UDP:
            self._deliver_udp(packet)
        elif protocol == PROTO_TCP:
            self.tcp.deliver(packet)
        else:
            self.packets_dropped += 1

    def _deliver_icmp(self, packet):
        payload = packet.payload
        if isinstance(payload, IcmpTimeExceeded):
            for handler in self._icmp_error_handlers:
                handler(packet)
            return
        if not isinstance(payload, IcmpEcho):
            self.packets_dropped += 1
            return
        if payload.is_request:
            if self.echo_responder_enabled:
                self._schedule_echo_reply(packet, payload)
            return
        handle = self._ping_handles.get(payload.ident)
        if handle is not None:
            handle.callback(packet)
        else:
            self.packets_dropped += 1

    def _schedule_echo_reply(self, request, echo):
        reply = Packet(
            self.local_ip, request.src, echo.make_reply(),
            meta=dict(request.meta), created_at=self.sim.now,
        )
        self.sim.post(self.sim.now + self.response_delay(), self.send, reply,
                      label=self._echo_reply_label)

    def _deliver_udp(self, packet):
        binding = self._udp_bindings.get(packet.payload.dst_port)
        if binding is not None:
            binding.callback(packet)
        else:
            self.packets_dropped += 1

    # -- registration ------------------------------------------------------

    def register_ping(self, ident, callback):
        """Claim an ICMP echo ident; replies with it go to ``callback``."""
        if ident in self._ping_handles:
            raise ValueError(f"ICMP ident {ident} already registered")
        handle = PingHandle(self, ident, callback)
        self._ping_handles[ident] = handle
        return handle

    def udp_bind(self, port, callback):
        """Bind a UDP port."""
        if port in self._udp_bindings:
            raise ValueError(f"UDP port {port} already bound")
        binding = UdpBinding(self, port, callback)
        self._udp_bindings[port] = binding
        return binding

    def add_icmp_error_handler(self, handler):
        """Observe inbound ICMP errors (time exceeded, ...)."""
        self._icmp_error_handlers.append(handler)

    def response_delay(self):
        """Draw one host processing delay for a locally generated response."""
        if self.proc_jitter and self.rng is not None:
            return max(
                0.0,
                self.proc_delay + self.rng.uniform(-self.proc_jitter, self.proc_jitter),
            )
        return self.proc_delay

    def __repr__(self):
        return f"<IpStack {self.name} ip={self.local_ip}>"
