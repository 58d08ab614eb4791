"""Server applications used by the measurement tools.

:class:`MeasurementServer` is the paper's "measurement server": it answers
ICMP echo (built into the host stack), accepts TCP connections and speaks
just enough HTTP for ``httping``/AcuteMon data probes, and echoes UDP.
All responses preserve the request's ``probe_id`` metadata so sniffers and
the analysis pipeline can pair request/response.
"""

HTTP_PORT = 80
UDP_ECHO_PORT = 7007

#: Approximate sizes of a minimal HTTP GET and its response (bytes).
HTTP_REQUEST_SIZE = 120
HTTP_RESPONSE_SIZE = 230


class HttpServer:
    """A one-request-per-connection HTTP responder.

    The request is any chunk of TCP data; after ``response_delay`` (the
    server's application processing) it answers with ``response_size``
    bytes and optionally half-closes.
    """

    def __init__(self, host, port=HTTP_PORT, response_size=HTTP_RESPONSE_SIZE,
                 close_after_response=False):
        self.host = host
        self.sim = host.sim
        self.port = port
        self.response_size = response_size
        self.close_after_response = close_after_response
        self.requests_served = 0
        self.listener = host.stack.tcp.listen(port, self._on_connection)

    def _on_connection(self, conn):
        conn.on_data = self._on_data

    def _on_data(self, conn, nbytes, meta):
        self.sim.post(
            self.sim.now + self.host.stack.response_delay(), self._respond,
            conn, meta, label="http-respond",
        )

    def _respond(self, conn, meta):
        if conn.state not in ("ESTABLISHED", "CLOSE_WAIT"):
            return
        self.requests_served += 1
        conn.send(self.response_size, meta=meta)
        if self.close_after_response:
            conn.close()

    def close(self):
        self.listener.close()


class UdpEchoServer:
    """Echo every UDP datagram back to its source (same size, same meta).

    Honours an ``echo_delay`` metadata key: the response is held for that
    long before being sent.  Timer-calibration probes use this to emulate
    arbitrarily long paths from inside the testbed
    (:mod:`repro.core.calibration`).
    """

    def __init__(self, host, port=UDP_ECHO_PORT):
        self.host = host
        self.sim = host.sim
        self.port = port
        self.datagrams_echoed = 0
        self.binding = host.stack.udp_bind(port, self._on_datagram)

    def _on_datagram(self, packet):
        datagram = packet.payload
        delay = self.host.stack.response_delay()
        delay += packet.meta.get("echo_delay", 0.0)
        self.sim.post(self.sim.now + delay, self._echo, packet, datagram,
                      label="udp-echo")

    def _echo(self, packet, datagram):
        self.datagrams_echoed += 1
        self.host.stack.send_udp(
            packet.src, datagram.src_port, src_port=self.port,
            payload_size=datagram.payload_size, meta=dict(packet.meta),
        )

    def close(self):
        self.binding.close()


class MeasurementServer:
    """The full server role from Figure 2: ICMP + HTTP + UDP echo."""

    def __init__(self, host, http_port=HTTP_PORT, udp_echo_port=UDP_ECHO_PORT,
                 http_response_size=HTTP_RESPONSE_SIZE):
        self.host = host
        host.stack.echo_responder_enabled = True
        self.http = HttpServer(host, port=http_port,
                               response_size=http_response_size)
        self.udp_echo = UdpEchoServer(host, port=udp_echo_port)

    @property
    def ip_addr(self):
        return self.host.ip_addr

    def __repr__(self):
        return f"<MeasurementServer on {self.host.name}>"
