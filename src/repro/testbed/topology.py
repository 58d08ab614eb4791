"""Building the Figure 2 testbed.

Topology (all within one collision domain, as in the paper)::

    phone ~~~ WiFi ~~~ AP ---- switch ---- measurement server (netem RTT)
    loadgen ~~ WiFi ~~/    \\--- load server (UDP sink)
    sniffer A/B/C ~~ monitor mode on the WiFi channel

The measurement server adds the emulated RTT on its egress, exactly like
the paper's ``tc`` configuration ("introducing additional delays on the
server side can be considered as controlling the length of the network
path").  The wired half (switch, server, netem) is assembled by the
shared :class:`~repro.testbed.environment.WiredCore`, which the cellular
testbed reuses; :class:`Testbed` implements the
:class:`~repro.testbed.environment.Environment` protocol and is
registered under the key ``"wifi"``.
"""

from repro.net.addresses import MacAddress, ip
from repro.net.iperf import UdpLoadGenerator, UdpSink
from repro.phone.phone import Phone
from repro.phone.profiles import coerce_profile
from repro.sim.scheduler import Simulator
from repro.sniffer.merge import merge_records
from repro.sniffer.sniffer import WirelessSniffer
from repro.testbed.environment import (
    SERVER_IP,
    WIFI_CAPABILITIES,
    WIRED_NET,
    Environment,
    WiredCore,
)
from repro.wifi.ap import AccessPoint
from repro.wifi.channel import WifiChannel
from repro.wifi.host import WifiHost

# Address plan.
WLAN_NET = "192.168.1.0/24"
AP_WLAN_IP = ip("192.168.1.1")
AP_WIRED_IP = ip("10.0.0.1")
LOAD_SERVER_IP = ip("10.0.0.3")
PHONE_IP = ip("192.168.1.2")
LOADGEN_IP = ip("192.168.1.3")
LOAD_PORT = 5001


class Testbed(Environment):
    """The assembled WiFi testbed.

    Parameters
    ----------
    seed:
        Master seed; every random stream derives from it.
    emulated_rtt:
        Additional RTT injected at the measurement server (seconds).
    sniffer_count / sniffer_loss:
        Number of monitor-mode sniffers (0 to 3) and their individual
        capture-loss probability (0 to 1).  The paper uses three
        sniffers so that the merged capture is effectively lossless.
    beacon_interval_tu:
        AP beacon interval in Time Units, at least 1 (default 100 TU =
        102.4 ms).
    """

    key = "wifi"
    capabilities = WIFI_CAPABILITIES

    #: ERP protection overhead used by the testbed AP (b/g mixed mode);
    #: drops practical channel capacity under the 25 Mbps iPerf load so
    #: cross-traffic congestion behaves like the paper's §4.3 WLAN.
    PROTECTION_TIME = 120e-6

    def __init__(self, seed=0, emulated_rtt=0.0, sniffer_count=3,
                 sniffer_loss=0.0, beacon_interval_tu=100,
                 send_time_exceeded=True, phy=None, rtt_jitter=0.0,
                 path_loss=0.0):
        from repro.wifi.phy import PhyParams

        self.check_params(sniffer_count=sniffer_count,
                          sniffer_loss=sniffer_loss,
                          beacon_interval_tu=beacon_interval_tu)
        self.sim = Simulator(seed=seed)
        self._rtt_jitter = rtt_jitter
        self._path_loss = path_loss
        if phy is None:
            phy = PhyParams(protection_time=self.PROTECTION_TIME)
        self.channel = WifiChannel(self.sim, phy=phy, name="wlan")
        self.ap = AccessPoint(
            self.sim, self.channel, MacAddress.from_index(1, oui=0x02AB00),
            AP_WLAN_IP, WLAN_NET, beacon_interval_tu=beacon_interval_tu,
            rng=self.sim.rng.stream("ap"),
            send_time_exceeded=send_time_exceeded,
        )
        self.wired_core = WiredCore(self.sim, gateway_ip=AP_WIRED_IP,
                                    network=WIRED_NET)
        self.wired_core.connect_gateway(self.ap, link_name="ap-switch")
        self.server_host, self.server, self.netem = \
            self.wired_core.add_measurement_server(
                SERVER_IP, delay=emulated_rtt, jitter=rtt_jitter,
                loss=path_loss,
            )

        self.load_server_host = self.wired_core.add_host("load-server",
                                                         LOAD_SERVER_IP)
        self.load_sink = UdpSink(self.load_server_host, LOAD_PORT)

        self.sniffers = [
            WirelessSniffer(
                self.sim, self.channel, name=f"sniffer-{label}",
                capture_loss=sniffer_loss,
            )
            for label in "ABC"[:sniffer_count]
        ]

        self.phones = []
        self.load_generator = None
        self._loadgen_host = None

    @staticmethod
    def check_params(sniffer_count=3, sniffer_loss=0.0, beacon_interval_tu=100,
                     **_other):
        """Reject out-of-range testbed parameters before anything is built.

        Raises ``ValueError`` naming the parameter; other keyword
        arguments are ignored, so a scenario's whole ``env_params`` can
        be passed.
        """
        if not beacon_interval_tu >= 1:
            raise ValueError(
                f"beacon_interval_tu must be >= 1, got {beacon_interval_tu!r}")
        if not 0 <= sniffer_count <= 3:
            raise ValueError(
                f"sniffer_count must be within [0, 3], got {sniffer_count!r}")
        if not 0.0 <= sniffer_loss <= 1.0:
            raise ValueError(
                f"sniffer_loss must be within [0, 1], got {sniffer_loss!r}")

    # -- wired-core conveniences ----------------------------------------------

    @property
    def switch(self):
        return self.wired_core.switch

    @property
    def wired_arp(self):
        return self.wired_core.arp

    # -- phones ---------------------------------------------------------------

    def add_phone(self, profile="nexus5", phone_ip=PHONE_IP, **phone_kwargs):
        """Attach an instrumented phone to the WLAN.

        ``profile`` is a profile key or a :class:`PhoneProfile`; extra
        keyword arguments go to :class:`~repro.phone.phone.Phone` (e.g.
        ``bus_sleep=False``, ``runtime='dalvik'``).
        """
        profile = coerce_profile(profile)
        mac = MacAddress.from_index(0x100 + len(self.phones), oui=0x02EE00)
        phone = Phone(
            self.sim, profile, self.channel, self.ap, phone_ip, mac,
            **phone_kwargs,
        )
        self.phones.append(phone)
        return phone

    #: The :class:`Environment` protocol name for :meth:`add_phone`.
    attach_phone = add_phone

    def start_cross_traffic(self, flows=10, rate_bps=2.5e6):
        """Congest the WLAN with the paper's iPerf workload.

        10 flows x 2.5 Mbps of UDP from a wireless load generator toward
        the wired load server (§4.3).
        """
        if self._loadgen_host is None:
            self._loadgen_host = WifiHost(
                self.sim, "loadgen", self.channel, self.ap, LOADGEN_IP,
                MacAddress.from_index(0x200, oui=0x02EE00),
                rng=self.sim.rng.stream("loadgen"),
            )
        self.load_generator = UdpLoadGenerator(
            self.sim, self._loadgen_host.stack, LOAD_SERVER_IP, LOAD_PORT,
            flows=flows, rate_bps=rate_bps,
            rng=self.sim.rng.stream("loadgen-pacing"),
        )
        self.load_generator.start()
        return self.load_generator

    def stop_cross_traffic(self):
        if self.load_generator is not None:
            self.load_generator.stop()

    # -- conveniences ----------------------------------------------------------

    def merged_capture(self):
        """The deduplicated multi-sniffer view of the channel."""
        return merge_records(*self.sniffers)

    def __repr__(self):
        return (
            f"<Testbed t={self.sim.now:.3f}s phones={len(self.phones)} "
            f"rtt={self.netem.delay * 1e3:.0f}ms>"
        )
