"""Cellular testbed: phone — tower — wired server."""

from repro.net.addresses import ip
from repro.cellular.interface import CellTower
from repro.cellular.phone import CellularPhone
from repro.cellular.rrc import RrcConfig, RrcMachine
from repro.phone.profiles import coerce_profile
from repro.sim.scheduler import Simulator
from repro.testbed.environment import (
    CELLULAR_CAPABILITIES,
    SERVER_IP,
    WIRED_NET,
    Environment,
    WiredCore,
)

CELL_NET = "10.64.0.0/16"
TOWER_CELL_IP = ip("10.64.0.1")
PHONE_CELL_IP = ip("10.64.0.2")
TOWER_WIRED_IP = ip("10.0.0.1")


class CellularTestbed(Environment):
    """A minimal cellular measurement environment.

    Implements the same :class:`~repro.testbed.environment.Environment`
    protocol as the WiFi :class:`~repro.testbed.topology.Testbed` —
    shared wired core, ``server_ip``, ``attach_phone()`` — so
    experiments, scenarios and campaigns read identically; it is
    registered under ``cellular-3g`` and ``cellular-lte``.

    For backward compatibility the constructor attaches one default
    phone (exposed as ``self.phone``); environment builders pass
    ``attach_default_phone=False`` and attach per-scenario phones
    instead.
    """

    key = "cellular-3g"
    capabilities = CELLULAR_CAPABILITIES

    def __init__(self, seed=0, emulated_rtt=0.0, rrc_config=None,
                 phone_profile_key="nexus5", attach_default_phone=True):
        self.sim = Simulator(seed=seed)
        self.rrc = RrcMachine(
            self.sim, config=rrc_config or RrcConfig(),
            rng=self.sim.rng.stream("rrc"),
        )
        self.tower = CellTower(self.sim, TOWER_CELL_IP, CELL_NET,
                               rng=self.sim.rng.stream("tower"))
        self.wired_core = WiredCore(self.sim, gateway_ip=TOWER_WIRED_IP,
                                    network=WIRED_NET)
        self.wired_core.connect_gateway(self.tower, link_name="tower-switch")
        self.server_host, self.server, self.netem = \
            self.wired_core.add_measurement_server(SERVER_IP,
                                                   delay=emulated_rtt)

        self.phones = []
        self.phone = None
        if attach_default_phone:
            self.phone = self.attach_phone(phone_profile_key)

    # -- wired-core conveniences ----------------------------------------------

    @property
    def switch(self):
        return self.wired_core.switch

    # -- phones ---------------------------------------------------------------

    def attach_phone(self, profile="nexus5", phone_ip=None, **phone_kwargs):
        """Attach a phone to the cell.

        ``profile`` is a profile key or a :class:`PhoneProfile`; extra
        keyword arguments go to
        :class:`~repro.cellular.phone.CellularPhone` (e.g.
        ``runtime='dalvik'``).  Phones share the tower's RRC machine,
        as in a single-UE cell.
        """
        profile = coerce_profile(profile)
        if phone_ip is None:
            phone_ip = ip(int(PHONE_CELL_IP) + len(self.phones))
        stream = ("cellphone" if not self.phones
                  else f"cellphone:{len(self.phones)}")
        phone = CellularPhone(self.sim, profile, self.tower, self.rrc,
                              phone_ip, rng=self.sim.rng.stream(stream),
                              **phone_kwargs)
        self.phones.append(phone)
        if self.phone is None:
            self.phone = phone
        return phone

    def __repr__(self):
        return f"<CellularTestbed t={self.sim.now:.2f}s rrc={self.rrc.state}>"
