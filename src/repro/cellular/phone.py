"""A phone on the cellular interface.

Same layer pipeline as the WiFi :class:`~repro.phone.phone.Phone` — user
runtime, kernel tap, stack — but the radio below the kernel is the
cellular interface, whose RRC machine (not SDIO/PSM) is the inflation
source.  Measurement tools and AcuteMon run on it unchanged, because
they only use ``user_send``/``user_wrap``/``stack``/``kernel``.
"""

from repro.net.packet import Packet
from repro.net.stack import IpStack
from repro.cellular.interface import CellularInterface
from repro.phone.kernel import KernelLayer


class CellularPhone:
    """A simulated phone attached to a cell tower."""

    def __init__(self, sim, profile, tower, rrc, ip_addr, rng=None,
                 name=None, runtime="native"):
        self.sim = sim
        self.profile = profile
        self.ip_addr = ip_addr
        self.name = name or f"{profile.key}-cell"
        self._app_send_label = f"app-send:{self.name}"
        self._app_recv_label = f"app-recv:{self.name}"
        self.rng = rng if rng is not None else sim.rng.stream(
            f"cellphone:{self.name}")
        self.runtime = runtime
        self.rrc = rrc

        kernel_tx, kernel_rx = profile.kernel_costs()
        self.kernel = KernelLayer(sim, self.rng, kernel_tx, kernel_rx,
                                  name=f"{self.name}.kernel")
        self.interface = CellularInterface(sim, rrc, rng=self.rng,
                                           name=f"{self.name}.cell0")
        self.interface.attach(tower, ip_addr)
        self.interface.deliver_up = self.kernel.receive

        # The kernel "driver" below is the modem interface itself.
        self.kernel.driver = _ModemShim(self.interface)
        self.kernel.deliver_up = self._deliver_up

        self.stack = IpStack(sim, ip_addr, transmit=self.kernel.transmit,
                             rng=self.rng, name=self.name,
                             proc_delay=200e-6, proc_jitter=100e-6)

    # -- user space (same contract as the WiFi phone) --------------------

    def app_cost(self):
        return self.profile.runtime_cost(self.runtime).draw(self.rng)

    def user_send(self, fn):
        t_user = self.sim.now
        self.sim.post(self.sim.now + self.app_cost(), fn,
                      label=self._app_send_label)
        return t_user

    def user_wrap(self, callback):
        def wrapped(*args):
            def fire():
                for arg in args:
                    if isinstance(arg, Packet):
                        arg.stamp("user", self.sim.now)
                callback(*args)

            self.sim.post(self.sim.now + self.app_cost(), fire,
                          label=self._app_recv_label)

        return wrapped

    def _deliver_up(self, packet):
        if packet.dst == self.ip_addr:
            self.stack.deliver(packet)

    def __repr__(self):
        return f"<CellularPhone {self.name} rrc={self.rrc.state}>"


class _ModemShim:
    """Adapts the cellular interface to the kernel's driver contract.

    The modem stamps the driver vantage points so the overhead
    decomposition still works; its host-side cost is folded into the
    RRC/air-interface model, so the stamps are contiguous.
    """

    def __init__(self, interface):
        self._interface = interface

    def start_xmit(self, packet):
        now = self._interface.sim.now
        packet.stamp("driver", now)
        packet.stamp("driver_done", now)
        self._interface.send_packet(packet)
