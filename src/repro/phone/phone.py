"""The assembled smartphone.

Wires the layer pipeline together (stack <-> kernel <-> driver <-> STA)
and exposes the two primitives measurement apps need:

``user_send(fn)``
    Run ``fn`` (which builds and sends packets through ``phone.stack``)
    after the user-space runtime cost; returns the user-level send
    timestamp ``tou`` the app would have recorded.

``user_wrap(cb)``
    Wrap a receive callback so it fires after the kernel-to-user runtime
    cost, stamping any :class:`~repro.net.packet.Packet` arguments with
    their ``user`` (``tiu``) time.

Whether those costs reflect a pre-compiled native binary or the Dalvik
runtime is controlled by :attr:`Phone.runtime` — the knob behind the
paper's Δdu−k findings.
"""

from repro.net.packet import Packet
from repro.net.stack import IpStack
from repro.phone.driver import WnicDriver
from repro.phone.kernel import KernelLayer
from repro.wifi.sta import PsmConfig, Station


class Phone:
    """A simulated Android phone attached to a WiFi channel."""

    def __init__(self, sim, profile, channel, ap, ip_addr, mac,
                 rng=None, name=None, bus_sleep=True, psm_enabled=True,
                 runtime="native"):
        self.sim = sim
        self.profile = profile
        self.ip_addr = ip_addr
        self.name = name or profile.key
        self._app_send_label = f"app-send:{self.name}"
        self._app_recv_label = f"app-recv:{self.name}"
        self.rng = rng if rng is not None else sim.rng.stream(f"phone:{self.name}")
        self.runtime = runtime

        psm = PsmConfig(
            enabled=psm_enabled,
            timeout=profile.psm_timeout,
            timeout_jitter=profile.psm_timeout_jitter,
            listen_interval=profile.listen_interval_actual,
            listen_interval_assoc=profile.listen_interval_assoc,
        )
        self.sta = Station(sim, channel, mac, psm=psm, rng=self.rng,
                           name=f"{self.name}.sta")

        kernel_tx, kernel_rx = profile.kernel_costs()
        self.kernel = KernelLayer(sim, self.rng, kernel_tx, kernel_rx,
                                  name=f"{self.name}.kernel")
        self.driver = WnicDriver(
            sim, profile.scaled_chipset(), self.rng,
            tx_complete=self.sta.send_packet,
            rx_complete=self.kernel.receive,
            sleep_enabled=bus_sleep,
            name=f"{self.name}.wnic",
        )
        self.kernel.driver = self.driver
        self.kernel.deliver_up = self._deliver_up
        self.sta.on_packet = self.driver.isr

        self.stack = IpStack(
            sim, ip_addr, transmit=self.kernel.transmit, rng=self.rng,
            name=self.name, proc_delay=200e-6, proc_jitter=100e-6,
        )

        self.sta.associate(ap)
        ap.register_station_ip(ip_addr, mac)

    # -- user space -------------------------------------------------------

    def app_cost(self):
        """One user-space runtime delay draw (send or receive side)."""
        return self.profile.runtime_cost(self.runtime).draw(self.rng)

    def user_send(self, fn):
        """App-level send: returns ``tou`` and runs ``fn`` after the
        runtime cost."""
        t_user = self.sim.now
        self.sim.post(self.sim.now + self.app_cost(), fn,
                      label=self._app_send_label)
        return t_user

    def user_wrap(self, callback):
        """Wrap a receive callback with the kernel-to-user runtime delay."""

        def wrapped(*args):
            def fire():
                for arg in args:
                    if isinstance(arg, Packet):
                        arg.stamp("user", self.sim.now)
                callback(*args)

            self.sim.post(self.sim.now + self.app_cost(), fire,
                          label=self._app_recv_label)

        return wrapped

    # -- internal wiring ------------------------------------------------------

    def _deliver_up(self, packet):
        if packet.dst == self.ip_addr:
            self.stack.deliver(packet)

    # -- experiment knobs -------------------------------------------------------

    def set_bus_sleep(self, enabled):
        """Toggle SDIO bus sleep (the paper's rebuilt-driver experiment)."""
        self.driver.set_bus_sleep(enabled)

    def __repr__(self):
        return f"<Phone {self.name} ({self.profile.chipset.name}) {self.ip_addr}>"
