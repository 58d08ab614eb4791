"""The environment abstraction: one protocol, many radio technologies.

The paper closes with the claim that AcuteMon "can be easily extended to
cellular environment" (§4).  This module makes that claim structural:

* :class:`WiredCore` extracts the server-side plumbing every environment
  shares — switch, wired ARP domain, measurement server, and the
  ``tc netem`` emulated-RTT qdisc on the server's egress — so the WiFi
  :class:`~repro.testbed.topology.Testbed` and the cellular
  :class:`~repro.cellular.testbed.CellularTestbed` assemble the same
  wired half instead of hand-copying it.
* :class:`Environment` is the protocol both implement: ``sim``,
  ``server_ip``, ``attach_phone()``, ``settle()``, ``run()``,
  ``set_emulated_rtt()``, plus the observability hooks (``observe()``,
  ``metrics_snapshot()``) the campaign layer relies on.
* a registry maps environment *keys* (``wifi``, ``cellular-3g``,
  ``cellular-lte``) to builders, so scenarios, campaign grids, the
  campaign runner, and the CLI can all sweep environments by name.

Capabilities declare which scenario knobs an environment honours —
requesting cross traffic on a cellular cell is a validation error, not a
silent no-op.  See ``docs/ARCHITECTURE.md``.
"""

import sys

from repro.net.addresses import MacAddress, ip
from repro.net.arp import ArpTable
from repro.net.host import Host
from repro.net.link import Link
from repro.net.netem import NetemQdisc
from repro.net.servers import MeasurementServer
from repro.net.switch import Switch

#: The wired segment shared by every environment (Figure 2's right half).
WIRED_NET = "10.0.0.0/24"
GATEWAY_WIRED_IP = ip("10.0.0.1")
SERVER_IP = ip("10.0.0.2")

# -- capability flags ---------------------------------------------------------

#: The environment can congest its access network with iPerf-style load.
CAP_CROSS_TRAFFIC = "cross-traffic"
#: The measured phone has an SDIO bus whose sleep can be toggled.
CAP_BUS_SLEEP = "bus-sleep"
#: The access network runs 802.11 adaptive PSM.
CAP_PSM = "psm"
#: Monitor-mode sniffers observe the access network (dn ground truth).
CAP_SNIFFERS = "sniffers"
#: An RRC state machine (promotions/demotions) sits below the kernel.
CAP_RRC = "rrc"

#: Every capability tag an environment may declare.  Registration
#: rejects anything outside this set — a typoed tag would otherwise
#: silently disable the scenario knob it was meant to enable.
KNOWN_CAPABILITIES = frozenset({
    CAP_CROSS_TRAFFIC, CAP_BUS_SLEEP, CAP_PSM, CAP_SNIFFERS, CAP_RRC,
})

WIFI_CAPABILITIES = frozenset(
    {CAP_CROSS_TRAFFIC, CAP_BUS_SLEEP, CAP_PSM, CAP_SNIFFERS})
CELLULAR_CAPABILITIES = frozenset({CAP_RRC})


class WiredCore:
    """Switch + ARP domain + measurement server behind a netem qdisc.

    The shared "right half" of every topology: the access-network
    gateway (WiFi AP or cell tower) plugs into a switch that also hosts
    the measurement server, whose egress carries the paper's emulated
    RTT ("introducing additional delays on the server side can be
    considered as controlling the length of the network path").
    """

    def __init__(self, sim, gateway_ip=GATEWAY_WIRED_IP, network=WIRED_NET):
        self.sim = sim
        self.gateway_ip = gateway_ip
        self.network = network
        self.arp = ArpTable()
        self.switch = Switch(sim)

    def connect_gateway(self, device, link_name, port_name="eth0"):
        """Plug the access gateway's wired port into the switch.

        ``device`` is anything with the AP/tower ``add_wired_port``
        contract (name, ip, network, arp_table, link=...).
        """
        link = Link(self.sim, name=link_name)
        device.add_wired_port(port_name, self.gateway_ip, self.network,
                              self.arp, link=link)
        self.switch.new_port(link)
        return link

    def add_host(self, name, host_ip):
        """A wired host on the switch, routed through the gateway."""
        host = Host(
            self.sim, name, host_ip,
            MacAddress.from_index(int(host_ip) & 0xFFFF, oui=0x02CD00),
            self.arp, gateway=self.gateway_ip,
            rng=self.sim.rng.stream(f"host:{name}"),
        )
        link = Link(self.sim, name=f"{name}-switch")
        host.nic.attach_link(link)
        self.switch.new_port(link)
        return host

    def add_measurement_server(self, server_ip=SERVER_IP, delay=0.0,
                               jitter=0.0, loss=0.0):
        """The measurement server with its emulated-RTT egress qdisc.

        Returns ``(host, server, netem)``.
        """
        host = self.add_host("server", server_ip)
        server = MeasurementServer(host)
        netem = NetemQdisc(
            self.sim, delay=delay, jitter=jitter, loss=loss,
            rng=self.sim.rng.stream("netem"), name="server-egress",
        )
        host.netem = netem
        return host, server, netem


class Environment:
    """The protocol every measurement environment implements.

    Subclasses (the WiFi ``Testbed``, the ``CellularTestbed``) build
    their access network and wired core in ``__init__`` and must
    provide ``sim``, ``server_host``, ``netem`` and ``phones``
    attributes plus :meth:`attach_phone`.  Everything the experiment /
    scenario / campaign layers call lives here, so runners never need
    to know which radio technology sits below the kernel.
    """

    # Not a test class, despite subclasses' names (silences pytest).
    __test__ = False

    #: Registry key, set by :func:`build_environment` on instances.
    key = None
    #: Scenario knobs this environment honours (capability flags above).
    capabilities = frozenset()

    def attach_phone(self, profile="nexus5", **phone_kwargs):
        """Attach an instrumented phone; returns the phone object."""
        raise NotImplementedError

    @property
    def server_ip(self):
        return self.server_host.ip_addr

    def set_emulated_rtt(self, rtt):
        """Re-point the server-side netem delay (tc qdisc change)."""
        self.netem.delay = rtt

    def run(self, duration):
        """Advance the simulation by ``duration`` seconds."""
        return self.sim.run(until=self.sim.now + duration)

    def settle(self, duration=0.5):
        """Let associations/attach procedures settle before measuring."""
        return self.run(duration)

    def start_cross_traffic(self, **kwargs):
        raise NotImplementedError(
            f"{type(self).__name__} does not support cross traffic "
            f"(capability {CAP_CROSS_TRAFFIC!r} not declared)")

    def stop_cross_traffic(self):
        raise NotImplementedError(
            f"{type(self).__name__} does not support cross traffic")

    # -- observability hooks --------------------------------------------------

    def observe(self):
        """Enable this environment's metrics and spans; returns self."""
        from repro.obs import enable_observability

        enable_observability(self.sim)
        return self

    def metrics_snapshot(self, include_volatile=False):
        """Deterministic metrics dump (scheduler gauges refreshed first)."""
        from repro.obs import finalize_sim_metrics

        finalize_sim_metrics(self.sim)
        return self.sim.metrics.snapshot(include_volatile=include_volatile)


# -- registry -----------------------------------------------------------------


def keyword_params(target, supplied=()):
    """``{name: default}`` of the parameters ``target`` (a function, or
    a class's ``__init__``) takes by keyword, minus ``supplied`` (a
    parameter with no default maps to ``inspect.Parameter.empty``).

    This is what a params dict may carry when a builder forwards it
    into ``target`` after filling the ``supplied`` names itself.
    """
    # Imported here: only specs that carry params need it, and importing
    # it with this module adds about 1 MB to every campaign process.
    import inspect

    function = target.__init__ if isinstance(target, type) else target
    defaults = {param.name: param.default
                for param in inspect.signature(function).parameters.values()
                if param.kind in (param.POSITIONAL_OR_KEYWORD,
                                  param.KEYWORD_ONLY)}
    for name in ("self", *supplied):
        defaults.pop(name, None)
    return defaults


def builder_params(builder, supplied):
    """``{key: default}`` of the params a registered builder takes.

    A builder that forwards its params dict elsewhere names them
    itself, as a zero-arg ``builder.params`` (called only when a spec
    carries params, so it may import the target's module); any other
    builder takes its own keyword parameters minus the ``supplied``
    ones, which for a ``**params`` builder is no key at all.  The type
    of a default is the type a spec's value must have.
    """
    declared = getattr(builder, "params", None)
    return (declared() if declared is not None
            else keyword_params(builder, supplied))


class EnvironmentEntry:
    """One registered environment: key, builder, docs, capabilities."""

    __slots__ = ("key", "builder", "description", "capabilities")

    def __init__(self, key, builder, description, capabilities):
        self.key = key
        self.builder = builder
        self.description = description
        self.capabilities = frozenset(capabilities)

    def __repr__(self):
        return f"<EnvironmentEntry {self.key!r}>"


#: Registry keyed by environment key; populated below and via
#: :func:`register_environment`.
ENVIRONMENTS = {}


def register_environment(key, builder, description="",
                         capabilities=frozenset()):
    """Register ``builder(seed=, emulated_rtt=, **env_params) -> env``.

    Re-registering a key replaces the entry (useful for tests and
    downstream extensions).  Returns the builder so it can be used as a
    decorator.

    ``capabilities`` must be tags from :data:`KNOWN_CAPABILITIES`, each
    at most once — unknown or duplicated tags raise ``ValueError``
    instead of registering an environment whose scenario knobs silently
    never match.

    :class:`~repro.testbed.scenario.ScenarioSpec` rejects any
    ``env_params`` key the builder does not take, or a value of another
    type than the key's default (see :func:`builder_params`), before a
    cell is built.
    """
    tags = list(capabilities)
    duplicates = sorted({tag for tag in tags if tags.count(tag) > 1})
    if duplicates:
        raise ValueError(
            f"duplicate capability tags for environment {key!r}: "
            f"{duplicates}")
    unknown = sorted(set(tags) - KNOWN_CAPABILITIES)
    if unknown:
        raise ValueError(
            f"unknown capability tags for environment {key!r}: {unknown}; "
            f"known: {sorted(KNOWN_CAPABILITIES)}")
    ENVIRONMENTS[key] = EnvironmentEntry(key, builder, description,
                                         capabilities)
    return builder


def environment_entry(key):
    """Look up a registry entry; raises with the known keys on a miss."""
    try:
        return ENVIRONMENTS[key]
    except KeyError:
        raise KeyError(
            f"unknown environment {key!r}; known: {sorted(ENVIRONMENTS)}"
        ) from None


def environment_keys():
    """The registered environment keys, sorted."""
    return sorted(ENVIRONMENTS)


def build_environment(key, seed=0, emulated_rtt=0.0, **env_params):
    """Construct a registered environment; stamps ``env.key``."""
    entry = environment_entry(key)
    env = entry.builder(seed=seed, emulated_rtt=emulated_rtt, **env_params)
    env.key = key
    return env


# -- default environments -----------------------------------------------------
# Builders import lazily so this module stays import-cycle free (the
# testbed modules import the Environment base class from here).

#: RRC config fields an ``env_params`` dict may override (JSON scalars);
#: the only keys a cellular environment takes.
_RRC_OVERRIDABLE = ("t1", "t2", "fach_threshold", "dch_rate_bps",
                    "fach_rate_bps")


def _wifi_testbed():
    # Imported at call time: topology imports this module.
    from repro.testbed.topology import Testbed

    return Testbed


def _build_wifi(seed=0, emulated_rtt=0.0, **env_params):
    """Build the WiFi :class:`~repro.testbed.topology.Testbed`."""
    return _wifi_testbed()(seed=seed, emulated_rtt=emulated_rtt, **env_params)


_build_wifi.params = lambda: keyword_params(_wifi_testbed(),
                                            ("seed", "emulated_rtt"))
_build_wifi.check = lambda **env_params: _wifi_testbed().check_params(
    **env_params)


def _check_rrc_params(t1=0.0, t2=0.0, fach_threshold=0, dch_rate_bps=1.0,
                      fach_rate_bps=1.0):
    """Reject out-of-range RRC overrides before anything is built."""
    for name, value in (("t1", t1), ("t2", t2)):
        if not 0.0 <= value <= sys.float_info.max:
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    for name, value in (("dch_rate_bps", dch_rate_bps),
                        ("fach_rate_bps", fach_rate_bps)):
        if not 0.0 < value <= sys.float_info.max:
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    if not fach_threshold >= 0:
        raise ValueError(
            f"fach_threshold must be >= 0, got {fach_threshold!r}")


def _cellular_builder(rrc_preset):
    def build(seed=0, emulated_rtt=0.0, rrc_config=None, **env_params):
        from repro.cellular.rrc import RrcConfig
        from repro.cellular.testbed import CellularTestbed

        if rrc_config is None:
            rrc_config = getattr(RrcConfig, rrc_preset)()
            for field in _RRC_OVERRIDABLE:
                if field in env_params:
                    setattr(rrc_config, field, env_params.pop(field))
        return CellularTestbed(seed=seed, emulated_rtt=emulated_rtt,
                               rrc_config=rrc_config,
                               attach_default_phone=False, **env_params)

    def params():
        from repro.cellular.rrc import RrcConfig

        defaults = keyword_params(RrcConfig)
        return {field: defaults[field] for field in _RRC_OVERRIDABLE}

    build.params = params
    build.check = _check_rrc_params
    return build


register_environment(
    "wifi", _build_wifi,
    description="Figure 2 WLAN: DCF channel, AP with adaptive PSM, "
                "SDIO bus-sleep phones, three monitor-mode sniffers",
    capabilities=WIFI_CAPABILITIES,
)
register_environment(
    "cellular-3g", _cellular_builder("umts_3g"),
    description="3G/UMTS cell: IDLE/FACH/DCH RRC machine with "
                "seconds-scale promotions (paper §4 extension)",
    capabilities=CELLULAR_CAPABILITIES,
)
register_environment(
    "cellular-lte", _cellular_builder("lte"),
    description="LTE-flavoured cell: ~100 ms promotions, short-DRX "
                "tail — the same RRC inflation, an order gentler",
    capabilities=CELLULAR_CAPABILITIES,
)
