"""The declarative scenario layer.

A :class:`ScenarioSpec` describes one experiment cell as plain data —
environment key, phone profile, tool, netem/cross-traffic/bus-sleep
knobs, probe count/interval, seed — with strict validation and an exact
JSON round-trip.  Everything above the testbeds runs on specs:

* :func:`run_scenario` executes one spec and returns an
  :class:`~repro.testbed.experiments.ExperimentResult`,
* :class:`~repro.testbed.campaign.Campaign` grids *are* spec streams,
* :class:`~repro.testbed.fabric.FabricRunner` runs them in-process or
  ships them to pool workers as serialized specs instead of closures,
* the CLI's ``repro scenario run/list`` maps flags onto a spec.

The module also hosts the unified tool registry: every measurement tool
— AcuteMon included, no special cases — registers a builder keyed by
name, and every registered tool drives through the same
``run_sync(count)`` contract.  See ``docs/ARCHITECTURE.md``.
"""

import functools
import hashlib
import json
import math
import sys
from collections.abc import Mapping

from repro.core.acutemon import PROBE_METHODS, AcuteMon, AcuteMonConfig
from repro.core.measurement import ProbeCollector
from repro.phone.profiles import PHONES, PhoneProfile
from repro.testbed.environment import (
    CAP_BUS_SLEEP,
    CAP_CROSS_TRAFFIC,
    build_environment,
    builder_params,
    environment_entry,
    keyword_params,
)
from repro.tools.httping import HttpingTool
from repro.tools.javaping import JavaPingTool
from repro.tools.mobiperf import METHODS, MobiPerfTool
from repro.tools.ping import PingTool
from repro.tools.ping2 import Ping2Tool


class ScenarioError(ValueError):
    """A scenario spec failed validation."""


# -- the unified tool registry ------------------------------------------------


class ToolEntry:
    """One registered measurement tool.

    ``builder(spec, env, phone, collector)`` returns a tool object with
    the ``run_sync(count) -> samples`` contract of
    :class:`~repro.tools.base.MeasurementTool` (AcuteMon implements the
    same contract).  ``side`` records where the tool's user space runs:
    ``"phone"`` for on-device tools, ``"server"`` for server-side ones
    like ping2.
    """

    __slots__ = ("key", "builder", "side", "description")

    def __init__(self, key, builder, side, description):
        self.key = key
        self.builder = builder
        self.side = side
        self.description = description

    def build(self, spec, env, phone, collector):
        return self.builder(spec, env, phone, collector)

    def __repr__(self):
        return f"<ToolEntry {self.key!r} side={self.side}>"


#: Registry keyed by tool name; populated below and via :func:`register_tool`.
TOOLS = {}


def register_tool(key, builder, side="phone", description=""):
    """Register a tool builder; re-registering a key replaces it.

    A builder that forwards ``spec.tool_params`` names the keys it takes
    as ``builder.params`` (see
    :func:`~repro.testbed.environment.builder_params`); any other
    ``tool_params`` key, or a value of another type than the key's
    default, fails :meth:`ScenarioSpec.validate`.  An optional
    ``builder.check(**tool_params)`` raises ``ValueError`` for an
    out-of-range value, which fails it too.
    """
    TOOLS[key] = ToolEntry(key, builder, side, description)
    return builder


#: The names a builder's caller fills, per registry; never params keys.
_SUPPLIED = {"env_params": ("seed", "emulated_rtt"),
             "tool_params": ("spec", "env", "phone", "collector")}


#: The value types a params key takes, by the type of the builder
#: parameter's default.  A key whose default JSON cannot express (a
#: ``PhyParams``, ``None``) is not settable from a spec.
_PARAM_TYPES = {bool: (bool,), int: (int,), float: (int, float),
                str: (str,)}


@functools.lru_cache(maxsize=None)
def _accepted_params(builder, name):
    """``{key: value types}`` a ``name`` builder's params may carry,
    looked up once."""
    return {key: _PARAM_TYPES[type(default)] for key, default
            in builder_params(builder, _SUPPLIED[name]).items()
            if type(default) in _PARAM_TYPES}


def tool_entry(key):
    """Look up a tool entry; raises with the known keys on a miss."""
    try:
        return TOOLS[key]
    except KeyError:
        raise KeyError(
            f"unknown tool {key!r}; known: {sorted(TOOLS)}"
        ) from None


def tool_keys():
    """The registered tool names, sorted."""
    return sorted(TOOLS)


def _within(low, high):
    return lambda value: low <= value <= high


_PORT = (_within(1, 0xFFFF), "a port within [1, 65535]")
#: What one IPv4 datagram carries past a UDP or ICMP header.
_PAYLOAD = (_within(0, 65507), "within [0, 65507]")
_POSITIVE = (lambda value: 0.0 < value <= sys.float_info.max,
             "finite and > 0")

#: ``tool_params`` range rules by key, ``(test, what the value must be)``;
#: every tool that takes a key shares its rule.
_TOOL_PARAM_RULES = {
    "timeout": _POSITIVE, "probe_timeout": _POSITIVE,
    "dpre": _POSITIVE, "db": _POSITIVE,
    "probe_gap": (_within(0.0, sys.float_info.max), "finite and >= 0"),
    "payload_size": _PAYLOAD, "background_payload": _PAYLOAD,
    "request_size": (_within(1, 0xFFFF), "within [1, 65535]"),
    "warmup_ttl": (_within(1, 255), "within [1, 255]"),
    "port": _PORT, "http_port": _PORT, "closed_port": _PORT,
    "udp_echo_port": _PORT, "warmup_port": _PORT,
    "method": (METHODS.__contains__, f"one of {list(METHODS)}"),
    "probe_method": (PROBE_METHODS.__contains__,
                     f"one of {list(PROBE_METHODS)}"),
}


def _check_tool_params(**tool_params):
    """Reject out-of-range ``tool_params`` values before anything is
    built; the keys and their types are already checked."""
    for key, value in sorted(tool_params.items()):
        rule = _TOOL_PARAM_RULES.get(key)
        if rule is not None and not rule[0](value):
            raise ValueError(f"{key} must be {rule[1]}, got {value!r}")


def _phone_tool(tool_cls):
    def build(spec, env, phone, collector):
        return tool_cls(phone, collector, env.server_ip,
                        interval=spec.interval, **spec.tool_params)

    build.params = lambda: keyword_params(
        tool_cls, ("phone", "collector", "target_ip", "interval"))
    build.check = _check_tool_params
    return build


def _build_acutemon(spec, env, phone, collector):
    config = AcuteMonConfig(probe_count=spec.count, **spec.tool_params)
    return AcuteMon(phone, collector, env.server_ip, config=config)


_build_acutemon.params = lambda: keyword_params(AcuteMonConfig,
                                                ("probe_count",))
_build_acutemon.check = _check_tool_params


def _build_ping2(spec, env, phone, collector):
    return Ping2Tool(env.server_host, phone.ip_addr,
                     interval=spec.interval, **spec.tool_params)


_build_ping2.params = lambda: keyword_params(
    Ping2Tool, ("server_host", "phone_ip", "interval"))
_build_ping2.check = _check_tool_params


register_tool(
    "acutemon", _build_acutemon,
    description="the paper's mitigation: warm-up + TTL=1 background "
                "traffic + probe train (§4.2); tool_params map onto "
                "AcuteMonConfig (dpre, db, probe_gap, probe_method, ...)")
register_tool(
    "ping", _phone_tool(PingTool),
    description="ICMP echo from the phone (§3.1 root-cause tool); "
                "tool_params: timeout")
register_tool(
    "httping", _phone_tool(HttpingTool),
    description="HTTP GET timing over TCP (Figure 8 baseline)")
register_tool(
    "javaping", _phone_tool(JavaPingTool),
    description="ping forked from a Dalvik runtime (Figure 8 baseline)")
register_tool(
    "mobiperf", _phone_tool(MobiPerfTool),
    description="MobiPerf-style UDP probing (Figure 8 baseline)")
register_tool(
    "ping2", _build_ping2, side="server",
    description="Sui et al.'s server-side double ping against an idle "
                "phone; tool_params: timeout")


# -- the scenario spec --------------------------------------------------------

#: Spec fields in serialization order, with their defaults.
_FIELDS = (
    ("env", "wifi"),
    ("phone", "nexus5"),
    ("tool", "acutemon"),
    ("emulated_rtt", 0.030),
    ("count", 100),
    ("interval", 1.0),
    ("seed", 0),
    ("cross_traffic", False),
    ("bus_sleep", True),
    ("settle", 1.0),
    ("observe", False),
    ("env_params", None),
    ("tool_params", None),
)


def _params(name, value):
    """A params escape hatch as a fresh dict (``None`` means empty)."""
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ScenarioError(f"{name} must be a mapping, got {value!r}")
    return dict(value)


class ScenarioSpec:
    """A declarative description of one experiment cell.

    Everything is plain data: strings, numbers, booleans, and two
    JSON-object escape hatches (``env_params`` forwarded to the
    environment builder, ``tool_params`` to the tool builder).
    Validation is strict and happens at construction — an invalid spec
    never exists.
    """

    __test__ = False
    __slots__ = tuple(name for name, _default in _FIELDS)

    def __init__(self, env="wifi", phone="nexus5", tool="acutemon",
                 emulated_rtt=0.030, count=100, interval=1.0, seed=0,
                 cross_traffic=False, bus_sleep=True, settle=1.0,
                 observe=False, env_params=None, tool_params=None):
        self.env = env
        self.phone = phone
        self.tool = tool
        self.emulated_rtt = emulated_rtt
        self.count = count
        self.interval = interval
        self.seed = seed
        self.cross_traffic = cross_traffic
        self.bus_sleep = bus_sleep
        self.settle = settle
        self.observe = observe
        self.env_params = _params("env_params", env_params)
        self.tool_params = _params("tool_params", tool_params)
        self.validate()

    # -- validation -----------------------------------------------------------

    def validate(self):
        """Check every field; raises :class:`ScenarioError`. Returns self."""
        for name in ("env", "phone", "tool"):
            if not isinstance(getattr(self, name), str):
                raise ScenarioError(
                    f"{name} must be a string, got {getattr(self, name)!r}")
        entry = self._env_entry()
        if self.phone not in PHONES:
            raise ScenarioError(
                f"unknown phone {self.phone!r}; known: {sorted(PHONES)}")
        if self.tool not in TOOLS:
            raise ScenarioError(
                f"unknown tool {self.tool!r}; known: {sorted(TOOLS)}")
        self._require_number("emulated_rtt", self.emulated_rtt, minimum=0.0)
        self._require_int("count", self.count, minimum=1)
        self._require_number("interval", self.interval, minimum=0.0,
                             exclusive=True)
        self._require_int("seed", self.seed)
        self._require_number("settle", self.settle, minimum=0.0)
        for name in ("cross_traffic", "bus_sleep", "observe"):
            if not isinstance(getattr(self, name), bool):
                raise ScenarioError(f"{name} must be a bool")
        if self.cross_traffic and CAP_CROSS_TRAFFIC not in entry.capabilities:
            raise ScenarioError(
                f"environment {self.env!r} does not support cross traffic "
                f"(capabilities: {sorted(entry.capabilities)})")
        if not self.bus_sleep and CAP_BUS_SLEEP not in entry.capabilities:
            raise ScenarioError(
                f"environment {self.env!r} has no SDIO bus to keep awake "
                f"(capabilities: {sorted(entry.capabilities)})")
        for name, registry_entry in (("env_params", entry),
                                     ("tool_params", TOOLS[self.tool])):
            params = getattr(self, name)
            if not params:
                continue
            if not all(isinstance(key, str) for key in params):
                raise ScenarioError(f"{name} keys must be strings")
            try:
                json.dumps(params, sort_keys=True, allow_nan=False)
            except (TypeError, ValueError, RecursionError) as exc:
                raise ScenarioError(
                    f"{name} must be JSON-serializable: {exc}") from None
            accepted = _accepted_params(registry_entry.builder, name)
            unknown = sorted(params.keys() - accepted.keys())
            if unknown:
                raise ScenarioError(
                    f"{name} key(s) {unknown} not taken by "
                    f"{registry_entry.key!r}; known: {sorted(accepted)}")
            for key, value in sorted(params.items()):
                types = accepted[key]
                if (not isinstance(value, types)
                        or (isinstance(value, bool) and bool not in types)):
                    raise ScenarioError(
                        f"{name}[{key!r}] must be "
                        f"{' or '.join(t.__name__ for t in types)} for "
                        f"{registry_entry.key!r}, got {value!r}")
        for name, builder in (("env_params", entry.builder),
                              ("tool_params", TOOLS[self.tool].builder)):
            check = getattr(builder, "check", None)
            params = getattr(self, name)
            if check is not None and params:
                try:
                    check(**params)
                except ValueError as exc:
                    raise ScenarioError(f"{name}: {exc}") from None
        return self

    def _env_entry(self):
        try:
            return environment_entry(self.env)
        except KeyError as exc:
            raise ScenarioError(str(exc).strip('"')) from None

    @staticmethod
    def _require_number(name, value, minimum=None, exclusive=False):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(f"{name} must be a number, got {value!r}")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond float range
            finite = False
        if not finite:
            raise ScenarioError(f"{name} must be finite, got {value!r}")
        if minimum is not None:
            if exclusive and not value > minimum:
                raise ScenarioError(f"{name} must be > {minimum}")
            if not exclusive and not value >= minimum:
                raise ScenarioError(f"{name} must be >= {minimum}")

    @staticmethod
    def _require_int(name, value, minimum=None):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"{name} must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ScenarioError(f"{name} must be >= {minimum}")

    # -- serialization --------------------------------------------------------

    def to_dict(self):
        """JSON-ready dict; exact round-trip through :meth:`from_dict`."""
        return {
            "env": self.env, "phone": self.phone, "tool": self.tool,
            "emulated_rtt": self.emulated_rtt, "count": self.count,
            "interval": self.interval, "seed": self.seed,
            "cross_traffic": self.cross_traffic,
            "bus_sleep": self.bus_sleep, "settle": self.settle,
            "observe": self.observe, "env_params": dict(self.env_params),
            "tool_params": dict(self.tool_params),
        }

    @classmethod
    def from_dict(cls, data):
        """Strict inverse of :meth:`to_dict`: unknown keys are errors."""
        if not isinstance(data, Mapping):
            raise ScenarioError(
                f"a scenario must be a JSON object, got {data!r}")
        known = {name for name, _default in _FIELDS}
        unknown = set(data) - known
        if unknown:
            raise ScenarioError(
                f"unknown scenario field(s): {sorted(unknown, key=str)}; "
                f"known: {sorted(known)}")
        return cls(**data)

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def replace(self, **overrides):
        """A copy with the given fields replaced (re-validated)."""
        data = self.to_dict()
        data.update(overrides)
        return type(self).from_dict(data)

    # -- identity -------------------------------------------------------------

    def canonical_json(self):
        """The canonical serialization: sorted keys, no whitespace.

        Two specs that compare equal produce byte-identical canonical
        JSON regardless of construction order (``env_params`` /
        ``tool_params`` insertion order included), which is what makes
        :meth:`fingerprint` a content address.
        """
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def fingerprint(self):
        """Content address of this cell: SHA-256 of :meth:`canonical_json`.

        Stable across JSON round-trips and process boundaries; any
        single-field change produces a different fingerprint.  The
        checkpoint journal (:mod:`repro.testbed.resilience`) keys cached
        cell results by this value, so resumed campaigns re-emit a
        cached result only for an exactly-identical spec.
        """
        digest = hashlib.sha256(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()

    def key(self):
        """The campaign grid identity of this cell."""
        return (self.env, self.phone, self.emulated_rtt, self.tool,
                self.cross_traffic)

    def describe(self):
        """One-line human summary (CLI progress lines)."""
        extras = []
        if self.cross_traffic:
            extras.append("cross-traffic")
        if not self.bus_sleep:
            extras.append("bus-sleep off")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        return (f"{self.tool} on {self.phone} @ "
                f"{self.emulated_rtt * 1e3:.0f}ms over {self.env}{suffix}")

    def __eq__(self, other):
        if not isinstance(other, ScenarioSpec):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self):
        return hash(self.to_json())

    def __repr__(self):
        return f"<ScenarioSpec {self.describe()} seed={self.seed}>"

    # -- execution ------------------------------------------------------------

    def build(self):
        """Construct the cell: environment + phone + collector, settled.

        Returns ``(env, phone, collector)``; the caller can inspect or
        instrument them before :meth:`execute` drives the tool.
        """
        env = build_environment(self.env, seed=self.seed,
                                emulated_rtt=self.emulated_rtt,
                                **self.env_params)
        if self.observe:
            env.observe()
        phone_kwargs = {}
        if CAP_BUS_SLEEP in environment_entry(self.env).capabilities:
            phone_kwargs["bus_sleep"] = self.bus_sleep
        phone = env.attach_phone(self.phone, **phone_kwargs)
        collector = ProbeCollector(phone)
        if self.cross_traffic:
            env.start_cross_traffic()
        env.settle(self.settle)
        return env, phone, collector

    def execute(self, env, phone, collector):
        """Build and drive the tool on an already-built cell."""
        from repro.testbed.experiments import ExperimentResult

        entry = tool_entry(self.tool)
        tool = entry.build(self, env, phone, collector)
        samples = tool.run_sync(self.count)
        return ExperimentResult(env, phone, collector, samples, tool, self)


def run_scenario(spec):
    """Execute one scenario; returns an
    :class:`~repro.testbed.experiments.ExperimentResult`."""
    env, phone, collector = spec.build()
    return spec.execute(env, phone, collector)
