"""Tests for the declarative scenario layer."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phone.profiles import PHONES
from repro.testbed.scenario import (
    TOOLS,
    ScenarioError,
    ScenarioSpec,
    register_tool,
    run_scenario,
    tool_entry,
    tool_keys,
)


#: Valid values for each spec field, for the from_dict fuzz below.
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_PARAMS = st.dictionaries(st.text(max_size=4), st.one_of(
    st.none(), st.booleans(), st.integers(), _FINITE, st.text(max_size=4)),
    max_size=3)
_VALID_FIELDS = {
    "env": st.sampled_from(["wifi", "cellular-lte", "cellular-3g"]),
    "phone": st.sampled_from(["nexus5", "nexus4", "htc_one"]),
    "tool": st.sampled_from(["acutemon", "ping", "httping"]),
    "emulated_rtt": st.floats(min_value=0.0, max_value=1.0),
    "count": st.integers(min_value=1, max_value=1000),
    "interval": st.floats(min_value=1e-3, max_value=10.0),
    "seed": st.integers(),
    "cross_traffic": st.booleans(),
    "bus_sleep": st.booleans(),
    "settle": st.floats(min_value=0.0, max_value=10.0),
    "observe": st.booleans(),
    "env_params": _PARAMS,
    "tool_params": _PARAMS,
}
#: Anything JSON-shaped, including non-finite floats, huge ints,
#: non-string keys and wrong types: what a bad field may hold.
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                          st.floats(), st.text(max_size=4))
_ANY_VALUE = st.one_of(
    _JSON_SCALARS,
    st.lists(_JSON_SCALARS, max_size=2),
    st.dictionaries(st.one_of(st.text(max_size=4), st.integers()),
                    _JSON_SCALARS, max_size=3),
)


@st.composite
def _spec_dicts(draw):
    """A subset of valid fields with up to two replaced by anything
    (an unknown ``bogus`` key included)."""
    data = draw(st.fixed_dictionaries({}, optional=_VALID_FIELDS))
    bad = draw(st.lists(st.sampled_from(sorted(_VALID_FIELDS) + ["bogus"]),
                        max_size=2, unique=True))
    for field in bad:
        data[field] = draw(_ANY_VALUE)
    return data


class TestValidation:
    def test_defaults_are_valid(self):
        spec = ScenarioSpec()
        assert spec.env == "wifi"
        assert spec.tool == "acutemon"
        assert spec.phone == "nexus5"

    def test_unknown_environment(self):
        with pytest.raises(ScenarioError, match="unknown environment"):
            ScenarioSpec(env="ethernet")

    def test_unknown_phone(self):
        with pytest.raises(ScenarioError, match="unknown phone"):
            ScenarioSpec(phone="iphone")

    def test_unknown_tool(self):
        with pytest.raises(ScenarioError, match="unknown tool"):
            ScenarioSpec(tool="warpspeed")

    def test_scenario_error_is_value_error(self):
        with pytest.raises(ValueError):
            ScenarioSpec(tool="warpspeed")

    @pytest.mark.parametrize("field,value", [
        ("emulated_rtt", -0.01),
        ("emulated_rtt", "30ms"),
        ("count", 0),
        ("count", 2.5),
        ("interval", 0.0),
        ("seed", 1.5),
        ("settle", -1.0),
        ("cross_traffic", "yes"),
        ("bus_sleep", 1),
        ("observe", None),
        ("emulated_rtt", math.inf),
        ("interval", math.inf),
        ("settle", math.inf),
        ("settle", math.nan),
        pytest.param("emulated_rtt", 10 ** 400, id="emulated_rtt-huge-int"),
        ("env", ["wifi"]),
        ("phone", None),
        ("tool", 3),
        ("env_params", "ab"),
        ("env_params", [("t1", 3.0)]),
        ("tool_params", 0),
        ("tool_params", {"timeout": math.inf}),
        ("env_params", {"bogus": 1}),
        ("tool_params", {"bogus": 1}),
        ("env_params", {"beacon_interval_tu": "a"}),
        ("env_params", {"beacon_interval_tu": 2.0}),
        ("env_params", {"send_time_exceeded": 1}),
        ("env_params", {"rtt_jitter": True}),
        ("env_params", {"phy": 1}),
        ("tool_params", {"probe_method": 3}),
        ("env_params", {"beacon_interval_tu": 0}),
        ("env_params", {"sniffer_count": 3}),
        ("env_params", {"sniffer_loss": 0.0}),
        ("env_params", {"beacon_interval_tu": -1}),
        ("env_params", {"rtt_jitter": -1e-9}),
        ("env_params", {"rtt_jitter": -1.0}),
        ("env_params", {"path_loss": 2.0}),
        ("env_params", {"path_loss": -0.1}),
        ("tool_params", {"dpre": -1.0}),
        ("tool_params", {"db": -5.0}),
        ("tool_params", {"probe_timeout": 0.0}),
        ("tool_params", {"probe_gap": -0.1}),
        ("tool_params", {"probe_method": "raw"}),
        ("tool_params", {"warmup_ttl": 0}),
        ("tool_params", {"background_payload": 70000}),
        ("tool_params", {"http_port": 70000}),
    ])
    def test_bad_field_values(self, field, value):
        with pytest.raises(ScenarioError):
            ScenarioSpec(**{field: value})

    @pytest.mark.parametrize("env,params", [
        ("cellular-3g", {"t1": -1.0}),
        ("cellular-lte", {"t2": -0.5}),
        ("cellular-3g", {"t1": 10 ** 400}),
        ("cellular-3g", {"dch_rate_bps": 0}),
        ("cellular-lte", {"fach_rate_bps": -1.0}),
        ("cellular-3g", {"fach_threshold": -5}),
    ], ids=["t1-negative", "t2-negative", "t1-huge-int", "dch-rate-zero",
            "fach-rate-negative", "fach-threshold-negative"])
    def test_bad_rrc_params(self, env, params):
        with pytest.raises(ScenarioError, match="env_params"):
            ScenarioSpec(env=env, env_params=params)

    @pytest.mark.parametrize("tool,params", [
        ("ping", {"timeout": -1.0}),
        ("ping", {"timeout": 0.0}),
        ("ping", {"payload_size": -1}),
        ("ping2", {"timeout": 0.0}),
        ("httping", {"port": 0}),
        ("httping", {"request_size": 10 ** 30}),
        ("javaping", {"timeout": -1.0}),
        ("mobiperf", {"method": "traceroute"}),
        ("mobiperf", {"closed_port": 99999}),
    ], ids=["ping-timeout-negative", "ping-timeout-zero",
            "ping-payload-negative", "ping2-timeout-zero", "httping-port-zero",
            "httping-request-huge", "javaping-timeout-negative",
            "mobiperf-method-unknown", "mobiperf-port-too-high"])
    def test_bad_tool_params(self, tool, params):
        with pytest.raises(ScenarioError, match="tool_params"):
            ScenarioSpec(tool=tool, tool_params=params)

    def test_tool_params_in_range_accepted(self):
        ScenarioSpec(tool="ping", tool_params={"timeout": 0.5,
                                               "payload_size": 0})
        ScenarioSpec(tool="acutemon", tool_params={"dpre": 0.01, "db": 0.02,
                                                   "probe_gap": 0.0,
                                                   "probe_method": "udp"})

    def test_cross_traffic_needs_capability(self):
        ScenarioSpec(env="wifi", cross_traffic=True)  # fine
        with pytest.raises(ScenarioError, match="cross traffic"):
            ScenarioSpec(env="cellular-lte", cross_traffic=True)

    def test_bus_sleep_off_needs_capability(self):
        ScenarioSpec(env="wifi", bus_sleep=False)  # fine
        with pytest.raises(ScenarioError, match="bus"):
            ScenarioSpec(env="cellular-3g", bus_sleep=False)

    def test_params_must_be_json_serializable(self):
        with pytest.raises(ScenarioError, match="JSON-serializable"):
            ScenarioSpec(tool_params={"fn": object()})
        with pytest.raises(ScenarioError, match="keys must be strings"):
            ScenarioSpec(env_params={1: "x"})


class TestSerialization:
    FULL = dict(env="cellular-lte", phone="nexus4", tool="acutemon",
                emulated_rtt=0.05, count=7, interval=0.5, seed=42,
                cross_traffic=False, bus_sleep=True, settle=0.25,
                observe=True, env_params={"t1": 3.0},
                tool_params={"probe_method": "udp"})

    def test_json_round_trip_exact(self):
        spec = ScenarioSpec(**self.FULL)
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.to_dict() == spec.to_dict()
        assert json.loads(spec.to_json()) == spec.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        data = ScenarioSpec().to_dict()
        data["warp_factor"] = 9
        with pytest.raises(ScenarioError, match="unknown scenario field"):
            ScenarioSpec.from_dict(data)

    def test_from_dict_rejects_non_objects(self):
        with pytest.raises(ScenarioError, match="JSON object"):
            ScenarioSpec.from_json("[1, 2]")
        with pytest.raises(ScenarioError, match="unknown"):
            ScenarioSpec.from_dict({1: "x", "bogus": 2})

    @given(data=_spec_dicts())
    @settings(max_examples=300, deadline=None)
    def test_from_dict_fuzz_round_trips_or_rejects(self, data):
        """Any dict either builds a spec that round-trips exactly or
        raises ScenarioError — never another exception.  A built spec
        is strict JSON: no NaN or infinity reaches its fingerprint."""
        try:
            spec = ScenarioSpec.from_dict(data)
        except ScenarioError:
            return
        json.dumps(spec.to_dict(), allow_nan=False)
        assert ScenarioSpec.from_dict(spec.to_dict()).to_dict() \
            == spec.to_dict()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_from_dict_validates(self):
        data = ScenarioSpec().to_dict()
        data["tool"] = "warpspeed"
        with pytest.raises(ScenarioError):
            ScenarioSpec.from_dict(data)

    def test_replace_returns_validated_copy(self):
        spec = ScenarioSpec()
        other = spec.replace(env="cellular-lte", seed=9)
        assert other.env == "cellular-lte" and other.seed == 9
        assert spec.env == "wifi"  # original untouched
        with pytest.raises(ScenarioError):
            spec.replace(count=0)

    def test_key_and_hash(self):
        spec = ScenarioSpec(env="cellular-3g", emulated_rtt=0.02)
        assert spec.key() == ("cellular-3g", "nexus5", 0.02, "acutemon",
                              False)
        assert hash(spec) == hash(spec.replace())
        assert spec != spec.replace(seed=1)

    def test_params_are_copied_in(self):
        params = {"rtt_jitter": 3.0}
        spec = ScenarioSpec(env_params=params)
        params["rtt_jitter"] = 99.0
        assert spec.env_params == {"rtt_jitter": 3.0}


class TestFingerprint:
    """The content address behind checkpoint/resume (docs/RESILIENCE.md)."""

    FULL = dict(env="wifi", phone="nexus4", tool="acutemon",
                emulated_rtt=0.05, count=7, interval=0.5, seed=42,
                cross_traffic=False, bus_sleep=True, settle=0.25,
                observe=True, env_params={}, tool_params={})

    #: One valid mutation per spec field; each must move the fingerprint.
    #: FULL's params stay empty so that the ``env`` and ``tool``
    #: mutations stay valid: the WiFi and cellular builders share no
    #: key, and neither do AcuteMon's and ping's.
    MUTATIONS = [
        ("env", "cellular-lte"),
        ("phone", "nexus5"),
        ("tool", "ping"),
        ("emulated_rtt", 0.08),
        ("count", 9),
        ("interval", 1.0),
        ("seed", 43),
        ("cross_traffic", True),
        ("bus_sleep", False),
        ("settle", 0.5),
        ("observe", False),
        ("env_params", {"rtt_jitter": 0.001}),
        ("tool_params", {"probe_method": "udp"}),
    ]

    def test_equal_specs_equal_fingerprints(self):
        assert ScenarioSpec(**self.FULL).fingerprint() \
            == ScenarioSpec(**self.FULL).fingerprint()

    def test_fingerprint_is_sha256_hex(self):
        fingerprint = ScenarioSpec(**self.FULL).fingerprint()
        assert len(fingerprint) == 64
        assert set(fingerprint) <= set("0123456789abcdef")

    def test_mutations_cover_every_field(self):
        assert {name for name, _ in self.MUTATIONS} \
            == set(ScenarioSpec().to_dict())

    @pytest.mark.parametrize("field,value", MUTATIONS)
    def test_single_field_mutation_changes_fingerprint(self, field,
                                                       value):
        base = ScenarioSpec(**self.FULL)
        mutated = base.replace(**{field: value})
        assert mutated.fingerprint() != base.fingerprint(), (
            f"mutating {field} left the fingerprint unchanged")

    def test_stable_across_json_round_trip(self):
        spec = ScenarioSpec(**self.FULL)
        restored = ScenarioSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert restored.fingerprint() == spec.fingerprint()
        assert ScenarioSpec.from_json(spec.to_json()).fingerprint() \
            == spec.fingerprint()

    def test_params_key_order_does_not_matter(self):
        first = ScenarioSpec(env_params={"rtt_jitter": 1, "path_loss": 0.5})
        second = ScenarioSpec(env_params={"path_loss": 0.5, "rtt_jitter": 1})
        assert first.fingerprint() == second.fingerprint()

    def test_canonical_json_is_sorted_and_compact(self):
        spec = ScenarioSpec(**self.FULL)
        canonical = spec.canonical_json()
        assert json.loads(canonical) == spec.to_dict()
        assert ": " not in canonical and ", " not in canonical
        keys = list(json.loads(canonical))
        assert keys == sorted(keys)


class TestToolRegistry:
    def test_known_tools(self):
        assert set(tool_keys()) == {"acutemon", "ping", "httping",
                                    "javaping", "mobiperf", "ping2"}

    def test_no_none_builders(self):
        # The old TOOL_BUILDERS dict kept "acutemon": None as a special
        # case; the unified registry bans placeholders outright.
        assert all(entry.builder is not None for entry in TOOLS.values())

    def test_unknown_tool_entry(self):
        with pytest.raises(KeyError, match="warpspeed"):
            tool_entry("warpspeed")

    def test_register_tool_round_trips(self, monkeypatch):
        monkeypatch.delitem(TOOLS, "mytool", raising=False)
        build = register_tool("mytool", lambda *a: None, side="server",
                              description="test")
        entry = tool_entry("mytool")
        assert entry.builder is build and entry.side == "server"
        spec = ScenarioSpec(tool="mytool")
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        del TOOLS["mytool"]


class TestExecution:
    def test_run_scenario_returns_experiment_result(self):
        spec = ScenarioSpec(tool="ping", count=3, interval=0.01, seed=5)
        result = run_scenario(spec)
        assert result.spec == spec
        assert result.tool is not None
        assert len(result.samples) == 3
        assert all(rtt > 0 for rtt in result.user_rtts)

    def test_acutemon_is_first_class(self):
        spec = ScenarioSpec(tool="acutemon", count=4, seed=5)
        result = run_scenario(spec)
        assert result.tool.config.probe_count == 4
        assert len(result.samples) == 4

    def test_tool_params_reach_acutemon_config(self):
        spec = ScenarioSpec(tool="acutemon", count=3, seed=5,
                            tool_params={"probe_method": "udp",
                                         "db": 0.01})
        result = run_scenario(spec)
        assert result.tool.config.probe_method == "udp"
        assert result.tool.config.db == 0.01

    def test_cellular_scenario_runs(self):
        spec = ScenarioSpec(env="cellular-lte", tool="acutemon", count=3,
                            seed=5)
        result = run_scenario(spec)
        assert len(result.samples) == 3
        assert result.testbed.key == "cellular-lte"

    def test_env_params_reach_builder(self):
        spec = ScenarioSpec(env="cellular-3g", tool="ping", count=2,
                            interval=0.1, seed=5,
                            env_params={"t1": 2.0})
        env, _phone, _collector = spec.build()
        assert env.rrc.config.t1 == 2.0

    def test_deterministic_across_runs(self):
        spec = ScenarioSpec(tool="acutemon", count=5, seed=11)
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert first.user_rtts == second.user_rtts

    @pytest.mark.parametrize("cross_traffic", [False, True],
                             ids=["idle", "cross"])
    @pytest.mark.parametrize("bus_sleep", [True, False],
                             ids=["sleep", "no_sleep"])
    @pytest.mark.parametrize("phone_key", sorted(PHONES))
    def test_build_leaves_no_driver_samples(self, phone_key, bus_sleep,
                                            cross_traffic):
        # Table 3 summarises every driver sample taken after build(), so
        # one taken while the cell settles would shift dvsend/dvrecv.
        spec = ScenarioSpec(phone=phone_key, tool="ping",
                            bus_sleep=bus_sleep, cross_traffic=cross_traffic)
        _env, phone, _collector = spec.build()
        assert phone.driver.samples == []
