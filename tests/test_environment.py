"""Tests for the environment abstraction and registry."""

import pytest

from repro.testbed.environment import (
    CAP_RRC,
    CELLULAR_CAPABILITIES,
    ENVIRONMENTS,
    KNOWN_CAPABILITIES,
    SERVER_IP,
    WIFI_CAPABILITIES,
    Environment,
    build_environment,
    environment_entry,
    environment_keys,
    register_environment,
)


class TestRegistry:
    def test_default_keys(self):
        assert environment_keys() == ["cellular-3g", "cellular-lte",
                                      "wifi"]

    def test_unknown_key_error_names_known(self):
        with pytest.raises(KeyError, match="wifi"):
            environment_entry("ethernet")
        with pytest.raises(KeyError, match="unknown environment"):
            build_environment("ethernet")

    def test_entries_carry_capabilities(self):
        assert ENVIRONMENTS["wifi"].capabilities == WIFI_CAPABILITIES
        assert ENVIRONMENTS["cellular-3g"].capabilities == \
            CELLULAR_CAPABILITIES
        assert CAP_RRC in ENVIRONMENTS["cellular-lte"].capabilities

    def test_register_environment_round_trips(self, monkeypatch):
        def build(seed=0, emulated_rtt=0.0, **params):
            return build_environment("wifi", seed=seed,
                                     emulated_rtt=emulated_rtt)

        monkeypatch.delitem(ENVIRONMENTS, "custom", raising=False)
        register_environment("custom", build, description="alias",
                             capabilities=WIFI_CAPABILITIES)
        env = build_environment("custom", seed=1)
        assert env.key == "custom"
        del ENVIRONMENTS["custom"]

    def test_register_rejects_unknown_capability_tag(self):
        with pytest.raises(ValueError, match="unknown capability.*warp"):
            register_environment("bogus", lambda **kw: None,
                                 capabilities={"warp-drive"})
        assert "bogus" not in ENVIRONMENTS

    def test_register_rejects_typoed_tag_names_known_set(self):
        # The error message must list the valid vocabulary so the typo
        # is a one-glance fix.
        with pytest.raises(ValueError, match="bus-sleep"):
            register_environment("bogus", lambda **kw: None,
                                 capabilities={"bus_sleep"})
        assert "bogus" not in ENVIRONMENTS

    def test_register_rejects_duplicate_capability_tags(self):
        with pytest.raises(ValueError, match="duplicate capability.*psm"):
            register_environment("bogus", lambda **kw: None,
                                 capabilities=["psm", "sniffers", "psm"])
        assert "bogus" not in ENVIRONMENTS

    def test_known_capability_vocabulary_pinned(self):
        assert KNOWN_CAPABILITIES == frozenset({
            "cross-traffic", "bus-sleep", "psm", "sniffers", "rrc",
        })

    def test_known_capabilities_are_the_declared_union(self):
        # A tag no registered environment declares is dead vocabulary.
        declared = frozenset().union(
            *(entry.capabilities for entry in ENVIRONMENTS.values()))
        assert KNOWN_CAPABILITIES == declared

    def test_full_registry_tag_sets_pinned(self):
        # Every default environment's declared capabilities, exactly.
        declared = {key: ENVIRONMENTS[key].capabilities
                    for key in environment_keys()}
        assert declared == {
            "wifi": frozenset({"cross-traffic", "bus-sleep", "psm",
                               "sniffers"}),
            "cellular-3g": frozenset({"rrc"}),
            "cellular-lte": frozenset({"rrc"}),
        }
        for capabilities in declared.values():
            assert capabilities <= KNOWN_CAPABILITIES


class TestProtocol:
    @pytest.mark.parametrize("key", ["wifi", "cellular-3g", "cellular-lte"])
    def test_build_and_protocol_surface(self, key):
        env = build_environment(key, seed=0, emulated_rtt=0.02)
        assert isinstance(env, Environment)
        assert env.key == key
        assert env.server_ip == SERVER_IP
        assert env.netem.delay == 0.02
        phone = env.attach_phone("nexus5")
        assert phone in env.phones
        before = env.sim.now
        env.settle(0.25)
        assert env.sim.now == pytest.approx(before + 0.25)

    def test_set_emulated_rtt(self):
        env = build_environment("wifi", seed=0, emulated_rtt=0.02)
        env.set_emulated_rtt(0.05)
        assert env.netem.delay == 0.05

    def test_shared_wired_core_across_radios(self):
        wifi = build_environment("wifi", seed=0)
        cell = build_environment("cellular-3g", seed=0)
        # Both assemble the same wired half from WiredCore.
        assert wifi.server_ip == cell.server_ip == SERVER_IP
        assert wifi.netem.name == cell.netem.name == "server-egress"
        assert type(wifi.wired_core) is type(cell.wired_core)

    def test_cellular_rejects_cross_traffic(self):
        env = build_environment("cellular-lte", seed=0)
        with pytest.raises(NotImplementedError, match="cross traffic"):
            env.start_cross_traffic()

    def test_env_params_forwarded_wifi(self):
        env = build_environment("wifi", seed=0, beacon_interval_tu=50)
        assert env.ap.beacon_interval_tu == 50

    def test_env_params_override_rrc_preset(self):
        env = build_environment("cellular-3g", seed=0, t1=2.5)
        assert env.rrc.config.t1 == 2.5

    def test_cellular_presets_differ(self):
        umts = build_environment("cellular-3g", seed=0)
        lte = build_environment("cellular-lte", seed=0)
        assert lte.rrc.config.promo_idle_dch.mean < \
            umts.rrc.config.promo_idle_dch.mean

    def test_registry_builds_attach_no_default_phone(self):
        # Environment builders own phone attachment; the legacy
        # auto-attached cellular phone must not appear.
        env = build_environment("cellular-3g", seed=0)
        assert env.phones == [] and env.phone is None

    def test_observe_and_snapshot(self):
        env = build_environment("cellular-lte", seed=0)
        env.observe()
        assert env.sim.metrics.enabled
        env.settle(0.1)
        snapshot = env.metrics_snapshot()
        names = {entry["name"] for entry in snapshot["metrics"]}
        assert "scheduler_events_fired" in names
