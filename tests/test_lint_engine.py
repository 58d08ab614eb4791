"""Framework tests for the :mod:`repro.lint` engine.

Covers the plugin machinery itself — pragma handling, baseline
round-trips, rule scoping, and rule isolation (a crashing rule reports
an RL000 internal-error finding instead of killing the run) — plus the
seeded fixture in ``tests/data/lint_fixture.py`` that exercises every
built-in rule id.
"""

import pathlib

import pytest

from repro.lint import (
    Baseline, Finding, ProjectRule, RULES, Rule, load_baseline,
    register_rule, run_lint, save_baseline,
)
from repro.lint.pragmas import disabled_ids, has_obs_pragma
from repro.lint.registry import logical_parts

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURE = REPO_ROOT / "tests" / "data" / "lint_fixture.py"

#: Every (line, rule) the seeded fixture must produce, in report order.
FIXTURE_EXPECTED = [
    (10, "RL102"),  # from random import randint
    (13, "RL201"),  # values=[] mutable default
    (14, "RL001"),  # unguarded metrics.inc
    (14, "RL106"),  # inline metric-name literal
    (15, "RL101"),  # time.time()
    (16, "RL102"),  # random.random()
    (17, "RL103"),  # schedule(-0.5, ...)
    (19, "RL102"),  # randint() call
    (20, "RL202"),  # bare except
    (22, "RL203"),  # print()
    (27, "RL002"),  # unused caller-guarded pragma
    (30, "RL202"),  # except Exception: pass
    (33, "RL203"),  # print survives a RL101-only disable
    (40, "RL104"),  # raw journal.write()
    (41, "RL104"),  # json.dump() into a checkpoint handle
    (46, "RL105"),  # sim._heap access outside the scheduler core
    # 47: sim._wheel_cursor names no scheduler field, so RL105 is silent
    (51, "RL107"),  # open() on a store path outside the home modules
    (52, "RL107"),  # .read_text() on a segment path
]


def lint_fixture(**kwargs):
    kwargs.setdefault("include_project_rules", False)
    return run_lint(FIXTURE, **kwargs)


class TestFixtureRulePack:
    def test_expected_rule_ids_in_order(self):
        result = lint_fixture()
        assert [(f.line, f.rule_id) for f in result.findings] \
            == FIXTURE_EXPECTED

    def test_multi_rule_pragma_on_one_line(self):
        """One line, two findings: disable=RL101,RL203 kills both;
        disable=RL101 leaves the RL203 finding alive."""
        result = lint_fixture()
        suppressed = {(f.line, f.rule_id) for f in result.suppressed}
        assert suppressed == {(32, "RL101"), (32, "RL203"), (33, "RL101")}
        assert (33, "RL203") in {(f.line, f.rule_id)
                                 for f in result.findings}

    def test_findings_carry_snippets_and_fingerprints(self):
        result = lint_fixture()
        by_rule = {f.rule_id: f for f in result.findings}
        assert "schedule(-0.5" in by_rule["RL103"].snippet
        assert len({f.fingerprint for f in result.findings}) \
            == len(result.findings)


class TestPragmas:
    @pytest.mark.parametrize("comment", [
        "# lint: disable=RL203",
        "#lint:disable=RL203",
        "#   lint:   disable   =   rl203",
        "# lint: disable=RL203 — deliberate, see docs",
        "# lint: disable=RL101,RL203 trailing words",
        "# lint: disable=all",
    ])
    def test_flexible_disable_forms(self, tmp_path, comment):
        path = tmp_path / "module.py"
        path.write_text(f"print('x')  {comment}\n", encoding="utf-8")
        result = run_lint(path, rules=[RULES["RL203"]],
                          include_project_rules=False)
        assert not result.findings
        assert [f.rule_id for f in result.suppressed] == ["RL203"]

    def test_disable_other_rule_does_not_suppress(self, tmp_path):
        path = tmp_path / "module.py"
        path.write_text("print('x')  # lint: disable=RL101\n",
                        encoding="utf-8")
        result = run_lint(path, rules=[RULES["RL203"]],
                          include_project_rules=False)
        assert [f.rule_id for f in result.findings] == ["RL203"]

    def test_malformed_pragma_ignored(self):
        assert disabled_ids("x = 1  # lint: disable=") == frozenset()
        assert disabled_ids("x = 1  # lint: disable=banana") == frozenset()
        assert disabled_ids("x = 1") == frozenset()

    @pytest.mark.parametrize("line", [
        "foo()  # obs: caller-guarded",
        "foo()  #obs:caller-guarded",
        "foo()  #  obs:  caller-guarded (guard lives in run())",
    ])
    def test_obs_pragma_flexible_forms(self, line):
        assert has_obs_pragma(line)

    def test_obs_pragma_requires_exact_words(self):
        assert not has_obs_pragma("foo()  # obs caller guarded")


class TestBaseline:
    def test_round_trip_suppresses_everything(self, tmp_path):
        result = lint_fixture()
        baseline = Baseline.from_findings(result.findings,
                                          reason="fixture grandfathering")
        path = tmp_path / "baseline.json"
        save_baseline(path, baseline)
        reloaded = load_baseline(path)
        assert len(reloaded.entries) == len(result.findings)
        assert all(entry.reason == "fixture grandfathering"
                   for entry in reloaded.entries)
        rebased = lint_fixture(baseline=reloaded)
        assert not rebased.findings
        assert len(rebased.baselined) == len(result.findings)
        assert not rebased.stale_baseline

    def test_stale_entries_surface_when_violation_fixed(self):
        result = lint_fixture()
        extra = Finding("RL203", "lint_fixture.py", 99,
                        "was fixed", snippet="print('gone')")
        baseline = Baseline.from_findings(result.findings + [extra])
        rebased = lint_fixture(baseline=baseline)
        assert not rebased.findings
        assert [entry.fingerprint for entry in rebased.stale_baseline] \
            == [extra.fingerprint]

    def test_multiset_matching_needs_one_entry_per_finding(self):
        result = lint_fixture()
        one_entry_each = Baseline.from_findings(result.findings[:1])
        rebased = lint_fixture(baseline=one_entry_each)
        assert len(rebased.baselined) == 1
        assert len(rebased.findings) == len(result.findings) - 1

    def test_version_check(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99, "findings": []}',
                        encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            load_baseline(path)


class _CrashingRule(Rule):
    id = "RL998"
    description = "always crashes (test only)"

    def visit(self, tree, source, path):
        raise RuntimeError("kaboom")


class _CrashingProjectRule(ProjectRule):
    id = "RL997"
    description = "always crashes (test only)"

    def check(self, root):
        raise RuntimeError("project kaboom")


class TestRuleIsolation:
    def test_crashing_rule_reports_internal_error_finding(self):
        result = run_lint(FIXTURE,
                          rules=[_CrashingRule(), RULES["RL203"]],
                          include_project_rules=False)
        internal = [f for f in result.findings if f.rule_id == "RL000"]
        assert len(internal) == 1
        assert "RL998" in internal[0].message
        assert "kaboom" in internal[0].message
        # The other rule's findings are unaffected.
        assert [f.line for f in result.findings if f.rule_id == "RL203"] \
            == [22, 33]

    def test_crashing_project_rule_isolated(self):
        result = run_lint(FIXTURE,
                          rules=[_CrashingProjectRule(), RULES["RL203"]])
        internal = [f for f in result.findings if f.rule_id == "RL000"]
        assert len(internal) == 1
        assert "RL997" in internal[0].message

    def test_syntax_error_reports_internal_error(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n", encoding="utf-8")
        result = run_lint(path, include_project_rules=False)
        assert [f.rule_id for f in result.findings] == ["RL000"]
        assert "parse" in result.findings[0].message


class TestRegistryAndScoping:
    def test_duplicate_rule_id_rejected(self):
        class Duplicate(Rule):
            id = "RL001"

        with pytest.raises(ValueError, match="duplicate"):
            register_rule(Duplicate)

    def test_builtin_rule_ids(self):
        assert set(RULES) == {"RL001", "RL002", "RL101", "RL102",
                              "RL103", "RL104", "RL105", "RL106",
                              "RL107", "RL201", "RL202", "RL203",
                              "RL301"}

    def test_logical_parts_anchor_on_repro(self):
        assert logical_parts("/x/src/repro/sim/rng.py") == ("sim", "rng.py")
        assert logical_parts("/x/other/tree.py") is None

    def test_obs_package_excluded_from_obs_rules(self, tmp_path):
        module = tmp_path / "repro" / "obs" / "inner.py"
        module.parent.mkdir(parents=True)
        module.write_text("def f(m):\n    m.metrics.inc('x')\n",
                          encoding="utf-8")
        result = run_lint(tmp_path, rules=[RULES["RL001"]],
                          include_project_rules=False)
        assert not result.findings

    def test_sim_scoped_rule_skips_non_sim_packages(self, tmp_path):
        module = tmp_path / "repro" / "analysis" / "report2.py"
        module.parent.mkdir(parents=True)
        module.write_text("import time\nNOW = time.time()\n",
                          encoding="utf-8")
        result = run_lint(tmp_path, rules=[RULES["RL101"]],
                          include_project_rules=False)
        assert not result.findings

    def test_unanchored_tree_gets_every_rule(self, tmp_path):
        module = tmp_path / "anything.py"
        module.write_text("import time\nNOW = time.time()\n",
                          encoding="utf-8")
        result = run_lint(tmp_path, rules=[RULES["RL101"]],
                          include_project_rules=False)
        assert [f.rule_id for f in result.findings] == ["RL101"]

    def test_seeded_rng_facade_is_not_flagged(self):
        """random.Random(derived_seed) is the sanctioned construction."""
        result = run_lint(REPO_ROOT / "src" / "repro" / "sim" / "rng.py",
                          rules=[RULES["RL102"]],
                          include_project_rules=False)
        assert not result.findings

    def test_unseeded_random_constructor_flagged(self, tmp_path):
        module = tmp_path / "m.py"
        module.write_text("import random\nr = random.Random()\n",
                          encoding="utf-8")
        result = run_lint(module, rules=[RULES["RL102"]],
                          include_project_rules=False)
        assert [f.rule_id for f in result.findings] == ["RL102"]
        assert "unseeded" in result.findings[0].message
