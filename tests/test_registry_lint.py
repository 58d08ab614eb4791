"""The registry-contract rule ``RL301`` on ``repro lint``.

The rule builds every registered environment, checks the
:class:`~repro.testbed.environment.Environment` protocol surface,
and constructs every registered tool — so a registry entry that would
detonate mid-campaign fails the suite instead.
"""

import pathlib

from repro.cli import main as cli_main
from repro.lint import RULES

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _registry_problems():
    return [finding.message for finding in RULES["RL301"].check(SRC)]


def test_registries_are_clean():
    problems = _registry_problems()
    assert not problems, "registry problems:\n" + "\n".join(problems)


def test_main_exit_code_clean(capsys):
    assert cli_main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "lint clean" in out and "RL301" in out


def test_lint_rejects_none_builder(monkeypatch):
    from repro.testbed import scenario

    monkeypatch.setitem(
        scenario.TOOLS, "broken",
        scenario.ToolEntry("broken", None, "phone", "placeholder"))
    problems = _registry_problems()
    assert any("broken" in p and "None" in p for p in problems)


def test_lint_rejects_unbuildable_environment(monkeypatch):
    from repro.testbed import environment

    def explode(seed=0, emulated_rtt=0.0, **params):
        raise RuntimeError("boom")

    monkeypatch.setitem(
        environment.ENVIRONMENTS, "exploding",
        environment.EnvironmentEntry("exploding", explode, "bad",
                                     frozenset()))
    problems = _registry_problems()
    assert any("exploding" in p and "build failed" in p for p in problems)
