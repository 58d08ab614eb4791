"""The observability-guard rules ``RL001``/``RL002`` on ``repro lint``.

The lint enforces the guard discipline documented in
``docs/OBSERVABILITY.md``: every observability call site in ``src/``
sits behind an ``.enabled`` check (or carries the caller-guarded
pragma), so disabled observability costs one attribute check.  The
rules live in :mod:`repro.lint.rules_obs` (docs/STATIC_ANALYSIS.md);
these tests pin them on the source tree and on seeded trees, including
flexible pragma spelling and unused-pragma detection.
"""

import pathlib

from repro.cli import main as cli_main
from repro.lint import RULES, run_lint

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _obs_findings(root):
    """``[(line, rule_id, snippet), ...]`` of the obs-guard rules."""
    result = run_lint(root, rules=[RULES["RL001"], RULES["RL002"]],
                      include_project_rules=False)
    return [(f.line, f.rule_id, f.snippet) for f in result.findings]


def test_src_tree_has_no_unguarded_call_sites():
    findings = _obs_findings(REPO_ROOT / "src")
    assert not findings, f"unguarded observability call sites: {findings}"


def test_main_exit_code_clean_tree(capsys):
    assert cli_main(["lint", str(REPO_ROOT / "src")]) == 0
    assert "lint clean" in capsys.readouterr().out


def test_lint_catches_unguarded_call(tmp_path, capsys):
    bad = tmp_path / "pkg" / "module.py"
    bad.parent.mkdir()
    bad.write_text(
        "def f(sim):\n"
        "    sim.spans.record('x.y', 0.0, sim.now)\n"
        "    sim.metrics.inc('y_total')\n",
        encoding="utf-8")
    assert [(line, rule) for line, rule, _ in _obs_findings(tmp_path)] \
        == [(2, "RL001"), (3, "RL001")]
    assert cli_main(["lint", str(tmp_path)]) == 1
    assert "RL001" in capsys.readouterr().out


def test_lint_accepts_guard_and_pragma(tmp_path):
    good = tmp_path / "module.py"
    good.write_text(
        "def f(sim):\n"
        "    if sim.spans.enabled:\n"
        "        sim.spans.record('x.y', 0.0, sim.now)\n"
        "    sim.metrics.inc('y_total')  # obs: caller-guarded\n",
        encoding="utf-8")
    assert _obs_findings(tmp_path) == []


def test_trace_enabled_is_not_a_guard(tmp_path):
    """Only the ``metrics``/``spans`` recorders' flags guard a call: a
    check of some other object's ``trace.enabled`` does not."""
    bad = tmp_path / "module.py"
    bad.write_text(
        "def f(sim, x):\n"
        "    if x.trace.enabled:\n"
        "        sim.metrics.inc('y_total')\n",
        encoding="utf-8")
    assert [(line, rule) for line, rule, _ in _obs_findings(tmp_path)] \
        == [(3, "RL001")]


def test_pragma_recognised_with_flexible_spelling(tmp_path):
    """Whitespace and trailing rationale text don't defeat the pragma."""
    good = tmp_path / "module.py"
    good.write_text(
        "def f(sim):\n"
        "    sim.metrics.inc('a_total')  #obs:caller-guarded\n"
        "    sim.metrics.inc('b_total')  #   obs:   caller-guarded\n"
        "    sim.metrics.inc('c_total')  # obs: caller-guarded — "
        "guard lives in run()\n",
        encoding="utf-8")
    assert _obs_findings(tmp_path) == []


def test_unused_pragma_is_flagged(tmp_path, capsys):
    """A caller-guarded pragma on a line with no observability call is
    rot (RL002) and fails the lint like an unguarded call would."""
    stale = tmp_path / "module.py"
    stale.write_text(
        "def f(sim):\n"
        "    x = 1  # obs: caller-guarded\n"
        "    return x\n",
        encoding="utf-8")
    assert _obs_findings(tmp_path) \
        == [(2, "RL002", "x = 1  # obs: caller-guarded")]
    assert cli_main(["lint", str(tmp_path)]) == 1
    assert "RL002" in capsys.readouterr().out
