"""The codebase itself passes its own lint (tier-1 acceptance gate).

``repro lint`` must report zero findings on ``src/``, and
the only in-tree suppressions must be the two documented wall-clock
reads in the observed scheduler path.
"""

import pathlib

from repro.cli import main as cli_main
from repro.lint import run_lint

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def test_src_tree_lints_clean():
    result = run_lint(SRC)
    formatted = "\n".join(f.describe() for f in result.findings)
    assert not result.findings, f"lint findings on src/:\n{formatted}"
    assert result.files_scanned > 90


def test_only_documented_suppressions():
    """Pragma suppressions must not accrete silently: the only in-tree
    ones are the scheduler's two volatile wall-clock self-time reads."""
    result = run_lint(SRC)
    suppressed = sorted((f.path, f.rule_id) for f in result.suppressed)
    assert suppressed == [("repro/sim/scheduler.py", "RL101")] * 2


def test_cli_lint_exit_code_and_output(capsys):
    assert cli_main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "lint clean" in out
    assert "RL301" in out  # the registry project rule ran
