"""Smoke tests: every example script runs to completion.

``compare_tools.py`` is excluded (it simulates minutes of congested
WLAN); everything else executes in seconds and is run in-process.
"""

import pathlib
import runpy

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = (
    "quickstart.py",
    "diagnose_inflation.py",
    "cellular_rrc.py",
    "two_phones.py",
    "calibrate_and_plan.py",
    "energy_budget.py",
    "observability_tour.py",
    "scenario_sweep.py",
)


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script, capsys, monkeypatch):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    # Examples that read sys.argv must see a clean command line.
    monkeypatch.setattr("sys.argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 100, f"{script} produced no meaningful output"


def test_all_examples_are_covered_or_excluded():
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    covered = set(FAST_EXAMPLES) | {"compare_tools.py"}
    assert on_disk == covered, (
        "new example scripts must be added to the smoke test "
        f"(or explicitly excluded): {sorted(on_disk ^ covered)}"
    )
