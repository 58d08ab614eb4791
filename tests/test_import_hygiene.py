"""Import hygiene: the campaign path never loads scipy or numpy.

scipy is an optional heavy dependency imported at the point of use only
(large-df Student-t quantiles, non-default confidence levels); numpy is no dependency at all, and a stray
import would make it one again.  A module-level import of either costs
every ``repro`` process its import time and resident memory, so this
test imports the package's entry points, runs a small campaign and
renders both report kinds in a fresh interpreter, then checks neither
module was loaded.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROGRAM = """
import json, sys

import repro
import repro.analysis.decompose
import repro.analysis.report
import repro.cli
import repro.net.wire
import repro.testbed.campaign
from repro.analysis.decompose import decompose_campaign, render_report
from repro.analysis.report import campaign_report
from repro.testbed.campaign import Campaign

campaign = Campaign(phones=("nexus5",), rtts=(0.02,),
                    tools=("ping", "acutemon"), count=3)
campaign.run(collect_metrics=True)
rendered = campaign_report(campaign).render()
decomposition = render_report(decompose_campaign(campaign))
print(json.dumps({
    "cells": len(campaign.results),
    "rendered": bool(rendered) and bool(decomposition),
    "loaded": sorted(name for name in ("scipy", "numpy")
                     if name in sys.modules),
}))
"""


def test_campaign_path_loads_neither_scipy_nor_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    completed = subprocess.run(
        [sys.executable, "-c", PROGRAM], env=env, capture_output=True,
        text=True, timeout=120, check=True)
    outcome = json.loads(completed.stdout.strip().splitlines()[-1])
    assert outcome["cells"] == 2
    assert outcome["rendered"]
    assert outcome["loaded"] == []
