"""The quick demos run to completion against the current package."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import abbo
from abbo.campaign import CampaignConfig, run_campaign, write_rounds_csv

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "script", ["align_structures.py", "gp_on_mutants.py", "batch_from_portfolio.py"]
)
def test_demo_runs(script):
    src = str(Path(abbo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_committed_round_log_matches_the_demo(tmp_path):
    # demos/small_campaign_rounds.csv is the demo's OneHot-T round log; a
    # change that moves the campaign must regenerate it
    spec = importlib.util.spec_from_file_location("small_campaign", DEMOS / "small_campaign.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    config = CampaignConfig(
        parental=demo.PARENTAL, method="OneHot-T", seed=4, protocol=demo.PROTOCOL
    )
    fresh = tmp_path / "small_campaign_rounds.csv"
    write_rounds_csv(fresh, run_campaign(config))
    committed = DEMOS / "small_campaign_rounds.csv"
    assert fresh.read_text() == committed.read_text()
