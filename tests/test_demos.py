"""Every demo script runs to completion against the checkout's package."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cli_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(tmp_path, demo):
    # TMPDIR keeps the demos' scratch directories inside tmp_path
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path,
        env=dict(cli_env(), TMPDIR=str(tmp_path)), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
