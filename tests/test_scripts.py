"""Smoke runs of the experiment scripts: each finishes a two-round run.

The scripts are the callers that rebuild a parsed config's sections with
dataclasses.replace, so a section class whose fields or checks change
breaks them first.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["run_desk_scale.py", "run_streaming.py", "sweep_noniid.py"])
def test_script_finishes_a_short_run(tmp_path, script):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script),
         "--rounds", "2", "--trials", "1", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out").is_dir()
