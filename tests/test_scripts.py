"""Smoke runs of the experiment scripts: each finishes a two-round run.

The scripts are the callers that rebuild a parsed config's sections with
dataclasses.replace, so a section class whose fields or checks change
breaks them first.
"""

import importlib.util
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


def test_count_code_lines_total_is_the_sum_of_its_modules():
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "count_code_lines.py")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    counts = dict(line.split() for line in done.stdout.splitlines())
    total = int(counts.pop("total"))
    assert sorted(counts) == sorted(p.name for p in (ROOT / "src" / "fedssl").glob("*.py"))
    assert total == sum(map(int, counts.values())) > 0


def test_count_code_lines_skips_blanks_comments_and_docstrings():
    spec = importlib.util.spec_from_file_location(
        "count_code_lines", ROOT / "scripts" / "count_code_lines.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    source = '''"""Module
docstring."""

# a comment
import os  # counted


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        text = """a string
that is not a docstring"""
        return text
'''
    # import, class, def, the string's two lines and return
    assert script.code_lines(source) == 6
