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


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_count_code_lines_skips_blanks_comments_and_docstrings():
    script = _load_script("count_code_lines")
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


# scripts/ab_rounds.py's pure helpers: every A/B timing rests on them


@pytest.mark.parametrize("workload", sorted(
    p.stem for p in (ROOT / "perfbench" / "workloads").glob("*.ini")))
def test_ab_rounds_workload_text_sets_trials_seed_and_output(workload):
    script = _load_script("ab_rounds")
    lines = script.workload_text(workload, 7, Path("out") / "trial").splitlines()
    original = (ROOT / "perfbench" / "workloads" / f"{workload}.ini").read_text(
        encoding="utf-8").splitlines()
    # exactly the three key lines change, each in place
    assert len(lines) == len(original)
    assert sorted(new for old, new in zip(original, lines) if new != old) == [
        "output = out/trial", "seed = 7", "trials = 1"]


@pytest.mark.parametrize("edit, key", [
    (lambda text: text.replace("seed = 0\n", ""), "seed"),
    (lambda text: text + "trials = 2\n", "trials"),
])
def test_ab_rounds_workload_text_needs_each_key_line_once(tmp_path, monkeypatch, edit, key):
    script = _load_script("ab_rounds")
    text = (ROOT / "perfbench" / "workloads" / "desk.ini").read_text(encoding="utf-8")
    (tmp_path / "desk.ini").write_text(edit(text), encoding="utf-8")
    monkeypatch.setattr(script, "WORKLOADS", tmp_path)
    with pytest.raises(ValueError, match=f"exactly one '{key} = ' line"):
        script.workload_text("desk", 1, Path("out"))


def test_ab_rounds_first_difference_names_a_file_only_one_tree_wrote():
    script = _load_script("ab_rounds")
    both = {"a/summary.txt": "1", "b/rounds.csv": "2"}
    assert script.first_difference(both, dict(both)) is None
    assert script.first_difference(both, {**both, "a/extra.csv": "3"}) == "a/extra.csv"
    assert script.first_difference({**both, "a/extra.csv": "3"}, both) == "a/extra.csv"
    assert script.first_difference(both, {**both, "b/rounds.csv": "9"}) == "b/rounds.csv"
