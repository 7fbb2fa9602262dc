"""Self-test of the benchmark at a short run length.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

The traced run must write byte-identical outputs to the plain run, the
traced call counts of the desk workload must match its loop structure, the
output checks must catch a wrong file, and BENCHMARK.json must name exactly
the metrics run.py prints.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from checks import check_run  # noqa: E402

ROUNDS = 5


def short_desk(tmp_path: Path) -> Path:
    text = (BENCH / "workloads" / "desk.ini").read_text(encoding="utf-8")
    text = re.sub(r"^rounds = .*$", f"rounds = {ROUNDS}", text, flags=re.M)
    text = re.sub(r"^trials = .*$", "trials = 1", text, flags=re.M)
    path = tmp_path / "desk_short.ini"
    path.write_text(text, encoding="utf-8")
    return path


def run_child(ini: Path, trace: int, tmp_path: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    result = tmp_path / f"result{trace}.json"
    subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--ini", str(ini), "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--out", str(tmp_path / f"reps{trace}"),
         "--result", str(result)],
        env=env, check=True, capture_output=True, timeout=120,
    )
    return json.loads(result.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    ini = short_desk(tmp)
    return run_child(ini, 0, tmp), run_child(ini, 1, tmp)


def test_traced_outputs_equal_plain_outputs(runs):
    plain, traced = runs
    assert plain["failed"] == traced["failed"] == 0, plain["problems"] + traced["problems"]
    assert plain["digests"] and plain["digests"] == traced["digests"]
    assert [len(t) for t in plain["round_s"]] == [ROUNDS]


def test_desk_traced_counts(runs):
    from fedssl import parse_config

    cfg = parse_config(BENCH / "workloads" / "desk.ini")
    k = cfg.shard.num_clients
    quota = (cfg.dataset.num_classes * cfg.dataset.train_per_class
             - cfg.shard.labeled_per_client * k) // k
    per_round = int(cfg.training.participation_rate * k)
    batches = ROUNDS * per_round * cfg.training.local_epochs * math.ceil(
        quota / cfg.training.unlabeled_batch_size)
    assert batches == ROUNDS * 5 * 4

    table = runs[1]["table"]
    evals = table["metrics.evaluate"]["calls"]
    assert evals == 2 * ROUNDS  # student and teacher
    assert table["data.strong_augment"]["calls"] == 2 * batches
    assert table["nn.forward_probs"]["calls"] == 2 * batches + evals
    assert table["nn.sgd_step"]["calls"] == batches
    assert table["engine.client_update"]["calls"] == ROUNDS * per_round
    assert table["engine.server_update"]["calls"] == 0


def test_self_times_partition_the_root_spans(runs):
    table = runs[1]["table"]
    roots = table["config.parse_config"]["total_s"] + table["runner.run_experiment"]["total_s"]
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(roots, rel=1e-9)
    assert all(row["self_s"] >= -1e-6 for row in table.values())


def test_output_checks_catch_wrong_files(tmp_path):
    from fedssl import parse_config, run_experiment

    text = short_desk(tmp_path).read_text(encoding="utf-8")
    text = re.sub(r"^output = .*$", f"output = {(tmp_path / 'out').as_posix()}", text,
                  flags=re.M)
    (tmp_path / "w.ini").write_text(text, encoding="utf-8")
    cfg = parse_config(tmp_path / "w.ini")
    run_experiment(cfg)
    trial = tmp_path / "out" / "trial_000"
    assert check_run(cfg, tmp_path / "out") == [[]]

    tx = trial / "transmissions.csv"
    lines = tx.read_text(encoding="utf-8").splitlines()
    tx.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    rounds = trial / "rounds.csv"
    text = rounds.read_text(encoding="utf-8")
    rows = text.splitlines()
    first = rows[1].split(",")
    first[-1] = str(int(first[-1]) + 8)
    rows[1] = ",".join(first)
    rounds.write_text("\n".join(rows) + "\n", encoding="utf-8")
    problems = check_run(cfg, tmp_path / "out")[0]
    assert any("transmissions.csv uplink" in p for p in problems)
    assert any("round 0: uplink_bytes" in p for p in problems)


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.LAYER_METRICS
    predictions = json.loads((BENCH / "predictions.json").read_text(encoding="utf-8"))
    assert set(predictions) == {name for name, _ in run.LAYER_METRICS}
    e2e = set(run.E2E_UNITS)
    for name, p in predictions.items():
        assert set(p["moves"]) <= e2e, name
        assert set(p["on"]) | set(p["unchanged_on"]) <= set(run.WORKLOADS), name


def test_reductions_cover_every_metric(runs):
    plain, traced = runs
    assert set(run.end_to_end(plain)) == set(run.E2E_UNITS)
    layer = run.per_layer(plain, traced)
    assert list(layer) == [name for name, _ in run.LAYER_METRICS]
    assert 0.0 < layer["semisup.mask_rate"] <= 1.0
