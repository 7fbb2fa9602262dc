"""Tests for the multi-trial runner and sweep grid."""

import os
import subprocess
import sys
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from fedssl import runner
from fedssl.config import parse_config_text
from fedssl.data import ClientShard, Dataset, ShardPlan, dirichlet_shard, label_histogram
from fedssl.metrics import RoundReport
from fedssl.runner import TrialSummary, _ratio_row, run_experiment, run_sweep
from fedssl.semisup import kl_to_uniform

BASE = """
[dataset]
num_classes = 3
dim = 4
train_per_class = 30
eval_per_class = 10
spread = 0.3
[shard]
num_clients = 3
dirichlet_alpha = 10.0
labeled_per_client = 3
[training]
rounds = 3
participation_rate = 1.0
hidden_dims = 8
unlabeled_batch_size = 16
labeled_batch_size = 4
learning_rate = 0.1
[run]
trials = 2
seed = 5
"""


def _cfg(out, extra=""):
    return parse_config_text(BASE.replace("[run]", f"[run]\noutput = {out}") + extra)


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_a_run_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma, about 1 MB of resident memory, on its
    # first call; a run calls nothing that does. A fresh process, so no
    # other test's imports count
    config = tmp_path / "exp.ini"
    config.write_text(BASE.replace("rounds = 3", "rounds = 2").replace(
        "[run]", f"[run]\noutput = {tmp_path / 'exp'}") + "[variant]\nkind = ts_client_ema\n",
        encoding="utf-8")
    code = ("import sys, fedssl; fedssl.run_experiment(fedssl.parse_config(sys.argv[1])); "
            "print('numpy.ma' in sys.modules)")
    src = Path(runner.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code, str(config)], capture_output=True,
                          text=True, check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert (tmp_path / "exp" / "trial_001" / "rounds.csv").is_file()
    assert done.stdout.splitlines()[-1] == "False"


def test_run_writes_expected_tree(tmp_path):
    out = tmp_path / "exp"
    summaries = run_experiment(_cfg(out))
    assert len(summaries) == 2
    assert (out / "config_resolved.ini").is_file()
    assert (out / "summary.txt").is_file()
    for t in range(2):
        tdir = out / f"trial_{t:03d}"
        rounds = (tdir / "rounds.csv").read_text().splitlines()
        assert rounds[0] == RoundReport.csv_header()
        assert len(rounds) == 1 + 3
        assert (tdir / "transmissions.csv").is_file()
        assert (tdir / "kl_ratio.csv").is_file()
        assert (tdir / "summary.txt").is_file()


def test_each_trial_trains_in_one_workspace_allocated_in_its_first_round(tmp_path, monkeypatch):
    # nothing is allocated before the first round (set-up time stays
    # put), and a trial's buffers are gone before it writes its outputs
    seen = []
    run_round, write_lines = runner.run_round, runner._write_lines

    def recorded(*args, workspace, **kwargs):
        reused = bool(seen) and seen[-1][0]() is workspace
        seen.append((weakref.ref(workspace), workspace.nbytes, reused))
        return run_round(*args, workspace=workspace, **kwargs)

    def writes(*args):
        assert all(ref() is None for ref, _, _ in seen)
        write_lines(*args)

    monkeypatch.setattr(runner, "run_round", recorded)
    monkeypatch.setattr(runner, "_write_lines", writes)
    run_experiment(_cfg(tmp_path / "exp"))
    # two trials of three rounds: each starts with a new, empty workspace
    # and passes it to every round
    assert [(nbytes > 0, reused) for _, nbytes, reused in seen] == 2 * [
        (False, False), (True, True), (True, True)]


def test_run_summary_values_match_csv(tmp_path):
    out = tmp_path / "exp"
    summaries = run_experiment(_cfg(out))
    rows = (out / "trial_000" / "rounds.csv").read_text().splitlines()[1:]
    accs = [float(r.split(",")[1]) for r in rows]
    assert summaries[0].final_accuracy == accs[-1]
    assert summaries[0].best_accuracy == max(accs)
    up = sum(int(r.split(",")[-1]) for r in rows)
    assert summaries[0].uplink_bytes == up


SUMMARY_KEYS = [
    "trial", "trial_seed", "variant", "ema_alpha", "iidness_prior", "final_accuracy",
    "best_accuracy", "rounds_to_threshold", "downlink_bytes", "uplink_bytes",
    "stability_window", "trailing_accuracy_std", "max_drawdown", "trailing_kl_ratio",
    "teacher_round_fraction",
]


def test_trial_summary_txt_is_the_returned_record(tmp_path):
    out = tmp_path / "exp"
    summaries = run_experiment(_cfg(out))
    assert [f.name for f in fields(TrialSummary)] == SUMMARY_KEYS
    assert len(summaries) == 2
    for s in summaries:
        pairs = [line.split(" = ", 1) for line in
                 (out / f"trial_{s.trial:03d}" / "summary.txt").read_text().splitlines()]
        assert [key for key, _ in pairs] == SUMMARY_KEYS
        for key, text in pairs:
            value = getattr(s, key)
            assert text == ("none" if value is None else
                            value if isinstance(value, str) else repr(value)), key
    assert summaries[0].rounds_to_threshold is None and summaries[0].variant == "fedswitch"


def test_single_trial_reports_zero_std(tmp_path, capsys):
    out = tmp_path / "one"
    cfg = parse_config_text(BASE.replace("trials = 2", "trials = 1")
                            .replace("[run]", f"[run]\noutput = {out}"))
    run_experiment(cfg)
    text = (out / "summary.txt").read_text()
    assert "final_accuracy_std = 0.0\n" in text
    printed = capsys.readouterr().out
    assert "± 0.0000" in printed


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "exp"
    run_experiment(_cfg(out))
    first = _tree_bytes(out)
    run_experiment(_cfg(out))
    assert _tree_bytes(out) == first
    assert len(first) > 0


def test_five_trials_five_distinct_shardings(tmp_path):
    out = tmp_path / "five"
    cfg = parse_config_text(
        BASE.replace("trials = 2", "trials = 5").replace("rounds = 3", "rounds = 2")
        .replace("[run]", f"[run]\noutput = {out}")
    )
    summaries = run_experiment(cfg)
    assert len({s.trial_seed for s in summaries}) == 5
    csvs = [(out / f"trial_{t:03d}" / "rounds.csv").read_text() for t in range(5)]
    assert len(set(csvs)) == 5


def test_rounds_to_threshold(tmp_path):
    out = tmp_path / "thr"
    cfg = parse_config_text(
        BASE.replace("[run]", f"[run]\noutput = {out}\naccuracy_threshold = 0.05")
    )
    summaries = run_experiment(cfg)
    assert all(s.rounds_to_threshold is not None for s in summaries)
    assert all(s.rounds_to_threshold >= 1 for s in summaries)


def test_kl_ratio_csv_well_formed(tmp_path):
    out = tmp_path / "ratio"
    run_experiment(_cfg(out))
    lines = (out / "trial_000" / "kl_ratio.csv").read_text().splitlines()
    assert lines[0] == "round,pseudo_kl,truth_kl,ratio"
    assert len(lines) == 1 + 3
    for line in lines[1:]:
        rnd, pseudo, truth, ratio = line.split(",")
        int(rnd)
        assert float(pseudo) >= 0 and float(truth) >= 0
        if ratio:
            assert float(ratio) >= 0


def test_kl_ratio_pseudo_kl_is_the_rounds_dkl_teacher(tmp_path):
    out = tmp_path / "pseudo"
    run_experiment(_cfg(out))
    for trial in ("trial_000", "trial_001"):
        rounds = (out / trial / "rounds.csv").read_text().splitlines()
        ratio = (out / trial / "kl_ratio.csv").read_text().splitlines()
        dkl_t = [line.split(",")[3] for line in rounds[1:]]
        assert [line.split(",")[1] for line in ratio[1:]] == dkl_t


def test_ratio_row_skips_clients_with_uniform_labels():
    # clients 0, 2 and 3 trained; client 2's true histogram is uniform
    # (truth KL 0), and clients 1 and 4 sat out
    client_ids, dkl_teacher = (0, 2, 3), np.array([0.2, 0.3, 0.5])
    truth = np.array([0.4, 7.0, 0.0, 1.0, 9.0])
    truth_mean, ratio = _ratio_row(client_ids, dkl_teacher, truth)
    assert truth_mean == pytest.approx((0.4 + 0.0 + 1.0) / 3, abs=1e-15)
    assert ratio == pytest.approx((0.2 / 0.4 + 0.5 / 1.0) / 2, abs=1e-15)
    assert _ratio_row(client_ids, dkl_teacher, np.zeros(5))[1] is None


def test_truth_kl_bitwise_equals_per_client_histograms():
    labels = np.repeat(np.arange(10), 420)
    ds = Dataset(np.zeros((labels.size, 1)), labels, 10)
    shard_sets = [dirichlet_shard(ds, ShardPlan(20, alpha, 10, seed=seed)).shards
                  for alpha, seed in ((100.0, 1), (1.0, 2), (0.05, 3))]
    # unequal pools, one of a single example and one of a single class
    shard_sets.append([
        ClientShard(client_id=4, labeled_idx=[], unlabeled_idx=[0]),
        ClientShard(client_id=1, labeled_idx=[], unlabeled_idx=np.arange(0, 4200, 7)),
        ClientShard(client_id=9, labeled_idx=[], unlabeled_idx=np.arange(420, 440)),
    ])
    for shards in shard_sets:
        truth = runner._truth_kl(shards, ds, 10)
        assert truth.shape == (len(shards),)
        for kl, sh in zip(truth.tolist(), shards):
            expected = kl_to_uniform(label_histogram(ds.labels[sh.unlabeled_idx], 10))
            assert repr(kl) == repr(expected)
    empty = ClientShard(client_id=0, labeled_idx=[], unlabeled_idx=[])
    with pytest.raises(ValueError, match="empty label vector"):
        runner._truth_kl(shard_sets[-1] + [empty], ds, 10)


def test_kl_ratio_csv_leaves_ratio_empty_when_every_client_is_uniform(tmp_path, monkeypatch):
    monkeypatch.setattr(
        runner, "_truth_kl",
        lambda shards, data, num_classes: np.zeros(len(shards)),
    )
    out = tmp_path / "uniform"
    run_experiment(_cfg(out))
    lines = (out / "trial_000" / "kl_ratio.csv").read_text().splitlines()
    assert len(lines) == 1 + 3
    for line in lines[1:]:
        rnd, pseudo, truth, ratio = line.split(",")
        assert (float(truth), ratio) == (0.0, "")
    assert "trailing_kl_ratio = none" in (out / "trial_000" / "summary.txt").read_text()


def test_auto_beta_resolves_to_positive_kl(tmp_path):
    out = tmp_path / "beta"
    cfg = parse_config_text(
        BASE.replace("dirichlet_alpha = 10.0", "dirichlet_alpha = 0.1")
        .replace("trials = 2", "trials = 1")
        .replace("[run]", f"[run]\noutput = {out}")
        + "\n[variant]\nkind = fedswitch\niidness_prior = auto\n"
    )
    run_experiment(cfg)
    text = (out / "trial_000" / "summary.txt").read_text()
    beta_line = next(l for l in text.splitlines() if l.startswith("iidness_prior"))
    assert float(beta_line.split(" = ")[1]) > 0.0


def test_trial_errors_carry_trial_context(tmp_path):
    out = tmp_path / "err"
    cfg = parse_config_text(
        BASE.replace("labeled_per_client = 3",
                     "labeled_per_client = 3\nstreaming_steps = 500")
        .replace("[run]", f"[run]\noutput = {out}")
    )
    with pytest.raises(RuntimeError, match="trial 0"):
        run_experiment(cfg)


def test_csv_generator_end_to_end(tmp_path):
    rng = np.random.default_rng(0)
    for name, n in (("train.csv", 60), ("eval.csv", 15)):
        rows = []
        for i in range(n):
            label = i % 3
            feats = rng.normal(size=2) + label
            rows.append(f"{label}," + ",".join(repr(float(v)) for v in feats))
        (tmp_path / name).write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "csvrun"
    cfg = parse_config_text(f"""
[dataset]
generator = csv
csv_path = {tmp_path / 'train.csv'}
eval_csv_path = {tmp_path / 'eval.csv'}
num_classes = 3
[shard]
num_clients = 3
labeled_per_client = 2
[training]
rounds = 2
participation_rate = 1.0
hidden_dims = 6
[run]
output = {out}
""")
    summaries = run_experiment(cfg)
    assert len(summaries) == 1
    assert (out / "trial_000" / "rounds.csv").is_file()


def test_scale01_maps_both_splits_by_the_training_range(tmp_path):
    # training features span [0, 10] and a constant 3.0; eval spans [0, 5]
    (tmp_path / "train.csv").write_text("0,0.0,3.0\n1,5.0,3.0\n2,10.0,3.0\n")
    (tmp_path / "eval.csv").write_text("0,0.0,3.0\n1,5.0,4.0\n")
    text = f"""
[dataset]
generator = csv
csv_path = {tmp_path / 'train.csv'}
eval_csv_path = {tmp_path / 'eval.csv'}
num_classes = 3
"""
    train, test = runner._load_datasets(parse_config_text(text + "scale01 = true\n"))
    assert np.array_equal(train.inputs, [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
    # a raw 5.0 is 0.5 in both splits; the constant feature keeps range 1
    assert np.array_equal(test.inputs, [[0.0, 0.0], [0.5, 1.0]])
    raw_train, raw_test = runner._load_datasets(parse_config_text(text))
    assert np.array_equal(raw_test.inputs, [[0.0, 3.0], [5.0, 4.0]])
    assert np.array_equal(raw_test.labels, test.labels)


def test_csv_dim_mismatch_rejected(tmp_path):
    (tmp_path / "a.csv").write_text("0,1.0,2.0\n1,2.0,3.0\n2,0.5,0.5\n")
    (tmp_path / "b.csv").write_text("0,1.0\n1,2.0\n2,0.5\n")
    cfg = parse_config_text(f"""
[dataset]
generator = csv
csv_path = {tmp_path / 'a.csv'}
eval_csv_path = {tmp_path / 'b.csv'}
num_classes = 3
[shard]
num_clients = 1
labeled_per_client = 1
[run]
output = {tmp_path / 'out'}
""")
    with pytest.raises(ValueError, match="dimensions disagree"):
        run_experiment(cfg)


# ---------------------------------------------------------------- sweeps


def _sweep_cfg(out, rounds=1, trials=1):
    return parse_config_text(
        BASE.replace("rounds = 3", f"rounds = {rounds}")
        .replace("trials = 2", f"trials = {trials}")
        .replace("[run]", f"[run]\noutput = {out}")
    )


def test_sweep_grid_shape_and_csv(tmp_path):
    out = tmp_path / "sweep"
    cells = run_sweep(_sweep_cfg(out), alphas=[0.1, 10.0],
                      kinds=["fedprox_fixmatch", "fedswitch"])
    assert len(cells) == 4
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 4
    assert lines[0].startswith("variant,dirichlet_alpha,final_accuracy_mean")
    seen = set()
    for line in lines[1:]:
        parts = line.split(",")
        seen.add((parts[0], float(parts[1])))
    assert seen == {("fedprox_fixmatch", 0.1), ("fedprox_fixmatch", 10.0),
                    ("fedswitch", 0.1), ("fedswitch", 10.0)}
    cell_cfg = out / "fedswitch" / "alpha_0.1" / "config_resolved.ini"
    assert cell_cfg.is_file()
    echoed = parse_config_text(cell_cfg.read_text())
    assert echoed.shard.dirichlet_alpha == 0.1
    assert echoed.variant.kind == "fedswitch"


def test_sweep_single_cell_equals_run(tmp_path):
    cfg_run = _sweep_cfg(tmp_path / "solo", rounds=2)
    direct = run_experiment(cfg_run)
    cfg_sweep = _sweep_cfg(tmp_path / "grid", rounds=2)
    cells = run_sweep(cfg_sweep, alphas=[10.0], kinds=["fedswitch"])
    assert len(cells) == 1
    assert list(cells[0].trials) == direct


def test_sweep_csv_means_are_the_cells_returned_records(tmp_path):
    out = tmp_path / "means"
    cells = run_sweep(_sweep_cfg(out, rounds=3, trials=2), alphas=[0.1, 10.0],
                      kinds=["fedswitch"])
    header, *rows = (out / "sweep.csv").read_text().splitlines()
    cols = header.split(",")
    std_col, kl_col = cols.index("trailing_accuracy_std_mean"), cols.index("kl_ratio_mean")
    assert len(rows) == len(cells) == 2
    for cell, row in zip(cells, rows):
        parts = row.split(",")
        assert len(cell.trials) == 2
        stds = [s.trailing_accuracy_std for s in cell.trials]
        ratios = [s.trailing_kl_ratio for s in cell.trials if s.trailing_kl_ratio is not None]
        assert parts[std_col] == repr(float(np.mean(stds)))
        assert parts[kl_col] == (repr(float(np.mean(ratios))) if ratios else "")
    assert any(s.trailing_kl_ratio is not None for c in cells for s in c.trials)


def test_sweep_full_grid_row_count(tmp_path):
    out = tmp_path / "grid24"
    alphas = [0.01, 0.05, 0.1, 1.0, 10.0, 100.0]
    kinds = ["fedprox_fixmatch", "ts_server_ema", "ts_client_ema", "fedswitch"]
    cells = run_sweep(_sweep_cfg(out), alphas=alphas, kinds=kinds)
    assert len(cells) == 24
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 25
    # alpha values survive the round trip through the grid csv
    got = sorted({float(l.split(",")[1]) for l in lines[1:]})
    assert got == sorted(alphas)


def test_sweep_rejects_bad_inputs(tmp_path):
    cfg = _sweep_cfg(tmp_path / "bad")
    with pytest.raises(ValueError):
        run_sweep(cfg, alphas=[], kinds=["fedswitch"])
    with pytest.raises(ValueError, match="unknown variant"):
        run_sweep(cfg, alphas=[1.0], kinds=["fedavg"])
    with pytest.raises(ValueError, match="positive"):
        run_sweep(cfg, alphas=[-0.5], kinds=["fedswitch"])
    # cells that would share a directory: alphas that both tag as alpha_0.1,
    # and a repeated variant; refused before any cell writes
    with pytest.raises(ValueError, match="share the output directory"):
        run_sweep(cfg, alphas=[0.1, 0.1000001], kinds=["fedswitch"])
    with pytest.raises(ValueError, match="share the output directory"):
        run_sweep(cfg, alphas=[1.0], kinds=["fedswitch", "ts_client_ema", "fedswitch"])
    assert not (tmp_path / "bad").exists()


def test_sweep_cells_resolve_their_own_kinds_default_alpha(tmp_path):
    # the base config leaves ema_alpha empty, so each cell's kind picks its
    # own default when it runs, not the base kind's
    defaults = {"fedprox_fixmatch": 0.999, "ts_server_ema": 0.99,
                "ts_client_ema": 0.999, "fedswitch": 0.999}
    out = tmp_path / "kinds"
    run_sweep(_sweep_cfg(out), alphas=[10.0], kinds=list(defaults))
    for kind, alpha in defaults.items():
        cell = out / kind / "alpha_10"
        assert f"\nema_alpha = {alpha!r}\n" in (cell / "config_resolved.ini").read_text()
        assert f"\nema_alpha = {alpha!r}\n" in (cell / "trial_000" / "summary.txt").read_text()
    base = parse_config_text("").variant
    assert base.kind == "fedswitch" and base.ema_alpha is None
    assert replace(base, kind="ts_server_ema").resolved_alpha == 0.99


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_sweep_rejects_a_non_finite_alpha_before_any_cell_runs(tmp_path, bad):
    cfg = _sweep_cfg(tmp_path / "bad")
    with pytest.raises(ValueError, match=f"dirichlet_alpha must be finite, got {bad}"):
        run_sweep(cfg, alphas=[0.1, bad], kinds=["fedswitch"])
    assert not (tmp_path / "bad").exists()
