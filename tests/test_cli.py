"""Tests for the command-line interface."""

import pytest

from fedssl.cli import main

TINY = """
[dataset]
num_classes = 3
dim = 4
train_per_class = 20
eval_per_class = 5
[shard]
num_clients = 2
labeled_per_client = 2
[training]
rounds = 2
participation_rate = 1.0
hidden_dims = 6
[run]
trials = 1
seed = 1
"""


def _write(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_validate_echoes_resolved_defaults(tmp_path, capsys):
    path = _write(tmp_path, "")
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "[training]" in out
    assert "rounds = 300" in out
    assert "ema_alpha = 0.999" in out


def test_validate_rejects_unknown_key(tmp_path, capsys):
    path = _write(tmp_path, "[training]\nlr_decayy = 0.9\n")
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert "lr_decayy" in err


def test_validate_rejects_bad_value(tmp_path, capsys):
    path = _write(tmp_path, "[shard]\ndirichlet_alpha = -1\n")
    assert main(["validate", path]) == 1
    assert "dirichlet_alpha" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["momentum = 1.5", "weight_decay = -1", "bytes_per_param = 3"])
def test_validate_rejects_what_run_rejects(tmp_path, capsys, line):
    path = _write(tmp_path, f"[training]\n{line}\n")
    assert main(["validate", path]) == 1
    assert line.split()[0] in capsys.readouterr().err


def test_missing_config_file_fails(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.ini")]) == 1
    assert "not found" in capsys.readouterr().err


def test_run_with_overrides(tmp_path, capsys):
    path = _write(tmp_path, TINY)
    out_dir = tmp_path / "cli-out"
    assert main(["run", path, "--out", str(out_dir), "--seed", "7"]) == 0
    assert (out_dir / "trial_000" / "rounds.csv").is_file()
    echoed = (out_dir / "config_resolved.ini").read_text()
    assert "seed = 7" in echoed
    assert "final accuracy" in capsys.readouterr().out


def test_trials_override_applied(tmp_path):
    path = _write(tmp_path, TINY)
    out_dir = tmp_path / "three"
    assert main(["run", path, "--out", str(out_dir), "--trials", "3"]) == 0
    assert (out_dir / "trial_002").is_dir()
    assert not (out_dir / "trial_003").exists()


def test_bad_trials_override_fails(tmp_path, capsys):
    path = _write(tmp_path, TINY)
    assert main(["run", path, "--trials", "0", "--out", str(tmp_path / "x")]) == 1
    assert "trials" in capsys.readouterr().err


def test_sweep_command(tmp_path):
    path = _write(tmp_path, TINY)
    out_dir = tmp_path / "sweep"
    code = main([
        "sweep", path, "--out", str(out_dir),
        "--alphas", "0.1", "10.0",
        "--variants", "fedprox_fixmatch", "fedswitch",
    ])
    assert code == 0
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 4


def test_sweep_rejects_unknown_variant(tmp_path, capsys):
    path = _write(tmp_path, TINY)
    with pytest.raises(SystemExit):
        main(["sweep", path, "--alphas", "1.0", "--variants", "fedavg"])
    assert "invalid choice" in capsys.readouterr().err


def test_run_propagates_trial_errors(tmp_path, capsys):
    # streaming_steps exceeding any client's pool must fail with context
    bad = TINY.replace("labeled_per_client = 2",
                       "labeled_per_client = 2\nstreaming_steps = 99")
    path = _write(tmp_path, bad, name="bad.ini")
    assert main(["run", path, "--out", str(tmp_path / "err")]) == 1
    assert "trial 0" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_run_reports_a_diverging_server_update(tmp_path, capsys):
    # labels at the server, and a learning rate that overflows its update
    bad = TINY.replace("labeled_per_client = 2",
                       "labeled_per_client = 2\nserver_holds_labels = true")
    bad = bad.replace("hidden_dims = 6",
                      "hidden_dims = 6\ntopology = labels_at_server_sequential\n"
                      "server_epochs = 3\nserver_learning_rate = 1e200")
    path = _write(tmp_path, bad, name="diverge.ini")
    assert main(["run", path, "--out", str(tmp_path / "err")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trial 0: server update: non-finite ")
    assert " at epoch " in err and " batch " in err


@pytest.mark.parametrize("section,key,text,expected", [
    ("variant", "iidness_prior", "nan", "a finite number or 'auto'"),
    ("training", "learning_rate", "nan", "a finite number"),
    ("shard", "dirichlet_alpha", "inf", "a finite number"),
])
def test_validate_rejects_a_non_finite_number(tmp_path, capsys, section, key, text, expected):
    path = _write(tmp_path, f"[{section}]\n{key} = {text}\n")
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert err == f"error: [{section}] {key}: expected {expected}, got '{text}'\n"


@pytest.mark.parametrize("label", ["inf", "nan"])
def test_run_rejects_a_non_finite_csv_label_naming_the_line(tmp_path, capsys, label):
    csv = tmp_path / "train.csv"
    csv.write_text(f"0,1.0,2.0\n1,2.0,3.0\n{label},0.5,0.5\n", encoding="utf-8")
    path = _write(tmp_path, f"[dataset]\ngenerator = csv\ncsv_path = {csv}\n"
                            f"eval_csv_path = {csv}\nnum_classes = 2\n"
                            "[shard]\nnum_clients = 1\nlabeled_per_client = 1\n")
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "line 3: non-finite" in err
