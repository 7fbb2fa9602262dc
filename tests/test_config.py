"""Tests for strict config parsing and default materialization."""

import configparser
import re
from pathlib import Path

import pytest

from fedssl.config import (
    ExperimentConfig,
    parse_config,
    parse_config_text,
    resolved_ini,
)
from fedssl.data import AugmentConfig, ShardPlan
from fedssl.engine import RoundPlan, init_server
from fedssl.nn import ModelSpec
from fedssl.semisup import SslHyper
from fedssl.variants import VariantConfig

NAN, INF = float("nan"), float("inf")
README = Path(__file__).resolve().parent.parent / "README.md"


def test_minimal_config_fully_defaulted():
    cfg = parse_config_text("")
    assert cfg.dataset.generator == "blobs"
    assert cfg.dataset.num_classes == 10
    assert cfg.shard.num_clients == 20
    assert cfg.shard.dirichlet_alpha == 100.0
    assert cfg.variant.kind == "fedswitch"
    assert cfg.variant.ema_alpha is None
    assert cfg.variant.resolved_alpha == 0.999
    assert cfg.training.rounds == 300
    assert cfg.training.topology == "labels_at_client"
    assert cfg.trials == 1
    assert cfg.seed == 0


def test_unknown_key_named():
    with pytest.raises(ValueError, match="lr_decayy"):
        parse_config_text("[training]\nlr_decayy = 0.9\n")


def test_unknown_section_rejected():
    with pytest.raises(ValueError, match=r"\[modle\]"):
        parse_config_text("[modle]\nhidden = 3\n")


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nseed = 3\n",
    "[DEFAULT]\nseed = 3\n[dataset]\ndim = 4\n",
])
def test_default_section_rejected(text):
    with pytest.raises(ValueError, match=r"^unknown section \[DEFAULT\]$"):
        parse_config_text(text)


def test_negative_dirichlet_alpha_rejected():
    with pytest.raises(ValueError, match="dirichlet_alpha"):
        parse_config_text("[shard]\ndirichlet_alpha = -1\n")


@pytest.mark.parametrize("key,value", [
    ("momentum", "1.5"),
    ("momentum", "-0.1"),
    ("weight_decay", "-1"),
    ("bytes_per_param", "3"),
])
def test_training_range_rejected_at_parse(key, value):
    with pytest.raises(ValueError, match=key):
        parse_config_text(f"[training]\n{key} = {value}\n")


def test_type_mismatch_names_path():
    with pytest.raises(ValueError, match=r"\[training\] rounds"):
        parse_config_text("[training]\nrounds = ten\n")
    with pytest.raises(ValueError, match=r"\[shard\] server_holds_labels"):
        parse_config_text("[shard]\nserver_holds_labels = maybe\n")


def test_hidden_dims_parsing():
    cfg = parse_config_text("[training]\nhidden_dims = 64, 32\n")
    assert cfg.training.hidden_dims == (64, 32)
    cfg = parse_config_text("[training]\nhidden_dims = 16\n")
    assert cfg.training.hidden_dims == (16,)


def test_ema_alpha_defaults_per_kind():
    # the teacherless kind ignores the value but still echoes one
    defaults = {"fedprox_fixmatch": 0.999, "ts_server_ema": 0.99,
                "ts_client_ema": 0.999, "fedswitch": 0.999}
    for kind, alpha in defaults.items():
        cfg = parse_config_text(f"[variant]\nkind = {kind}\n")
        assert cfg.variant.resolved_alpha == alpha
        assert f"\nema_alpha = {alpha!r}\n" in resolved_ini(cfg)
        assert VariantConfig(kind).resolved_alpha == alpha
    explicit = parse_config_text("[variant]\nkind = ts_server_ema\nema_alpha = 0.5\n")
    assert explicit.variant.resolved_alpha == 0.5
    assert VariantConfig("ts_server_ema", 0.5).resolved_alpha == 0.5


def test_iidness_prior_auto_and_number():
    assert parse_config_text("[variant]\niidness_prior = auto\n").variant.iidness_prior == "auto"
    assert parse_config_text("[variant]\niidness_prior = 1.5\n").variant.iidness_prior == 1.5
    with pytest.raises(ValueError, match="iidness_prior"):
        parse_config_text("[variant]\niidness_prior = high\n")


@pytest.mark.parametrize("section,key,text", [
    ("training", "learning_rate", "nan"),
    ("training", "mu", "nan"),
    ("training", "lambda_u", "inf"),
    ("training", "tau", "-inf"),
    ("shard", "dirichlet_alpha", "nan"),
    ("dataset", "spread", "nan"),
    ("augment", "weak_noise_sigma", "nan"),
    ("variant", "ema_alpha", "nan"),
    ("variant", "iidness_prior", "nan"),
    ("variant", "iidness_prior", "Infinity"),
    ("run", "accuracy_threshold", "1e999"),  # float() overflows it to inf
])
def test_non_finite_numbers_rejected_at_parse(section, key, text):
    # NaN compares false with every range check, and would pass them
    with pytest.raises(ValueError,
                       match=rf"^\[{section}\] {key}: expected a finite number.*, got '{text}'$"):
        parse_config_text(f"[{section}]\n{key} = {text}\n")


def test_finite_numbers_and_auto_still_parse():
    cfg = parse_config_text("[variant]\niidness_prior = AUTO\n[training]\nmu = 1e-300\n")
    assert cfg.variant.iidness_prior == "auto"
    assert cfg.training.mu == 1e-300


def _round_plan(**overrides):
    return RoundPlan(num_clients=10, participation_rate=0.5, local_epochs=1, server_epochs=0,
                     topology="labels_at_client", **overrides)


@pytest.mark.parametrize("build,field", [
    (lambda: _round_plan(learning_rate=NAN), "learning_rate"),
    (lambda: _round_plan(learning_rate=INF), "learning_rate"),
    (lambda: _round_plan(server_learning_rate=NAN), "server_learning_rate"),
    (lambda: _round_plan(server_learning_rate=INF), "server_learning_rate"),
    (lambda: _round_plan(weight_decay=NAN), "weight_decay"),
    (lambda: _round_plan(weight_decay=INF), "weight_decay"),
    (lambda: VariantConfig("fedswitch", 0.9, NAN), "iidness_prior"),
    (lambda: VariantConfig("fedswitch", 0.9, INF), "iidness_prior"),
    (lambda: SslHyper(0.9, NAN, NAN), "lambda_u"),
    (lambda: SslHyper(0.9, INF, 0.0), "lambda_u"),
    (lambda: SslHyper(0.9, 1.0, NAN), "mu"),
    (lambda: SslHyper(0.9, 1.0, INF), "mu"),
    (lambda: AugmentConfig(NAN, 0, 0, 0), "weak_noise_sigma"),
    (lambda: AugmentConfig(0.05, 0.02, NAN, 0.2), "strong_noise_sigma"),
    (lambda: AugmentConfig(0.05, 0.02, INF, 0.2), "strong_noise_sigma"),
    (lambda: ShardPlan(10, NAN, 1), "dirichlet_alpha"),
    (lambda: ShardPlan(10, INF, 1), "dirichlet_alpha"),
])
def test_engine_side_configs_reject_non_finite_numbers(build, field):
    # built directly, past the parser; each would pass every range check
    with pytest.raises(ValueError, match=rf"^{field} must be finite, got (nan|inf)$"):
        build()


def test_engine_side_configs_reject_what_the_parser_would():
    # built directly, past the parser, with the messages an INI file gets
    with pytest.raises(ValueError, match=r"^streaming_steps must be >= 0 \(0 disables"):
        ShardPlan(streaming_steps=-1)
    with pytest.raises(ValueError, match="^iidness_prior must be a number or 'auto'$"):
        VariantConfig(iidness_prior="high")
    # 'auto' is resolved per trial; a run handed it unresolved is refused
    # before the switch rule would compare a number with it
    spec = ModelSpec(input_dim=2, hidden_dims=(3,), num_classes=2)
    with pytest.raises(ValueError, match="iidness_prior 'auto' must be resolved"):
        init_server(spec, VariantConfig(iidness_prior="auto"), seed=0)


def test_topology_placement_consistency():
    with pytest.raises(ValueError, match="placement"):
        parse_config_text("[training]\ntopology = labels_at_server_sequential\n")
    with pytest.raises(ValueError, match="placement"):
        parse_config_text("[shard]\nserver_holds_labels = true\n")
    cfg = parse_config_text(
        "[training]\ntopology = labels_at_server_parallel\n"
        "[shard]\nserver_holds_labels = true\n"
    )
    assert cfg.shard.server_holds_labels is True


def test_csv_generator_requires_paths():
    with pytest.raises(ValueError, match="csv_path"):
        parse_config_text("[dataset]\ngenerator = csv\n")


def test_bad_topology_rejected():
    with pytest.raises(ValueError, match="topology"):
        parse_config_text("[training]\ntopology = ring\n")


def test_effective_window():
    assert parse_config_text("[training]\nrounds = 300\n").effective_window == 37
    assert parse_config_text("[training]\nrounds = 4\n").effective_window == 1
    cfg = parse_config_text("[training]\nrounds = 100\n[run]\nstability_window = 10\n")
    assert cfg.effective_window == 10


def test_resolved_ini_round_trip():
    src = (
        "[variant]\nkind = ts_server_ema\n"
        "[training]\nrounds = 40\nlearning_rate = 0.05\n"
        "[run]\ntrials = 2\nseed = 9\n"
    )
    cfg = parse_config_text(src)
    echoed = resolved_ini(cfg)
    again = parse_config_text(echoed)
    # the echo materializes the per-kind alpha; everything else survives intact
    assert again.variant.ema_alpha == cfg.variant.resolved_alpha == 0.99
    assert again.training == cfg.training
    assert again.dataset == cfg.dataset
    assert again.shard == cfg.shard
    assert again.augment == cfg.augment
    assert (again.trials, again.seed, again.output) == (2, 9, cfg.output)
    assert resolved_ini(again) == echoed


def test_paper_alpha_set_round_trips():
    alphas = (0.01, 0.05, 0.1, 1.0, 10.0, 100.0)
    for a in alphas:
        cfg = parse_config_text(f"[shard]\ndirichlet_alpha = {a!r}\n")
        assert cfg.shard.dirichlet_alpha == a
        assert parse_config_text(resolved_ini(cfg)).shard.dirichlet_alpha == a


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ValueError, match="not found"):
        parse_config(tmp_path / "missing.ini")


def test_parse_config_reads_file(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("[run]\ntrials = 3\n", encoding="utf-8")
    assert parse_config(p).trials == 3


def test_parse_config_skips_a_byte_order_mark(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("[run]\ntrials = 3\n", encoding="utf-8-sig")
    assert p.read_bytes().startswith(b"\xef\xbb\xbf")
    assert parse_config(p).trials == 3


def _readme_config_keys() -> set[str]:
    """The `section.key` pairs of the tables under README's Config reference."""
    text = README.read_text(encoding="utf-8")
    body = text.split("\n## Config reference\n", 1)[1].split("\n## ", 1)[0]
    keys, section = set(), None
    for line in body.splitlines():
        if not line.startswith("|"):
            section = None
            continue
        first = line.split("|")[1].strip()
        header = re.fullmatch(r"`\[(\w+)\]`", first)
        if header:
            section = header.group(1)
        elif section:
            keys.update(f"{section}.{key}" for key in re.findall(r"`(\w+)`", first))
    return keys


def test_readme_config_tables_are_the_parsers_keys():
    parser = configparser.ConfigParser()
    parser.read_string(resolved_ini(parse_config_text("")))
    written = {f"{section}.{key}" for section in parser.sections() for key in parser[section]}
    documented = _readme_config_keys()
    assert len(written) == 43
    assert documented - written == set()
    assert written - documented == set()


def test_trials_must_be_positive():
    with pytest.raises(ValueError, match="trials"):
        parse_config_text("[run]\ntrials = 0\n")


def test_duplicate_key_rejected():
    with pytest.raises(ValueError, match="syntax"):
        parse_config_text("[run]\nseed = 1\nseed = 2\n")
