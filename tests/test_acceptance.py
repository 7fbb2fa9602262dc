"""Acceptance gate: eight end-to-end checks of the package's core claims.

Each criterion is one test; the -v test line is its pass/fail record and
the printed detail (visible with -s or on failure) carries the numbers.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from fedssl.config import parse_config_text
from fedssl.data import AugmentConfig, Dataset, ShardPlan, dirichlet_shard, gen_blobs
from fedssl.engine import RoundPlan, client_update, init_server, run_round
from fedssl.metrics import CommLedger
from fedssl.nn import (
    Batch,
    ModelSpec,
    ParamVector,
    central_diff,
    forward_probs,
    init_params,
    loss_and_grad,
)
from fedssl.rng import derive_seed
from fedssl.runner import run_experiment
from fedssl.semisup import (
    PseudoBatch,
    SslHyper,
    combined_client_grad,
    kl_to_uniform,
    pseudo_label,
    unsupervised_loss_grad,
)
from fedssl.variants import VariantConfig

NO_AUG = AugmentConfig(0.0, 0.0, 0.0, 0.0)


def _report(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS ({detail})")


# ---------------------------------------------------------------- helpers


DESK = """
[dataset]
num_classes = 10
dim = 16
train_per_class = 420
eval_per_class = 50
spread = 0.5
[shard]
num_clients = 20
dirichlet_alpha = {alpha}
labeled_per_client = 10
streaming_steps = {streaming}
[variant]
kind = {kind}
ema_alpha = 0.9
iidness_prior = {beta}
[training]
rounds = 300
participation_rate = 0.25
local_epochs = 1
labeled_batch_size = 32
unlabeled_batch_size = 64
learning_rate = 0.1
tau = 0.6
lambda_u = {lam}
mu = 0.001
hidden_dims = 32
[augment]
weak_noise_sigma = 0.05
weak_shift_fraction = 0.02
strong_noise_sigma = 0.15
strong_mask_prob = 0.2
[run]
trials = 3
seed = 0
output = {out}
"""


def _desk_cfg(out, kind, lam=2.0, alpha="100.0", streaming=0, beta="0.0"):
    return parse_config_text(DESK.format(
        out=out, kind=kind, lam=lam, alpha=alpha, streaming=streaming, beta=beta))


@pytest.fixture(scope="module")
def desk_iid(tmp_path_factory):
    """Criterion 5 runs: supervised-only, FedProx-FixMatch, FedSwitch."""
    root = tmp_path_factory.mktemp("desk_iid")
    t0 = time.time()
    out = {}
    for name, kind, lam in (("supervised", "fedprox_fixmatch", 0.0),
                            ("fpf", "fedprox_fixmatch", 2.0),
                            ("fedswitch", "fedswitch", 2.0)):
        out[name] = run_experiment(_desk_cfg(root / name, kind, lam=lam))
    return out, time.time() - t0


@pytest.fixture(scope="module")
def desk_noniid(tmp_path_factory):
    """Criterion 6 runs: FedSwitch vs TS-Server EMA at dirichlet alpha 0.05."""
    root = tmp_path_factory.mktemp("desk_noniid")
    out = {}
    for name, kind, beta in (("fedswitch", "fedswitch", "auto"),
                             ("ts_server", "ts_server_ema", "0.0")):
        out[name] = run_experiment(_desk_cfg(root / name, kind, alpha="0.05", beta=beta))
    return out


@pytest.fixture(scope="module")
def desk_streaming(tmp_path_factory):
    """Criterion 7 runs: smoothing comparison under streaming non-IID data."""
    root = tmp_path_factory.mktemp("desk_streaming")
    out = {}
    for name, kind, beta in (("fpf", "fedprox_fixmatch", "0.0"),
                             ("ts_client", "ts_client_ema", "0.0"),
                             ("fedswitch", "fedswitch", "auto")):
        out[name] = run_experiment(_desk_cfg(root / name, kind, alpha="0.1",
                                             streaming=10, beta=beta))
    return out


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / scale))


# --------------------------------------------------------------- criteria


def test_criterion_1_gradient_oracle():
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(20):
        d = int(rng.integers(2, 9))
        h = int(rng.integers(2, 9))
        c = int(rng.integers(2, 9))
        n = int(rng.integers(2, 5))
        spec = ModelSpec(input_dim=d, hidden_dims=(h,), num_classes=c)
        params = init_params(spec, trial)
        x = rng.normal(size=(n, d))
        labels = rng.integers(0, c, size=n)

        def at(values: np.ndarray) -> ParamVector:
            return ParamVector(values, params.spec_hash)

        # supervised term
        batch = Batch(x, labels)
        targets = labels.astype(np.int64)
        ones = np.ones(n, dtype=np.float64)
        _, g = loss_and_grad(params, spec, batch, targets, ones)
        fd = central_diff(
            lambda v: loss_and_grad(at(v), spec, batch, targets, ones)[0],
            params.values, step=1e-5)
        worst = max(worst, _rel_err(g.values, fd))

        # unsupervised term with a partial confidence mask
        u_batch = Batch(x, None)
        mask = (rng.random(n) < 0.7).astype(np.float64)
        pseudo = PseudoBatch(rng.integers(0, c, size=n).astype(np.int64), mask, "teacher")
        _, g = unsupervised_loss_grad(params, spec, u_batch, pseudo, NO_AUG,
                                      np.random.default_rng(1))
        fd = central_diff(
            lambda v: unsupervised_loss_grad(at(v), spec, u_batch, pseudo, NO_AUG,
                                             np.random.default_rng(1))[0],
            params.values, step=1e-5)
        worst = max(worst, _rel_err(g.values, fd))

        # proximal term alone
        snapshot = init_params(spec, trial + 100)
        mu = 0.37
        analytic = mu * (params.values - snapshot.values)
        fd = central_diff(
            lambda v: 0.5 * mu * float(np.sum((v - snapshot.values) ** 2)),
            params.values, step=1e-5)
        worst = max(worst, _rel_err(analytic, fd))

    elapsed = time.time() - t0
    assert worst < 1e-4
    assert elapsed < 10.0
    _report(1, f"20 instances, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_kl_unit_anchors():
    c = 10
    one_hot = np.zeros(c)
    one_hot[3] = 1.0
    err_hot = abs(kl_to_uniform(one_hot) - math.log(10))
    err_uni = abs(kl_to_uniform(np.full(c, 0.1)))
    assert err_hot < 1e-9
    assert err_uni < 1e-12
    _report(2, f"one-hot err {err_hot:.1e}, uniform err {err_uni:.1e}")


def test_criterion_3_reduction_equivalence():
    t0 = time.time()
    spec = ModelSpec(input_dim=8, hidden_dims=(6,), num_classes=5)
    ds = gen_blobs(5, 8, 80, 0.4, seed=0)
    plan = ShardPlan(num_clients=10, dirichlet_alpha=10.0, labeled_per_client=4, seed=1)
    shards = dirichlet_shard(ds, plan).shards
    eval_ds = gen_blobs(5, 8, 10, 0.4, seed=9)
    hyper = SslHyper(tau=0.6, lambda_u=1.0, mu=0.001)
    aug = AugmentConfig(0.05, 0.02, 0.15, 0.2)
    # one optimizer step per round so the frozen teacher equals the live
    # student at the only moment pseudo-labels are drawn
    rp = RoundPlan(num_clients=10, participation_rate=0.5, local_epochs=1,
                   server_epochs=0, topology="labels_at_client",
                   labeled_batch_size=64, unlabeled_batch_size=512,
                   learning_rate=0.1)

    rounds = 60
    diffs = []
    states = {}
    for kind, alpha in (("ts_server_ema", 0.0), ("fedprox_fixmatch", 0.999)):
        variant = VariantConfig(kind, ema_alpha=alpha)
        server = init_server(spec, variant, seed=3)
        ledger = CommLedger()
        history = []
        for _ in range(rounds):
            server, _ = run_round(server, shards, variant, rp, hyper, spec,
                                  aug, ds, eval_ds, base_seed=7, ledger=ledger)
            history.append(server.global_student.values.copy())
        states[kind] = history
    for a, b in zip(states["ts_server_ema"], states["fedprox_fixmatch"]):
        diffs.append(float(np.max(np.abs(a - b))))
    elapsed = time.time() - t0
    assert max(diffs) < 1e-12
    assert elapsed < 60.0
    _report(3, f"{rounds} rounds, max per-round param diff {max(diffs):.1e}, "
               f"{elapsed:.1f}s")


def test_criterion_4_communication_ledger():
    spec = ModelSpec(input_dim=4, hidden_dims=(5,), num_classes=3)
    ds = gen_blobs(3, 4, 120, 0.4, seed=0)
    plan = ShardPlan(num_clients=20, dirichlet_alpha=10.0, labeled_per_client=2, seed=2)
    shards = dirichlet_shard(ds, plan).shards
    eval_ds = gen_blobs(3, 4, 10, 0.4, seed=9)
    hyper = SslHyper(tau=0.6, lambda_u=1.0, mu=0.001)
    aug = AugmentConfig(0.05, 0.02, 0.15, 0.2)
    rp = RoundPlan(num_clients=20, participation_rate=0.25, local_epochs=1,
                   server_epochs=0, topology="labels_at_client",
                   labeled_batch_size=8, unlabeled_batch_size=8,
                   learning_rate=0.1)
    assert rp.clients_per_round == 5

    expected_uplink = {"fedprox_fixmatch": 100, "ts_server_ema": 100,
                       "fedswitch": 100, "ts_client_ema": 200}
    details = []
    for kind, want in expected_uplink.items():
        variant = VariantConfig(kind, ema_alpha=0.9)
        server = init_server(spec, variant, seed=5)
        ledger = CommLedger()
        reports = []
        for _ in range(20):
            server, rep = run_round(server, shards, variant, rp, hyper, spec,
                                    aug, ds, eval_ds, base_seed=11, ledger=ledger)
            reports.append(rep)
        got = ledger.model_count("uplink")
        assert got == want, f"{kind}: uplink {got} != {want}"
        if kind == "fedswitch":
            down = ledger.model_count("downlink")
            teacher_rounds = sum(1 for r in reports if r.send_teacher)
            assert 100 <= down <= 200
            assert down == 100 + 100 * teacher_rounds // 20
            assert down == 100 + 5 * teacher_rounds
            details.append(f"fedswitch downlink {down} from {teacher_rounds} teacher rounds")
        details.append(f"{kind} uplink {got}")
    _report(4, "; ".join(details))


def test_criterion_5_desk_scale_learning(desk_iid):
    runs, elapsed = desk_iid
    means = {k: float(np.mean([s.final_accuracy for s in v]))
             for k, v in runs.items()}
    gain = means["fedswitch"] - means["supervised"]
    vs_fpf = means["fedswitch"] - means["fpf"]
    assert gain >= 0.05, f"gain over supervised-only {gain:+.4f} < +0.05"
    assert vs_fpf >= -0.01, f"vs FedProx-FixMatch {vs_fpf:+.4f} < -0.01"
    assert elapsed < 300.0
    _report(5, f"supervised {means['supervised']:.3f}, fpf {means['fpf']:.3f}, "
               f"fedswitch {means['fedswitch']:.3f}; gain {gain:+.3f}, "
               f"vs fpf {vs_fpf:+.3f}, {elapsed:.0f}s")


def test_criterion_6_noniid_kl_ratio_ordering(desk_noniid):
    devs = {}
    for name, summaries in desk_noniid.items():
        assert all(s.trailing_kl_ratio is not None for s in summaries)
        devs[name] = float(np.mean([abs(1.0 - s.trailing_kl_ratio) for s in summaries]))
    assert devs["fedswitch"] < devs["ts_server"]
    _report(6, f"|1-ratio| fedswitch {devs['fedswitch']:.4f} < "
               f"ts_server {devs['ts_server']:.4f}")


def test_criterion_7_streaming_smoothing(desk_streaming):
    stds = {name: [s.trailing_accuracy_std for s in summaries]
            for name, summaries in desk_streaming.items()}
    wins = {}
    for variant in ("ts_client", "fedswitch"):
        wins[variant] = sum(1 for a, b in zip(stds[variant], stds["fpf"]) if a <= b)
        assert wins[variant] >= 2, f"{variant} smoother in only {wins[variant]}/3 trials"
    _report(7, f"trailing-std wins vs fpf: ts_client {wins['ts_client']}/3, "
               f"fedswitch {wins['fedswitch']}/3")


def test_criterion_8_determinism_and_statelessness(tmp_path):
    cfg_text = """
[dataset]
num_classes = 3
dim = 4
train_per_class = 30
eval_per_class = 10
[shard]
num_clients = 3
labeled_per_client = 3
[variant]
kind = fedswitch
ema_alpha = 0.9
[training]
rounds = 3
participation_rate = 1.0
hidden_dims = 8
[run]
trials = 2
seed = 5
output = {out}
"""
    out = tmp_path / "det"
    cfg = parse_config_text(cfg_text.format(out=out))
    run_experiment(cfg)
    files = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    run_experiment(parse_config_text(cfg_text.format(out=out)))
    again = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    assert files == again and len(files) > 0

    # stateless client: two identical invocations, identical products
    spec = ModelSpec(input_dim=4, hidden_dims=(8,), num_classes=3)
    ds = gen_blobs(3, 4, 30, 0.4, seed=0)
    shards = dirichlet_shard(ds, ShardPlan(3, 10.0, 3, seed=1)).shards
    downlink = {"student": init_params(spec, 0), "teacher": init_params(spec, 1)}
    rp = RoundPlan(num_clients=3, participation_rate=1.0, local_epochs=2,
                   server_epochs=0, topology="labels_at_client",
                   labeled_batch_size=4, unlabeled_batch_size=8,
                   learning_rate=0.1)
    args = (shards[1], downlink, VariantConfig("ts_client_ema", 0.9), rp,
            SslHyper(0.6, 1.0, 0.001), spec, AugmentConfig(0.05, 0.02, 0.15, 0.2),
            ds)
    a = client_update(*args, seed=13, round=2)
    b = client_update(*args, seed=13, round=2)
    assert np.array_equal(a.delta.values, b.delta.values)
    assert np.array_equal(a.teacher_delta.values, b.teacher_delta.values)
    assert np.array_equal(a.kl, b.kl)
    _report(8, f"{len(files)} files byte-identical; double-invoke identical")
