"""Tests for pseudo-labeling, the combined objective, and KL diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedssl.data import AugmentConfig, strong_augment
from fedssl.nn import Batch, ModelSpec, ParamVector, finite_diff_grad, forward_probs, init_params
from fedssl.semisup import (
    KlStats,
    PseudoBatch,
    SslHyper,
    batch_label_kl,
    batch_prediction_distribution,
    combined_client_grad,
    kl_to_uniform,
    pseudo_label,
    unsupervised_loss_grad,
)

NO_AUG = AugmentConfig(0.0, 0.0, 0.0, 0.0)


# ------------------------------------------------------------- pseudo_label


def test_pseudo_label_confident_row():
    pb = pseudo_label(np.array([[0.96, 0.02, 0.02]]), tau=0.95)
    assert pb.pseudo_labels.tolist() == [0]
    assert pb.mask.tolist() == [1.0]


def test_pseudo_label_uncertain_row_masked():
    pb = pseudo_label(np.array([[0.5, 0.5]]), tau=0.95)
    assert pb.mask.tolist() == [0.0]
    assert pb.pseudo_labels.tolist() == [0]  # tie breaks low


def test_pseudo_label_tiny_tau_unmasks_all():
    probs = np.full((7, 4), 0.25)
    pb = pseudo_label(probs, tau=1e-9)
    assert pb.mask.tolist() == [1.0] * 7


@pytest.mark.parametrize("tau", [math.nan, math.inf])
def test_pseudo_label_rejects_a_non_finite_tau(tau):
    with pytest.raises(ValueError, match="tau must be finite"):
        pseudo_label(np.array([[0.96, 0.02, 0.02]]), tau=tau)


def test_pseudo_label_source_tag():
    pb = pseudo_label(np.array([[1.0, 0.0]]), tau=0.5, source="teacher")
    assert pb.source == "teacher"
    with pytest.raises(ValueError):
        pseudo_label(np.array([[1.0, 0.0]]), tau=0.5, source="oracle")


@settings(max_examples=40, deadline=None)
@given(
    tau_lo=st.floats(min_value=0.01, max_value=0.99),
    tau_hi=st.floats(min_value=0.01, max_value=0.99),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_pseudo_label_mask_monotone_in_tau(tau_lo, tau_hi, seed):
    if tau_lo > tau_hi:
        tau_lo, tau_hi = tau_hi, tau_lo
    rng = np.random.default_rng(seed)
    raw = rng.random((12, 5))
    probs = raw / raw.sum(axis=1, keepdims=True)
    lo = pseudo_label(probs, tau_lo).mask.sum()
    hi = pseudo_label(probs, tau_hi).mask.sum()
    assert hi <= lo


# ---------------------------------------------- batch_prediction_distribution


def test_prediction_distribution_collapsed():
    probs = np.tile([0.1, 0.1, 0.1, 0.7], (5, 1))
    assert np.allclose(batch_prediction_distribution(probs), [0, 0, 0, 1])


def test_prediction_distribution_uniform_over_rows():
    probs = np.eye(10)
    assert np.allclose(batch_prediction_distribution(probs), np.full(10, 0.1))


def test_prediction_distribution_counts():
    probs = np.array(
        [[0.9, 0.05, 0.05], [0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]]
    )
    assert np.allclose(batch_prediction_distribution(probs), [0.5, 0.25, 0.25])


# ------------------------------------------------------------ kl_to_uniform


def test_kl_uniform_is_zero():
    for c in (2, 5, 10):
        assert abs(kl_to_uniform(np.full(c, 1.0 / c))) < 1e-12


def test_kl_one_hot_is_ln_c():
    p = np.zeros(10)
    p[3] = 1.0
    assert abs(kl_to_uniform(p) - math.log(10)) < 1e-9
    assert abs(kl_to_uniform(p) - 2.302585) < 1e-6


def test_kl_hand_computed_anchor():
    # 0.75*ln(1.5) + 0.25*ln(0.5) = 0.13081203..
    assert abs(kl_to_uniform(np.array([0.75, 0.25])) - 0.130812) < 1e-6


def test_kl_rejects_bad_input():
    with pytest.raises(ValueError):
        kl_to_uniform(np.array([0.9, 0.2]))
    with pytest.raises(ValueError):
        kl_to_uniform(np.array([1.2, -0.2]))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), c=st.integers(min_value=2, max_value=12))
def test_kl_in_range(seed, c):
    rng = np.random.default_rng(seed)
    raw = rng.random(c) + 1e-9
    p = raw / raw.sum()
    v = kl_to_uniform(p)
    assert -1e-12 <= v <= math.log(c) + 1e-12


# ---------------------------------------------------------------- KlStats


def test_kl_stats_validation():
    with pytest.raises(ValueError):
        KlStats(dkl_teacher=-0.1, dkl_student=0.0)
    with pytest.raises(ValueError):
        KlStats(dkl_teacher=float("nan"), dkl_student=0.0)


def _skewed_probs(rng, shape):
    # a per-batch concentration makes histograms with one to all classes hit
    probs = rng.random(shape) ** rng.uniform(0.1, 40.0, size=shape[:-2] + (1, 1))
    return probs / probs.sum(axis=-1, keepdims=True)


def test_batch_label_kl_bitwise_equals_the_checked_path():
    # three rows of 600 batches each, of 1 to 12 rows, side by side on the
    # last axis; every batch against the checked per-batch path
    rng = np.random.default_rng(0)
    sizes = rng.integers(1, 13, size=600)
    probs = [[_skewed_probs(rng, (1, int(b), 10))[0] for b in sizes] for _ in range(3)]
    labels = np.stack([np.concatenate([p.argmax(axis=-1) for p in row]) for row in probs])
    kls = batch_label_kl(labels, sizes, 10)
    assert kls.shape == (3, sizes.size)
    hit = set()
    for row, row_kls in zip(probs, kls):
        for p, kl in zip(row, row_kls):
            one = batch_prediction_distribution(p)
            assert kl == kl_to_uniform(one)
            hit.add(int((one > 0).sum()))
    assert len(hit) >= 6  # rows of many nonzero counts were summed
    # a leading shape is kept, and one row alone gives its own values
    assert np.array_equal(batch_label_kl(labels.reshape(3, 1, -1), sizes, 10)[:, 0], kls)
    assert np.array_equal(batch_label_kl(labels[1], sizes, 10), kls[1])
    # the checked path's histograms of a stack are those of its slices
    stack = _skewed_probs(rng, (50, 12, 10))
    hist = batch_prediction_distribution(stack)
    for k in range(stack.shape[0]):
        assert np.array_equal(hist[k], batch_prediction_distribution(stack[k]))


def test_batch_label_kl_rejects_bad_sizes_and_labels():
    labels = np.zeros((2, 6), dtype=np.int64)
    with pytest.raises(ValueError, match="do not split"):
        batch_label_kl(labels, [4, 3], 3)
    with pytest.raises(ValueError, match="do not split"):
        batch_label_kl(labels, [6, 0], 3)
    labels[1, 2] = 3
    with pytest.raises(ValueError, match="class range"):
        batch_label_kl(labels, [4, 2], 3)


def test_pseudo_label_stack_counts_every_row():
    probs = _skewed_probs(np.random.default_rng(1), (3, 5, 4))
    pb = pseudo_label(probs, 0.6)
    assert pb.size == 15
    for k in range(3):
        one = pseudo_label(probs[k], 0.6)
        assert np.array_equal(pb.pseudo_labels[k], one.pseudo_labels)
        assert np.array_equal(pb.mask[k], one.mask)


# ------------------------------------------------- unsupervised_loss_grad


def _setup(seed=0, b=6):
    spec = ModelSpec(input_dim=4, hidden_dims=(5,), num_classes=3)
    params = init_params(spec, seed=seed)
    rng = np.random.default_rng(seed + 100)
    batch = Batch(rng.normal(size=(b, 4)), None)
    return spec, params, batch


def test_unsup_all_masked_is_zero():
    spec, params, batch = _setup()
    pseudo = PseudoBatch(np.zeros(6, dtype=np.int64), np.zeros(6), "teacher")
    loss, grad = unsupervised_loss_grad(
        params, spec, batch, pseudo, NO_AUG, np.random.default_rng(0)
    )
    assert loss == 0.0
    assert np.all(grad.values == 0.0)


def test_unsup_gradient_matches_finite_diff():
    spec, params, batch = _setup(b=5)
    pseudo = PseudoBatch(np.array([0, 1, 2, 0, 1]), np.array([1, 1, 0, 1, 1.0]), "teacher")
    # zero augmentation so the analytic and numeric passes see the same view
    _, grad = unsupervised_loss_grad(
        params, spec, batch, pseudo, NO_AUG, np.random.default_rng(0)
    )
    fd = finite_diff_grad(params, spec, batch, pseudo.pseudo_labels, pseudo.mask)
    denom = max(float(np.linalg.norm(fd.values)), 1e-12)
    assert float(np.linalg.norm(grad.values - fd.values)) / denom < 1e-4


def test_unsup_mismatched_pseudo_length():
    spec, params, batch = _setup()
    pseudo = PseudoBatch(np.zeros(3, dtype=np.int64), np.ones(3), "teacher")
    with pytest.raises(ValueError):
        unsupervised_loss_grad(params, spec, batch, pseudo, NO_AUG, np.random.default_rng(0))


def test_unsup_stop_gradient_contract():
    # with the pseudo batch held fixed, the teacher's parameters are irrelevant
    spec, params, batch = _setup()
    pseudo = PseudoBatch(np.array([0, 1, 2, 0, 1, 2]), np.ones(6), "teacher")
    _, g1 = unsupervised_loss_grad(params, spec, batch, pseudo, NO_AUG, np.random.default_rng(0))
    _, g2 = unsupervised_loss_grad(params, spec, batch, pseudo, NO_AUG, np.random.default_rng(0))
    assert np.array_equal(g1.values, g2.values)
    assert g1.values.shape == (spec.num_params,)


# ------------------------------------------------- combined_client_grad


def test_combined_reduces_to_supervised_when_unsup_off():
    spec, params, batch = _setup(b=4)
    labeled = Batch(batch.inputs, np.array([0, 1, 2, 0]))
    pseudo = PseudoBatch(np.zeros(4, dtype=np.int64), np.ones(4), "student")
    hyper = SslHyper(tau=0.95, lambda_u=0.0, mu=0.0)
    _, grad, _ = combined_client_grad(
        params, params.copy(), labeled, batch, pseudo, hyper, spec, NO_AUG,
        np.random.default_rng(1),
    )
    from fedssl.nn import loss_and_grad

    _, sup = loss_and_grad(params, spec, labeled, labeled.labels, np.ones(4))
    assert np.allclose(grad.values, sup.values, atol=1e-15)


def test_combined_proximal_zero_at_snapshot():
    spec, params, batch = _setup(b=3)
    pseudo = PseudoBatch(np.zeros(3, dtype=np.int64), np.zeros(3), "student")
    hyper = SslHyper(lambda_u=1.0, mu=5.0)
    loss, grad, _ = combined_client_grad(
        params, params.copy(), None, batch, pseudo, hyper, spec, NO_AUG,
        np.random.default_rng(1),
    )
    assert loss == 0.0
    assert np.all(grad.values == 0.0)


def test_combined_proximal_term_exact():
    spec = ModelSpec(input_dim=1, hidden_dims=(), num_classes=3)
    base = init_params(spec, 0)
    shifted = ParamVector(base.values.copy(), base.spec_hash)
    shifted.values[:3] += np.array([1.0, -1.0, 0.0])
    batch = Batch(np.zeros((2, 1)), None)
    pseudo = PseudoBatch(np.zeros(2, dtype=np.int64), np.zeros(2), "student")
    hyper = SslHyper(lambda_u=0.0, mu=2.0)
    loss, grad, _ = combined_client_grad(
        shifted, base, None, batch, pseudo, hyper, spec, NO_AUG,
        np.random.default_rng(0),
    )
    expected = np.zeros(spec.num_params)
    expected[:3] = [2.0, -2.0, 0.0]
    assert np.allclose(grad.values, expected, atol=1e-15)
    assert loss == pytest.approx(2.0, abs=1e-12)  # (mu/2)*|diff|^2 = 1*2


def test_combined_full_objective_matches_finite_diff():
    spec, params, batch = _setup(b=5)
    labeled = Batch(batch.inputs[:3], np.array([2, 0, 1]))
    pseudo = PseudoBatch(np.array([0, 1, 2, 0, 1]), np.array([1, 0, 1, 1, 1.0]), "teacher")
    hyper = SslHyper(tau=0.9, lambda_u=0.7, mu=0.3)
    snapshot = init_params(spec, seed=9)

    _, grad, _ = combined_client_grad(
        params, snapshot, labeled, batch, pseudo, hyper, spec, NO_AUG,
        np.random.default_rng(2),
    )

    from fedssl.nn import central_diff

    def objective(theta: np.ndarray) -> float:
        pv = ParamVector(theta, params.spec_hash)
        loss, _, _ = combined_client_grad(
            pv, snapshot, labeled, batch, pseudo, hyper, spec, NO_AUG,
            np.random.default_rng(2),
        )
        return loss

    fd = central_diff(objective, params.values.copy(), step=1e-5)
    denom = max(float(np.linalg.norm(fd)), 1e-12)
    assert float(np.linalg.norm(grad.values - fd)) / denom < 1e-4


def test_combined_returns_student_probs_on_the_strong_view():
    spec, params, batch = _setup(b=5)
    labeled = Batch(batch.inputs[:3], np.array([2, 0, 1]))
    pseudo = PseudoBatch(np.array([0, 1, 2, 0, 1]), np.array([1, 0, 1, 1, 1.0]), "teacher")
    aug = AugmentConfig(0.05, 0.02, 0.3, 0.3)
    _, _, probs = combined_client_grad(
        params, params.copy(), labeled, batch, pseudo, SslHyper(), spec, aug,
        np.random.default_rng(4),
    )
    # the strong view is the objective's first draw
    strong = strong_augment(batch, aug, np.random.default_rng(4))
    assert np.allclose(probs, forward_probs(params, spec, strong.inputs), rtol=0, atol=1e-12)
    _, _, probs_u = unsupervised_loss_grad(
        params, spec, batch, pseudo, aug, np.random.default_rng(4), return_probs=True
    )
    assert np.array_equal(probs_u, probs)


def test_combined_rejects_incompatible_snapshot():
    spec, params, batch = _setup(b=2)
    other = init_params(ModelSpec(input_dim=4, hidden_dims=(6,), num_classes=3), 0)
    pseudo = PseudoBatch(np.zeros(2, dtype=np.int64), np.ones(2), "student")
    with pytest.raises(ValueError):
        combined_client_grad(
            params, other, None, batch, pseudo, SslHyper(), spec, NO_AUG,
            np.random.default_rng(0),
        )


def test_hyper_validation():
    with pytest.raises(ValueError):
        SslHyper(tau=0.0)
    with pytest.raises(ValueError):
        SslHyper(tau=1.2)
    with pytest.raises(ValueError):
        SslHyper(lambda_u=-0.5)
    with pytest.raises(ValueError):
        SslHyper(mu=-0.1)
