"""Pseudo-labeling, confidence masking, the combined objective, and
KL-to-uniform diagnostics.

The per-batch prediction distribution is the hard argmax histogram, so a
fully collapsed batch reaches the ln(C) upper bound and a class-balanced
batch reaches 0. Clients report the mean over their local batches; they
store each batch's hard labels, and batch_label_kl makes every batch's
statistic of a participation at once, bitwise equal to
kl_to_uniform(batch_prediction_distribution(probs)) batch by batch.

Every per-batch function also takes a [K, B, ...] stack of K client batches
(with [K, P] parameters and one generator per client) and returns per-client
results that are bitwise those of K separate calls. pseudo_label and the
objective functions also take an optional nn.Workspace; given one, their
array results live in it under the function's name (see nn).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import AugmentConfig, strong_augment, weak_augment
from .nn import SCRATCH, Batch, ModelSpec, ParamVector, Workspace, loss_and_grad


@dataclass
class PseudoBatch:
    """Hard labels with a confidence mask and the model role that made them;
    [B] for one batch or [K, B] for a stack.
    """

    pseudo_labels: np.ndarray
    mask: np.ndarray
    source: str

    def __post_init__(self) -> None:
        self.pseudo_labels = np.asarray(self.pseudo_labels, dtype=np.int64)
        self.mask = np.asarray(self.mask, dtype=np.float64)
        if self.pseudo_labels.shape != self.mask.shape:
            raise ValueError("pseudo_labels and mask must have equal length")
        if not np.all((self.mask == 0.0) | (self.mask == 1.0)):
            raise ValueError("mask entries must be 0 or 1")
        if self.source not in ("teacher", "student"):
            raise ValueError(f"unknown pseudo-label source {self.source!r}")

    @property
    def size(self) -> int:
        """Rows labeled, summed over the slices of a stack."""
        return self.pseudo_labels.size


@dataclass
class SslHyper:
    """Semi-supervised and proximal hyper-parameters."""

    tau: float = 0.95
    lambda_u: float = 1.0
    mu: float = 0.001

    def __post_init__(self) -> None:
        for name in ("tau", "lambda_u", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if self.lambda_u < 0:
            raise ValueError("lambda_u must be non-negative")
        if self.mu < 0:
            raise ValueError("mu must be non-negative")


@dataclass
class KlStats:
    """Mean KL-to-uniform of per-batch prediction distributions."""

    dkl_teacher: float
    dkl_student: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dkl_teacher) and math.isfinite(self.dkl_student)):
            raise ValueError("KL statistics must be finite")
        if self.dkl_teacher < 0 or self.dkl_student < 0:
            raise ValueError("KL statistics must be non-negative")


def pseudo_label(probs: np.ndarray, tau: float, source: str = "student",
                 workspace: Workspace | None = None) -> PseudoBatch:
    """Argmax labels (ties to the lowest class) masked at confidence tau."""
    probs = _check_probs(probs)
    ws = Workspace() if workspace is None else workspace
    rows = probs.shape[:-1]
    labels = probs.argmax(axis=-1, out=ws.take("pseudo_label.labels", rows, np.int64))
    mask = probs.max(axis=-1, out=ws.take("pseudo_label.mask", rows))
    np.greater_equal(mask, tau, out=mask)
    return PseudoBatch(labels, mask, source=source)


def _check_probs(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim not in (2, 3) or probs.shape[-2] < 1:
        raise ValueError(f"probs must be [B >= 1, C] or a stack of them, got {probs.shape}")
    return probs


def batch_prediction_distribution(probs: np.ndarray) -> np.ndarray:
    """Normalized histogram of hard argmax predictions over a batch; [C], or
    [K, C] for a [K, B, C] stack.
    """
    probs = _check_probs(probs)
    batch, num_classes = probs.shape[-2:]
    labels = probs.argmax(axis=-1).reshape(-1, batch)
    return _histograms(labels, np.array([batch]), num_classes).reshape(
        probs.shape[:-2] + (num_classes,))


def _histograms(labels: np.ndarray, sizes: np.ndarray, num_classes: int) -> np.ndarray:
    """Normalized histograms [R, J, C] of the labels [R, N]: each row holds
    J consecutive batches of the given sizes. One integer bincount counts
    every batch of every row: row r's batch j counts into bins
    [(r*J + j)*C, (r*J + j + 1)*C), so the counts are exact.
    """
    rows, n_batches = labels.shape[0], sizes.size
    batch_of = np.repeat(np.arange(n_batches), sizes)
    first_bin = (np.arange(rows)[:, None] * n_batches + batch_of) * num_classes
    counts = np.bincount((first_bin + labels).ravel(), minlength=rows * n_batches * num_classes)
    return counts.reshape(rows, n_batches, num_classes) / sizes[:, None]


def _kl_rows(p: np.ndarray) -> np.ndarray:
    """sum_c p_c ln(p_c C) over the nonzero entries of each row of p.

    Rows are summed over their nonzero entries only, as a 1-D sum of those
    entries would be: a zero-padded row sum differs in the last bit. Rows
    with equal nonzero counts are summed together, each along its own row.
    The distinct counts come from a bincount: np.unique would import
    numpy.ma, about 1 MB of resident memory, on its first call.
    """
    num_classes = p.shape[-1]
    flat = p.reshape(-1, num_classes)
    nonzero = flat > 0
    per_row = nonzero.sum(axis=1)
    out = np.empty(flat.shape[0])
    for n in np.flatnonzero(np.bincount(per_row)):
        rows = per_row == n
        sub = flat[rows]
        nz = sub[nonzero[rows]].reshape(-1, n)
        out[rows] = np.sum(nz * np.log(nz * num_classes), axis=1)
    return out.reshape(p.shape[:-1])


def kl_to_uniform(p: np.ndarray) -> float:
    """D_KL(p || uniform) = sum_c p_c ln(p_c C), with 0 ln 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("p must be a 1-D probability vector")
    if np.any(p < 0):
        raise ValueError("probabilities must be non-negative")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {total!r}")
    nz = p[p > 0]
    return float(np.sum(nz * np.log(nz * p.size)))


def batch_label_kl(labels: np.ndarray, batch_sizes: Sequence[int],
                   num_classes: int) -> np.ndarray:
    """KL-to-uniform of the hard-label histogram of every batch, counted
    with one integer bincount.

    labels [..., N] holds, along its last axis, consecutive batches of the
    given sizes; the result [..., n_batches] is, batch by batch, bitwise
    kl_to_uniform(batch_prediction_distribution(probs)) of the probabilities
    whose argmax the labels are. The histograms are distributions by
    construction, so they are not re-checked.
    """
    labels = np.asarray(labels, dtype=np.int64)
    sizes = np.asarray(batch_sizes, dtype=np.int64)
    if sizes.ndim != 1 or np.any(sizes < 1) or sizes.sum() != labels.shape[-1]:
        raise ValueError(f"batch sizes {sizes.tolist()} do not split {labels.shape[-1]} labels")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of class range")
    hist = _histograms(labels.reshape(-1, labels.shape[-1]), sizes, num_classes)
    return _kl_rows(hist).reshape(labels.shape[:-1] + (sizes.size,))


def unsupervised_loss_grad(
    student_params: ParamVector,
    spec: ModelSpec,
    unlabeled_batch: Batch,
    pseudo: PseudoBatch,
    cfg: AugmentConfig,
    rng: np.random.Generator | Sequence[np.random.Generator],
    return_probs: bool = False,
    workspace: Workspace | None = None,
) -> tuple[float, ParamVector] | tuple[float, ParamVector, np.ndarray]:
    """Masked cross-entropy of the student on the strong view against fixed
    pseudo-labels. The pseudo-label source gets no gradient: labels and mask
    enter as constants.

    With return_probs, also returns the student's probabilities on the
    strong view, as loss_and_grad does.
    """
    if pseudo.pseudo_labels.shape != unlabeled_batch.inputs.shape[:-1]:
        raise ValueError("pseudo batch length must match unlabeled batch")
    strong = strong_augment(unlabeled_batch, cfg, rng, workspace=workspace)
    return loss_and_grad(student_params, spec, strong, pseudo.pseudo_labels, pseudo.mask,
                         return_probs=return_probs, workspace=workspace)


def combined_client_grad(
    student_params: ParamVector,
    server_snapshot: ParamVector,
    labeled_batch: Batch | None,
    unlabeled_batch: Batch,
    pseudo: PseudoBatch,
    hyper: SslHyper,
    spec: ModelSpec,
    cfg: AugmentConfig,
    rng: np.random.Generator | Sequence[np.random.Generator],
    workspace: Workspace | None = None,
) -> tuple[float, ParamVector, np.ndarray]:
    """Full local objective: supervised CE (when labels are present) plus
    lambda_u-weighted unsupervised CE plus the exact proximal pull toward
    the server snapshot.

    Returns (loss, grad, strong_probs): strong_probs are the student's
    probabilities on the strong view of the unlabeled batch, from the
    forward pass the unsupervised term already ran. For a stack of K
    clients (student [K, P], batches [K, B, d], one generator per client)
    the loss is a [K] array and grad a [K, P] stack; the snapshot may be a
    single [P] vector shared by all K. With a workspace, grad lives in it
    under combined_client_grad and strong_probs under loss_and_grad.probs
    (see loss_and_grad); the proximal difference is made in its scratch
    arena. engine.lockstep_update runs the same float operations in its
    planned pass; this function is the one-client API and its oracle.

    Consumes each rng in a fixed order (strong view first, then the labeled
    weak view) so call sites line up across variants.
    """
    student_params.check_compatible(server_snapshot)
    ws = Workspace() if workspace is None else workspace
    loss_u, grad_u, strong_probs = unsupervised_loss_grad(
        student_params, spec, unlabeled_batch, pseudo, cfg, rng, return_probs=True, workspace=ws
    )
    total = hyper.lambda_u * loss_u
    # the unsupervised gradient is scaled out of loss_and_grad's buffer
    # before the supervised pass reuses it
    grad = np.multiply(grad_u.values, hyper.lambda_u,
                       out=ws.take("combined_client_grad", grad_u.values.shape))
    if labeled_batch is not None:
        if labeled_batch.labels is None:
            raise ValueError("labeled batch must carry labels")
        weak = weak_augment(labeled_batch, cfg, rng, workspace=ws)
        loss_s, grad_s = loss_and_grad(
            student_params, spec, weak, weak.labels,
            np.ones(weak.labels.shape, dtype=np.float64), workspace=ws,
        )
        total += loss_s
        grad += grad_s.values
    if hyper.mu > 0:
        diff = np.subtract(student_params.values, server_snapshot.values,
                           out=ws.take(SCRATCH, grad.shape))
        # the row-vector product is the dot product of each slice
        total += 0.5 * hyper.mu * (diff[..., None, :] @ diff[..., :, None])[..., 0, 0]
        diff *= hyper.mu
        grad += diff
    total = float(total) if np.ndim(total) == 0 else total
    return total, ParamVector(grad, student_params.spec_hash), strong_probs
