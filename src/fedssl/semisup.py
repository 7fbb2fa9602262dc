"""Pseudo-labeling, confidence masking, the combined objective, and
KL-to-uniform diagnostics.

The per-batch prediction distribution is the hard argmax histogram, so a
fully collapsed batch reaches the ln(C) upper bound and a class-balanced
batch reaches 0. Clients report the mean over their local batches; the raw
sum is recoverable from num_batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import AugmentConfig, strong_augment, weak_augment
from .nn import Batch, ModelSpec, ParamVector, loss_and_grad


@dataclass
class PseudoBatch:
    """Hard labels with a confidence mask and the model role that made them."""

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
        return self.pseudo_labels.shape[0]


@dataclass
class SslHyper:
    """Semi-supervised and proximal hyper-parameters."""

    tau: float = 0.95
    lambda_u: float = 1.0
    mu: float = 0.001

    def __post_init__(self) -> None:
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
    num_batches: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dkl_teacher) and math.isfinite(self.dkl_student)):
            raise ValueError("KL statistics must be finite")
        if self.dkl_teacher < 0 or self.dkl_student < 0:
            raise ValueError("KL statistics must be non-negative")
        if self.num_batches < 0:
            raise ValueError("num_batches must be non-negative")


def pseudo_label(probs: np.ndarray, tau: float, source: str = "student") -> PseudoBatch:
    """Argmax labels (ties to the lowest class) masked at confidence tau."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] < 1:
        raise ValueError(f"probs must be [B >= 1, C], got {probs.shape}")
    labels = probs.argmax(axis=1)
    mask = (probs.max(axis=1) >= tau).astype(np.float64)
    return PseudoBatch(labels, mask, source=source)


def batch_prediction_distribution(probs: np.ndarray) -> np.ndarray:
    """Normalized histogram of hard argmax predictions over a batch."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] < 1:
        raise ValueError(f"probs must be [B >= 1, C], got {probs.shape}")
    counts = np.bincount(probs.argmax(axis=1), minlength=probs.shape[1])
    return counts.astype(np.float64) / probs.shape[0]


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


def unsupervised_loss_grad(
    student_params: ParamVector,
    spec: ModelSpec,
    unlabeled_batch: Batch,
    pseudo: PseudoBatch,
    cfg: AugmentConfig,
    rng: np.random.Generator,
    return_probs: bool = False,
) -> tuple[float, ParamVector] | tuple[float, ParamVector, np.ndarray]:
    """Masked cross-entropy of the student on the strong view against fixed
    pseudo-labels. The pseudo-label source gets no gradient: labels and mask
    enter as constants.

    With return_probs, also returns the student's probabilities on the
    strong view, as loss_and_grad does.
    """
    if pseudo.size != unlabeled_batch.size:
        raise ValueError("pseudo batch length must match unlabeled batch")
    strong = strong_augment(unlabeled_batch, cfg, rng)
    return loss_and_grad(student_params, spec, strong, pseudo.pseudo_labels, pseudo.mask,
                         return_probs=return_probs)


def combined_client_grad(
    student_params: ParamVector,
    server_snapshot: ParamVector,
    labeled_batch: Batch | None,
    unlabeled_batch: Batch,
    pseudo: PseudoBatch,
    hyper: SslHyper,
    spec: ModelSpec,
    cfg: AugmentConfig,
    rng: np.random.Generator,
) -> tuple[float, ParamVector, np.ndarray]:
    """Full local objective: supervised CE (when labels are present) plus
    lambda_u-weighted unsupervised CE plus the exact proximal pull toward
    the server snapshot.

    Returns (loss, grad, strong_probs): strong_probs are the student's
    probabilities on the strong view of the unlabeled batch, from the
    forward pass the unsupervised term already ran.

    Consumes rng in a fixed order (strong view first, then the labeled
    weak view) so call sites line up across variants.
    """
    student_params.check_compatible(server_snapshot)
    loss_u, grad_u, strong_probs = unsupervised_loss_grad(
        student_params, spec, unlabeled_batch, pseudo, cfg, rng, return_probs=True
    )
    total = hyper.lambda_u * loss_u
    grad = hyper.lambda_u * grad_u.values
    if labeled_batch is not None:
        if labeled_batch.labels is None:
            raise ValueError("labeled batch must carry labels")
        weak = weak_augment(labeled_batch, cfg, rng)
        loss_s, grad_s = loss_and_grad(
            student_params, spec, weak, weak.labels,
            np.ones(weak.size, dtype=np.float64),
        )
        total += loss_s
        grad = grad + grad_s.values
    if hyper.mu > 0:
        diff = student_params.values - server_snapshot.values
        total += 0.5 * hyper.mu * float(diff @ diff)
        grad = grad + hyper.mu * diff
    return float(total), ParamVector(grad, student_params.spec_hash), strong_probs
