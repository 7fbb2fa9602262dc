"""Datasets, Dirichlet non-IID sharding, streaming schedules, augmentation.

Sharding is quota-based: every client gets the same number of examples,
with the class mix of its quota drawn from a per-client Dirichlet sample.
Small concentration values give clients dominated by one or two classes;
large values approach the global class balance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .nn import Batch
from .rng import derive_seed


@dataclass
class Dataset:
    """Feature matrix with integer class labels."""

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise ValueError(f"inputs must be [N >= 1, d], got {self.inputs.shape}")
        if self.labels.shape != (self.inputs.shape[0],):
            raise ValueError("labels length must match number of examples")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if np.any(self.labels < 0) or np.any(self.labels >= self.num_classes):
            raise ValueError("labels out of range")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


@dataclass
class ClientShard:
    """One client's slice of the training pool.

    stream_splits, when set, partitions unlabeled_idx into per-participation
    segments. fallback_classes records classes whose pool ran out while this
    client's quota was being drawn (the draw fell back to remaining classes).
    """

    client_id: int
    labeled_idx: np.ndarray
    unlabeled_idx: np.ndarray
    stream_splits: list[np.ndarray] | None = None
    fallback_classes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        self.labeled_idx = np.asarray(self.labeled_idx, dtype=np.int64)
        self.unlabeled_idx = np.asarray(self.unlabeled_idx, dtype=np.int64)
        if np.intersect1d(self.labeled_idx, self.unlabeled_idx).size > 0:
            raise ValueError("labeled_idx and unlabeled_idx must be disjoint")


@dataclass
class ShardPlan:
    """How to split a dataset across clients."""

    num_clients: int
    dirichlet_alpha: float
    labeled_per_client: int
    server_holds_labels: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if self.dirichlet_alpha <= 0:
            raise ValueError("dirichlet_alpha must be positive")
        if self.labeled_per_client < 0:
            raise ValueError("labeled_per_client must be non-negative")


@dataclass
class ShardingResult:
    """Client shards plus the server-side labeled pool (labels-at-server)."""

    shards: list[ClientShard]
    server_labeled_idx: np.ndarray
    fallback_events: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class AugmentConfig:
    """Weak/strong feature-space perturbation strengths.

    Strong must not be weaker than weak: strong_noise_sigma >= weak_noise_sigma.
    """

    weak_noise_sigma: float = 0.05
    weak_shift_fraction: float = 0.02
    strong_noise_sigma: float = 0.15
    strong_mask_prob: float = 0.2

    def __post_init__(self) -> None:
        if self.weak_noise_sigma < 0 or self.strong_noise_sigma < 0:
            raise ValueError("noise sigmas must be non-negative")
        if not 0.0 <= self.weak_shift_fraction < 1.0:
            raise ValueError("weak_shift_fraction must be in [0, 1)")
        if not 0.0 <= self.strong_mask_prob <= 1.0:
            raise ValueError("strong_mask_prob must be in [0, 1]")
        if self.strong_noise_sigma < self.weak_noise_sigma:
            raise ValueError("strong_noise_sigma must be >= weak_noise_sigma")


def class_centers(num_classes: int, dim: int) -> np.ndarray:
    """Deterministic class centers on the unit sphere, independent of the
    dataset seed so that train and test splits share the same geometry.

    With dim >= num_classes the centers are orthonormal (pairwise distance
    sqrt(2)); otherwise they are normalized Gaussian directions.
    """
    rng = np.random.default_rng(derive_seed(0, "blob-centers", num_classes, dim))
    if dim >= num_classes:
        g = rng.standard_normal((dim, num_classes))
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diag(r))  # fix sign convention for determinism
        return q[:, :num_classes].T.copy()
    g = rng.standard_normal((num_classes, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def gen_blobs(num_classes: int, dim: int, per_class: int, spread: float, seed: int) -> Dataset:
    """Gaussian blobs around fixed class centers; deterministic per seed."""
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    if spread < 0:
        raise ValueError("spread must be non-negative")
    centers = class_centers(num_classes, dim)
    rng = np.random.default_rng(seed)
    inputs = np.repeat(centers, per_class, axis=0)
    inputs = inputs + rng.standard_normal(inputs.shape) * spread
    labels = np.repeat(np.arange(num_classes), per_class)
    return Dataset(inputs, labels, num_classes)


def load_csv(path: str | Path, num_classes: int, scale01: bool = False) -> Dataset:
    """Parse `label,f1,...,fd` rows (no header). Errors name the line."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines()]
    rows = []
    labels = []
    dim = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-numeric field ({exc})") from None
        if len(values) < 2:
            raise ValueError(f"line {lineno}: expected label plus at least one feature")
        label = values[0]
        if label != int(label) or not 0 <= int(label) < num_classes:
            raise ValueError(f"line {lineno}: label {label!r} out of range [0, {num_classes})")
        feats = values[1:]
        if dim is None:
            dim = len(feats)
        elif len(feats) != dim:
            raise ValueError(f"line {lineno}: expected {dim} features, got {len(feats)}")
        labels.append(int(label))
        rows.append(feats)
    if not rows:
        raise ValueError("empty dataset")
    inputs = np.array(rows, dtype=np.float64)
    if scale01:
        lo = inputs.min(axis=0)
        span = inputs.max(axis=0) - lo
        span[span == 0.0] = 1.0
        inputs = (inputs - lo) / span
    return Dataset(inputs, np.array(labels), num_classes)


def label_histogram(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Normalized class histogram of a label vector."""
    counts = np.bincount(np.asarray(labels, dtype=np.int64), minlength=num_classes).astype(np.float64)
    total = counts.sum()
    if total == 0:
        raise ValueError("empty label vector")
    return counts / total


def _apportion(rng: np.random.Generator, p: np.ndarray, quota: int) -> np.ndarray:
    """Integer class counts summing to quota with count_c ~ quota * p_c.

    Fractional remainders are resolved by weighted sampling without
    replacement, so each count deviates from its exact share by less
    than one example.
    """
    base = np.floor(quota * p).astype(np.int64)
    rem = quota - int(base.sum())
    if rem > 0:
        frac = quota * p - base
        total = frac.sum()
        q = frac / total if total > 0 else np.full(p.shape, 1.0 / p.size)
        if int((q > 0).sum()) < rem:
            q = q + 1e-12
            q = q / q.sum()
        extra = rng.choice(p.size, size=rem, replace=False, p=q)
        base[extra] += 1
    return base


def _draw_quota(
    rng: np.random.Generator,
    p: np.ndarray,
    quota: int,
    stock: list[list[int]],
) -> tuple[list[int], list[int]]:
    """Take `quota` examples from per-class stocks with class mix ~ p.

    Returns (chosen indices, classes that ran out and forced a fallback).
    Stocks are mutated; the caller guarantees sum(stock) >= quota.
    """
    num_classes = len(stock)
    chosen: list[int] = []
    fallback: list[int] = []
    want = _apportion(rng, p, quota)
    while True:
        for c in range(num_classes):
            take = min(int(want[c]), len(stock[c]))
            if take > 0:
                chosen.extend(stock[c][-take:])
                del stock[c][-take:]
            if take < want[c]:
                fallback.append(c)
        shortfall = quota - len(chosen)
        if shortfall == 0:
            break
        avail = np.array([len(s) > 0 for s in stock], dtype=bool)
        p_avail = np.where(avail, p, 0.0)
        if p_avail.sum() <= 0.0:
            p_avail = avail.astype(np.float64)
        p_avail = p_avail / p_avail.sum()
        want = _apportion(rng, p_avail, shortfall)
    return chosen, sorted(set(fallback))


def dirichlet_shard(ds: Dataset, plan: ShardPlan) -> ShardingResult:
    """Partition a dataset across clients with Dirichlet-controlled skew.

    The labeled pool (labeled_per_client * num_clients examples, drawn
    class-balanced) is either distributed to clients with the same per-client
    Dirichlet mix as their unlabeled quota, or withheld entirely as a server
    pool when plan.server_holds_labels is set. Each client's unlabeled quota
    is floor(pool / num_clients); leftovers stay unassigned.
    """
    c = ds.num_classes
    k = plan.num_clients
    rng = np.random.default_rng(plan.seed)

    by_class: list[list[int]] = [list(np.nonzero(ds.labels == cls)[0]) for cls in range(c)]
    for cls in range(c):
        order = rng.permutation(len(by_class[cls]))
        by_class[cls] = [by_class[cls][i] for i in order]

    labeled_total = plan.labeled_per_client * k
    if labeled_total > ds.size:
        raise ValueError(f"labeled pool ({labeled_total}) exceeds dataset size ({ds.size})")
    labeled_stock: list[list[int]] = [[] for _ in range(c)]
    for i in range(labeled_total):
        cls = i % c
        if not by_class[cls]:
            raise ValueError(f"class {cls} has too few examples for a balanced labeled pool")
        labeled_stock[cls].append(by_class[cls].pop())

    unlabeled_stock = by_class
    n_unlabeled = sum(len(s) for s in unlabeled_stock)
    quota_u = n_unlabeled // k
    if quota_u < 1:
        raise ValueError(
            f"dataset too small: {n_unlabeled} unlabeled examples across {k} clients"
        )

    shards: list[ClientShard] = []
    fallback_events: list[tuple[int, int]] = []
    for cid in range(k):
        p = rng.dirichlet(np.full(c, plan.dirichlet_alpha))
        if plan.server_holds_labels or plan.labeled_per_client == 0:
            lab_idx: list[int] = []
            lab_fb: list[int] = []
        else:
            lab_idx, lab_fb = _draw_quota(rng, p, plan.labeled_per_client, labeled_stock)
        unl_idx, unl_fb = _draw_quota(rng, p, quota_u, unlabeled_stock)
        fallback = sorted(set(lab_fb) | set(unl_fb))
        for cls in fallback:
            fallback_events.append((cid, cls))
        shards.append(
            ClientShard(
                client_id=cid,
                labeled_idx=np.sort(np.array(lab_idx, dtype=np.int64)),
                unlabeled_idx=np.sort(np.array(unl_idx, dtype=np.int64)),
                fallback_classes=tuple(fallback),
            )
        )

    if plan.server_holds_labels:
        server_idx = np.sort(np.concatenate([np.array(s, dtype=np.int64) for s in labeled_stock])
                             if labeled_total else np.array([], dtype=np.int64))
    else:
        server_idx = np.array([], dtype=np.int64)
    return ShardingResult(shards=shards, server_labeled_idx=server_idx,
                          fallback_events=fallback_events)


def make_stream_schedule(shard: ClientShard, num_steps: int, seed: int) -> ClientShard:
    """Split a shard's unlabeled pool into per-participation segments.

    Segments are near-equal random subsamples so each carries the client's
    class mix; with num_steps=1 the shard is returned with its single
    segment in original order (equivalent to non-streaming).
    """
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    n = shard.unlabeled_idx.shape[0]
    if n < num_steps:
        raise ValueError(f"client {shard.client_id}: {n} unlabeled examples < {num_steps} steps")
    if num_steps == 1:
        splits = [shard.unlabeled_idx.copy()]
    else:
        rng = np.random.default_rng(seed)
        shuffled = shard.unlabeled_idx[rng.permutation(n)]
        splits = [seg.copy() for seg in np.array_split(shuffled, num_steps)]
    return ClientShard(
        client_id=shard.client_id,
        labeled_idx=shard.labeled_idx.copy(),
        unlabeled_idx=shard.unlabeled_idx.copy(),
        stream_splits=splits,
        fallback_classes=shard.fallback_classes,
    )


def _generators(batch: Batch, rng) -> list[np.random.Generator]:
    """One generator per client slice of a batch: a [B, d] batch takes one
    generator, a [K, B, d] stack a sequence of K, so each client draws
    exactly what it would draw alone.
    """
    if batch.inputs.ndim == 2:
        return [rng]
    rngs = list(rng)
    if len(rngs) != batch.inputs.shape[0]:
        raise ValueError(f"{len(rngs)} generators for a batch of shape {batch.inputs.shape}")
    return rngs


def weak_augment(batch: Batch, cfg: AugmentConfig,
                 rng: np.random.Generator | Sequence[np.random.Generator]) -> Batch:
    """Gaussian noise plus a per-example scalar shift; labels untouched.

    The shift scales with each slice's own value span.
    """
    x = batch.inputs
    rngs = _generators(batch, rng)
    rows, dim = x.shape[-2:]
    noise = np.empty((len(rngs), rows, dim))
    shift = np.empty((len(rngs), rows, 1))
    for g, noise_k, shift_k in zip(rngs, noise, shift):
        g.standard_normal(out=noise_k)
        shift_k[:] = g.uniform(-1.0, 1.0, size=(rows, 1))
    noise = noise.reshape(x.shape)
    noise *= cfg.weak_noise_sigma
    span = (x.max(axis=(-2, -1), keepdims=True) - x.min(axis=(-2, -1), keepdims=True)
            if x.size else 0.0)
    shift = shift.reshape(x.shape[:-1] + (1,))
    shift *= cfg.weak_shift_fraction * span
    return Batch(x + noise + shift, batch.labels)


def strong_augment(batch: Batch, cfg: AugmentConfig,
                   rng: np.random.Generator | Sequence[np.random.Generator]) -> Batch:
    """Stronger noise plus random feature zeroing; labels untouched."""
    x = batch.inputs
    rngs = _generators(batch, rng)
    noise = np.empty((len(rngs),) + x.shape[-2:])
    draws = np.empty_like(noise)
    for g, noise_k, draws_k in zip(rngs, noise, draws):
        g.standard_normal(out=noise_k)
        g.random(out=draws_k)
    noise = noise.reshape(x.shape)
    noise *= cfg.strong_noise_sigma
    out = x + noise
    mask = draws.reshape(x.shape) < cfg.strong_mask_prob
    out = np.where(mask, 0.0, out)
    return Batch(out, batch.labels)
