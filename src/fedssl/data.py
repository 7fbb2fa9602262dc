"""Datasets, Dirichlet non-IID sharding, streaming schedules, augmentation.

Sharding is quota-based: every client gets the same number of examples,
with the class mix of its quota drawn from a per-client Dirichlet sample.
Small concentration values give clients dominated by one or two classes;
large values approach the global class balance. A quota is split into
floor shares plus a weighted remainder drawn without replacement, and is
taken from the ends of per-class stocks; a class that runs out sends its
shortfall to the classes that remain.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Sequence

import numpy as np

from .nn import Batch, Workspace
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
        if _overlap(self.labeled_idx, self.unlabeled_idx):
            raise ValueError("labeled_idx and unlabeled_idx must be disjoint")


def _overlap(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two index arrays share an entry; no work when one is empty."""
    if a.size == 0 or b.size == 0:
        return False
    if a.size > b.size:
        a, b = b, a
    return not set(a.ravel().tolist()).isdisjoint(b.ravel().tolist())


@dataclass(frozen=True)
class ShardPlan:
    """How to split a dataset across clients, and into how many streaming
    segments each client's unlabeled pool is cut (0: no streaming). The
    seed is set per trial, so it is not an INI key.
    """

    num_clients: int = 20
    dirichlet_alpha: float = 100.0
    labeled_per_client: int = 10
    server_holds_labels: bool = False
    streaming_steps: int = 0
    seed: int = field(default=0, kw_only=True)

    def __post_init__(self) -> None:
        if not math.isfinite(self.dirichlet_alpha):
            raise ValueError(f"dirichlet_alpha must be finite, got {self.dirichlet_alpha!r}")
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if self.dirichlet_alpha <= 0:
            raise ValueError("dirichlet_alpha must be positive")
        if self.labeled_per_client < 0:
            raise ValueError("labeled_per_client must be non-negative")
        if self.streaming_steps < 0:
            raise ValueError("streaming_steps must be >= 0 (0 disables streaming)")


@dataclass
class ShardingResult:
    """Client shards plus the server-side labeled pool (labels-at-server)."""

    shards: list[ClientShard]
    server_labeled_idx: np.ndarray


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
        for name in ("weak_noise_sigma", "weak_shift_fraction", "strong_noise_sigma",
                     "strong_mask_prob"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
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


def load_csv(path: str | Path, num_classes: int) -> Dataset:
    """Parse `label,f1,...,fd` rows (no header). Errors name the line.
    Features are kept as written; the runner's `scale01` maps both splits
    by the training split's range. A UTF-8 byte-order mark is skipped.
    """
    text = Path(path).read_text(encoding="utf-8-sig")
    rows = []
    labels = []
    dim = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-numeric field ({exc})") from None
        if len(values) < 2:
            raise ValueError(f"line {lineno}: expected label plus at least one feature")
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"line {lineno}: non-finite field")
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
    return Dataset(np.array(rows, dtype=np.float64), np.array(labels), num_classes)


def label_histogram(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Normalized class histogram of a label vector."""
    counts = np.bincount(np.asarray(labels, dtype=np.int64), minlength=num_classes).astype(np.float64)
    total = counts.sum()
    if total == 0:
        raise ValueError("empty label vector")
    return counts / total


def _draw_without_replacement(rng: np.random.Generator, weights: Sequence[float],
                              size: int) -> list[int]:
    """`size` distinct indices drawn by non-negative weight: a replay of
    numpy's Generator.choice(len(weights), size, replace=False, p=weights).

    Each pass draws one double per pick still missing, makes the in-order
    cumulative sums of the weights with the picked entries zeroed, divides
    them by the last sum, and picks bisect_right of each double, keeping
    the first pick of each entry. That is numpy's algorithm, so the replay
    consumes the same doubles and returns the same picks in the same order
    (tests check it against choice itself); keeping it here ties the
    sharding to Generator.random alone rather than to the private code of
    choice, and it skips choice's per-call checks on a ten-entry vector.
    """
    weights = list(weights)
    if len(weights) - weights.count(0.0) < size:
        raise ValueError(f"fewer positive weights than the {size} picks asked for")
    picks: list[int] = []
    while len(picks) < size:
        draws = rng.random(size - len(picks)).tolist()
        for i in picks:
            weights[i] = 0.0
        cdf = list(accumulate(weights))
        total = cdf[-1]
        cdf = [c / total for c in cdf]
        for x in draws:
            i = bisect_right(cdf, x)
            # a zeroed entry is never picked, so this keeps first picks
            if i not in picks:
                picks.append(i)
    return picks


def _apportion(rng: np.random.Generator, p: np.ndarray, quota: int) -> list[int]:
    """Integer class counts summing to quota with count_c ~ quota * p_c.

    Each class gets the floor of its share; the remaining examples go to
    distinct classes drawn without replacement with weights proportional
    to the fractional parts, so each count deviates from its exact share by
    less than one example.
    """
    scaled = quota * p
    base = np.floor(scaled)
    counts = base.astype(np.int64).tolist()
    rem = quota - sum(counts)
    if rem > 0:
        frac = scaled - base
        total = np.add.reduce(frac)
        q = frac / total if total > 0 else np.full(p.shape, 1.0 / p.size)
        if np.count_nonzero(q) < rem:
            q = q + 1e-12
            q = q / q.sum()
        for c in _draw_without_replacement(rng, q.tolist(), rem):
            counts[c] += 1
    return counts


def _draw_quota(
    rng: np.random.Generator,
    p: np.ndarray,
    quota: int,
    stocks: list[np.ndarray],
    left: list[int],
) -> tuple[list[np.ndarray], list[int]]:
    """Take `quota` examples from per-class stocks with class mix ~ p.

    Class c's remaining stock is stocks[c][:left[c]]; its examples are
    taken from the end, and left is lowered. When a class runs out, the
    shortfall is apportioned again over the classes that remain, with
    their weights in p (or evenly if those are all zero).

    Returns (the slices taken, classes that ran out and forced a fallback,
    possibly repeated). The caller guarantees sum(left) >= quota.
    """
    parts: list[np.ndarray] = []
    fallback: list[int] = []
    shortfall = quota
    want = _apportion(rng, p, quota)
    while True:
        for c, w in enumerate(want):
            n = left[c]
            take = w if w < n else n
            if take > 0:
                parts.append(stocks[c][n - take:n])
                left[c] = n - take
                shortfall -= take
            if take < w:
                fallback.append(c)
        if shortfall == 0:
            break
        avail = np.array([n > 0 for n in left], dtype=bool)
        p_avail = np.where(avail, p, 0.0)
        if p_avail.sum() <= 0.0:
            p_avail = avail.astype(np.float64)
        p_avail = p_avail / p_avail.sum()
        want = _apportion(rng, p_avail, shortfall)
    return parts, fallback


def _sorted_indices(parts: list[np.ndarray]) -> np.ndarray:
    return np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)


def dirichlet_shard(ds: Dataset, plan: ShardPlan) -> ShardingResult:
    """Partition a dataset across clients with Dirichlet-controlled skew.

    Each class's examples are shuffled once into a stock. The labeled pool
    (labeled_per_client * num_clients examples, class-balanced: its i-th
    example comes off the end of class i mod C's stock) is either
    distributed to clients with the same per-client Dirichlet mix as their
    unlabeled quota, or withheld entirely as a server pool when
    plan.server_holds_labels is set. Each client's unlabeled quota is
    floor(pool / num_clients); leftovers stay unassigned. A quota is drawn
    by _apportion and taken by _draw_quota; classes that ran out during a
    client's draws are recorded in its fallback_classes.
    """
    c = ds.num_classes
    k = plan.num_clients
    rng = np.random.default_rng(plan.seed)

    stocks = []
    for cls in range(c):
        members = np.flatnonzero(ds.labels == cls)
        stocks.append(members[rng.permutation(members.size)])

    labeled_total = plan.labeled_per_client * k
    if labeled_total > ds.size:
        raise ValueError(f"labeled pool ({labeled_total}) exceeds dataset size ({ds.size})")
    labeled_left = [labeled_total // c + (cls < labeled_total % c) for cls in range(c)]
    short = [cls for cls in range(c) if labeled_left[cls] > stocks[cls].size]
    if short:
        # class cls's stock is empty at the pool's (size * C + cls)-th pick
        cls = min(short, key=lambda s: stocks[s].size * c + s)
        raise ValueError(f"class {cls} has too few examples for a balanced labeled pool")
    # the pool holds each stock's tail in the order it came off the end
    labeled_stocks = [s[s.size - m:][::-1] for s, m in zip(stocks, labeled_left)]
    unlabeled_left = [s.size - m for s, m in zip(stocks, labeled_left)]

    n_unlabeled = sum(unlabeled_left)
    quota_u = n_unlabeled // k
    if quota_u < 1:
        raise ValueError(
            f"dataset too small: {n_unlabeled} unlabeled examples across {k} clients"
        )

    alphas = np.full(c, plan.dirichlet_alpha)
    draw_labeled = not plan.server_holds_labels and plan.labeled_per_client > 0
    shards: list[ClientShard] = []
    for cid in range(k):
        p = rng.dirichlet(alphas)
        lab_parts: list[np.ndarray] = []
        lab_fb: list[int] = []
        if draw_labeled:
            lab_parts, lab_fb = _draw_quota(rng, p, plan.labeled_per_client,
                                            labeled_stocks, labeled_left)
        unl_parts, unl_fb = _draw_quota(rng, p, quota_u, stocks, unlabeled_left)
        fallback = sorted(set(lab_fb).union(unl_fb))
        shards.append(
            ClientShard(
                client_id=cid,
                labeled_idx=_sorted_indices(lab_parts),
                unlabeled_idx=_sorted_indices(unl_parts),
                fallback_classes=tuple(fallback),
            )
        )

    if plan.server_holds_labels:
        server_idx = _sorted_indices(labeled_stocks)
    else:
        server_idx = np.empty(0, dtype=np.int64)
    return ShardingResult(shards=shards, server_labeled_idx=server_idx)


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


def _view_arena(ws: Workspace, x: np.ndarray) -> np.ndarray:
    """The augment arena for a view of x; x must not live in it."""
    out = ws.take("augment", x.shape)
    if np.may_share_memory(x, out):
        raise ValueError("cannot augment a view in place: the batch lives in the "
                         "workspace's augment arena")
    return out


def weak_augment(batch: Batch, cfg: AugmentConfig,
                 rng: np.random.Generator | Sequence[np.random.Generator],
                 workspace: Workspace | None = None) -> Batch:
    """Gaussian noise plus a per-example scalar shift; labels untouched.

    The shift scales with each slice's own value span. Each generator draws
    its slice's noise straight into the output, then its shifts. With a
    workspace, the view lives in it under augment, the arena the strong
    view shares: the next view either function draws overwrites it.
    """
    ws = Workspace() if workspace is None else workspace
    x = batch.inputs
    rngs = _generators(batch, rng)
    rows, dim = x.shape[-2:]
    out = _view_arena(ws, x)
    shift = ws.take("weak_augment.shift", x.shape[:-1] + (1,))
    for g, noise_k, shift_k in zip(rngs, out.reshape(-1, rows, dim), shift.reshape(-1, rows, 1)):
        g.standard_normal(out=noise_k)
        # uniform(-1, 1) is -1 + 2 * random(), drawn the same way
        g.random(out=shift_k)
    shift *= 2.0
    shift -= 1.0
    out *= cfg.weak_noise_sigma
    span = (x.max(axis=(-2, -1), keepdims=True) - x.min(axis=(-2, -1), keepdims=True)
            if x.size else 0.0)
    shift *= cfg.weak_shift_fraction * span
    # x + noise + shift, summed in that order
    np.add(x, out, out=out)
    out += shift
    return Batch(out, batch.labels)


def strong_augment(batch: Batch, cfg: AugmentConfig,
                   rng: np.random.Generator | Sequence[np.random.Generator],
                   workspace: Workspace | None = None) -> Batch:
    """Stronger noise plus random feature zeroing; labels untouched.

    Each generator draws its slice's noise straight into the output, then
    its zeroing draws. With a workspace, the view lives in it under
    augment, overwriting the last weak view: a local batch's unlabeled weak
    view is dead once it is pseudo-labeled, before the strong view is drawn.
    """
    ws = Workspace() if workspace is None else workspace
    x = batch.inputs
    rngs = _generators(batch, rng)
    rows, dim = x.shape[-2:]
    out = _view_arena(ws, x)
    draws = ws.take("strong_augment.draws", (rows, dim))
    drop = ws.take("strong_augment.drop", x.shape, np.bool_)
    for g, noise_k, drop_k in zip(rngs, out.reshape(-1, rows, dim), drop.reshape(-1, rows, dim)):
        g.standard_normal(out=noise_k)
        g.random(out=draws)
        np.less(draws, cfg.strong_mask_prob, out=drop_k)
    out *= cfg.strong_noise_sigma
    np.add(x, out, out=out)
    np.putmask(out, drop, 0.0)
    return Batch(out, batch.labels)
