"""Tests for dataset generation, sharding, streaming, and augmentation."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedssl import data as data_module
from fedssl.data import (
    AugmentConfig,
    ClientShard,
    Dataset,
    ShardPlan,
    class_centers,
    dirichlet_shard,
    gen_blobs,
    label_histogram,
    load_csv,
    make_stream_schedule,
    strong_augment,
    weak_augment,
)
from fedssl.nn import Batch, Workspace


# ---------------------------------------------------------------- gen_blobs


def test_blobs_zero_spread_collapses_to_centers():
    ds = gen_blobs(num_classes=4, dim=8, per_class=5, spread=0.0, seed=3)
    for c in range(4):
        rows = ds.inputs[ds.labels == c]
        assert np.all(rows == rows[0])


def test_blobs_counts_and_histogram():
    ds = gen_blobs(num_classes=10, dim=6, per_class=10, spread=0.1, seed=0)
    assert ds.size == 100
    assert np.array_equal(np.bincount(ds.labels), np.full(10, 10))


def test_blobs_deterministic_per_seed():
    a = gen_blobs(5, 7, 20, 0.3, seed=11)
    b = gen_blobs(5, 7, 20, 0.3, seed=11)
    c = gen_blobs(5, 7, 20, 0.3, seed=12)
    assert np.array_equal(a.inputs, b.inputs)
    assert not np.array_equal(a.inputs, c.inputs)
    assert np.array_equal(a.labels, c.labels)


def test_blobs_centers_shared_across_seeds():
    # different noise seeds must sample around the same class centers
    a = gen_blobs(6, 16, 400, 0.1, seed=1)
    b = gen_blobs(6, 16, 400, 0.1, seed=2)
    for c in range(6):
        ma = a.inputs[a.labels == c].mean(axis=0)
        mb = b.inputs[b.labels == c].mean(axis=0)
        assert np.linalg.norm(ma - mb) < 0.05


def test_class_centers_orthonormal_when_dim_large():
    centers = class_centers(10, 16)
    gram = centers @ centers.T
    assert np.allclose(gram, np.eye(10), atol=1e-10)


def test_class_centers_unit_norm_when_dim_small():
    centers = class_centers(10, 4)
    assert np.allclose(np.linalg.norm(centers, axis=1), 1.0, atol=1e-12)


def test_blobs_nearest_centroid_probe_above_95():
    # oracle: centroids estimated from train data, applied to a fresh draw
    train = gen_blobs(10, 16, 200, 0.2, seed=0)
    test = gen_blobs(10, 16, 200, 0.2, seed=1)
    centroids = np.stack([train.inputs[train.labels == c].mean(axis=0) for c in range(10)])
    d2 = ((test.inputs[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    acc = float((d2.argmin(axis=1) == test.labels).mean())
    assert acc > 0.95


def test_blobs_rejects_bad_args():
    with pytest.raises(ValueError):
        gen_blobs(3, 4, 0, 0.1, seed=0)
    with pytest.raises(ValueError):
        gen_blobs(3, 4, 5, -0.1, seed=0)


# ---------------------------------------------------------------- load_csv


def test_load_csv_roundtrip(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("0,1.5,2.0\n1,0.0,-3.25\n2,4.0,5.0\n")
    ds = load_csv(f, num_classes=3)
    assert ds.size == 3
    assert ds.dim == 2
    assert np.array_equal(ds.labels, [0, 1, 2])
    assert np.array_equal(ds.inputs[1], [0.0, -3.25])


def test_load_csv_skips_blank_lines(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("0,1.0\n\n1,2.0\n")
    assert load_csv(f, num_classes=2).size == 2


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    # a UTF-8 BOM, as Windows editors and spreadsheet exports write
    f = tmp_path / "d.csv"
    f.write_text("0,1.5,2.0\n1,0.0,-3.25\n", encoding="utf-8-sig")
    assert f.read_bytes().startswith(b"\xef\xbb\xbf")
    ds = load_csv(f, num_classes=2)
    assert np.array_equal(ds.labels, [0, 1])
    assert np.array_equal(ds.inputs, [[1.5, 2.0], [0.0, -3.25]])


def test_load_csv_non_numeric_names_line(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("0,1.0\n1,oops\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(f, num_classes=2)


def test_load_csv_ragged_row_names_line(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("0,1.0,2.0\n1,3.0,4.0\n0,5.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_csv(f, num_classes=2)


@pytest.mark.parametrize("row", ["inf,1.0,2.0", "-inf,1.0,2.0", "nan,1.0,2.0", "1,nan,2.0",
                                 "1,2.0,-inf"])
def test_load_csv_non_finite_field_names_line(tmp_path, row):
    f = tmp_path / "d.csv"
    f.write_text(f"0,1.0,2.0\n{row}\n")
    with pytest.raises(ValueError, match="line 2: non-finite"):
        load_csv(f, num_classes=2)


def test_load_csv_label_out_of_range(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("5,1.0\n")
    with pytest.raises(ValueError, match="line 1"):
        load_csv(f, num_classes=2)


def test_load_csv_empty_file(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("\n\n")
    with pytest.raises(ValueError, match="empty dataset"):
        load_csv(f, num_classes=2)


# ---------------------------------------------------------------- sharding


def _assigned_indices(result):
    parts = [result.server_labeled_idx]
    for sh in result.shards:
        parts.append(sh.labeled_idx)
        parts.append(sh.unlabeled_idx)
    return np.concatenate(parts)


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.sampled_from([0.05, 1.0, 100.0]),
    num_clients=st.integers(min_value=1, max_value=6),
    labeled=st.integers(min_value=0, max_value=4),
    server_side=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_shard_partition_property(alpha, num_clients, labeled, server_side, seed):
    ds = gen_blobs(4, 3, 30, 0.2, seed=0)
    plan = ShardPlan(
        num_clients=num_clients,
        dirichlet_alpha=alpha,
        labeled_per_client=labeled,
        server_holds_labels=server_side,
        seed=seed,
    )
    res = dirichlet_shard(ds, plan)
    assigned = _assigned_indices(res)
    assert len(np.unique(assigned)) == len(assigned)  # pairwise disjoint
    assert np.all(assigned >= 0) and np.all(assigned < ds.size)
    labeled_total = labeled * num_clients
    quota = (ds.size - labeled_total) // num_clients
    for sh in res.shards:
        assert sh.unlabeled_idx.size == quota
        if server_side:
            assert sh.labeled_idx.size == 0
        else:
            assert sh.labeled_idx.size == labeled
    if server_side:
        assert res.server_labeled_idx.size == labeled_total


def test_shard_alpha_100_near_uniform():
    ds = gen_blobs(10, 4, 2000, 0.3, seed=1)
    plan = ShardPlan(num_clients=100, dirichlet_alpha=100.0, labeled_per_client=0, seed=3)
    res = dirichlet_shard(ds, plan)
    ok = 0
    for sh in res.shards:
        h = label_histogram(ds.labels[sh.unlabeled_idx], 10)
        if h.min() > 0 and h.max() / h.min() < 3:
            ok += 1
    assert ok >= 95


def test_shard_alpha_001_concentrates_classes():
    ds = gen_blobs(10, 4, 2000, 0.3, seed=1)
    plan = ShardPlan(num_clients=100, dirichlet_alpha=0.01, labeled_per_client=0, seed=3)
    res = dirichlet_shard(ds, plan)
    counts = [
        int((label_histogram(ds.labels[sh.unlabeled_idx], 10) >= 0.05).sum())
        for sh in res.shards
    ]
    assert np.median(counts) <= 2


def test_shard_labels_at_server_pool_balanced():
    ds = gen_blobs(4, 3, 100, 0.2, seed=2)
    plan = ShardPlan(
        num_clients=5, dirichlet_alpha=1.0, labeled_per_client=8,
        server_holds_labels=True, seed=9,
    )
    res = dirichlet_shard(ds, plan)
    assert res.server_labeled_idx.size == 40
    hist = np.bincount(ds.labels[res.server_labeled_idx], minlength=4)
    assert np.array_equal(hist, np.full(4, 10))
    for sh in res.shards:
        assert sh.labeled_idx.size == 0


def test_shard_fallback_recorded_and_quota_kept():
    inputs = np.zeros((100, 3))
    labels = np.array([0] * 10 + [1] * 90)
    ds = Dataset(inputs, labels, 2)
    plan = ShardPlan(num_clients=2, dirichlet_alpha=0.05, labeled_per_client=0, seed=0)
    res = dirichlet_shard(ds, plan)
    assert _fallbacks(res)
    for sh in res.shards:
        assert sh.unlabeled_idx.size == 50


def test_shard_deterministic():
    ds = gen_blobs(5, 3, 40, 0.2, seed=4)
    plan = ShardPlan(num_clients=4, dirichlet_alpha=0.5, labeled_per_client=3, seed=77)
    a = dirichlet_shard(ds, plan)
    b = dirichlet_shard(ds, plan)
    for sa, sb in zip(a.shards, b.shards):
        assert np.array_equal(sa.labeled_idx, sb.labeled_idx)
        assert np.array_equal(sa.unlabeled_idx, sb.unlabeled_idx)


def test_shard_rejects_oversized_labeled_pool():
    ds = gen_blobs(2, 3, 5, 0.2, seed=0)
    plan = ShardPlan(num_clients=4, dirichlet_alpha=1.0, labeled_per_client=3, seed=0)
    with pytest.raises(ValueError, match="labeled pool"):
        dirichlet_shard(ds, plan)


def test_shard_plan_validation():
    with pytest.raises(ValueError):
        ShardPlan(num_clients=0, dirichlet_alpha=1.0, labeled_per_client=1)
    with pytest.raises(ValueError):
        ShardPlan(num_clients=2, dirichlet_alpha=0.0, labeled_per_client=1)
    with pytest.raises(ValueError):
        ShardPlan(num_clients=2, dirichlet_alpha=1.0, labeled_per_client=-1)


def _labels_only(counts):
    """A dataset whose class c holds counts[c] examples, in class order."""
    labels = np.repeat(np.arange(len(counts)), counts)
    return Dataset(np.zeros((labels.size, 1)), labels, len(counts))


def _fallbacks(res):
    """Every (client id, class) fallback the shards record, in client order."""
    return [(sh.client_id, cls) for sh in res.shards for cls in sh.fallback_classes]


def _sharding_digest(res):
    """SHA-256 over every index array, fallback record and server index."""
    h = hashlib.sha256()
    for sh in res.shards:
        for arr in (sh.labeled_idx, sh.unlabeled_idx):
            assert arr.dtype == np.int64
            h.update(arr.astype("<i8").tobytes())
            h.update(b"|")
        h.update(repr(sh.fallback_classes).encode())
        h.update(b";")
    h.update(res.server_labeled_idx.astype("<i8").tobytes())
    h.update(repr(_fallbacks(res)).encode())
    return h.hexdigest()


# (class counts, plan, digest of the output). crowd's and desk's shapes,
# labels held at the server, a very skewed alpha, no labeled data, and a
# class-starved dataset whose quotas fall back more than once in one draw
PINNED_SHARDINGS = {
    "crowd": ([1480] * 10, ShardPlan(200, 100.0, 10, seed=11),
              "db28d130ec34597a4593c0f33de7380130ded6732d2c630856015f3f789fd5fc"),
    "desk": ([420] * 10, ShardPlan(20, 100.0, 10, seed=12),
             "d7cd3bf664d51be92068d24847242e16d0d8045d1aafbc75d52172b8aaa3487a"),
    "server_labels": ([420] * 10, ShardPlan(20, 0.1, 10, server_holds_labels=True, seed=13),
                      "8f4706ab6c312becf529a7223b1e374aac570e3f9088e4c0bb436a1d1fa7e74e"),
    "alpha_0.05": ([420] * 10, ShardPlan(20, 0.05, 10, seed=14),
                   "39a56be1e430894c4a29894de71cd3eedcdaf7d11b50416a1a624ef245634d8d"),
    "unlabeled_only": ([420] * 10, ShardPlan(20, 1.0, 0, seed=15),
                       "08c6ce2b053a7111c76c796c98d59467c4de6bdfdce57891b9d0a8a36d23896b"),
    "starved": ([3, 5, 200, 2, 40, 1, 80, 9], ShardPlan(6, 0.3, 2, seed=16),
                "7ca96a5bf2902a849bad5491dadeeb4bae5ae9b3cc9aa879aa98c3fdef1c70f6"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SHARDINGS))
def test_shard_output_pinned(name, monkeypatch):
    counts, plan, expected = PINNED_SHARDINGS[name]
    # count the apportionments of each quota draw: more than one means the
    # draw fell back to the remaining classes
    apportion, draw_quota = data_module._apportion, data_module._draw_quota
    calls = [0]
    per_draw = []

    def counting_apportion(*args):
        calls[0] += 1
        return apportion(*args)

    def counting_draw(*args):
        before = calls[0]
        out = draw_quota(*args)
        per_draw.append(calls[0] - before)
        return out

    monkeypatch.setattr(data_module, "_apportion", counting_apportion)
    monkeypatch.setattr(data_module, "_draw_quota", counting_draw)
    res = dirichlet_shard(_labels_only(counts), plan)
    assert _sharding_digest(res) == expected
    if name == "desk":
        assert _fallbacks(res)
    if name == "starved":
        assert max(per_draw) >= 3
    for cid, cls in _fallbacks(res):
        assert type(cid) is int and type(cls) is int


@pytest.mark.parametrize("counts, num_clients, labeled, message", [
    # the pool is larger than the dataset
    ([2, 2], 2, 3, "labeled pool (6) exceeds dataset size (4)"),
    # class 2 runs out at the pool's 6th pick, before class 0 at its 7th
    ([2, 4, 1], 1, 7, "class 2 has too few examples for a balanced labeled pool"),
    ([1, 4, 1], 1, 6, "class 0 has too few examples for a balanced labeled pool"),
    ([3, 3], 4, 1, "dataset too small: 2 unlabeled examples across 4 clients"),
])
def test_shard_error_messages(counts, num_clients, labeled, message):
    plan = ShardPlan(num_clients, 1.0, labeled, seed=0)
    with pytest.raises(ValueError) as info:
        dirichlet_shard(_labels_only(counts), plan)
    assert str(info.value) == message


def test_client_shard_rejects_overlap():
    with pytest.raises(ValueError):
        ClientShard(client_id=0, labeled_idx=np.array([1, 2]), unlabeled_idx=np.array([2, 3]))


def test_client_shard_overlap_check_reads_unsorted_and_repeated_indices():
    with pytest.raises(ValueError, match="disjoint"):
        ClientShard(client_id=0, labeled_idx=np.array([7, 3]), unlabeled_idx=np.array([9, 1, 3]))
    with pytest.raises(ValueError, match="disjoint"):
        ClientShard(client_id=0, labeled_idx=np.arange(50, 0, -1), unlabeled_idx=np.array([50]))
    ClientShard(client_id=0, labeled_idx=np.array([5, 5]), unlabeled_idx=np.array([2, 1, 2]))
    for empty in (np.array([], dtype=np.int64), []):
        ClientShard(client_id=0, labeled_idx=empty, unlabeled_idx=np.array([1, 1, 2]))
        ClientShard(client_id=0, labeled_idx=np.array([1, 1, 2]), unlabeled_idx=empty)


# ------------------------------------------------------ the remainder draw


def _choice_cases():
    """(p, size) pairs: Dirichlet weights at three concentrations over 2-12
    entries with a random number of picks, then hand-made weights with zero
    entries at every feasible number of picks.
    """
    rng = np.random.default_rng(2024)
    cases = []
    for alpha in (0.05, 1.0, 100.0):
        for _ in range(400):
            n = int(rng.integers(2, 13))
            p = rng.dirichlet(np.full(n, alpha))
            positive = int(np.count_nonzero(p))
            cases.append((p, int(rng.integers(1, positive + 1))))
    for p in ([0.0, 0.5, 0.0, 0.5], [0.2, 0.0, 0.0, 0.0, 0.8, 0.0], [0.0, 0.0, 1.0],
              [1 / 3, 1 / 3, 0.0, 1 / 3], [0.0, 1e-12, 0.25, 0.75 - 1e-12, 0.0]):
        p = np.array(p)
        for size in range(1, int(np.count_nonzero(p)) + 1):
            cases.append((p, size))
    return cases


def test_remainder_draw_replays_generator_choice():
    cases = _choice_cases()
    assert len(cases) >= 1000
    for seed, (p, size) in enumerate(cases):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        picks = data_module._draw_without_replacement(ours, p.tolist(), size)
        expected = numpys.choice(p.size, size=size, replace=False, p=p)
        assert picks == expected.tolist(), (seed, p, size)
        assert ours.bit_generator.state == numpys.bit_generator.state, (seed, p, size)


class _FixedDoubles:
    """Stands in for a generator whose random() returns the given doubles."""

    def __init__(self, doubles):
        self.doubles = list(doubles)

    def random(self, size):
        out, self.doubles = self.doubles[:size], self.doubles[size:]
        return np.array(out)


def test_remainder_draw_breaks_ties_to_the_right():
    # a double equal to a cumulative sum picks the next entry, as numpy's
    # searchsorted(side="right") does, so a zero weight is never picked
    weights = [0.0, 0.5, 0.5]
    cdf = np.cumsum(weights) / np.sum(weights)
    assert np.searchsorted(cdf, [0.0, 0.5], side="right").tolist() == [1, 2]
    assert data_module._draw_without_replacement(_FixedDoubles([0.0, 0.5]), weights, 2) == [1, 2]
    # a repeated pick is dropped and redrawn with the picked weight zeroed:
    # over cdf [0.25, 0.75, 1.0], 0.3 and 0.5 both pick entry 1, so a second
    # pass draws one double, 0.5, over cdf [0.5, 0.5, 1.0], which picks 2
    doubles = _FixedDoubles([0.3, 0.5, 0.5])
    assert data_module._draw_without_replacement(doubles, [0.25, 0.5, 0.25], 2) == [1, 2]
    assert doubles.doubles == []


def test_remainder_draw_rejects_more_picks_than_positive_weights():
    p = np.array([0.0, 0.5, 0.0, 0.5])
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(4, size=3, replace=False, p=p)
    with pytest.raises(ValueError, match="fewer positive weights"):
        data_module._draw_without_replacement(np.random.default_rng(0), p.tolist(), 3)


# ---------------------------------------------------------------- streaming


def _toy_shard(n=100):
    return ClientShard(
        client_id=0,
        labeled_idx=np.array([], dtype=np.int64),
        unlabeled_idx=np.arange(1000, 1000 + n),
    )


def test_stream_hundred_over_ten_steps():
    out = make_stream_schedule(_toy_shard(100), num_steps=10, seed=5)
    assert len(out.stream_splits) == 10
    assert all(seg.size == 10 for seg in out.stream_splits)
    merged = np.sort(np.concatenate(out.stream_splits))
    assert np.array_equal(merged, out.unlabeled_idx)


def test_stream_single_step_is_identity():
    shard = _toy_shard(40)
    out = make_stream_schedule(shard, num_steps=1, seed=5)
    assert len(out.stream_splits) == 1
    assert np.array_equal(out.stream_splits[0], shard.unlabeled_idx)


def test_stream_partition_near_equal():
    out = make_stream_schedule(_toy_shard(47), num_steps=5, seed=2)
    sizes = sorted(seg.size for seg in out.stream_splits)
    assert sizes == [9, 9, 9, 10, 10]
    merged = np.sort(np.concatenate(out.stream_splits))
    assert np.array_equal(merged, out.unlabeled_idx)


def test_stream_too_few_examples():
    with pytest.raises(ValueError, match="unlabeled examples"):
        make_stream_schedule(_toy_shard(3), num_steps=4, seed=0)


def test_stream_deterministic_and_pure():
    shard = _toy_shard(30)
    a = make_stream_schedule(shard, num_steps=3, seed=8)
    b = make_stream_schedule(shard, num_steps=3, seed=8)
    for sa, sb in zip(a.stream_splits, b.stream_splits):
        assert np.array_equal(sa, sb)
    assert shard.stream_splits is None  # input untouched


# ---------------------------------------------------------------- augment


def _batch(n=6, d=5, seed=0):
    rng = np.random.default_rng(seed)
    return Batch(rng.normal(size=(n, d)) + 1.0, np.arange(n) % 3)


def test_weak_identity_at_zero_strengths():
    cfg = AugmentConfig(0.0, 0.0, 0.0, 0.0)
    b = _batch()
    out = weak_augment(b, cfg, np.random.default_rng(1))
    assert np.array_equal(out.inputs, b.inputs)
    assert np.array_equal(out.labels, b.labels)


def test_strong_identity_at_zero_strengths():
    cfg = AugmentConfig(0.0, 0.0, 0.0, 0.0)
    b = _batch()
    out = strong_augment(b, cfg, np.random.default_rng(1))
    assert np.array_equal(out.inputs, b.inputs)


def test_augment_preserves_shape_and_labels():
    cfg = AugmentConfig()
    b = _batch()
    for fn in (weak_augment, strong_augment):
        out = fn(b, cfg, np.random.default_rng(2))
        assert out.inputs.shape == b.inputs.shape
        assert np.array_equal(out.labels, b.labels)


def test_augment_draws_differ():
    cfg = AugmentConfig()
    b = _batch()
    rng = np.random.default_rng(3)
    a = weak_augment(b, cfg, rng)
    c = weak_augment(b, cfg, rng)
    assert not np.array_equal(a.inputs, c.inputs)


@pytest.mark.parametrize("fn", [weak_augment, strong_augment])
def test_augment_stack_draws_per_client(fn):
    # one generator per client slice: each slice, and each generator's state
    # afterwards, is what the client's own unstacked call gives
    cfg = AugmentConfig()
    slices = [_batch(n=4, seed=k) for k in range(3)]
    stack = Batch(np.stack([b.inputs for b in slices]), np.stack([b.labels for b in slices]))
    rngs = [np.random.default_rng(10 + k) for k in range(3)]
    out = fn(stack, cfg, rngs)
    assert np.array_equal(out.labels, stack.labels)
    for k, b in enumerate(slices):
        alone = np.random.default_rng(10 + k)
        assert np.array_equal(out.inputs[k], fn(b, cfg, alone).inputs)
        assert rngs[k].random() == alone.random()


def test_augment_stack_needs_one_generator_per_slice():
    stack = Batch(np.zeros((3, 4, 5)))
    with pytest.raises(ValueError, match="generators"):
        weak_augment(stack, AugmentConfig(), [np.random.default_rng(0)] * 2)


def test_augmented_views_share_one_workspace_arena():
    # the strong view overwrites the weak view, whose arena it shares, and a
    # view of a view would read the arena it writes, so it is refused
    cfg = AugmentConfig()
    b = _batch()
    ws = Workspace()
    weak = weak_augment(b, cfg, np.random.default_rng(7), workspace=ws)
    strong = strong_augment(b, cfg, np.random.default_rng(8), workspace=ws)
    assert np.shares_memory(weak.inputs, strong.inputs)
    assert np.array_equal(strong.inputs, strong_augment(b, cfg, np.random.default_rng(8)).inputs)
    for fn in (weak_augment, strong_augment):
        with pytest.raises(ValueError, match="augment arena"):
            fn(strong, cfg, np.random.default_rng(9), workspace=ws)


def test_strong_full_mask_zeroes_everything():
    cfg = AugmentConfig(strong_mask_prob=1.0)
    out = strong_augment(_batch(), cfg, np.random.default_rng(4))
    assert np.all(out.inputs == 0.0)


def test_strong_mask_fraction_monte_carlo():
    cfg = AugmentConfig(strong_noise_sigma=0.1, strong_mask_prob=0.2)
    rng = np.random.default_rng(5)
    b = Batch(np.ones((100, 100)), None)
    out = strong_augment(b, cfg, rng)
    frac = float((out.inputs == 0.0).mean())
    assert abs(frac - 0.2) < 0.05


def test_weak_shift_is_per_example_scalar_and_bounded():
    cfg = AugmentConfig(weak_noise_sigma=0.0, weak_shift_fraction=0.1,
                        strong_noise_sigma=0.0, strong_mask_prob=0.0)
    b = _batch(n=8, d=6)
    span = float(b.inputs.max() - b.inputs.min())
    out = weak_augment(b, cfg, np.random.default_rng(6))
    delta = out.inputs - b.inputs
    assert np.allclose(delta, delta[:, :1])  # one scalar per example
    assert np.max(np.abs(delta)) <= 0.1 * span + 1e-12


def test_augment_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(weak_noise_sigma=-0.1)
    with pytest.raises(ValueError):
        AugmentConfig(weak_noise_sigma=0.5, strong_noise_sigma=0.1)
    with pytest.raises(ValueError):
        AugmentConfig(strong_mask_prob=1.5)
    with pytest.raises(ValueError):
        AugmentConfig(weak_shift_fraction=1.0)


# ---------------------------------------------------------------- histogram


def test_label_histogram_counts():
    h = label_histogram(np.array([0, 0, 1, 3]), 4)
    assert np.allclose(h, [0.5, 0.25, 0.0, 0.25])


def test_label_histogram_empty():
    with pytest.raises(ValueError):
        label_histogram(np.array([], dtype=np.int64), 3)
