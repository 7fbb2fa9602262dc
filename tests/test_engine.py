"""Tests for round orchestration, client updates, and aggregation."""

import importlib
import math
import pkgutil

import numpy as np
import pytest

import fedssl
from fedssl import data, engine
from fedssl.data import (
    AugmentConfig,
    ClientShard,
    Dataset,
    ShardPlan,
    dirichlet_shard,
    gen_blobs,
    make_stream_schedule,
    weak_augment,
)
from fedssl.engine import (
    ClientUpdateResult,
    RoundPlan,
    ServerState,
    aggregate,
    aggregate_kl,
    client_update,
    init_server,
    lockstep_update,
    run_round,
    select_clients,
    server_update,
)
from fedssl.metrics import CommLedger
from fedssl.nn import (
    Batch,
    ModelSpec,
    OptimState,
    ParamVector,
    forward_probs,
    init_params,
    loss_and_grad,
    sgd_step,
)
from fedssl.rng import derive_seed
from fedssl.semisup import (
    KlStats,
    SslHyper,
    batch_prediction_distribution,
    combined_client_grad,
    kl_to_uniform,
    pseudo_label,
)
from fedssl.variants import VariantConfig, ema_update

SPEC = ModelSpec(input_dim=3, hidden_dims=(4,), num_classes=3)
AUG = AugmentConfig(0.02, 0.01, 0.06, 0.1)
HYPER = SslHyper(tau=0.5, lambda_u=1.0, mu=0.01)


def _setup(num_clients=4, seed=0, labeled_per_client=4, server_holds_labels=False):
    ds = gen_blobs(3, 3, 40, 0.3, seed=seed)
    plan = ShardPlan(
        num_clients=num_clients,
        dirichlet_alpha=10.0,
        labeled_per_client=labeled_per_client,
        server_holds_labels=server_holds_labels,
        seed=seed,
    )
    res = dirichlet_shard(ds, plan)
    pool = None
    if server_holds_labels:
        pool = Dataset(ds.inputs[res.server_labeled_idx], ds.labels[res.server_labeled_idx], 3)
    return ds, res.shards, pool


def _plan(num_clients=4, topology="labels_at_client", **kw):
    defaults = dict(
        num_clients=num_clients,
        participation_rate=1.0,
        local_epochs=1,
        server_epochs=1,
        topology=topology,
        labeled_batch_size=4,
        unlabeled_batch_size=8,
        server_batch_size=8,
        learning_rate=0.1,
        server_learning_rate=0.1,
    )
    defaults.update(kw)
    return RoundPlan(**defaults)


# ----------------------------------------------------------------- plans


def test_plan_clients_per_round_rule():
    assert _plan(num_clients=20, participation_rate=0.25).clients_per_round == 5
    assert _plan(num_clients=100, participation_rate=0.005).clients_per_round == 1
    assert _plan(num_clients=3, participation_rate=1.0).clients_per_round == 3


def test_plan_validation():
    with pytest.raises(ValueError):
        _plan(participation_rate=0.0)
    with pytest.raises(ValueError):
        _plan(topology="peer_to_peer")
    with pytest.raises(ValueError):
        _plan(local_epochs=-1)
    with pytest.raises(ValueError):
        _plan(unlabeled_batch_size=0)


# --------------------------------------------------------- select_clients


def test_select_all_when_m_equals_k():
    assert select_clients(6, 6, round=0, seed=1) == [0, 1, 2, 3, 4, 5]


def test_select_deterministic_and_varies_by_round():
    a = select_clients(50, 5, round=3, seed=9)
    b = select_clients(50, 5, round=3, seed=9)
    c = select_clients(50, 5, round=4, seed=9)
    assert a == b
    assert a != c
    assert len(set(a)) == 5


def test_select_rejects_bad_m():
    with pytest.raises(ValueError):
        select_clients(5, 6, 0, 0)
    with pytest.raises(ValueError):
        select_clients(5, 0, 0, 0)


def test_select_frequency_monte_carlo():
    counts = np.zeros(100)
    for rnd in range(10_000):
        for cid in select_clients(100, 5, rnd, seed=42):
            counts[cid] += 1
    freq = counts / 10_000
    assert freq.min() >= 0.04 and freq.max() <= 0.06


# ----------------------------------------------------------- client_update


def _downlink(student, teacher=None):
    d = {"student": student}
    if teacher is not None:
        d["teacher"] = teacher
    return d


def test_client_zero_epochs_zero_delta():
    ds, shards, _ = _setup()
    student = init_params(SPEC, 0)
    res = client_update(
        shards[0], _downlink(student), VariantConfig("fedprox_fixmatch"),
        _plan(local_epochs=0), HYPER, SPEC, AUG, ds, seed=7, round=0,
    )
    assert np.all(res.delta.values == 0.0)
    assert res.kl.num_batches == 0
    assert res.num_examples == shards[0].unlabeled_idx.size + shards[0].labeled_idx.size


def test_client_no_gradient_sources_zero_delta():
    # tau=1 masks everything for a soft model; no labels, no prox, no decay
    ds, shards, _ = _setup(labeled_per_client=0)
    student = init_params(SPEC, 0)
    hyper = SslHyper(tau=1.0, lambda_u=1.0, mu=0.0)
    res = client_update(
        shards[1], _downlink(student), VariantConfig("fedprox_fixmatch"),
        _plan(weight_decay=0.0), hyper, SPEC, AUG, ds, seed=3, round=0,
    )
    assert np.all(res.delta.values == 0.0)
    assert res.kl.num_batches > 0


def test_client_matches_manual_single_batch_replay():
    # independent re-derivation of one participation: one epoch, one batch
    ds, shards, _ = _setup()
    shard = shards[2]
    plan = _plan(unlabeled_batch_size=64, labeled_batch_size=4)
    snapshot = init_params(SPEC, 1)
    seed = derive_seed(123, "client", 0, shard.client_id)
    res = client_update(
        shard, _downlink(snapshot), VariantConfig("fedprox_fixmatch"),
        plan, HYPER, SPEC, AUG, ds, seed=seed, round=0,
    )

    rng = np.random.default_rng(seed)
    u_pool = shard.unlabeled_idx
    u_order = u_pool[rng.permutation(u_pool.size)]
    l_order = shard.labeled_idx[rng.permutation(shard.labeled_idx.size)]
    u_batch = Batch(ds.inputs[u_order], None)
    weak = weak_augment(u_batch, AUG, rng)
    source_probs = forward_probs(snapshot, SPEC, weak.inputs)
    pseudo = pseudo_label(source_probs, HYPER.tau)
    l_idx = np.take(l_order, np.arange(4), mode="wrap")
    labeled = Batch(ds.inputs[l_idx], ds.labels[l_idx])
    _, grad, strong_probs = combined_client_grad(
        snapshot, snapshot, labeled, u_batch, pseudo, HYPER, SPEC, AUG, rng
    )
    opt = OptimState.fresh(SPEC, plan.learning_rate, plan.momentum, plan.weight_decay)
    end = sgd_step(snapshot, grad, opt)

    assert np.array_equal(res.delta.values, end.values - snapshot.values)
    # dkl_S: the pre-step student on the strong view the objective used;
    # dkl_T: the pseudo-label source on the weak view
    assert res.kl == KlStats(
        dkl_teacher=kl_to_uniform(batch_prediction_distribution(source_probs)),
        dkl_student=kl_to_uniform(batch_prediction_distribution(strong_probs)),
        num_batches=1,
    )


def test_client_kl_is_the_mean_over_local_batches():
    # independent re-derivation of a participation with several local
    # batches: each KL statistic is the mean of the per-batch values
    ds, shards, _ = _setup()
    shard = shards[1]
    plan = _plan(unlabeled_batch_size=8, labeled_batch_size=4)
    snapshot = init_params(SPEC, 1)
    seed = derive_seed(123, "client", 0, shard.client_id)
    res = client_update(
        shard, _downlink(snapshot), VariantConfig("fedprox_fixmatch"),
        plan, HYPER, SPEC, AUG, ds, seed=seed, round=0,
    )

    rng = np.random.default_rng(seed)
    u_pool = shard.unlabeled_idx
    u_order = u_pool[rng.permutation(u_pool.size)]
    l_order = shard.labeled_idx[rng.permutation(shard.labeled_idx.size)]
    opt = OptimState.fresh(SPEC, plan.learning_rate, plan.momentum, plan.weight_decay)
    student = snapshot
    teacher_kls, student_kls = [], []
    for b, start in enumerate(range(0, u_order.size, 8)):
        u_batch = Batch(ds.inputs[u_order[start:start + 8]], None)
        weak = weak_augment(u_batch, AUG, rng)
        source_probs = forward_probs(student, SPEC, weak.inputs)
        pseudo = pseudo_label(source_probs, HYPER.tau)
        l_idx = np.take(l_order, np.arange(b * 4, (b + 1) * 4), mode="wrap")
        labeled = Batch(ds.inputs[l_idx], ds.labels[l_idx])
        _, grad, strong_probs = combined_client_grad(
            student, snapshot, labeled, u_batch, pseudo, HYPER, SPEC, AUG, rng
        )
        student = sgd_step(student, grad, opt)
        teacher_kls.append(kl_to_uniform(batch_prediction_distribution(source_probs)))
        student_kls.append(kl_to_uniform(batch_prediction_distribution(strong_probs)))

    assert len(teacher_kls) >= 2
    # the batches differ, so a first-batch, last-batch or summed statistic
    # would not match
    assert len(set(teacher_kls)) > 1 and len(set(student_kls)) > 1
    assert np.array_equal(res.delta.values, student.values - snapshot.values)
    assert res.kl == KlStats(
        dkl_teacher=float(np.mean(teacher_kls)),
        dkl_student=float(np.mean(student_kls)),
        num_batches=len(teacher_kls),
    )


@pytest.fixture
def strong_calls(monkeypatch):
    """Count strong_augment calls through every fedssl module that binds it."""
    calls = []
    original = data.strong_augment

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for info in pkgutil.iter_modules(fedssl.__path__):
        mod = importlib.import_module(f"fedssl.{info.name}")
        for attr, obj in list(vars(mod).items()):
            if obj is original:
                monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("kind,with_teacher", [
    ("fedprox_fixmatch", False),
    ("ts_server_ema", True),
    ("ts_client_ema", True),
    ("fedswitch", True),
    ("fedswitch", False),
])
def test_client_one_strong_view_per_local_batch(strong_calls, kind, with_teacher):
    ds, shards, _ = _setup()
    shard = shards[1]
    plan = _plan(local_epochs=2)
    student = init_params(SPEC, 0)
    teacher = init_params(SPEC, 5) if with_teacher else None
    res = client_update(
        shard, _downlink(student, teacher), VariantConfig(kind, ema_alpha=0.9),
        plan, HYPER, SPEC, AUG, ds, seed=4, round=0,
    )
    batches = plan.local_epochs * math.ceil(shard.unlabeled_idx.size / plan.unlabeled_batch_size)
    assert res.kl.num_batches == batches
    assert len(strong_calls) == batches


def test_client_stateless_double_invoke():
    ds, shards, _ = _setup()
    student = init_params(SPEC, 0)
    teacher = init_params(SPEC, 5)
    args = (
        shards[0], _downlink(student, teacher), VariantConfig("ts_client_ema", ema_alpha=0.9),
        _plan(local_epochs=2), HYPER, SPEC, AUG, ds,
    )
    a = client_update(*args, seed=11, round=4)
    b = client_update(*args, seed=11, round=4)
    assert np.array_equal(a.delta.values, b.delta.values)
    assert np.array_equal(a.teacher_delta.values, b.teacher_delta.values)
    assert a.kl == b.kl
    assert a.num_examples == b.num_examples


def test_client_delta_reconstruction_bit_exact():
    ds, shards, _ = _setup()
    snapshot = init_params(SPEC, 2)
    res = client_update(
        shards[0], _downlink(snapshot), VariantConfig("fedprox_fixmatch"),
        _plan(), HYPER, SPEC, AUG, ds, seed=21, round=0,
    )
    rebuilt = snapshot.values + res.delta.values
    res2 = client_update(
        shards[0], _downlink(snapshot), VariantConfig("fedprox_fixmatch"),
        _plan(), HYPER, SPEC, AUG, ds, seed=21, round=0,
    )
    assert np.array_equal(snapshot.values + res2.delta.values, rebuilt)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_client_nan_aborts_with_context():
    ds, shards, _ = _setup()
    student = init_params(SPEC, 0)
    with pytest.raises(RuntimeError, match=r"client 0.*batch"):
        client_update(
            shards[0], _downlink(student), VariantConfig("fedprox_fixmatch"),
            _plan(learning_rate=1e300), HYPER, SPEC, AUG, ds, seed=1, round=0,
        )


def test_client_uploads_per_variant():
    ds, shards, _ = _setup()
    student = init_params(SPEC, 0)
    teacher = init_params(SPEC, 1)
    for kind, n_up in (("fedprox_fixmatch", 1), ("ts_server_ema", 1),
                       ("ts_client_ema", 2), ("fedswitch", 1)):
        teach = teacher if kind != "fedprox_fixmatch" else None
        res = client_update(
            shards[0], _downlink(student, teach), VariantConfig(kind),
            _plan(), HYPER, SPEC, AUG, ds, seed=2, round=3,
        )
        assert len(res.uploads) == n_up
        assert all(u.direction == "uplink" and u.round == 3 for u in res.uploads)
        assert res.uploads[0].role == "student"
        assert res.uploads[0].bytes == SPEC.num_params * 8


def test_client_missing_student_in_downlink():
    ds, shards, _ = _setup()
    with pytest.raises(ValueError, match="student"):
        client_update(
            shards[0], {}, VariantConfig("fedprox_fixmatch"),
            _plan(), HYPER, SPEC, AUG, ds, seed=0, round=0,
        )


# -------------------------------------------------------- lockstep_update


def _same_result(a, b):
    assert a.client_id == b.client_id
    assert np.array_equal(a.delta.values, b.delta.values)
    if b.teacher_delta is None:
        assert a.teacher_delta is None
    else:
        assert np.array_equal(a.teacher_delta.values, b.teacher_delta.values)
    assert a.kl == b.kl
    assert a.num_examples == b.num_examples
    assert a.uploads == b.uploads


@pytest.mark.parametrize("kind,with_teacher", [
    ("fedprox_fixmatch", False),
    ("ts_server_ema", True),
    ("ts_client_ema", True),
    ("fedswitch", True),
    ("fedswitch", False),
])
def test_lockstep_group_equals_one_client_calls(kind, with_teacher):
    ds, shards, _ = _setup()
    plan = _plan(local_epochs=2, momentum=0.5, weight_decay=0.01)
    student = init_params(SPEC, 0)
    teacher = init_params(SPEC, 5) if with_teacher else None
    args = (_downlink(student, teacher), VariantConfig(kind, ema_alpha=0.9),
            plan, HYPER, SPEC, AUG, ds)
    seeds = [derive_seed(9, "client", 3, sh.client_id) for sh in shards]
    group = lockstep_update(shards, *args, seeds=seeds, round=3)
    assert [r.client_id for r in group] == [sh.client_id for sh in shards]
    for res, shard, seed in zip(group, shards, seeds):
        _same_result(res, client_update(shard, *args, seed=seed, round=3))
    # the clients' trajectories differ, so a shared slice would not match
    assert len({r.delta.values.tobytes() for r in group}) == len(shards)


def test_lockstep_group_matches_an_unstacked_replay():
    # independent re-derivation with the unstacked per-batch functions: the
    # client in the middle of a ts_client_ema group, two epochs
    ds, shards, _ = _setup()
    plan = _plan(local_epochs=2)
    snapshot = init_params(SPEC, 1)
    downlinked = init_params(SPEC, 2)
    variant = VariantConfig("ts_client_ema", ema_alpha=0.8)
    seeds = [derive_seed(4, "client", 0, sh.client_id) for sh in shards]
    group = lockstep_update(shards, _downlink(snapshot, downlinked), variant, plan, HYPER,
                            SPEC, AUG, ds, seeds=seeds, round=0)

    shard, rng = shards[2], np.random.default_rng(seeds[2])
    student, teacher = snapshot, downlinked
    opt = OptimState.fresh(SPEC, plan.learning_rate)
    teacher_kls, student_kls = [], []
    for _ in range(plan.local_epochs):
        u_order = shard.unlabeled_idx[rng.permutation(shard.unlabeled_idx.size)]
        l_order = shard.labeled_idx[rng.permutation(shard.labeled_idx.size)]
        for b, start in enumerate(range(0, u_order.size, 8)):
            u_batch = Batch(ds.inputs[u_order[start:start + 8]], None)
            weak = weak_augment(u_batch, AUG, rng)
            teacher = ema_update(teacher, student, variant.ema_alpha)
            source_probs = forward_probs(teacher, SPEC, weak.inputs)
            pseudo = pseudo_label(source_probs, HYPER.tau, source="teacher")
            l_idx = np.take(l_order, np.arange(b * 4, (b + 1) * 4), mode="wrap")
            labeled = Batch(ds.inputs[l_idx], ds.labels[l_idx])
            _, grad, strong_probs = combined_client_grad(
                student, snapshot, labeled, u_batch, pseudo, HYPER, SPEC, AUG, rng
            )
            student = sgd_step(student, grad, opt)
            teacher_kls.append(kl_to_uniform(batch_prediction_distribution(source_probs)))
            student_kls.append(kl_to_uniform(batch_prediction_distribution(strong_probs)))

    res = group[2]
    assert np.array_equal(res.delta.values, student.values - snapshot.values)
    assert np.array_equal(res.teacher_delta.values, teacher.values - downlinked.values)
    assert res.kl == KlStats(float(np.mean(teacher_kls)), float(np.mean(student_kls)),
                             len(teacher_kls))


def test_lockstep_rejects_mixed_batch_shapes():
    ds, shards, _ = _setup()
    other = ClientShard(99, shards[1].labeled_idx, shards[1].unlabeled_idx[:-1])
    args = (_downlink(init_params(SPEC, 0)), VariantConfig("fedprox_fixmatch"),
            _plan(), HYPER, SPEC, AUG, ds)
    with pytest.raises(ValueError, match="pool size"):
        lockstep_update([shards[0], other], *args, seeds=[1, 2], round=0)
    unlabeled_only = ClientShard(98, np.array([], dtype=np.int64), shards[1].unlabeled_idx)
    with pytest.raises(ValueError, match="label presence"):
        lockstep_update([shards[0], unlabeled_only], *args, seeds=[1, 2], round=0)


@pytest.fixture
def lockstep_groups(monkeypatch):
    """Record every group run_round trains, with its results."""
    groups = []
    original = engine.lockstep_update

    def recorded(shards, *args, **kwargs):
        results = original(shards, *args, **kwargs)
        groups.append((shards, kwargs, results))
        return results

    monkeypatch.setattr(engine, "lockstep_update", recorded)
    return groups


def test_round_ragged_streaming_segments_train_as_separate_groups(lockstep_groups):
    # 37 unlabeled examples per client in 3 streamed segments of 13/12/12;
    # clients at different stream positions have different pool sizes
    ds = gen_blobs(3, 3, 41, 0.3, seed=0)
    res = dirichlet_shard(ds, ShardPlan(3, 10.0, 4, seed=0))
    shards = [make_stream_schedule(sh, 3, seed=sh.client_id) for sh in res.shards]
    assert [s.size for s in shards[0].stream_splits] == [13, 12, 12]
    plan = _plan(num_clients=3)
    variant = VariantConfig("ts_client_ema", ema_alpha=0.9)
    server = init_server(SPEC, variant, seed=0)
    positions = {0: 0, 1: 1, 2: 2}
    kl_out = {}
    run_round(server, shards, variant, plan, HYPER, SPEC, AUG, ds, ds, 17, CommLedger(),
              stream_positions=positions, client_kl_out=kl_out)

    groups = list(lockstep_groups)  # the one-client calls below add their own
    assert [[sh.client_id for sh in g[0]] for g in groups] == [[0], [1, 2]]
    assert positions == {0: 1, 1: 2, 2: 3}
    downlink = {"student": server.global_student, "teacher": server.global_teacher}
    for group, kwargs, results in groups:
        for shard, step, res in zip(group, kwargs["stream_steps"], results):
            alone = client_update(shard, downlink, variant, plan, HYPER, SPEC, AUG, ds,
                                  seed=derive_seed(17, "client", 0, shard.client_id),
                                  round=0, stream_step=step)
            _same_result(res, alone)
            assert kl_out[shard.client_id] == alone.kl


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lockstep_non_finite_client_is_named():
    ds, shards, _ = _setup()
    seeds = [derive_seed(2, "client", 0, sh.client_id) for sh in shards]
    # poison one unlabeled example of client 2; its own permutation puts it
    # in a known batch
    shard = shards[2]
    bad = int(shard.unlabeled_idx[5])
    order = shard.unlabeled_idx[np.random.default_rng(seeds[2]).permutation(
        shard.unlabeled_idx.size)]
    batch = int(np.flatnonzero(order == bad)[0]) // 8
    inputs = ds.inputs.copy()
    inputs[bad] = np.nan
    poisoned = Dataset(inputs, ds.labels, ds.num_classes)
    with pytest.raises(RuntimeError, match=rf"^client 2: non-finite loss at epoch 0 batch {batch}:"):
        lockstep_update(shards, _downlink(init_params(SPEC, 0)), VariantConfig("fedprox_fixmatch"),
                        _plan(local_epochs=2), HYPER, SPEC, AUG, poisoned, seeds=seeds, round=0)


def test_lockstep_pseudo_label_counts_equal_one_client_runs(monkeypatch):
    # the benchmark's mask rate divides by these rows
    from fedssl import variants

    seen = {"rows": 0, "kept": 0.0, "calls": 0}
    original = variants.pseudo_label

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        seen["calls"] += 1
        seen["rows"] += out.size
        seen["kept"] += float(out.mask.sum())
        return out

    monkeypatch.setattr(variants, "pseudo_label", counted)
    ds, shards, _ = _setup()
    args = (_downlink(init_params(SPEC, 0), init_params(SPEC, 1)),
            VariantConfig("fedswitch", ema_alpha=0.9), _plan(local_epochs=2), HYPER, SPEC, AUG, ds)
    seeds = [derive_seed(5, "client", 1, sh.client_id) for sh in shards]
    lockstep_update(shards, *args, seeds=seeds, round=1)
    grouped = dict(seen)
    seen.update(rows=0, kept=0.0, calls=0)
    for shard, seed in zip(shards, seeds):
        client_update(shard, *args, seed=seed, round=1)
    assert grouped["rows"] == seen["rows"] == 2 * sum(sh.unlabeled_idx.size for sh in shards)
    assert grouped["kept"] == seen["kept"] > 0
    # one call per local batch for the whole group
    assert grouped["calls"] * len(shards) == seen["calls"]


# -------------------------------------------------------------- aggregate


def _result(cid, delta_values):
    delta = ParamVector(np.asarray(delta_values, dtype=np.float64), SPEC.spec_hash)
    return ClientUpdateResult(cid, delta, None, KlStats(0, 0, 0), 10, [])


def _server(values=None):
    student = init_params(SPEC, 0)
    if values is not None:
        student = ParamVector(np.asarray(values, dtype=np.float64), SPEC.spec_hash)
    return ServerState(student, None, 0, KlStats(0, 0, 0))


def test_aggregate_opposite_deltas_cancel():
    n = SPEC.num_params
    srv = _server(np.zeros(n))
    out = aggregate(srv, [_result(0, np.full(n, 2.0)), _result(1, np.full(n, -2.0))])
    assert np.all(out.values == 0.0)


def test_aggregate_single_client():
    n = SPEC.num_params
    srv = _server(np.full(n, 1.0))
    out = aggregate(srv, [_result(0, np.full(n, 0.5))])
    assert np.allclose(out.values, 1.5, atol=0)


def test_aggregate_unweighted_mean_ignores_example_counts():
    n = SPEC.num_params
    srv = _server(np.zeros(n))
    small = _result(0, np.full(n, 3.0))
    large = _result(1, np.full(n, -1.0))
    small.num_examples, large.num_examples = 1, 99
    out = aggregate(srv, [small, large])
    assert np.all(out.values == 1.0)


def test_aggregate_permutation_invariant_bitwise():
    rng = np.random.default_rng(0)
    results = [_result(cid, rng.normal(size=SPEC.num_params)) for cid in range(5)]
    srv = _server()
    fwd = aggregate(srv, results)
    rev = aggregate(srv, list(reversed(results)))
    assert np.array_equal(fwd.values, rev.values)


def test_aggregate_rejects_empty_and_mismatch():
    srv = _server()
    with pytest.raises(ValueError):
        aggregate(srv, [])
    other = ModelSpec(input_dim=3, hidden_dims=(5,), num_classes=3)
    bad = ClientUpdateResult(
        0, init_params(other, 0), None, KlStats(0, 0, 0), 1, []
    )
    with pytest.raises(ValueError):
        aggregate(srv, [bad])


def test_aggregate_kl_mean_of_means():
    a = KlStats(0.0, 0.2, 3)
    b = KlStats(math.log(10), 0.4, 5)
    agg = aggregate_kl([a, b])
    assert agg.dkl_teacher == pytest.approx(math.log(10) / 2, abs=1e-12)
    assert agg.dkl_student == pytest.approx(0.3, abs=1e-12)
    assert agg.num_batches == 8


# ----------------------------------------------------------- server_update


def _pool(n=12, seed=0):
    ds = gen_blobs(3, 3, n // 3, 0.2, seed=seed)
    return ds


def test_server_update_zero_epochs_identity():
    pool = _pool()
    params = init_params(SPEC, 0)
    out = server_update(params, pool, 0, 0.1, 8, seed=0, spec=SPEC)
    assert np.array_equal(out.values, params.values)
    assert out is not params


def test_server_update_single_batch_equals_sgd_step():
    pool = _pool()
    params = init_params(SPEC, 1)
    seed = 5
    out = server_update(params, pool, 1, 0.2, batch_size=pool.size, seed=seed, spec=SPEC)

    rng = np.random.default_rng(seed)
    order = rng.permutation(pool.size)
    batch = Batch(pool.inputs[order], pool.labels[order])
    _, grad = loss_and_grad(params, SPEC, batch, batch.labels, np.ones(pool.size))
    opt = OptimState(learning_rate=0.2, momentum=0.0, weight_decay=0.0,
                     velocity=np.zeros(SPEC.num_params))
    expect = sgd_step(params.copy(), grad, opt)
    assert np.array_equal(out.values, expect.values)


def test_server_update_requires_pool():
    with pytest.raises(ValueError):
        server_update(init_params(SPEC, 0), None, 1, 0.1, 8, 0, SPEC)


def _server_loop(params, pool, epochs, lr, batch_size, seed, spec):
    """The per-batch server loop the kernel replaced, kept as its oracle:
    the trained parameters, or the (epoch, batch) of the first non-finite
    loss or gradient.
    """
    out = params.copy()
    rng = np.random.default_rng(seed)
    opt = OptimState(learning_rate=lr, momentum=0.0, weight_decay=0.0,
                     velocity=np.zeros(spec.num_params))
    for epoch in range(epochs):
        order = rng.permutation(pool.size)
        for b, start in enumerate(range(0, pool.size, batch_size)):
            idx = order[start:start + batch_size]
            batch = Batch(pool.inputs[idx], pool.labels[idx])
            try:
                _, grad = loss_and_grad(out, spec, batch, batch.labels,
                                        np.ones(idx.size, dtype=np.float64))
            except FloatingPointError:
                return epoch, b
            out = sgd_step(out, grad, opt)
    return out


@pytest.mark.parametrize("n, batch_size, epochs, hidden, activation", [
    (37, 8, 3, (4,), "relu"),     # several epochs, ragged last batch of 5
    (37, 8, 3, (4,), "tanh"),
    (37, 8, 2, (5, 4), "relu"),   # two hidden layers
    (37, 8, 2, (5, 4), "tanh"),
    (12, 12, 2, (4,), "relu"),    # one batch, exactly the pool
    (12, 50, 3, (5, 4), "tanh"),  # one batch, larger than the pool
])
def test_server_update_equals_the_per_batch_loop(n, batch_size, epochs, hidden, activation):
    spec = ModelSpec(input_dim=3, hidden_dims=hidden, num_classes=3, activation=activation)
    full = gen_blobs(3, 3, 13, 0.4, seed=2)
    keep = np.random.default_rng(0).permutation(full.size)[:n]
    pool = Dataset(full.inputs[keep], full.labels[keep], full.num_classes)
    params = init_params(spec, 3)
    before = params.values.copy()
    out = server_update(params, pool, epochs, 0.3, batch_size, seed=11, spec=spec)
    expect = _server_loop(params, pool, epochs, 0.3, batch_size, 11, spec)
    assert out.values.tobytes() == expect.values.tobytes()
    assert out.spec_hash == params.spec_hash
    assert np.array_equal(params.values, before)


@pytest.mark.parametrize("epochs", [0, 2])
def test_server_update_rejects_a_pool_of_the_wrong_dimension(epochs):
    pool = gen_blobs(3, 4, 4, 0.2, seed=0)
    with pytest.raises(ValueError, match="input_dim"):
        server_update(init_params(SPEC, 0), pool, epochs, 0.1, 8, 0, SPEC)


def test_server_update_divergence_names_epoch_and_batch():
    base = gen_blobs(3, 3, 13, 0.2, seed=0)
    # inputs this large overflow the logits after a few steps
    pool = Dataset(base.inputs * 1e20, base.labels, base.num_classes)
    params = init_params(SPEC, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        epoch, batch = _server_loop(params, pool, 6, 1.0, 8, 4, SPEC)
        assert epoch >= 1
        with pytest.raises(RuntimeError,
                           match=rf"^server update: non-finite loss or gradient at epoch "
                                 rf"{epoch} batch {batch}$"):
            server_update(params, pool, 6, 1.0, 8, seed=4, spec=SPEC)


def test_server_update_overflow_on_the_last_step_is_named():
    # no batch follows the last step to see the overflow in its loss
    pool = _pool()
    pool = Dataset(pool.inputs * 1e10, pool.labels, pool.num_classes)
    params = init_params(SPEC, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        # one batch per epoch: the second epoch's loss sees the first step's overflow
        assert _server_loop(params, pool, 2, 1e300, pool.size, 0, SPEC) == (1, 0)
        with pytest.raises(RuntimeError,
                           match=r"^server update: non-finite parameters after epoch 0 batch 0$"):
            server_update(params, pool, 1, 1e300, pool.size, seed=0, spec=SPEC)


# ---------------------------------------------------------------- run_round


def _run(variant, rounds=3, topology="labels_at_client", stream_steps=None,
         seed=17, plan_kw=None, num_clients=4, setup_seed=0):
    server_side = topology != "labels_at_client"
    ds, shards, pool = _setup(
        num_clients=num_clients, seed=setup_seed,
        server_holds_labels=server_side,
    )
    if stream_steps:
        shards = [make_stream_schedule(sh, stream_steps, seed=100 + sh.client_id)
                  for sh in shards]
    eval_ds = gen_blobs(3, 3, 30, 0.3, seed=999)
    plan = _plan(num_clients=num_clients, topology=topology, **(plan_kw or {}))
    server = init_server(SPEC, variant, seed=seed, server_labeled_pool=pool)
    ledger = CommLedger()
    positions: dict[int, int] = {}
    reports = []
    for _ in range(rounds):
        server, rep = run_round(
            server, shards, variant, plan, HYPER, SPEC, AUG, ds, eval_ds,
            base_seed=seed, ledger=ledger, stream_positions=positions,
        )
        reports.append(rep)
    return server, reports, ledger, positions


def test_round_zero_delta_clients_keep_global_fixed():
    variant = VariantConfig("ts_server_ema", ema_alpha=0.5)
    ds, shards, _ = _setup()
    eval_ds = gen_blobs(3, 3, 30, 0.3, seed=999)
    plan = _plan(local_epochs=0)
    server = init_server(SPEC, variant, seed=1)
    before_student = server.global_student.values.copy()
    before_teacher = server.global_teacher.values.copy()
    ledger = CommLedger()
    new_server, rep = run_round(
        server, shards, variant, plan, HYPER, SPEC, AUG, ds, eval_ds,
        base_seed=3, ledger=ledger,
    )
    assert np.array_equal(new_server.global_student.values, before_student)
    assert np.array_equal(new_server.global_teacher.values, before_teacher)
    assert new_server.round == 1
    assert rep.dkl_teacher == 0.0 and rep.dkl_student == 0.0


def test_round_reports_deterministic():
    _, reps_a, _, _ = _run(VariantConfig("fedswitch", ema_alpha=0.9), rounds=4)
    _, reps_b, _, _ = _run(VariantConfig("fedswitch", ema_alpha=0.9), rounds=4)
    assert [r.csv_row() for r in reps_a] == [r.csv_row() for r in reps_b]


def test_round_zero_fedswitch_sends_teacher():
    _, reports, ledger, _ = _run(VariantConfig("fedswitch"), rounds=1)
    assert reports[0].send_teacher is True
    assert ledger.model_count("downlink", "teacher") == 4


def test_round_privacy_surface():
    for kind in ("fedprox_fixmatch", "ts_server_ema", "fedswitch"):
        _, _, ledger, _ = _run(VariantConfig(kind, ema_alpha=0.9), rounds=3)
        assert all(e.role in ("student", "teacher") for e in ledger.entries)
        # one student delta per client per round, never a teacher upload
        assert ledger.model_count("uplink", "teacher") == 0
        assert ledger.model_count("uplink", "student") == 3 * 4
    _, _, ledger, _ = _run(VariantConfig("ts_client_ema"), rounds=3)
    assert ledger.model_count("uplink", "teacher") == 3 * 4
    assert ledger.model_count("uplink", "student") == 3 * 4


def test_round_fedswitch_uplink_matches_baseline():
    _, _, led_fs, _ = _run(VariantConfig("fedswitch"), rounds=5)
    _, _, led_fpf, _ = _run(VariantConfig("fedprox_fixmatch"), rounds=5)
    assert led_fs.model_count("uplink") == led_fpf.model_count("uplink")
    assert led_fs.total_bytes("uplink") == led_fpf.total_bytes("uplink")


def test_round_streaming_positions_advance():
    _, _, _, positions = _run(
        VariantConfig("fedprox_fixmatch"), rounds=3, stream_steps=3,
        plan_kw={"participation_rate": 0.5},
    )
    # 2 of 4 clients participate per round; positions advance only for them
    assert sum(positions.values()) == 3 * 2
    assert all(v <= 3 for v in positions.values())


def test_round_streaming_requires_positions():
    variant = VariantConfig("fedprox_fixmatch")
    ds, shards, _ = _setup()
    shards = [make_stream_schedule(sh, 2, seed=0) for sh in shards]
    eval_ds = gen_blobs(3, 3, 30, 0.3, seed=999)
    server = init_server(SPEC, variant, seed=1)
    with pytest.raises(ValueError, match="stream_positions"):
        run_round(server, shards, variant, _plan(), HYPER, SPEC, AUG, ds, eval_ds,
                  base_seed=0, ledger=CommLedger())


def test_round_labels_at_server_topologies_differ_exactly():
    # with zero local epochs the two server topologies relate by the merge weight
    variant = VariantConfig("fedprox_fixmatch")
    seq_server, _, _, _ = _run(
        variant, rounds=1, topology="labels_at_server_sequential",
        plan_kw={"local_epochs": 0},
    )
    par_server, _, _, _ = _run(
        variant, rounds=1, topology="labels_at_server_parallel",
        plan_kw={"local_epochs": 0},
    )
    ds, shards, pool = _setup(server_holds_labels=True)
    base = init_server(SPEC, variant, seed=17, server_labeled_pool=pool)
    n_s = pool.size
    n = n_s + sum(sh.unlabeled_idx.size + sh.labeled_idx.size for sh in shards)
    w = n_s / n
    blended = w * seq_server.global_student.values + (1 - w) * base.global_student.values
    assert np.allclose(par_server.global_student.values, blended, atol=1e-15)
    assert not np.array_equal(seq_server.global_student.values,
                              par_server.global_student.values)


def test_round_requires_pool_for_server_topology():
    variant = VariantConfig("fedprox_fixmatch")
    ds, shards, _ = _setup()
    eval_ds = gen_blobs(3, 3, 30, 0.3, seed=999)
    server = init_server(SPEC, variant, seed=1)
    with pytest.raises(ValueError, match="labeled pool"):
        run_round(server, shards, variant,
                  _plan(topology="labels_at_server_sequential"),
                  HYPER, SPEC, AUG, ds, eval_ds, base_seed=0, ledger=CommLedger())


# ------------------------------------------------------ reduction preview


def test_fedswitch_alpha_zero_matches_baseline_bitwise():
    # per-batch EMA with alpha=0 keeps the teacher at the student's batch-start
    # params, so pseudo-labels coincide with the baseline's at every batch
    fs_server, _, _, _ = _run(
        VariantConfig("fedswitch", ema_alpha=0.0), rounds=5,
        plan_kw={"local_epochs": 2, "unlabeled_batch_size": 4},
    )
    fpf_server, _, _, _ = _run(
        VariantConfig("fedprox_fixmatch"), rounds=5,
        plan_kw={"local_epochs": 2, "unlabeled_batch_size": 4},
    )
    assert np.array_equal(fs_server.global_student.values,
                          fpf_server.global_student.values)


def test_ts_server_alpha_zero_matches_baseline_single_step():
    # frozen local teacher equals the live student only for one step per round
    kw = {"local_epochs": 1, "unlabeled_batch_size": 64, "labeled_batch_size": 64}
    ts_server, _, _, _ = _run(VariantConfig("ts_server_ema", ema_alpha=0.0),
                              rounds=5, plan_kw=kw)
    fpf_server, _, _, _ = _run(VariantConfig("fedprox_fixmatch"),
                               rounds=5, plan_kw=kw)
    assert np.array_equal(ts_server.global_student.values,
                          fpf_server.global_student.values)
