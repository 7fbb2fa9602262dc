"""Tests for round orchestration, client updates, and aggregation."""

import importlib
import math
import pkgutil
import tracemalloc
from dataclasses import replace

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
    ClientUpdates,
    RoundPlan,
    ServerState,
    aggregate,
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
    Workspace,
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


def test_plan_clients_per_round_is_not_cut_short_by_float_error():
    # 0.29 * 100 is 28.999999999999996 in floats, 0.58 * 50 too, and
    # 0.7 * 90 is 62.99999999999999
    assert _plan(num_clients=100, participation_rate=0.29).clients_per_round == 29
    assert _plan(num_clients=50, participation_rate=0.58).clients_per_round == 29
    assert _plan(num_clients=90, participation_rate=0.7).clients_per_round == 63
    # every rate of two decimals on 1 to 200 clients selects the exact floor
    # of the product, at least 1
    for pct in range(1, 101):
        for n in range(1, 201):
            plan = _plan(num_clients=n, participation_rate=pct / 100)
            assert plan.clients_per_round == max(pct * n // 100, 1), (pct, n)


def test_plan_validation():
    with pytest.raises(ValueError):
        _plan(participation_rate=0.0)
    with pytest.raises(ValueError):
        _plan(topology="peer_to_peer")
    with pytest.raises(ValueError):
        _plan(local_epochs=-1)
    with pytest.raises(ValueError):
        _plan(unlabeled_batch_size=0)
    with pytest.raises(ValueError, match="momentum"):
        _plan(momentum=1.0)
    with pytest.raises(ValueError, match="weight_decay"):
        _plan(weight_decay=-0.1)


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
    assert np.array_equal(res.kl, np.zeros((2, 1)))


def test_client_no_gradient_sources_zero_delta(strong_calls):
    # tau=1 masks everything for a soft model; no labels, no prox, no decay
    ds, shards, _ = _setup(labeled_per_client=0)
    student = init_params(SPEC, 0)
    hyper = SslHyper(tau=1.0, lambda_u=1.0, mu=0.0)
    res = client_update(
        shards[1], _downlink(student), VariantConfig("fedprox_fixmatch"),
        _plan(weight_decay=0.0), hyper, SPEC, AUG, ds, seed=3, round=0,
    )
    assert np.all(res.delta.values == 0.0)
    assert strong_calls  # local batches ran


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
    opt = OptimState(plan.learning_rate, plan.momentum, plan.weight_decay,
                     velocity=np.zeros(SPEC.num_params))
    end = sgd_step(snapshot, grad, opt)

    assert np.array_equal(res.delta.values[0], end.values - snapshot.values)
    # dkl_S: the pre-step student on the strong view the objective used;
    # dkl_T: the pseudo-label source on the weak view
    assert np.array_equal(res.kl, [
        [kl_to_uniform(batch_prediction_distribution(source_probs))],
        [kl_to_uniform(batch_prediction_distribution(strong_probs))],
    ])


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
    opt = OptimState(plan.learning_rate, plan.momentum, plan.weight_decay,
                     velocity=np.zeros(SPEC.num_params))
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
    assert np.array_equal(res.delta.values[0], student.values - snapshot.values)
    assert np.array_equal(res.kl, [[np.mean(teacher_kls)], [np.mean(student_kls)]])


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
    assert np.array_equal(a.kl, b.kl)


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
    with pytest.raises(RuntimeError, match=r"^client 0: non-finite \w+ at round 7 .*batch"):
        client_update(
            shards[0], _downlink(student), VariantConfig("fedprox_fixmatch"),
            _plan(learning_rate=1e300), HYPER, SPEC, AUG, ds, seed=1, round=7,
        )


def test_client_uploads_per_variant():
    ds, shards, _ = _setup()
    student = init_params(SPEC, 0)
    teacher = init_params(SPEC, 1)
    for kind, uploads_teacher in (("fedprox_fixmatch", False), ("ts_server_ema", False),
                                  ("ts_client_ema", True), ("fedswitch", False)):
        teach = teacher if kind != "fedprox_fixmatch" else None
        res = client_update(
            shards[0], _downlink(student, teach), VariantConfig(kind),
            _plan(), HYPER, SPEC, AUG, ds, seed=2, round=3,
        )
        assert len(res.delta) == SPEC.num_params
        assert (res.teacher_delta is not None) == uploads_teacher


def test_client_missing_student_in_downlink():
    ds, shards, _ = _setup()
    with pytest.raises(ValueError, match="student"):
        client_update(
            shards[0], {}, VariantConfig("fedprox_fixmatch"),
            _plan(), HYPER, SPEC, AUG, ds, seed=0, round=0,
        )


# -------------------------------------------------------- lockstep_update


def _rows(updates):
    """Each client's one-row blocks of a group, as client_update makes them."""
    teacher = updates.teacher_delta
    return [ClientUpdates(
        [cid], ParamVector(updates.delta.values[k:k + 1], updates.delta.spec_hash),
        None if teacher is None else ParamVector(teacher.values[k:k + 1], teacher.spec_hash),
        updates.kl[:, k:k + 1]) for k, cid in enumerate(updates.client_ids)]


def _same_result(a, b):
    assert a.client_ids == b.client_ids
    assert np.array_equal(a.delta.values, b.delta.values)
    if b.teacher_delta is None:
        assert a.teacher_delta is None
    else:
        assert np.array_equal(a.teacher_delta.values, b.teacher_delta.values)
    assert np.array_equal(a.kl, b.kl)


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
    assert list(group.client_ids) == [sh.client_id for sh in shards]
    for res, shard, seed in zip(_rows(group), shards, seeds):
        _same_result(res, client_update(shard, *args, seed=seed, round=3))
    # the clients' trajectories differ, so a shared slice would not match
    assert len({row.tobytes() for row in group.delta.values}) == len(shards)


def _ts_client_ema_replay(ds, shard, downlink, variant, plan, seed, spec=SPEC, stream_step=0):
    """Independent re-derivation of one ts_client_ema participation with the
    unstacked per-batch functions, each on its own fresh arrays.
    """
    snapshot, downlinked = downlink["student"], downlink["teacher"]
    rng = np.random.default_rng(seed)
    pool = shard.unlabeled_idx if shard.stream_splits is None else (
        shard.stream_splits[stream_step % len(shard.stream_splits)])
    ub, lb = plan.unlabeled_batch_size, plan.labeled_batch_size
    student, teacher = snapshot, downlinked
    opt = OptimState(plan.learning_rate, plan.momentum, plan.weight_decay,
                     velocity=np.zeros(spec.num_params))
    teacher_kls, student_kls = [], []
    for _ in range(plan.local_epochs):
        u_order = pool[rng.permutation(pool.size)]
        l_order = shard.labeled_idx[rng.permutation(shard.labeled_idx.size)]
        for b, start in enumerate(range(0, u_order.size, ub)):
            u_batch = Batch(ds.inputs[u_order[start:start + ub]], None)
            weak = weak_augment(u_batch, AUG, rng)
            teacher = ema_update(teacher, student, variant.ema_alpha)
            source_probs = forward_probs(teacher, spec, weak.inputs)
            pseudo = pseudo_label(source_probs, HYPER.tau, source="teacher")
            labeled = None
            if l_order.size:
                l_idx = np.take(l_order, np.arange(b * lb, (b + 1) * lb), mode="wrap")
                labeled = Batch(ds.inputs[l_idx], ds.labels[l_idx])
            _, grad, strong_probs = combined_client_grad(
                student, snapshot, labeled, u_batch, pseudo, HYPER, spec, AUG, rng
            )
            student = sgd_step(student, grad, opt)
            teacher_kls.append(kl_to_uniform(batch_prediction_distribution(source_probs)))
            student_kls.append(kl_to_uniform(batch_prediction_distribution(strong_probs)))
    return ClientUpdates(
        [shard.client_id],
        ParamVector((student.values - snapshot.values)[None], snapshot.spec_hash),
        ParamVector((teacher.values - downlinked.values)[None], snapshot.spec_hash),
        np.array([[np.mean(teacher_kls)], [np.mean(student_kls)]]),
    )


def test_lockstep_group_matches_an_unstacked_replay():
    # independent re-derivation with the unstacked per-batch functions: the
    # client in the middle of a ts_client_ema group, two epochs
    ds, shards, _ = _setup()
    plan = _plan(local_epochs=2)
    downlink = _downlink(init_params(SPEC, 1), init_params(SPEC, 2))
    variant = VariantConfig("ts_client_ema", ema_alpha=0.8)
    seeds = [derive_seed(4, "client", 0, sh.client_id) for sh in shards]
    group = lockstep_update(shards, downlink, variant, plan, HYPER, SPEC, AUG, ds,
                            seeds=seeds, round=0)
    _same_result(_rows(group)[2], _ts_client_ema_replay(ds, shards[2], downlink, variant, plan, seeds[2]))


def test_lockstep_two_hidden_layers_match_an_unstacked_replay():
    # the backward pass through two hidden layers, with momentum and weight
    # decay; every client of the group against its own replay
    spec = ModelSpec(input_dim=3, hidden_dims=(4, 3), num_classes=3)
    ds, shards, _ = _setup()
    plan = _plan(local_epochs=2, momentum=0.9, weight_decay=0.01)
    downlink = _downlink(init_params(spec, 1), init_params(spec, 2))
    variant = VariantConfig("ts_client_ema", ema_alpha=0.8)
    seeds = [derive_seed(6, "client", 0, sh.client_id) for sh in shards]
    group = lockstep_update(shards, downlink, variant, plan, HYPER, spec, AUG, ds,
                            seeds=seeds, round=0)
    for res, shard, seed in zip(_rows(group), shards, seeds):
        _same_result(res, _ts_client_ema_replay(ds, shard, downlink, variant, plan, seed, spec))


def test_lockstep_kl_past_the_eight_way_pairwise_sum():
    # 3 epochs of 4 batches: each client's mean runs over 12 per-batch
    # values, past the 8 numpy sums one at a time before going pairwise
    ds, shards, _ = _setup()
    plan = _plan(local_epochs=3)
    assert plan.local_epochs * math.ceil(shards[0].unlabeled_idx.size / 8) == 12
    downlink = _downlink(init_params(SPEC, 1), init_params(SPEC, 2))
    variant = VariantConfig("ts_client_ema", ema_alpha=0.8)
    seeds = [derive_seed(8, "client", 0, sh.client_id) for sh in shards]
    group = lockstep_update(shards, downlink, variant, plan, HYPER, SPEC, AUG, ds,
                            seeds=seeds, round=0)
    for res, shard, seed in zip(_rows(group), shards, seeds):
        one = client_update(shard, downlink, variant, plan, HYPER, SPEC, AUG, ds,
                            seed=seed, round=0)
        replay = _ts_client_ema_replay(ds, shard, downlink, variant, plan, seed)
        assert np.array_equal(res.kl, one.kl) and np.array_equal(one.kl, replay.kl)


def _frozen(results):
    return [block.tobytes() for block in
            (results.delta.values, results.teacher_delta.values, results.kl)]


def test_workspace_carries_no_state_between_calls():
    # groups of different shapes through one workspace: a streamed round of
    # ragged segments (13/12/12, so its two groups and their last batches
    # differ in size), then four clients with labels, which grow every
    # buffer, then a single client; momentum and weight decay keep the
    # velocities in play
    ds, shards, _ = _setup()
    stream_ds = gen_blobs(3, 3, 41, 0.3, seed=0)
    streamed = [make_stream_schedule(sh, 3, seed=sh.client_id)
                for sh in dirichlet_shard(stream_ds, ShardPlan(3, 10.0, 4, seed=0)).shards]
    assert [s.size for s in streamed[0].stream_splits] == [13, 12, 12]
    plan = _plan(local_epochs=2, momentum=0.9, weight_decay=0.01)
    downlink = _downlink(init_params(SPEC, 1), init_params(SPEC, 2))
    variant = VariantConfig("ts_client_ema", ema_alpha=0.8)
    # (dataset, clients, stream steps) per group, in the order a round would
    # train them
    groups = [(stream_ds, streamed[:1], [0]), (stream_ds, streamed[1:], [1, 2]),
              (ds, shards, [0, 0, 0, 0]), (ds, shards[1:2], [0])]
    ws = Workspace()
    outputs = []
    for data_, group, steps in groups:
        seeds = [derive_seed(8, "client", 0, sh.client_id) for sh in group]
        args = (group, downlink, variant, plan, HYPER, SPEC, AUG, data_, seeds, 0, steps)
        results = lockstep_update(*args, workspace=ws)
        for res, fresh, shard, seed, step in zip(_rows(results), _rows(lockstep_update(*args)),
                                                  group, seeds, steps):
            _same_result(res, fresh)
            _same_result(res, _ts_client_ema_replay(data_, shard, downlink, variant, plan,
                                                    seed, stream_step=step))
        outputs.append((results, _frozen(results)))
    # no later call wrote into an earlier call's results
    for results, frozen in outputs:
        assert _frozen(results) == frozen


def test_lockstep_warm_workspace_allocation_budget():
    # a crowd-shaped group: 50 clients with 64 unlabeled and 10 labeled
    # examples each, d = 16, one hidden layer of 32, 10 classes, one batch.
    # With a warm workspace a call allocates little beyond its results
    # (two [50, P] delta stacks, 0.7 MiB); without buffer reuse the per-batch
    # temporaries peak near 7 MiB
    k_clients, n_u, n_l = 50, 64, 10
    per_client = n_u + n_l
    ds = gen_blobs(10, 16, k_clients * per_client // 10, 0.5, seed=0)
    shards = [ClientShard(k, np.arange(k * per_client, k * per_client + n_l),
                          np.arange(k * per_client + n_l, (k + 1) * per_client))
              for k in range(k_clients)]
    spec = ModelSpec(input_dim=16, hidden_dims=(32,), num_classes=10)
    plan = _plan(num_clients=k_clients, labeled_batch_size=32, unlabeled_batch_size=64)
    args = (shards, _downlink(init_params(spec, 0), init_params(spec, 1)),
            VariantConfig("ts_client_ema", ema_alpha=0.9), plan, SslHyper(0.6, 2.0, 0.001),
            spec, AugmentConfig(), ds, list(range(k_clients)), 0)
    ws = Workspace()
    lockstep_update(*args, workspace=ws)
    # arenas whose contents are never live together are shared (the two
    # augmented views, then the labeled weak view; the unlabeled rows, then
    # the labeled rows; the logits, the pseudo-label source's probabilities
    # and the objective's log-probabilities; the [K, P] supervised gradient,
    # proximal pull, step and ema_update's pulled student), and without
    # momentum or weight decay no velocity is kept: 5,344,192 bytes when
    # each pass copied its probabilities and kept its own gradient
    assert ws.nbytes == 3_928_192
    tracemalloc.start()
    try:
        lockstep_update(*args, workspace=ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


def _momentum_free_replay(ds, shard, snapshot, plan, hyper, seed):
    """One fedprox_fixmatch participation without labels, replayed with the
    one-client oracle: combined_client_grad, then sgd_step with an explicit
    zero velocity. Returns the end parameters and every batch's gradient.
    """
    rng = np.random.default_rng(seed)
    opt = OptimState(plan.learning_rate, 0.0, 0.0, velocity=np.zeros(SPEC.num_params))
    student, grads = snapshot, []
    for _ in range(plan.local_epochs):
        u_order = shard.unlabeled_idx[rng.permutation(shard.unlabeled_idx.size)]
        for start in range(0, u_order.size, plan.unlabeled_batch_size):
            u_batch = Batch(ds.inputs[u_order[start:start + plan.unlabeled_batch_size]])
            weak = weak_augment(u_batch, AUG, rng)
            pseudo = pseudo_label(forward_probs(student, SPEC, weak.inputs), hyper.tau)
            _, grad, _ = combined_client_grad(student, snapshot, None, u_batch, pseudo, hyper,
                                              SPEC, AUG, rng)
            grads.append(grad.values.copy())
            student = sgd_step(student, grad, opt)
    return student, grads


@pytest.mark.parametrize("lambda_u", [2.0, 0.0])
def test_lockstep_momentum_free_step_equals_the_one_client_oracle(lambda_u):
    # hidden unit 0 is dead (zero weights, bias -1), so its gradient entries
    # are zeros. With lambda_u 0 the scaled gradient holds -0.0 wherever the
    # unscaled one is negative, and some parameters start at -0.0: the
    # oracle's velocity turns a -0.0 entry into +0.0 while the planned step
    # uses it as it is, and no row may differ
    ds, shards, _ = _setup(labeled_per_client=0)
    snapshot = init_params(SPEC, 0)
    (w0, b0), (w1, b1) = snapshot.layers(SPEC)
    w0[:, 0], b0[0, 0], b0[0, 1], w1[0] = 0.0, -1.0, -0.0, -0.0
    hyper = SslHyper(tau=0.5, lambda_u=lambda_u, mu=0.0)
    plan = _plan(local_epochs=2)
    seeds = [derive_seed(3, "client", 0, sh.client_id) for sh in shards]
    group = lockstep_update(shards, _downlink(snapshot), VariantConfig("fedprox_fixmatch"), plan,
                            hyper, SPEC, AUG, ds, seeds, 0)
    negative_zeros = 0
    for delta, shard, seed in zip(group.delta.values, shards, seeds):
        end, grads = _momentum_free_replay(ds, shard, snapshot, plan, hyper, seed)
        assert len(grads) > 2
        # bitwise, signs of zeros included
        assert delta.tobytes() == (end.values - snapshot.values).tobytes()
        # unit 0's incoming weights W0[:, 0] and its bias b0[0]
        assert all(np.all(g[[0, 4, 8, 12]] == 0.0) for g in grads)
        negative_zeros += sum(int(np.sum((g == 0.0) & np.signbit(g))) for g in grads)
    assert (negative_zeros > 0) == (lambda_u == 0.0)
    if lambda_u:
        assert len({row.tobytes() for row in group.delta.values}) == len(shards)


@pytest.mark.parametrize("labeled_batch_size", [4, 16])
def test_lockstep_workspace_reused_for_a_smaller_then_larger_group(labeled_batch_size):
    # one workspace for 2 clients, then 4, which grows every arena, then 2
    # again; with 16 labeled rows a batch, the labeled pass is the larger
    # shape. Each call gives the rows a fresh workspace gives
    ds, shards, _ = _setup()
    plan = _plan(local_epochs=2, labeled_batch_size=labeled_batch_size)
    downlink = _downlink(init_params(SPEC, 1), init_params(SPEC, 2))
    variant = VariantConfig("ts_client_ema", ema_alpha=0.8)
    ws = Workspace()
    for group in (shards[:2], shards, shards[:2]):
        seeds = [derive_seed(12, "client", 0, sh.client_id) for sh in group]
        args = (group, downlink, variant, plan, HYPER, SPEC, AUG, ds, seeds, 0)
        for res, fresh in zip(_rows(lockstep_update(*args, workspace=ws)),
                              _rows(lockstep_update(*args))):
            _same_result(res, fresh)


@pytest.mark.parametrize("kind,with_teacher", [
    ("fedprox_fixmatch", False),
    ("ts_client_ema", True),
    ("fedswitch", False),
])
def test_lockstep_calls_each_traced_per_batch_entry_point_once_a_batch(
        monkeypatch, kind, with_teacher):
    # the benchmark's mask rate divides by the rows pseudo_label sees, and
    # its traced counts name these functions: E epochs of n batches make
    # E * n calls of each, through the bindings the pipeline calls
    from fedssl import variants

    calls = {"pseudo_label": 0, "weak_augment": 0, "strong_augment": 0}
    original_pseudo = variants.pseudo_label

    def pseudo(*args, **kwargs):
        calls["pseudo_label"] += 1
        return original_pseudo(*args, **kwargs)

    monkeypatch.setattr(variants, "pseudo_label", pseudo)
    for name in ("weak_augment", "strong_augment"):
        original = getattr(data, name)

        def counted(batch, *args, _name=name, _original=original, **kwargs):
            # a labeled weak view is not one of the unlabeled batch's calls
            calls[_name] += batch.labels is None
            return _original(batch, *args, **kwargs)

        for info in pkgutil.iter_modules(fedssl.__path__):
            mod = importlib.import_module(f"fedssl.{info.name}")
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    ds, shards, _ = _setup()
    plan = _plan(local_epochs=3)
    batches = math.ceil(shards[0].unlabeled_idx.size / plan.unlabeled_batch_size)
    assert shards[0].unlabeled_idx.size % plan.unlabeled_batch_size  # a ragged last batch
    teacher = init_params(SPEC, 5) if with_teacher else None
    lockstep_update(shards, _downlink(init_params(SPEC, 0), teacher),
                    VariantConfig(kind, ema_alpha=0.9), plan, HYPER, SPEC, AUG, ds,
                    seeds=[7 + sh.client_id for sh in shards], round=1)
    assert calls == dict.fromkeys(calls, plan.local_epochs * batches)


def test_lockstep_checks_input_width_and_label_range_once_up_front(strong_calls):
    # the planned pass checks no batch, so the call checks the dataset's
    # width and the labeled pools' classes before any rng draws
    ds, shards, _ = _setup()
    args = (_downlink(init_params(SPEC, 0)), VariantConfig("fedprox_fixmatch"), _plan(), HYPER)
    seeds = [1] * len(shards)
    wide = Dataset(np.hstack([ds.inputs, ds.inputs]), ds.labels, ds.num_classes)
    with pytest.raises(ValueError, match="inconsistent with input_dim 3"):
        lockstep_update(shards, *args, SPEC, AUG, wide, seeds, 0)
    two_classes = ModelSpec(input_dim=3, hidden_dims=(4,), num_classes=2)
    assert ds.labels[np.concatenate([sh.labeled_idx for sh in shards])].max() == 2
    with pytest.raises(ValueError, match="targets out of class range"):
        lockstep_update(shards, _downlink(init_params(two_classes, 0)), *args[1:], two_classes,
                        AUG, ds, seeds, 0)
    assert not strong_calls


def test_lockstep_rejects_mixed_batch_shapes():
    ds, shards, _ = _setup()
    other = ClientShard(99, shards[1].labeled_idx, shards[1].unlabeled_idx[:-1])
    args = (_downlink(init_params(SPEC, 0)), VariantConfig("fedprox_fixmatch"),
            _plan(), HYPER, SPEC, AUG, ds)
    with pytest.raises(ValueError, match="pool size"):
        lockstep_update([shards[0], other], *args, seeds=[1, 2], round=0)
    unlabeled_only = ClientShard(98, np.array([], dtype=np.int64), shards[1].unlabeled_idx)
    with pytest.raises(ValueError, match="labeled pool sizes"):
        lockstep_update([shards[0], unlabeled_only], *args, seeds=[1, 2], round=0)
    fewer_labels = ClientShard(97, shards[1].labeled_idx[:-1], shards[1].unlabeled_idx)
    with pytest.raises(ValueError, match="labeled pool sizes"):
        lockstep_update([shards[0], fewer_labels], *args, seeds=[1, 2], round=0)


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
    server = replace(init_server(SPEC, variant, seed=0), participations={0: 0, 1: 1, 2: 2})
    new_server, _ = run_round(server, shards, variant, plan, HYPER, SPEC, AUG, ds, ds, 17,
                              CommLedger())

    groups = list(lockstep_groups)  # the one-client calls below add their own
    assert [[sh.client_id for sh in g[0]] for g in groups] == [[0], [1, 2]]
    assert new_server.participations == {0: 1, 1: 2, 2: 3}
    assert server.participations == {0: 0, 1: 1, 2: 2}
    downlink = {"student": server.global_student, "teacher": server.global_teacher}
    for group, kwargs, results in groups:
        for shard, step, res in zip(group, kwargs["stream_steps"], _rows(results)):
            alone = client_update(shard, downlink, variant, plan, HYPER, SPEC, AUG, ds,
                                  seed=derive_seed(17, "client", 0, shard.client_id),
                                  round=0, stream_step=step)
            _same_result(res, alone)
            k = new_server.client_ids.index(shard.client_id)
            assert np.array_equal(new_server.client_kl[:, k:k + 1], alone.kl)


@pytest.mark.parametrize("kind", ["ts_client_ema", "fedprox_fixmatch"])
def test_round_of_interleaved_groups_equals_a_client_by_client_reference(kind, lockstep_groups):
    # five streamed clients with segments of 8/7/7 examples, at stream
    # positions 0, 1, 0, 2 and 3: clients 0, 2 and 4 train 8 examples and
    # clients 1 and 3 train 7, so the two groups' client ids interleave.
    # The new state and every ledger row must be bitwise those of a round
    # built one client_update at a time, in selected order
    ds = gen_blobs(3, 3, 41, 0.3, seed=0)
    shards = [make_stream_schedule(sh, 3, seed=sh.client_id)
              for sh in dirichlet_shard(ds, ShardPlan(5, 10.0, 2, seed=0)).shards]
    plan = _plan(num_clients=5, local_epochs=2, momentum=0.5, weight_decay=0.01)
    variant = VariantConfig(kind, ema_alpha=0.8)
    steps = {0: 0, 1: 1, 2: 0, 3: 2, 4: 3}
    server = replace(init_server(SPEC, variant, seed=3), participations=steps)
    ledger = CommLedger(bytes_per_param=4)
    new_server, report = run_round(server, shards, variant, plan, HYPER, SPEC, AUG, ds, ds, 21,
                                   ledger)
    assert [[sh.client_id for sh in g[0]] for g in lockstep_groups] == [[0, 2, 4], [1, 3]]

    downlink = {"student": server.global_student}
    if server.global_teacher is not None:
        downlink["teacher"] = server.global_teacher
    results = [client_update(shards[cid], downlink, variant, plan, HYPER, SPEC, AUG, ds,
                             seed=derive_seed(21, "client", 0, cid), round=0,
                             stream_step=steps[cid])
               for cid in range(5)]
    student = server.global_student.values + np.concatenate(
        [r.delta.values for r in results]).mean(0)
    assert np.array_equal(new_server.global_student.values, student)
    if kind == "ts_client_ema":
        uploads = np.concatenate([server.global_teacher.values + r.teacher_delta.values
                                  for r in results])
        teacher = ema_update(ParamVector(uploads.mean(axis=0), SPEC.spec_hash),
                             ParamVector(student, SPEC.spec_hash), 0.8)
        assert np.array_equal(new_server.global_teacher.values, teacher.values)
    else:
        assert new_server.global_teacher is None
    assert new_server.client_ids == tuple(range(5))
    assert np.array_equal(new_server.client_kl, np.concatenate([r.kl for r in results], axis=1))
    assert new_server.last_kl == KlStats(float(np.mean([r.kl[0, 0] for r in results])),
                                         float(np.mean([r.kl[1, 0] for r in results])))
    assert new_server.participations == {cid: n + 1 for cid, n in steps.items()}
    assert new_server.round == 1
    size = SPEC.num_params
    rows = [(0, "downlink", role, cid, size, 4 * size) for cid in range(5) for role in downlink]
    rows += [(0, "uplink", role, r.client_ids[0], size, 4 * size) for r in results
             for role, pv in (("student", r.delta), ("teacher", r.teacher_delta))
             if pv is not None]
    assert list(ledger.entries) == rows
    assert (report.downlink_bytes, report.uplink_bytes) == (
        4 * size * len(downlink) * 5, 4 * size * (len(rows) - len(downlink) * 5))


def test_client_updates_join_in_client_id_order():
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(5, SPEC.num_params))

    def part(cids):
        return ClientUpdates(cids, ParamVector(rows[cids], SPEC.spec_hash),
                             ParamVector(-rows[cids], SPEC.spec_hash),
                             np.array(cids) * [[0.5], [0.25]])

    whole = ClientUpdates.join([part([1, 3]), part([0, 2, 4])])
    assert whole.client_ids == (0, 1, 2, 3, 4)
    assert np.array_equal(whole.delta.values, rows)
    assert whole.delta.values.flags["C_CONTIGUOUS"]
    assert np.array_equal(whole.teacher_delta.values, -rows)
    assert np.array_equal(whole.kl, [np.arange(5) * 0.5, np.arange(5) * 0.25])
    # a single part in order is not copied
    ordered = part([0, 2])
    assert ClientUpdates.join([ordered]) is ordered
    teacherless = part([1])
    teacherless.teacher_delta = None
    with pytest.raises(ValueError, match="teacher deltas"):
        ClientUpdates.join([ordered, teacherless])
    with pytest.raises(ValueError, match=r"kl must be a \[2, 2\] block"):
        ClientUpdates([0, 1], ParamVector(rows[:2], SPEC.spec_hash), None, np.zeros((2, 1)))


def test_client_updates_join_needs_a_part():
    with pytest.raises(ValueError, match="at least one part"):
        ClientUpdates.join([])


def test_round_unadapted_teachers_uplink_zero_deltas_and_merge_to_the_ema(lockstep_groups):
    # no local batch runs, so no in-round teacher takes an EMA step: each of
    # the four clients still uplinks its own [P] teacher delta, all zero
    ds, shards, _ = _setup()
    variant = VariantConfig("ts_client_ema", ema_alpha=0.5)
    student, teacher = init_params(SPEC, 1), init_params(SPEC, 2)
    server = ServerState(student, teacher, round=0)
    ledger = CommLedger()
    new_server, _ = run_round(server, shards, variant, _plan(local_epochs=0), HYPER, SPEC,
                              AUG, ds, ds, 17, ledger)

    [(group, _, results)] = lockstep_groups
    assert [sh.client_id for sh in group] == [0, 1, 2, 3]
    assert results.teacher_delta.values.shape == (4, SPEC.num_params)
    assert np.all(results.teacher_delta.values == 0.0)
    assert ledger.model_count("uplink", "teacher") == 4
    assert np.array_equal(new_server.global_student.values, student.values)
    assert np.allclose(new_server.global_teacher.values,
                       0.5 * teacher.values + 0.5 * student.values, rtol=0, atol=1e-15)


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
    with pytest.raises(RuntimeError,
                       match=rf"^client 2: non-finite loss at round 0 epoch 0 batch {batch}:"):
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


def _updates(cids, deltas, spec_hash=SPEC.spec_hash):
    """A block of client products with the given [K, P] deltas."""
    k = len(cids)
    return ClientUpdates(cids, ParamVector(np.asarray(deltas, dtype=np.float64), spec_hash),
                         None, np.zeros((2, k)))


def _server(values=None):
    student = init_params(SPEC, 0)
    if values is not None:
        student = ParamVector(np.asarray(values, dtype=np.float64), SPEC.spec_hash)
    return ServerState(student, None, 0)


def test_aggregate_opposite_deltas_cancel():
    n = SPEC.num_params
    srv = _server(np.zeros(n))
    out = aggregate(srv, _updates([0, 1], [np.full(n, 2.0), np.full(n, -2.0)]))
    assert np.all(out.values == 0.0)


def test_aggregate_single_client():
    n = SPEC.num_params
    srv = _server(np.full(n, 1.0))
    out = aggregate(srv, _updates([0], [np.full(n, 0.5)]))
    assert np.allclose(out.values, 1.5, atol=0)


def test_aggregate_unweighted_mean_ignores_example_counts():
    # a block of client products carries no example counts to weigh by
    n = SPEC.num_params
    srv = _server(np.zeros(n))
    out = aggregate(srv, _updates([0, 1], [np.full(n, 3.0), np.full(n, -1.0)]))
    assert np.all(out.values == 1.0)


def test_aggregate_permutation_invariant_bitwise():
    rng = np.random.default_rng(0)
    deltas = rng.normal(size=(5, SPEC.num_params))
    srv = _server()
    fwd = aggregate(srv, _updates(range(5), deltas))
    rev = aggregate(srv, _updates(range(4, -1, -1), deltas[::-1]))
    shuffled = ClientUpdates.join([_updates([3, 0], deltas[[3, 0]]),
                                   _updates([4, 1, 2], deltas[[4, 1, 2]])])
    assert np.array_equal(fwd.values, rev.values)
    assert np.array_equal(fwd.values, aggregate(srv, shuffled).values)
    assert np.array_equal(fwd.values, srv.global_student.values + np.stack(list(deltas)).mean(0))


def test_aggregate_rejects_empty_and_mismatch():
    srv = _server()
    with pytest.raises(ValueError):
        aggregate(srv, _updates([], np.empty((0, SPEC.num_params))))
    other = ModelSpec(input_dim=3, hidden_dims=(5,), num_classes=3)
    with pytest.raises(ValueError):
        aggregate(srv, _updates([0], init_params(other, 0).values[None], spec_hash=other.spec_hash))


def test_last_kl_is_the_mean_of_client_kl_in_client_id_order():
    # the rollup is derived from the per-client statistics, so a state
    # rebuilt with other statistics cannot report a stale one
    server = _server()
    assert server.last_kl == KlStats(0.0, 0.0)
    later = replace(server, round=1, client_ids=(1, 3),
                    client_kl=np.array([[math.log(10), 0.0], [0.4, 0.2]]))
    assert later.last_kl.dkl_teacher == pytest.approx(math.log(10) / 2, abs=1e-12)
    assert later.last_kl.dkl_student == pytest.approx(0.3, abs=1e-12)
    # each row is summed in its column order, client-id order, which gives
    # another last bit than the reverse order here
    later = replace(later, client_ids=(2, 5, 7), client_kl=np.array([[0.1, 0.2, 0.3]] * 2))
    in_id_order = float(np.mean([0.1, 0.2, 0.3]))
    assert in_id_order != float(np.mean([0.3, 0.2, 0.1]))
    assert later.last_kl == KlStats(in_id_order, in_id_order)
    assert replace(later, client_ids=(), client_kl=np.zeros((2, 0))).last_kl == KlStats(0.0, 0.0)
    with pytest.raises(ValueError, match=r"client_kl must be a \[2, 3\] block"):
        replace(later, client_kl=np.zeros((2, 2)))


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


@pytest.mark.parametrize("n, batch_size, epochs, hidden", [
    (37, 8, 3, (4,)),     # several epochs, ragged last batch of 5
    (37, 8, 2, (5, 4)),   # two hidden layers
    (12, 12, 2, (4,)),    # one batch, exactly the pool
    (12, 50, 3, (5, 4)),  # one batch, larger than the pool
])
def test_server_update_equals_the_per_batch_loop(n, batch_size, epochs, hidden):
    spec = ModelSpec(input_dim=3, hidden_dims=hidden, num_classes=3)
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


def test_server_update_names_an_infinite_loss_with_a_finite_gradient():
    # zero weights and last-layer biases (1e308, -1e308, 0): every row's
    # class-1 probability underflows to 0, so a class-1 target makes the
    # loss inf, while every gradient entry stays finite, and so do the
    # parameters after the step
    base = _pool()
    pool = Dataset(base.inputs, np.ones(base.size, dtype=np.int64), base.num_classes)
    values = np.zeros(SPEC.num_params)
    values[-3:] = (1e308, -1e308, 0.0)
    params = ParamVector(values, SPEC.spec_hash)
    batch = Batch(pool.inputs[:8], pool.labels[:8])
    ws = Workspace()
    with np.errstate(over="ignore"):
        assert np.all(forward_probs(params, SPEC, batch.inputs)[:, 1] == 0.0)
        with pytest.raises(FloatingPointError):
            loss_and_grad(params, SPEC, batch, batch.labels, np.ones(8), workspace=ws)
        # the check runs after the backward pass, whose gradient stays in ws
        assert np.isfinite(ws.take("loss_and_grad.grad", (SPEC.num_params,))).all()
        with pytest.raises(RuntimeError,
                           match=r"^server update: non-finite loss or gradient at epoch 0 "
                                 r"batch 0$"):
            server_update(params, pool, 2, 0.1, 8, seed=0, spec=SPEC)


# ---------------------------------------------------------------- run_round


def _run(variant, rounds=3, topology="labels_at_client", stream_steps=None,
         seed=17, plan_kw=None, num_clients=4, setup_seed=0, server=None):
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
    if server is None:
        server = init_server(SPEC, variant, seed=seed, server_labeled_pool=pool)
    ledger = CommLedger()
    reports = []
    for _ in range(rounds):
        server, rep = run_round(
            server, shards, variant, plan, HYPER, SPEC, AUG, ds, eval_ds,
            base_seed=seed, ledger=ledger,
        )
        reports.append(rep)
    return server, reports, ledger


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
    _, reps_a, _ = _run(VariantConfig("fedswitch", ema_alpha=0.9), rounds=4)
    _, reps_b, _ = _run(VariantConfig("fedswitch", ema_alpha=0.9), rounds=4)
    assert [r.csv_row() for r in reps_a] == [r.csv_row() for r in reps_b]


def test_round_zero_fedswitch_sends_teacher():
    _, reports, ledger = _run(VariantConfig("fedswitch"), rounds=1)
    assert reports[0].send_teacher is True
    assert ledger.model_count("downlink", "teacher") == 4


def test_round_privacy_surface():
    for kind in ("fedprox_fixmatch", "ts_server_ema", "fedswitch"):
        _, _, ledger = _run(VariantConfig(kind, ema_alpha=0.9), rounds=3)
        assert all(role in ("student", "teacher") for _, _, role, *_ in ledger.entries)
        # one student delta per client per round, never a teacher upload
        assert ledger.model_count("uplink", "teacher") == 0
        assert ledger.model_count("uplink", "student") == 3 * 4
    _, _, ledger = _run(VariantConfig("ts_client_ema"), rounds=3)
    assert ledger.model_count("uplink", "teacher") == 3 * 4
    assert ledger.model_count("uplink", "student") == 3 * 4


def test_round_records_each_uplink_with_its_round_and_bytes():
    _, _, ledger = _run(VariantConfig("ts_client_ema"), rounds=3,
                           plan_kw={"participation_rate": 0.5})
    uplinks = [e for e in ledger.entries if e[1] == "uplink"]
    expected = [(rnd, role, cid)
                for rnd in range(3)
                for cid in select_clients(4, 2, rnd, 17)
                for role in ("student", "teacher")]
    assert [(rnd, role, cid) for rnd, _, role, cid, _, _ in uplinks] == expected
    assert all(num_params == SPEC.num_params for *_, num_params, _ in uplinks)
    assert all(size == SPEC.num_params * 8 for *_, size in uplinks)


def test_round_fedswitch_uplink_matches_baseline():
    _, _, led_fs = _run(VariantConfig("fedswitch"), rounds=5)
    _, _, led_fpf = _run(VariantConfig("fedprox_fixmatch"), rounds=5)
    assert led_fs.model_count("uplink") == led_fpf.model_count("uplink")
    assert led_fs.total_bytes("uplink") == led_fpf.total_bytes("uplink")


def test_round_streaming_positions_advance():
    server, _, _ = _run(
        VariantConfig("fedprox_fixmatch"), rounds=3, stream_steps=3,
        plan_kw={"participation_rate": 0.5},
    )
    # 2 of 4 clients participate per round; only their counts advance
    joined = [cid for rnd in range(3) for cid in select_clients(4, 2, rnd, 17)]
    assert server.participations == {cid: joined.count(cid) for cid in set(joined)}
    assert list(server.client_ids) == select_clients(4, 2, 2, 17)


def test_round_resumes_from_server_state():
    # a streaming trial saved after round 3 and continued with a fresh
    # ledger reproduces a straight 6-round run: the state alone carries
    # each client's stream position and the switch statistic
    variant = VariantConfig("fedswitch", ema_alpha=0.9)
    kw = {"stream_steps": 3, "plan_kw": {"participation_rate": 0.5}}
    straight, reports, _ = _run(variant, rounds=6, **kw)
    saved, first, _ = _run(variant, rounds=3, **kw)
    kept = (dict(saved.participations), saved.client_ids, saved.client_kl.copy())
    resumed, rest, _ = _run(variant, rounds=3, server=saved, **kw)

    assert [r.csv_row() for r in first + rest] == [r.csv_row() for r in reports]
    assert np.array_equal(resumed.global_student.values, straight.global_student.values)
    assert resumed.participations == straight.participations
    assert (saved.participations, saved.client_ids) == kept[:2]
    assert np.array_equal(saved.client_kl, kept[2])


def test_round_labels_at_server_topologies_differ_exactly():
    # with zero local epochs the two server topologies relate by the merge weight
    variant = VariantConfig("fedprox_fixmatch")
    seq_server, _, _ = _run(
        variant, rounds=1, topology="labels_at_server_sequential",
        plan_kw={"local_epochs": 0},
    )
    par_server, _, _ = _run(
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


def test_round_parallel_mix_counts_each_participant_of_every_group(lockstep_groups):
    # five streamed clients without labels, at stream positions whose
    # segments hold 8 or 7 examples, so the round trains two lockstep
    # groups. The server's share of examples must count each participant's
    # own segment: bitwise a reference built one client_update at a time
    ds = gen_blobs(3, 3, 41, 0.3, seed=0)
    sharding = dirichlet_shard(ds, ShardPlan(5, 10.0, 2, server_holds_labels=True, seed=0))
    shards = [make_stream_schedule(sh, 3, seed=sh.client_id) for sh in sharding.shards]
    pool = Dataset(ds.inputs[sharding.server_labeled_idx], ds.labels[sharding.server_labeled_idx],
                   3)
    plan = _plan(num_clients=5, topology="labels_at_server_parallel", server_epochs=2)
    variant = VariantConfig("fedprox_fixmatch")
    steps = {0: 0, 1: 1, 2: 0, 3: 2, 4: 3}
    server = replace(init_server(SPEC, variant, seed=3, server_labeled_pool=pool),
                     participations=steps)
    new_server, _ = run_round(server, shards, variant, plan, HYPER, SPEC, AUG, ds, ds, 21,
                              CommLedger())
    assert [[sh.client_id for sh in g[0]] for g in lockstep_groups] == [[0, 2, 4], [1, 3]]

    results = [client_update(shards[cid], {"student": server.global_student}, variant, plan,
                             HYPER, SPEC, AUG, ds, seed=derive_seed(21, "client", 0, cid),
                             round=0, stream_step=steps[cid])
               for cid in range(5)]
    aggregated = server.global_student.values + np.concatenate(
        [r.delta.values for r in results]).mean(0)
    trained = server_update(server.global_student, pool, 2, plan.server_learning_rate,
                            plan.server_batch_size, derive_seed(21, "server-update", 0), SPEC)
    examples = [shards[cid].stream_splits[steps[cid] % 3].size + shards[cid].labeled_idx.size
                for cid in range(5)]
    assert examples == [8, 7, 8, 7, 8]
    w = pool.size / (pool.size + sum(examples))
    blended = w * trained.values + (1.0 - w) * aggregated
    assert new_server.global_student.values.tobytes() == blended.tobytes()


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
    fs_server, _, _ = _run(
        VariantConfig("fedswitch", ema_alpha=0.0), rounds=5,
        plan_kw={"local_epochs": 2, "unlabeled_batch_size": 4},
    )
    fpf_server, _, _ = _run(
        VariantConfig("fedprox_fixmatch"), rounds=5,
        plan_kw={"local_epochs": 2, "unlabeled_batch_size": 4},
    )
    assert np.array_equal(fs_server.global_student.values,
                          fpf_server.global_student.values)


def test_ts_server_alpha_zero_matches_baseline_single_step():
    # frozen local teacher equals the live student only for one step per round
    kw = {"local_epochs": 1, "unlabeled_batch_size": 64, "labeled_batch_size": 64}
    ts_server, _, _ = _run(VariantConfig("ts_server_ema", ema_alpha=0.0),
                              rounds=5, plan_kw=kw)
    fpf_server, _, _ = _run(VariantConfig("fedprox_fixmatch"),
                               rounds=5, plan_kw=kw)
    assert np.array_equal(ts_server.global_student.values,
                          fpf_server.global_student.values)
