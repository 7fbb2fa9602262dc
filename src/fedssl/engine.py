"""Round orchestration: client selection, local training, aggregation,
server-side supervised training, and global teacher maintenance.

Clients are stateless: every participation starts from the downlinked
models with a fresh optimizer, and everything a client computes is a pure
function of (downlink, shard, hyper-parameters, seed). The orchestrator
owns the only cross-round client state the protocol allows, the streaming
position.

The clients selected in a round train in lockstep groups: clients whose
local batches share one shape (the size of this participation's unlabeled
pool, and whether the client holds labels) are stacked on a client axis,
and each local batch is one pass over the whole group. Every client keeps
its own rng stream, seeded from (base seed, round, client id), so a
client's result does not depend on which group it trains in or with whom.

Per batch, each client's rng is consumed in a fixed order (the epoch's
permutations first, then the unlabeled weak view, then inside the combined
objective the strong view and the labeled weak view), identically for every
variant, so trajectories of different variants under one seed stay
comparable. Each batch draws one strong view; the student's KL statistic
reuses the probabilities the objective computed on it.

With the labels at the server, the server fine-tunes the model on its
labeled pool with plain SGD: server_epochs epochs in batches of
server_batch_size at server_learning_rate, with no momentum, no weight
decay and no augmentation (momentum and weight_decay apply to the clients
only). The epochs run through one preallocated single-model kernel,
nn.sgd_epochs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import AugmentConfig, ClientShard, Dataset, weak_augment
from .metrics import CommLedger, RoundReport, Transmission, evaluate
from .nn import (
    Batch,
    ModelSpec,
    NonFiniteError,
    OptimState,
    ParamVector,
    init_params,
    sgd_epochs,
    sgd_step,
)
from .rng import derive_seed
from .semisup import KlStats, SslHyper, combined_client_grad, prediction_kl
from .variants import (
    VARIANTS,
    SwitchDecision,
    VariantConfig,
    switch_decide,
    variant_batch_hook,
    variant_downlink,
    variant_server_merge,
    variant_uplink,
)

TOPOLOGIES = ("labels_at_client", "labels_at_server_sequential", "labels_at_server_parallel")


@dataclass
class ServerState:
    """Everything the server carries between rounds."""

    global_student: ParamVector
    global_teacher: ParamVector | None
    round: int
    last_kl: KlStats
    server_labeled_pool: Dataset | None = None

    def __post_init__(self) -> None:
        if self.round < 0:
            raise ValueError("round must be >= 0")
        if self.global_teacher is not None:
            self.global_student.check_compatible(self.global_teacher)


@dataclass
class ClientUpdateResult:
    """A client's round product: deltas, KL scalars, transmission records."""

    client_id: int
    delta: ParamVector
    teacher_delta: ParamVector | None
    kl: KlStats
    num_examples: int
    uploads: list[Transmission]

    def __post_init__(self) -> None:
        if self.num_examples < 0:
            raise ValueError("num_examples must be >= 0")


@dataclass
class RoundPlan:
    """Per-round shape of the protocol plus local optimizer settings."""

    num_clients: int
    participation_rate: float
    local_epochs: int
    server_epochs: int
    topology: str
    labeled_batch_size: int = 32
    unlabeled_batch_size: int = 32
    server_batch_size: int = 32
    learning_rate: float = 0.05
    server_learning_rate: float = 0.05
    momentum: float = 0.0
    weight_decay: float = 0.0
    bytes_per_param: int = 8

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if not 0.0 < self.participation_rate <= 1.0:
            raise ValueError("participation_rate must be in (0, 1]")
        if self.local_epochs < 0 or self.server_epochs < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"topology must be one of {TOPOLOGIES}")
        for name in ("labeled_batch_size", "unlabeled_batch_size", "server_batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.learning_rate <= 0 or self.server_learning_rate <= 0:
            raise ValueError("learning rates must be positive")

    @property
    def clients_per_round(self) -> int:
        return max(int(self.participation_rate * self.num_clients), 1)


def select_clients(num_clients: int, m: int, round: int, seed: int) -> list[int]:
    """Uniform sample of m distinct clients, deterministic per (seed, round)."""
    if not 1 <= m <= num_clients:
        raise ValueError(f"m must be in [1, {num_clients}], got {m}")
    rng = np.random.default_rng(derive_seed(seed, "select", round))
    return sorted(int(c) for c in rng.choice(num_clients, size=m, replace=False))


def _batches(idx: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """Consecutive batches along the last axis of an index array."""
    return [idx[..., i : i + batch_size] for i in range(0, idx.shape[-1], batch_size)]


def _unlabeled_pool(shard: ClientShard, stream_step: int) -> np.ndarray:
    """The unlabeled examples a client trains on in this participation."""
    if shard.stream_splits is not None:
        return shard.stream_splits[stream_step % len(shard.stream_splits)]
    return shard.unlabeled_idx


def lockstep_update(
    shards: list[ClientShard],
    downlink: dict[str, ParamVector],
    variant: VariantConfig,
    plan: RoundPlan,
    hyper: SslHyper,
    spec: ModelSpec,
    aug: AugmentConfig,
    dataset: Dataset,
    seeds: list[int],
    round: int,
    stream_steps: list[int] | None = None,
) -> list[ClientUpdateResult]:
    """The participations of K clients whose local batches share one shape,
    trained in lockstep.

    The clients must have equally large unlabeled pools in this
    participation and must all hold labels or all hold none. Their students
    and optimizer velocities are stacked as [K, P], and every local batch is
    one stacked pass over the client axis. Client k keeps its own generator,
    seeded with seeds[k], and draws from it exactly what it would draw
    training alone, so each result is bitwise that of a one-client call.
    """
    if "student" not in downlink:
        raise ValueError("downlink must contain the global student")
    k_clients = len(shards)
    steps = [0] * k_clients if stream_steps is None else stream_steps
    if k_clients < 1 or len(seeds) != k_clients or len(steps) != k_clients:
        raise ValueError("lockstep_update needs one seed and stream step per client")
    u_pools = [_unlabeled_pool(sh, st) for sh, st in zip(shards, steps)]
    for sh, pool in zip(shards, u_pools):
        if pool.size == 0:
            raise ValueError(f"client {sh.client_id}: empty unlabeled pool")
    l_pools = [sh.labeled_idx for sh in shards]
    n_u = u_pools[0].size
    has_labels = l_pools[0].size > 0
    if any(p.size != n_u for p in u_pools) or any((p.size > 0) != has_labels for p in l_pools):
        raise ValueError("lockstep clients must share unlabeled pool size and label presence")

    snapshot = downlink["student"]
    downlinked_teacher = downlink.get("teacher")
    # the clients' in-round teachers never outlive the round; the first
    # local EMA step turns the shared [P] downlink into a [K, P] stack
    teacher = downlinked_teacher
    student = ParamVector(np.tile(snapshot.values, (k_clients, 1)), snapshot.spec_hash)
    opt = OptimState(plan.learning_rate, plan.momentum, plan.weight_decay,
                     velocity=np.zeros(student.values.shape))
    rngs = [np.random.default_rng(s) for s in seeds]
    l_sizes = np.array([p.size for p in l_pools])[:, None]
    n_batches = plan.local_epochs * math.ceil(n_u / plan.unlabeled_batch_size)
    teacher_kl = np.empty((k_clients, n_batches))
    student_kl = np.empty((k_clients, n_batches))
    j = 0

    for epoch in range(plan.local_epochs):
        u_order = np.empty((k_clients, n_u), dtype=np.int64)
        l_order = np.zeros((k_clients, int(l_sizes.max())), dtype=np.int64)
        for k, rng in enumerate(rngs):
            u_order[k] = u_pools[k][rng.permutation(n_u)]
            if has_labels:
                l_order[k, : l_sizes[k, 0]] = l_pools[k][rng.permutation(l_sizes[k, 0])]
        for b, u_idx in enumerate(_batches(u_order, plan.unlabeled_batch_size)):
            u_batch = Batch(dataset.inputs[u_idx], None)
            weak = weak_augment(u_batch, aug, rngs)
            pseudo, teacher, source_probs = variant_batch_hook(
                variant, teacher, student, weak.inputs, spec, hyper
            )
            labeled_batch = None
            if has_labels:
                # labeled batches cycle through each client's own pool; the
                # unlabeled pool drives epoch length
                take = np.arange(b * plan.labeled_batch_size,
                                 (b + 1) * plan.labeled_batch_size)
                l_idx = np.take_along_axis(l_order, take % l_sizes, axis=1)
                labeled_batch = Batch(dataset.inputs[l_idx], dataset.labels[l_idx])

            # student_probs: the pre-step students on the strong view, as the
            # objective saw it; they feed the student-side KL statistic
            try:
                _, grad, student_probs = combined_client_grad(
                    student, snapshot, labeled_batch, u_batch, pseudo,
                    hyper, spec, aug, rngs,
                )
            except NonFiniteError as exc:
                raise RuntimeError(
                    f"client {shards[exc.index].client_id}: non-finite loss at epoch "
                    f"{epoch} batch {b}: {exc}"
                ) from None

            student = sgd_step(student, grad, opt)
            finite = np.isfinite(student.values).all(axis=1)
            if not finite.all():
                raise RuntimeError(
                    f"client {shards[int(np.argmin(finite))].client_id}: non-finite "
                    f"parameters after epoch {epoch} batch {b}"
                )
            teacher_kl[:, j] = prediction_kl(source_probs)
            student_kl[:, j] = prediction_kl(student_probs)
            j += 1

    delta = ParamVector(student.values - snapshot.values, snapshot.spec_hash)
    payload = variant_uplink(variant, delta, teacher, downlinked_teacher)
    if n_batches:
        kls = [KlStats(float(t), float(st), n_batches)
               for t, st in zip(teacher_kl.mean(axis=1), student_kl.mean(axis=1))]
    else:
        kls = [KlStats(0.0, 0.0, 0) for _ in shards]
    results = []
    for k, shard in enumerate(shards):
        # a teacher no batch adapted is still the shared [P] downlink
        rows = {role: ParamVector(pv.values[k] if pv.values.ndim == 2 else pv.values,
                                  pv.spec_hash)
                for role, pv in payload.items()}
        uploads = [
            Transmission(
                round=round,
                direction="uplink",
                role=role,
                client_id=shard.client_id,
                num_params=len(pv),
                bytes=len(pv) * plan.bytes_per_param,
            )
            for role, pv in rows.items()
        ]
        results.append(ClientUpdateResult(
            client_id=shard.client_id,
            delta=rows["student"],
            teacher_delta=rows.get("teacher"),
            kl=kls[k],
            num_examples=int(u_pools[k].size + l_pools[k].size),
            uploads=uploads,
        ))
    return results


def client_update(
    shard: ClientShard,
    downlink: dict[str, ParamVector],
    variant: VariantConfig,
    plan: RoundPlan,
    hyper: SslHyper,
    spec: ModelSpec,
    aug: AugmentConfig,
    dataset: Dataset,
    seed: int,
    round: int,
    stream_step: int = 0,
) -> ClientUpdateResult:
    """One client's full participation, a pure function of its arguments:
    the one-client case of lockstep_update.
    """
    return lockstep_update([shard], downlink, variant, plan, hyper, spec, aug, dataset,
                           [seed], round, [stream_step])[0]


def aggregate_kl(stats: list[KlStats]) -> KlStats:
    """Server-side KL rollup: mean of client means, total batch count."""
    if not stats:
        raise ValueError("aggregate_kl needs at least one client's stats")
    return KlStats(
        dkl_teacher=float(np.mean([s.dkl_teacher for s in stats])),
        dkl_student=float(np.mean([s.dkl_student for s in stats])),
        num_batches=int(sum(s.num_batches for s in stats)),
    )


def aggregate(server: ServerState, results: list[ClientUpdateResult]) -> ParamVector:
    """Server snapshot plus the unweighted mean of client deltas, summed in
    client-id order for bit-exact reproducibility.
    """
    if not results:
        raise ValueError("aggregate needs at least one client result")
    ordered = sorted(results, key=lambda r: r.client_id)
    total = np.zeros_like(server.global_student.values)
    for r in ordered:
        server.global_student.check_compatible(r.delta)
        total = total + r.delta.values
    mean = total / len(ordered)
    return ParamVector(server.global_student.values + mean, server.global_student.spec_hash)


def server_update(
    params: ParamVector,
    server_pool: Dataset,
    server_epochs: int,
    server_learning_rate: float,
    batch_size: int,
    seed: int,
    spec: ModelSpec,
) -> ParamVector:
    """Supervised epochs over the server's labeled pool: plain SGD (no
    momentum, no weight decay), no augmentation, one permutation per epoch
    drawn from default_rng(seed). Runs through the single-model kernel
    nn.sgd_epochs; a diverging update raises RuntimeError naming the epoch
    and the batch.
    """
    if server_pool is None or server_pool.size == 0:
        raise ValueError("server update requires a non-empty labeled pool")
    try:
        return sgd_epochs(params, spec, server_pool.inputs, server_pool.labels, server_epochs,
                          batch_size, server_learning_rate, np.random.default_rng(seed))
    except NonFiniteError as exc:
        raise RuntimeError(f"server update: {exc}") from None


def run_round(
    server: ServerState,
    shards: list[ClientShard],
    variant: VariantConfig,
    plan: RoundPlan,
    hyper: SslHyper,
    spec: ModelSpec,
    aug: AugmentConfig,
    dataset: Dataset,
    eval_data: Dataset,
    base_seed: int,
    ledger: CommLedger,
    stream_positions: dict[int, int] | None = None,
    client_kl_out: dict[int, KlStats] | None = None,
) -> tuple[ServerState, RoundReport]:
    """One full protocol round. Advances each participating client's
    streaming position inside stream_positions, which the caller owns.
    When given, client_kl_out receives each participant's KL statistics.
    """
    if plan.num_clients != len(shards):
        raise ValueError("plan.num_clients must match the number of shards")
    streaming = any(sh.stream_splits is not None for sh in shards)
    if streaming and stream_positions is None:
        raise ValueError("streaming shards require a stream_positions dict")
    if plan.topology != "labels_at_client" and (
        server.server_labeled_pool is None or server.server_labeled_pool.size == 0
    ):
        raise ValueError(f"{plan.topology} requires a server labeled pool")

    rnd = server.round
    traits = VARIANTS[variant.kind]
    decision: SwitchDecision | None = None
    if traits.switches:
        if rnd == 0:
            # no KL stats exist yet; favoring the teacher is observationally
            # neutral (teacher == student at init) and exercises the EMA path
            decision = SwitchDecision(True, variant.iidness_prior, math.inf, 0)
        else:
            decision = switch_decide(server.last_kl, variant.iidness_prior, rnd)

    selected = select_clients(len(shards), plan.clients_per_round, rnd, base_seed)
    downlink = variant_downlink(variant, server, decision)
    for cid in selected:
        for role, pv in downlink.items():
            ledger.record(rnd, "downlink", role, cid, len(pv))

    # clients whose local batches share one shape train in lockstep
    steps = {cid: stream_positions.get(cid, 0) if streaming else 0 for cid in selected}
    groups: dict[tuple[int, bool], list[int]] = {}
    for cid in selected:
        key = (_unlabeled_pool(shards[cid], steps[cid]).size, shards[cid].labeled_idx.size > 0)
        groups.setdefault(key, []).append(cid)
    by_client: dict[int, ClientUpdateResult] = {}
    for cids in groups.values():
        group = lockstep_update(
            [shards[cid] for cid in cids], downlink, variant, plan, hyper, spec, aug, dataset,
            seeds=[derive_seed(base_seed, "client", rnd, cid) for cid in cids],
            round=rnd,
            stream_steps=[steps[cid] for cid in cids],
        )
        by_client.update((r.client_id, r) for r in group)

    results = [by_client[cid] for cid in selected]
    for result in results:
        cid = result.client_id
        if streaming:
            stream_positions[cid] = steps[cid] + 1
        ledger.extend(result.uploads)
        if client_kl_out is not None:
            client_kl_out[cid] = result.kl

    aggregated = aggregate(server, results)
    if plan.topology == "labels_at_client":
        new_student = aggregated
    elif plan.topology == "labels_at_server_sequential":
        new_student = server_update(
            aggregated, server.server_labeled_pool, plan.server_epochs,
            plan.server_learning_rate, plan.server_batch_size,
            derive_seed(base_seed, "server-update", rnd), spec,
        )
    else:
        trained = server_update(
            server.global_student, server.server_labeled_pool, plan.server_epochs,
            plan.server_learning_rate, plan.server_batch_size,
            derive_seed(base_seed, "server-update", rnd), spec,
        )
        n_s = server.server_labeled_pool.size
        n = n_s + sum(r.num_examples for r in results)
        w = n_s / n
        new_student = ParamVector(
            w * trained.values + (1.0 - w) * aggregated.values,
            aggregated.spec_hash,
        )

    uploaded_teachers = None
    if traits.uploads_teacher:
        base_teacher = downlink["teacher"]
        uploaded_teachers = [
            ParamVector(base_teacher.values + r.teacher_delta.values, base_teacher.spec_hash)
            for r in sorted(results, key=lambda r: r.client_id)
        ]
    new_teacher = variant_server_merge(variant, server.global_teacher, new_student,
                                       uploaded_teachers)

    agg_kl = aggregate_kl([r.kl for r in results])
    new_state = replace(
        server,
        global_student=new_student,
        global_teacher=new_teacher,
        round=rnd + 1,
        last_kl=agg_kl,
    )

    acc_student = evaluate(new_student, spec, eval_data)
    acc_teacher = evaluate(new_teacher, spec, eval_data) if new_teacher is not None else acc_student
    totals = ledger.round_totals(rnd)
    report = RoundReport(
        round=rnd,
        acc_student=acc_student,
        acc_teacher=acc_teacher,
        dkl_teacher=agg_kl.dkl_teacher,
        dkl_student=agg_kl.dkl_student,
        send_teacher="teacher" in downlink,
        downlink_bytes=totals["downlink_bytes"],
        uplink_bytes=totals["uplink_bytes"],
    )
    return new_state, report


def init_server(
    spec: ModelSpec,
    variant: VariantConfig,
    seed: int,
    server_labeled_pool: Dataset | None = None,
) -> ServerState:
    """Round-zero server state; the teacher starts as a copy of the student."""
    student = init_params(spec, seed)
    teacher = student.copy() if VARIANTS[variant.kind].teacher else None
    return ServerState(
        global_student=student,
        global_teacher=teacher,
        round=0,
        last_kl=KlStats(0.0, 0.0, 0),
        server_labeled_pool=server_labeled_pool,
    )
