"""Round orchestration: client selection, local training, aggregation,
server-side supervised training, and global teacher maintenance.

Clients are stateless: every participation starts from the downlinked
models with a fresh optimizer, and everything a client computes is a pure
function of (downlink, shard, hyper-parameters, seed, participation count).
The server counts each client's participations in ServerState, which holds
everything a trial carries from round to round apart from the ledger and
the workspace; a streaming client's k-th participation trains on segment
k mod S of its unlabeled pool.

The clients selected in a round train in lockstep groups: clients whose
local batches share one shape (the sizes of this participation's unlabeled
pool and of the labeled pool) are stacked on a client axis,
and each local batch is one pass over the whole group. Every client keeps
its own rng stream, seeded from (base seed, round, client id), so a
client's result does not depend on which group it trains in or with whom.

Per batch, each client's rng is consumed in a fixed order (the epoch's
permutations first, then the unlabeled weak view, then the strong view and
the labeled weak view), identically for every variant, so trajectories of
different variants under one seed stay comparable. Each batch draws one
strong view; the student's KL statistic reuses the probabilities the
objective computes on it. Each batch's hard labels on both sides (the
pseudo-labels, and the argmax of those probabilities) are stored, and both
KL statistics of every batch are computed once per call, after the last
batch.

Each local batch runs its objective and its SGD step as one pass over the
group, planned once per lockstep_update call: the stacked counterpart of
nn.sgd_epochs. An nn.PassPlan holds the students' (W, b) views and their
transposes and one buffer set per batch shape (full, ragged last, labeled),
and the call plans the gradient and scratch stacks, the gather buffers and
each batch's labeled columns, and checks shapes, pool sizes and label
ranges, before the first batch. A batch then runs the float operations of
semisup.combined_client_grad (two loss_and_grad passes) and nn.sgd_step, in
their order, and tests finiteness where they do, so each row is bitwise
what those one-client functions make; they stay as the one-client API and
as the oracle of the pass. Without momentum and weight decay no velocity is
kept and the step is lr * gradient, as in sgd_epochs. Plans are never kept
between calls, so an arena that grows between groups leaves no stale view.

Every teacher-policy decision, fedswitch's switch included, is made in the
four hooks of the variants module, which run_round and lockstep_update
only call.

Every per-batch array of a group lives in an nn.Workspace: the gathered
inputs, both augmented views, the activations and gradients of all three
passes, the stacked students, gradients, velocities and in-round teachers,
and the stored hard labels. Its buffers grow to the largest group and batch
seen and are then reused, so a caller that passes one workspace to every
run_round (the runner keeps one per trial) allocates them once, in the
first round. Arrays that are never live at the same time share an arena
(see nn). Only the results leave a group, in memory of their own.

The group, not the client, is what a round carries from training to
aggregation, metering and the next switch decision: lockstep_update
returns its clients' products as ClientUpdates, blocks with one row or
column per client (the student deltas as one [K, P] stack, the teacher
deltas likewise, both KL statistics as one [2, K] block), and
client_update returns the one-row case. run_round joins its groups' blocks
in client-id order (a round of one group needs no copy), aggregates the
mean of the delta stack, hands the teacher-delta stack to the merge, and
keeps the KL block in the new ServerState.

run_round records every model that crosses the network in the CommLedger,
which alone prices it, with one record call per direction: the downlinks
as they are sent, then the uplinks once every group has trained, client by
client in selected order, the student delta before the teacher delta. The
KL scalars each client reports are not metered.

With the labels at the server, the server fine-tunes the model on its
labeled pool with plain SGD: server_epochs epochs in batches of
server_batch_size at server_learning_rate, with no momentum, no weight
decay and no augmentation (momentum and weight_decay apply to the clients
only). The epochs run through one preallocated single-model kernel,
nn.sgd_epochs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .data import AugmentConfig, ClientShard, Dataset, strong_augment, weak_augment
from .metrics import CommLedger, RoundReport, evaluate
from .nn import (
    SCRATCH,
    Batch,
    ModelSpec,
    NonFiniteError,
    ParamVector,
    PassPlan,
    Workspace,
    init_params,
    sgd_epochs,
)
from .rng import derive_seed
from .semisup import KlStats, SslHyper, batch_label_kl
from .variants import (
    VARIANTS,
    VariantConfig,
    variant_batch_hook,
    variant_downlink,
    variant_server_merge,
    variant_uplink,
)

TOPOLOGIES = ("labels_at_client", "labels_at_server_sequential", "labels_at_server_parallel")


@dataclass
class ServerState:
    """Everything a trial carries between rounds, apart from the ledger and
    the workspace.

    participations counts the rounds each client has joined; client_ids
    lists the last round's participants in client-id order, and client_kl
    holds the KL statistics they reported as a [2, M] block, teacher row
    first, a column per participant; last_kl is derived from it. run_round
    builds them afresh and never mutates a given state.
    """

    global_student: ParamVector
    global_teacher: ParamVector | None
    round: int
    server_labeled_pool: Dataset | None = None
    participations: dict[int, int] = field(default_factory=dict)
    client_ids: tuple[int, ...] = ()
    client_kl: np.ndarray = field(default_factory=lambda: np.zeros((2, 0)))

    def __post_init__(self) -> None:
        if self.round < 0:
            raise ValueError("round must be >= 0")
        if self.global_teacher is not None:
            self.global_student.check_compatible(self.global_teacher)
        if self.client_kl.shape != (2, len(self.client_ids)):
            raise ValueError(f"client_kl must be a [2, {len(self.client_ids)}] block, "
                             f"got {self.client_kl.shape}")

    @property
    def last_kl(self) -> KlStats:
        """The server-side KL rollup: the mean of each row of client_kl,
        summed in client-id order, zeros before the first round.
        """
        if not self.client_ids:
            return KlStats(0.0, 0.0)
        return KlStats(*map(float, self.client_kl.mean(axis=-1)))


class ClientUpdates:
    """The round products of K clients as blocks: their student deltas as
    one [K, P] stack, their teacher deltas likewise (or None), and their KL
    statistics as one [2, K] block, teacher row first. Row k of each stack
    and column k of the KL block are client client_ids[k]'s.

    A lockstep group returns one, and client_update its one-row case;
    run_round joins its groups in client-id order, aggregates, merges and
    meters the joined blocks, and keeps the KL block in the new state.
    """

    def __init__(self, client_ids: Sequence[int], delta: ParamVector,
                 teacher_delta: ParamVector | None, kl: np.ndarray) -> None:
        self.client_ids = tuple(client_ids)
        self.delta, self.teacher_delta, self.kl = delta, teacher_delta, kl
        k = len(self.client_ids)
        for name in ("delta", "teacher_delta"):
            block = getattr(self, name)
            if block is not None and block.values.shape[:-1] != (k,):
                raise ValueError(f"{name} must be a [{k}, P] stack, "
                                 f"got {block.values.shape}")
        if kl.shape != (2, k):
            raise ValueError(f"kl must be a [2, {k}] block, got {kl.shape}")

    @staticmethod
    def join(parts: Sequence[ClientUpdates]) -> ClientUpdates:
        """The rows of every part in one set of blocks, in client-id order.
        A single part already in that order is returned as it is.
        """
        if not parts:
            raise ValueError("a join needs at least one part")
        ids = [cid for part in parts for cid in part.client_ids]
        order = np.argsort(ids, kind="stable")
        if len(parts) == 1 and np.array_equal(order, np.arange(len(ids))):
            return parts[0]
        if len({part.teacher_delta is None for part in parts}) > 1:
            raise ValueError("either every part or none carries teacher deltas")

        def stacked(name: str) -> ParamVector | None:
            blocks = [getattr(part, name) for part in parts]
            if blocks[0] is None:
                return None
            return ParamVector(np.concatenate([b.values for b in blocks])[order],
                               blocks[0].spec_hash)

        return ClientUpdates([ids[i] for i in order], stacked("delta"), stacked("teacher_delta"),
                             np.concatenate([part.kl for part in parts], axis=-1)[..., order])


@dataclass
class RoundPlan:
    """Per-round shape of the protocol plus local optimizer settings. The
    client count comes from the shard plan, so it is not a [training] key.
    """

    participation_rate: float = 0.25
    local_epochs: int = 1
    server_epochs: int = 1
    labeled_batch_size: int = 32
    unlabeled_batch_size: int = 64
    server_batch_size: int = 32
    learning_rate: float = 0.1
    server_learning_rate: float = 0.1
    momentum: float = 0.0
    weight_decay: float = 0.0
    topology: str = "labels_at_client"
    num_clients: int = field(kw_only=True)

    def __post_init__(self) -> None:
        for name in ("participation_rate", "learning_rate", "server_learning_rate",
                     "momentum", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
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
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")

    @property
    def clients_per_round(self) -> int:
        """floor(participation_rate * num_clients), at least 1. The product
        is rounded to 9 decimals first, so float error cannot take a client
        away: 0.29 * 100 is 28.999999999999996 in floats, and selects 29.
        """
        return max(math.floor(round(self.participation_rate * self.num_clients, 9)), 1)


def select_clients(num_clients: int, m: int, round: int, seed: int) -> list[int]:
    """Uniform sample of m distinct clients, deterministic per (seed, round)."""
    if not 1 <= m <= num_clients:
        raise ValueError(f"m must be in [1, {num_clients}], got {m}")
    rng = np.random.default_rng(derive_seed(seed, "select", round))
    return sorted(int(c) for c in rng.choice(num_clients, size=m, replace=False))


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
    workspace: Workspace | None = None,
) -> ClientUpdates:
    """The participations of K clients whose local batches share one shape,
    trained in lockstep, as one set of blocks with a row per client in the
    order of shards.

    The clients must have equally large unlabeled pools in this
    participation and equally large labeled pools. Their students (and,
    with momentum or weight decay, their velocities) are stacked as [K, P],
    and every local batch's objective and SGD step are one planned pass
    over the client axis (see the module docstring). Client k keeps its own
    generator, seeded with seeds[k], and draws from it exactly what it
    would draw training alone, so each row is bitwise that of a one-client
    call. round only labels a non-finite error.

    Every per-batch array (the gathered inputs, both augmented views, the
    activations of all three passes, the gradients, the velocities, the
    students, the in-round teachers and the hard labels the KL statistics
    are made from) lives in the workspace, which the caller may share
    across calls: nothing in it outlives a call, and the results own their
    memory. Without one, a throwaway workspace is used.
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
    n_u, n_l = u_pools[0].size, l_pools[0].size
    if any(p.size != n_u for p in u_pools) or any(p.size != n_l for p in l_pools):
        raise ValueError("lockstep clients must share unlabeled and labeled pool sizes")
    dim = dataset.inputs.shape[-1]
    if dim != spec.input_dim:
        raise ValueError(f"inputs shape {dataset.inputs.shape} inconsistent with input_dim "
                         f"{spec.input_dim}")
    if n_l and dataset.labels[np.concatenate(l_pools)].max() >= spec.num_classes:
        raise ValueError("targets out of class range")

    ws = Workspace() if workspace is None else workspace
    snapshot = downlink["student"]
    downlinked_teacher = downlink.get("teacher")
    stacked = (k_clients, len(snapshot))
    # the K students train in place in the workspace, from copies of the
    # snapshot; the K in-round teachers start as a read-only [K, P] view of
    # their downlink, which the first EMA step writes into the workspace
    student = ParamVector(ws.take("lockstep.student", stacked), snapshot.spec_hash)
    np.copyto(student.values, snapshot.values)
    teacher = None if downlinked_teacher is None else ParamVector(
        np.broadcast_to(downlinked_teacher.values, stacked), downlinked_teacher.spec_hash)
    # the objective's gradient; the scratch arena holds the supervised
    # gradient, then the proximal pull, then the step
    grad = ParamVector(ws.take("lockstep.grad", stacked), snapshot.spec_hash)
    scratch = ParamVector(ws.take(SCRATCH, stacked), snapshot.spec_hash)
    velocity = None
    if plan.momentum != 0.0 or plan.weight_decay != 0.0:
        velocity = ws.take("lockstep.velocity", stacked)
        velocity.fill(0.0)
    rngs = [np.random.default_rng(s) for s in seeds]
    # every local batch's hard labels, teacher side then student side, for
    # the KL statistics; batch j of epoch e is columns e*n_u + [start, stop)
    kl_labels = ws.take("lockstep.kl_labels", (2, k_clients, plan.local_epochs * n_u), np.int64)
    bounds = [(start, min(start + plan.unlabeled_batch_size, n_u))
              for start in range(0, n_u, plan.unlabeled_batch_size)]
    # labeled batches cycle through each client's own pool; the unlabeled
    # pool drives epoch length
    l_cols = [np.arange(b * plan.labeled_batch_size, (b + 1) * plan.labeled_batch_size) % n_l
              for b in range(len(bounds))] if n_l else []
    rows = {(k_clients, stop - start) for start, stop in bounds}
    if n_l:
        labels = ws.take("lockstep.labels", (k_clients, plan.labeled_batch_size), np.int64)
        ones = np.ones(labels.shape)
        rows.add(labels.shape)
    # each batch's rows are gathered into one arena: a batch's unlabeled rows
    # are dead once its strong view is drawn, and its labeled rows follow
    # them there; views are taken largest first, so none grows the arena
    # under another
    gathered = {r: ws.take("lockstep.rows", r + (dim,))
                for r in sorted(rows, key=lambda r: r[1], reverse=True)}
    objective = PassPlan(student, spec, ws, rows)
    col = 0

    for epoch in range(plan.local_epochs):
        u_order = np.empty((k_clients, n_u), dtype=np.int64)
        l_order = np.empty((k_clients, n_l), dtype=np.int64)
        for k, rng in enumerate(rngs):
            u_order[k] = u_pools[k][rng.permutation(n_u)]
            if n_l:
                l_order[k] = l_pools[k][rng.permutation(n_l)]
        for b, (start, stop) in enumerate(bounds):
            # mode="clip" (the indices are in range by construction) lets
            # take write straight into the buffer
            u_batch = Batch(dataset.inputs.take(u_order[:, start:stop], axis=0, mode="clip",
                                                out=gathered[(k_clients, stop - start)]))
            weak = weak_augment(u_batch, aug, rngs, workspace=ws)
            pseudo, teacher = variant_batch_hook(
                variant, teacher, student, weak.inputs, spec, hyper, workspace=ws
            )
            # the pseudo-labels are the argmax of the source's probabilities;
            # the student side is the argmax of the pre-step students on the
            # strong view, which the objective writes
            done = col + stop - start
            kl_labels[0, :, col:done] = pseudo.pseudo_labels
            # the objective: lambda_u times the unsupervised cross-entropy on
            # the strong view, plus the supervised one on the labeled weak
            # view, plus the proximal pull; each rng draws the strong view,
            # then the labeled weak view
            strong = strong_augment(u_batch, aug, rngs, workspace=ws)
            try:
                objective.run(strong.inputs, pseudo.pseudo_labels, pseudo.mask, grad,
                              labels_out=kl_labels[1, :, col:done])
                grad.values *= hyper.lambda_u
                if n_l:
                    l_idx = l_order[:, l_cols[b]]
                    labeled = weak_augment(Batch(
                        dataset.inputs.take(l_idx, axis=0, mode="clip",
                                            out=gathered[labels.shape]),
                        dataset.labels.take(l_idx, mode="clip", out=labels)),
                        aug, rngs, workspace=ws)
                    objective.run(labeled.inputs, labeled.labels, ones, scratch)
                    grad.values += scratch.values
            except NonFiniteError as exc:
                raise RuntimeError(
                    f"client {shards[exc.index].client_id}: non-finite loss at round "
                    f"{round} epoch {epoch} batch {b}: {exc}"
                ) from None
            if hyper.mu > 0:
                pull = np.subtract(student.values, snapshot.values, out=scratch.values)
                pull *= hyper.mu
                grad.values += pull
            # the heavy-ball step of nn.sgd_step; without momentum and weight
            # decay its velocity is the gradient but for the sign of a zero
            # entry, which moves no parameter (see nn.sgd_epochs), so the
            # step is lr * gradient
            if velocity is None:
                step = np.multiply(grad.values, plan.learning_rate, out=scratch.values)
            else:
                velocity *= plan.momentum
                velocity += grad.values
                if plan.weight_decay != 0.0:
                    velocity += np.multiply(student.values, plan.weight_decay,
                                            out=scratch.values)
                step = np.multiply(velocity, plan.learning_rate, out=scratch.values)
            student.values -= step
            finite = np.isfinite(student.values).all(axis=1)
            if not finite.all():
                raise RuntimeError(
                    f"client {shards[int(np.argmin(finite))].client_id}: non-finite "
                    f"parameters at round {round} after epoch {epoch} batch {b}"
                )
            col = done

    # the deltas are fresh arrays, so no result points into the workspace
    delta = ParamVector(student.values - snapshot.values, snapshot.spec_hash)
    payload = variant_uplink(variant, delta, teacher, downlinked_teacher)
    if plan.local_epochs:
        # [2, K, n_batches] is C-contiguous, so each client's mean sums its
        # batches in the order a 1-D mean does
        kl = batch_label_kl(kl_labels, [stop - start for start, stop in bounds]
                            * plan.local_epochs, spec.num_classes).mean(axis=-1)
    else:
        kl = np.zeros((2, k_clients))
    return ClientUpdates([sh.client_id for sh in shards], payload["student"],
                         payload.get("teacher"), kl)


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
) -> ClientUpdates:
    """One client's full participation, a pure function of its arguments:
    the one-row blocks of the one-client case of lockstep_update.
    """
    return lockstep_update([shard], downlink, variant, plan, hyper, spec, aug, dataset,
                           [seed], round, [stream_step])


def aggregate(server: ServerState, updates: ClientUpdates) -> ParamVector:
    """Server snapshot plus the unweighted mean of the client deltas, one
    row per client of a [K, P] stack in client-id order, for bit-exact
    reproducibility.
    """
    if not updates.client_ids:
        raise ValueError("aggregate needs at least one client result")
    deltas = ClientUpdates.join([updates]).delta
    server.global_student.check_compatible(deltas)
    mean = deltas.values.mean(axis=0)
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
    workspace: Workspace | None = None,
) -> tuple[ServerState, RoundReport]:
    """One full protocol round: a pure function of the server state and
    the round's inputs, except that it records every downlinked and
    uplinked model in the ledger. The new state counts each participant's
    round and holds the KL statistics it reported. All lockstep groups
    train in workspace (a throwaway one without it), whose buffers carry
    nothing between calls; a caller that passes the same one to every round
    allocates them once.
    """
    if plan.num_clients != len(shards):
        raise ValueError("plan.num_clients must match the number of shards")
    if plan.topology != "labels_at_client" and (
        server.server_labeled_pool is None or server.server_labeled_pool.size == 0
    ):
        raise ValueError(f"{plan.topology} requires a server labeled pool")

    rnd = server.round
    selected = select_clients(len(shards), plan.clients_per_round, rnd, base_seed)
    downlink = variant_downlink(variant, server)
    # every downlinked model has the global student's size
    ledger.record(rnd, "downlink", tuple(downlink), selected, len(server.global_student))

    # clients whose local batches share one shape, keyed by their
    # (unlabeled, labeled) pool sizes, train in lockstep
    steps = {cid: server.participations.get(cid, 0) for cid in selected}
    groups: dict[tuple[int, int], list[int]] = {}
    for cid in selected:
        key = (_unlabeled_pool(shards[cid], steps[cid]).size, shards[cid].labeled_idx.size)
        groups.setdefault(key, []).append(cid)
    ws = Workspace() if workspace is None else workspace
    # select_clients sorts, so the joined rows are in selected order
    updates = ClientUpdates.join([
        lockstep_update(
            [shards[cid] for cid in cids], downlink, variant, plan, hyper, spec, aug, dataset,
            seeds=[derive_seed(base_seed, "client", rnd, cid) for cid in cids],
            round=rnd,
            stream_steps=[steps[cid] for cid in cids],
            workspace=ws,
        )
        for cids in groups.values()
    ])
    roles = ("student",) if updates.teacher_delta is None else ("student", "teacher")
    ledger.record(rnd, "uplink", roles, updates.client_ids, len(updates.delta))

    aggregated = aggregate(server, updates)
    new_student = aggregated
    if plan.topology != "labels_at_client":
        # sequential fine-tunes the aggregate; parallel trains the last
        # global student and mixes it in by the server's share of examples
        parallel = plan.topology == "labels_at_server_parallel"
        trained = server_update(
            server.global_student if parallel else aggregated, server.server_labeled_pool,
            plan.server_epochs, plan.server_learning_rate, plan.server_batch_size,
            derive_seed(base_seed, "server-update", rnd), spec,
        )
        new_student = trained
        if parallel:
            n_s = server.server_labeled_pool.size
            n = n_s + sum((n_u + n_l) * len(cids) for (n_u, n_l), cids in groups.items())
            w = n_s / n
            new_student = ParamVector(
                w * trained.values + (1.0 - w) * aggregated.values,
                aggregated.spec_hash,
            )
    new_teacher = variant_server_merge(variant, server.global_teacher, new_student,
                                       updates.teacher_delta)

    new_state = replace(
        server,
        global_student=new_student,
        global_teacher=new_teacher,
        round=rnd + 1,
        participations={**server.participations, **{cid: n + 1 for cid, n in steps.items()}},
        client_ids=updates.client_ids,
        client_kl=updates.kl,
    )
    agg_kl = new_state.last_kl

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
    if variant.iidness_prior == "auto":
        raise ValueError("iidness_prior 'auto' must be resolved to a number before a run")
    student = init_params(spec, seed)
    teacher = student.copy() if VARIANTS[variant.kind].teacher else None
    return ServerState(
        global_student=student,
        global_teacher=teacher,
        round=0,
        server_labeled_pool=server_labeled_pool,
    )
