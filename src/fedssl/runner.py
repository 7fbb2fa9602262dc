"""Multi-trial experiment runner and sweep grid.

Each trial derives independent seeds for sharding, model init, and the
round loop from (base seed, trial index, purpose tag), so trials differ in
exactly the ways a repeated experiment should. The generated dataset itself
is shared across trials, mirroring a fixed benchmark corpus.

All output files are deterministic byte-for-byte for a given config: floats
are written with repr(), rows in fixed order, no timestamps.

Each trial trains every lockstep group of every round in one nn.Workspace,
made empty before the first round (its buffers are allocated inside the
first run_round) and dropped after the last, before the trial writes its
outputs. The CSV files are streamed line by line.

Each trial computes its clients' ground-truth skew once, before the first
round: one [num_clients] array of the KL-to-uniform of each client's
unlabeled label mix, indexed by client id, since the shards are in
client-id order. iidness_prior = auto resolves to its mean, and each
kl_ratio.csv row holds the round's participants' entries against the
teacher row of the new state's [2, M] KL block.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, resolved_ini
from .data import Dataset, dirichlet_shard, gen_blobs, load_csv, make_stream_schedule
from .engine import init_server, run_round
from .metrics import CommLedger, RoundReport, stability_stats
from .nn import ModelSpec, Workspace
from .rng import derive_seed
from .semisup import batch_label_kl


@dataclass(frozen=True)
class TrialSummary:
    """One trial's outcome. The trial's summary.txt is these fields in this
    order, one `name = value` line each: none for None, a string as is,
    repr for anything else. The trailing statistics cover the last
    stability_window rounds.
    """

    trial: int
    trial_seed: int
    variant: str
    ema_alpha: float
    iidness_prior: float
    final_accuracy: float
    best_accuracy: float
    rounds_to_threshold: int | None
    downlink_bytes: int
    uplink_bytes: int
    stability_window: int
    trailing_accuracy_std: float
    max_drawdown: float
    trailing_kl_ratio: float | None
    teacher_round_fraction: float


@dataclass(frozen=True)
class SweepCell:
    """One (variant, dirichlet alpha) grid point."""

    variant_kind: str
    dirichlet_alpha: float
    trials: tuple[TrialSummary, ...]


def _load_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    d = cfg.dataset
    if d.generator == "blobs":
        train = gen_blobs(d.num_classes, d.dim, d.train_per_class, d.spread,
                          seed=derive_seed(cfg.seed, "train-data"))
        test = gen_blobs(d.num_classes, d.dim, d.eval_per_class, d.spread,
                         seed=derive_seed(cfg.seed, "eval-data"))
    else:
        train = load_csv(d.csv_path, d.num_classes)
        test = load_csv(d.eval_csv_path, d.num_classes)
        if train.dim != test.dim:
            raise ValueError(
                f"train and eval dimensions disagree: {train.dim} vs {test.dim}"
            )
        if d.scale01:
            # both splits take the training split's per-feature map, so a
            # raw value scales to one value in training and in evaluation
            lo = train.inputs.min(axis=0)
            span = train.inputs.max(axis=0) - lo
            span[span == 0.0] = 1.0
            train, test = (Dataset((ds.inputs - lo) / span, ds.labels, d.num_classes)
                           for ds in (train, test))
    return train, test


def _truth_kl(shards, data: Dataset, num_classes: int) -> np.ndarray:
    """Ground-truth KL-to-uniform of each client's unlabeled label mix, one
    value per shard, in the order of shards.

    Every client's labels, one after another, are one batch_label_kl call:
    each client is a batch, so one bincount makes every histogram, and each
    KL is bitwise kl_to_uniform(label_histogram(...)) of the client's labels.
    """
    sizes = np.array([sh.unlabeled_idx.size for sh in shards], dtype=np.int64)
    if sizes.min() < 1:
        raise ValueError("empty label vector")
    labels = data.labels[np.concatenate([sh.unlabeled_idx for sh in shards])]
    return batch_label_kl(labels, sizes, num_classes)


def _ratio_row(client_ids, dkl_teacher: np.ndarray,
               truth: np.ndarray) -> tuple[float, float | None]:
    """Mean truth KL of the round's clients, and their mean pseudo/truth
    ratio; dkl_teacher holds the clients' statistics in the order of
    client_ids, and truth is indexed by client id.
    """
    truth = truth[list(client_ids)]
    kept = truth > 0.0
    ratio = float(np.mean(dkl_teacher[kept] / truth[kept])) if kept.any() else None
    return float(np.mean(truth)), ratio


def _opt(value: float | None) -> str:
    return "" if value is None else repr(value)


def _summary_value(value) -> str:
    return "none" if value is None else value if isinstance(value, str) else repr(value)


def _write_lines(path: Path, header: str, rows) -> None:
    """Write the header and each row as one line, without building the
    whole file in memory; the bytes equal those of joining the lines.
    """
    with path.open("w", encoding="utf-8") as f:
        f.write(header + "\n")
        f.writelines(row + "\n" for row in rows)


def _run_trial(
    cfg: ExperimentConfig,
    trial: int,
    data: Dataset,
    eval_data: Dataset,
    spec: ModelSpec,
    out_dir: Path,
) -> TrialSummary:
    trial_seed = derive_seed(cfg.seed, "trial", trial)
    sharding = dirichlet_shard(data, replace(cfg.shard, seed=derive_seed(trial_seed, "shard")))
    shards = sharding.shards
    pool = None
    if cfg.shard.server_holds_labels:
        idx = sharding.server_labeled_idx
        pool = Dataset(data.inputs[idx], data.labels[idx], cfg.dataset.num_classes)

    # the shards are in client-id order, so truth is indexed by client id
    truth = _truth_kl(shards, data, cfg.dataset.num_classes)
    beta = cfg.variant.iidness_prior
    if beta == "auto":
        beta = float(np.mean(truth))
    variant = replace(cfg.variant, iidness_prior=beta)

    if cfg.shard.streaming_steps > 0:
        shards = [
            make_stream_schedule(sh, cfg.shard.streaming_steps,
                                 seed=derive_seed(trial_seed, "stream", sh.client_id))
            for sh in shards
        ]

    server = init_server(spec, variant, seed=derive_seed(trial_seed, "init"),
                         server_labeled_pool=pool)
    round_plan = cfg.training.round_plan(cfg.shard.num_clients)
    hyper = cfg.training.hyper()
    ledger = CommLedger(bytes_per_param=cfg.training.bytes_per_param)
    base_seed = derive_seed(trial_seed, "rounds")

    reports: list[RoundReport] = []
    ratio_rows: list[tuple[int, float, float, float | None]] = []
    workspace = Workspace()
    for _ in range(cfg.training.rounds):
        server, report = run_round(
            server, shards, variant, round_plan, hyper, spec, cfg.augment,
            data, eval_data, base_seed=base_seed, ledger=ledger, workspace=workspace,
        )
        reports.append(report)
        # pseudo_kl is the round's dkl_T: the same mean over the same clients
        ratio_rows.append((report.round, report.dkl_teacher,
                           *_ratio_row(server.client_ids, server.client_kl[0], truth)))
    # the buffers are freed before the output is written, so the two do not
    # add up in the peak memory
    del workspace

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_lines(out_dir / "rounds.csv", RoundReport.csv_header(),
                 (r.csv_row() for r in reports))
    _write_lines(out_dir / "transmissions.csv", "round,direction,role,client_id,num_params,bytes",
                 (f"{rnd},{direction},{role},{cid},{num_params},{size}"
                  for rnd, direction, role, cid, num_params, size in ledger.entries))
    _write_lines(out_dir / "kl_ratio.csv", "round,pseudo_kl,truth_kl,ratio",
                 (f"{rnd},{repr(p)},{repr(t)},{_opt(r)}" for rnd, p, t, r in ratio_rows))

    accs = [r.acc_student for r in reports]
    threshold = cfg.accuracy_threshold
    rounds_to_threshold = None if threshold is None else next(
        (i for i, a in enumerate(accs, start=1) if a >= threshold), None)

    window = cfg.effective_window
    trailing_std, drawdown = stability_stats(accs, window)
    tail_ratios = [r for _, _, _, r in ratio_rows[-window:] if r is not None]

    summary = TrialSummary(
        trial=trial,
        trial_seed=trial_seed,
        variant=variant.kind,
        ema_alpha=variant.resolved_alpha,
        iidness_prior=beta,
        final_accuracy=accs[-1],
        best_accuracy=max(accs),
        rounds_to_threshold=rounds_to_threshold,
        downlink_bytes=ledger.total_bytes("downlink"),
        uplink_bytes=ledger.total_bytes("uplink"),
        stability_window=window,
        trailing_accuracy_std=trailing_std,
        max_drawdown=drawdown,
        trailing_kl_ratio=float(np.mean(tail_ratios)) if tail_ratios else None,
        teacher_round_fraction=sum(1 for r in reports if r.send_teacher) / len(reports),
    )
    (out_dir / "summary.txt").write_text(
        "".join(f"{f.name} = {_summary_value(getattr(summary, f.name))}\n"
                for f in fields(summary)),
        encoding="utf-8",
    )
    return summary


def run_experiment(cfg: ExperimentConfig) -> list[TrialSummary]:
    """Run all trials of one experiment; write outputs under cfg.output."""
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_resolved.ini").write_text(resolved_ini(cfg), encoding="utf-8")

    data, eval_data = _load_datasets(cfg)
    spec = ModelSpec(
        input_dim=data.dim,
        hidden_dims=cfg.training.hidden_dims,
        num_classes=cfg.dataset.num_classes,
    )

    summaries: list[TrialSummary] = []
    for t in range(cfg.trials):
        try:
            summaries.append(_run_trial(cfg, t, data, eval_data, spec,
                                        out / f"trial_{t:03d}"))
        except (ValueError, RuntimeError) as exc:
            raise RuntimeError(f"trial {t}: {exc}") from exc

    finals = [s.final_accuracy for s in summaries]
    mean = float(np.mean(finals))
    std = float(np.std(finals))
    lines = [
        f"trials = {cfg.trials}",
        f"final_accuracy_mean = {repr(mean)}",
        f"final_accuracy_std = {repr(std)}",
        f"best_accuracy_mean = {repr(float(np.mean([s.best_accuracy for s in summaries])))}",
        f"downlink_bytes_total = {sum(s.downlink_bytes for s in summaries)}",
        f"uplink_bytes_total = {sum(s.uplink_bytes for s in summaries)}",
        "",
    ]
    for s in summaries:
        lines.append(
            f"trial {s.trial}: seed={s.trial_seed} "
            f"final={repr(s.final_accuracy)} best={repr(s.best_accuracy)}"
        )
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{cfg.variant.kind}: final accuracy {mean:.4f} ± {std:.4f} "
          f"over {cfg.trials} trial(s)")
    return summaries


def _alpha_tag(alpha: float) -> str:
    return f"alpha_{alpha:g}"


def run_sweep(
    cfg: ExperimentConfig,
    alphas: list[float],
    kinds: list[str],
) -> list[SweepCell]:
    """Cartesian (variant x dirichlet alpha) grid; one full experiment per
    cell under cfg.output/<kind>/alpha_<a>/ plus a grid CSV at the root.
    """
    if not alphas or not kinds:
        raise ValueError("sweep needs at least one alpha and one variant")

    root = Path(cfg.output)
    # every cell's config is built, and so checked, before any cell writes;
    # a repeated variant, or alphas equal to six significant digits, would
    # have two cells write one directory
    grid: dict[Path, tuple[str, float, ExperimentConfig]] = {}
    for kind in kinds:
        for alpha in map(float, alphas):
            out = root / kind / _alpha_tag(alpha)
            if out in grid:
                raise ValueError(f"sweep cells {grid[out][:2]} and {(kind, alpha)} "
                                 f"share the output directory {out}")
            grid[out] = kind, alpha, replace(
                cfg,
                shard=replace(cfg.shard, dirichlet_alpha=alpha),
                variant=replace(cfg.variant, kind=kind),
                output=str(out),
            )

    cells: list[SweepCell] = []
    rows = [
        "variant,dirichlet_alpha,final_accuracy_mean,final_accuracy_std,"
        "best_accuracy_mean,trailing_accuracy_std_mean,kl_ratio_mean,"
        "downlink_bytes_mean,uplink_bytes_mean"
    ]
    for kind, alpha, sub in grid.values():
        summaries = run_experiment(sub)
        cells.append(SweepCell(kind, alpha, tuple(summaries)))

        finals = [s.final_accuracy for s in summaries]
        ratios = [s.trailing_kl_ratio for s in summaries if s.trailing_kl_ratio is not None]
        rows.append(",".join([
            kind,
            repr(alpha),
            repr(float(np.mean(finals))),
            repr(float(np.std(finals))),
            repr(float(np.mean([s.best_accuracy for s in summaries]))),
            repr(float(np.mean([s.trailing_accuracy_std for s in summaries]))),
            _opt(float(np.mean(ratios)) if ratios else None),
            repr(float(np.mean([s.downlink_bytes for s in summaries]))),
            repr(float(np.mean([s.uplink_bytes for s in summaries]))),
        ]))

    root.mkdir(parents=True, exist_ok=True)
    (root / "sweep.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return cells
