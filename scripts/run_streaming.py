"""Compare round-to-round stability when each participation sees one
segment of a client's unlabeled pool.

Run:
    python3 scripts/run_streaming.py [--trials N] [--rounds N] [--out DIR]

At dirichlet alpha 0.1, each client's unlabeled pool is split once, at
random, into 10 near-equal segments that keep its class mix, and the
client's k-th participation trains on segment k mod 10 (the server counts
participations in ServerState.participations). A client therefore sees a
different tenth of its data each time it joins, with the same class mix.
Per-batch teacher EMA (ts_client_ema, fedswitch) should damp the resulting
accuracy wobble relative to plain FedProx-FixMatch; the metric is each
trial's trailing-window accuracy standard deviation, read from the
TrialSummary records run_experiment returns.
"""

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from fedssl import parse_config, run_experiment

ROOT = Path(__file__).resolve().parent.parent

ARMS = (
    ("fedprox_fixmatch", "0.0"),
    ("ts_client_ema", "0.0"),
    ("fedswitch", "auto"),
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/streaming", help="output root")
    ap.add_argument("--trials", type=int, default=None, help="override trial count")
    ap.add_argument("--rounds", type=int, default=None, help="override round count")
    args = ap.parse_args()

    base = parse_config(ROOT / "configs" / "desk_scale.ini")
    base = replace(base, shard=replace(base.shard, dirichlet_alpha=0.1, streaming_steps=10))
    if args.trials is not None:
        base = replace(base, trials=args.trials)
    if args.rounds is not None:
        base = replace(base, training=replace(base.training, rounds=args.rounds))

    for kind, beta in ARMS:
        out_dir = Path(args.out) / kind
        cfg = replace(
            base,
            variant=replace(base.variant, kind=kind, iidness_prior=beta if beta == "auto" else float(beta)),
            output=str(out_dir),
        )
        trials = run_experiment(cfg)
        accs = [t.final_accuracy for t in trials]
        stds = [t.trailing_accuracy_std for t in trials]
        print(f"  {kind:18s} final {np.mean(accs):.4f}"
              f"  trailing std {np.mean(stds):.5f} (per trial: "
              + ", ".join(f"{s:.5f}" for s in stds) + ")")


if __name__ == "__main__":
    main()
