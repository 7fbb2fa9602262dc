"""Output checks and the behaviour digest of one `run_experiment` call.

The checks read only the files the run wrote and the parsed config, and
recompute what they can in closed form, so a trial that writes wrong
numbers fails even when nothing raised.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file under out_dir, keyed by its relative path."""
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def combined_digest(files: dict[str, str]) -> str:
    h = hashlib.sha256()
    for rel in sorted(files):
        h.update(f"{rel}\0{files[rel]}\n".encode())
    return h.hexdigest()


def _num_params(cfg) -> int:
    dims = [cfg.dataset.dim, *cfg.training.hidden_dims, cfg.dataset.num_classes]
    return sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))


def _summary(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def check_trial(cfg, trial_dir: Path) -> list[str]:
    """Problems found in one trial's outputs; empty when the trial is good."""
    problems: list[str] = []
    with open(trial_dir / "rounds.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != cfg.training.rounds:
        problems.append(f"rounds.csv has {len(rows)} rows, expected {cfg.training.rounds}")

    model_bytes = _num_params(cfg) * cfg.training.bytes_per_param
    per_round = max(int(cfg.training.participation_rate * cfg.shard.num_clients), 1)
    kind = cfg.variant.kind
    up_roles = 2 if kind == "ts_client_ema" else 1
    for i, row in enumerate(rows):
        if int(row["round"]) != i:
            problems.append(f"rounds.csv row {i} is numbered {row['round']}")
        for col in ("acc_student", "acc_teacher"):
            acc = float(row[col])
            if not (math.isfinite(acc) and 0.0 <= acc <= 1.0):
                problems.append(f"round {i}: {col} = {row[col]} outside [0, 1]")
        if kind == "fedprox_fixmatch":
            down_roles = 1
        elif kind == "fedswitch":
            down_roles = 1 + int(row["send_teacher"])
        else:
            down_roles = 2
        for col, roles in (("downlink_bytes", down_roles), ("uplink_bytes", up_roles)):
            want = per_round * model_bytes * roles
            if int(row[col]) != want:
                problems.append(f"round {i}: {col} = {row[col]}, closed form {want}")

    sent = {"downlink": 0, "uplink": 0}
    with open(trial_dir / "transmissions.csv", newline="", encoding="utf-8") as f:
        for tx in csv.DictReader(f):
            sent[tx["direction"]] += int(tx["bytes"])
    summary = _summary(trial_dir / "summary.txt")
    for direction, total in sent.items():
        recorded = int(summary[f"{direction}_bytes"])
        if total != recorded:
            problems.append(
                f"transmissions.csv {direction} sums to {total}, summary.txt says {recorded}")
    if rows and float(summary["final_accuracy"]) != float(rows[-1]["acc_student"]):
        problems.append("summary.txt final_accuracy differs from the last round's")
    return problems


def check_run(cfg, out_dir: Path) -> list[list[str]]:
    """Per-trial problem lists for a whole experiment, plus the cross-trial
    byte totals in the experiment's summary.txt (charged to the last trial).
    """
    per_trial = [check_trial(cfg, out_dir / f"trial_{t:03d}") for t in range(cfg.trials)]
    top = _summary(out_dir / "summary.txt")
    for direction in ("downlink", "uplink"):
        total = sum(int(_summary(out_dir / f"trial_{t:03d}" / "summary.txt")[f"{direction}_bytes"])
                    for t in range(cfg.trials))
        if int(top[f"{direction}_bytes_total"]) != total:
            per_trial[-1].append(f"summary.txt {direction}_bytes_total disagrees with the trials")
    return per_trial
