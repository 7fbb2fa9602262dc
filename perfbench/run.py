"""fedssl benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload desk|crowd|server_labels \
        --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
`src/`. The load is a closed loop: one fresh single-threaded child process
(child.py) repeats `parse_config` -> `run_experiment` on the workload's
config for S seconds, each repetition waiting for the one before it, and
checks every output file. With --trace 0 the result holds the end-to-end
metrics. With --trace 1 a plain child and then a traced child run S/2
seconds each; the result holds the per-module metrics of the traced child,
per trial, and the tracing overhead (traced minus plain trial time).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it give the same numbers
for people, with the round-latency sample count, the failure rate and the
SHA-256 digest of every output file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("desk", "crowd", "server_labels")
# the whole run must end well inside 180 s
RUN_LIMIT_S = 170.0

# (metric name, unit) of the per-module metrics; "<module>.<function>.<field>"
# names a field of the traced call table, the rest are computed below
LAYER_METRICS = [
    ("config.parse_config.total_s", "s"),
    ("data.gen_blobs.total_s", "s"),
    ("data.dirichlet_shard.total_s", "s"),
    ("data.make_stream_schedule.total_s", "s"),
    ("data.weak_augment.calls", "count"),
    ("data.weak_augment.self_s", "s"),
    ("data.strong_augment.calls", "count"),
    ("data.strong_augment.self_s", "s"),
    ("nn.forward_probs.calls", "count"),
    ("nn.forward_probs.self_s", "s"),
    ("nn.loss_and_grad.calls", "count"),
    ("nn.loss_and_grad.self_s", "s"),
    ("nn.sgd_step.calls", "count"),
    ("nn.sgd_step.self_s", "s"),
    ("semisup.pseudo_label.calls", "count"),
    ("semisup.pseudo_label.self_s", "s"),
    ("semisup.pseudo_label.rows", "count"),
    ("semisup.mask_rate", "ratio"),
    ("semisup.unsupervised_loss_grad.self_s", "s"),
    ("semisup.combined_client_grad.self_s", "s"),
    ("semisup.kl_to_uniform.calls", "count"),
    ("semisup.kl_to_uniform.self_s", "s"),
    ("semisup.batch_prediction_distribution.self_s", "s"),
    ("variants.variant_batch_hook.self_s", "s"),
    ("variants.ema_update.calls", "count"),
    ("variants.ema_update.self_s", "s"),
    ("variants.variant_server_merge.self_s", "s"),
    ("variants.variant_downlink.self_s", "s"),
    ("variants.variant_uplink.self_s", "s"),
    ("engine.run_round.self_s", "s"),
    ("engine.select_clients.self_s", "s"),
    ("engine.client_update.calls", "count"),
    ("engine.client_update.self_s", "s"),
    ("engine.aggregate.self_s", "s"),
    ("engine.server_update.calls", "count"),
    ("engine.server_update.total_s", "s"),
    ("engine.init_server.total_s", "s"),
    ("metrics.evaluate.calls", "count"),
    ("metrics.evaluate.total_s", "s"),
    ("metrics.CommLedger.round_totals.self_s", "s"),
    ("metrics.CommLedger.record.calls", "count"),
    ("metrics.CommLedger.entries", "count"),
    ("runner.run_experiment.self_s", "s"),
    ("runner.output_bytes", "bytes"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
]

E2E_UNITS = {
    "trial_s": "s",
    "round_ms_p50": "ms",
    "round_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_acc": "ratio",
    "comm_mb": "MB",
}


def run_child(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Run child.py in a fresh process and return its raw samples."""
    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-s{seed}-t{trace}-", dir=runs))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    # single-threaded BLAS, so timings do not depend on how many threads a
    # library picks on the host
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(BENCH / "child.py"),
           "--ini", str(BENCH / "workloads" / f"{workload}.ini"),
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--out", str(work / "reps"), "--result", str(work / "result.json")]
    if trace:
        cmd += ["--spans", str(runs / f"spans-{workload}-s{seed}.npz")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.perf_counter(), 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def earlier_digests(workload: str, seed: int, files: dict[str, str]) -> dict[str, str]:
    """Output digests of the first run of this code, workload and seed in
    this checkout; the first run records its own. Keyed by a hash of the
    sources, so a change to the program starts a fresh record.
    """
    code = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [
            BENCH / "child.py", BENCH / "workloads" / f"{workload}.ini"]:
        code.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    record = ROOT / ".perfbench_runs" / f"digests-{workload}-s{seed}-{code.hexdigest()[:16]}.json"
    if not record.exists():
        record.write_text(json.dumps(files, sort_keys=True), encoding="utf-8")
    return json.loads(record.read_text(encoding="utf-8"))


def end_to_end(plain: dict) -> dict[str, float]:
    """End-to-end metrics from a plain child's samples."""
    # round percentiles are taken per trial (15 of 300 rounds lie beyond
    # p95), then the median over trials, so a burst of host noise in one
    # trial does not move them
    p50, p95 = np.percentile(np.asarray(plain["round_s"]) * 1e3, [50, 95], axis=1)
    return {
        "trial_s": statistics.median(plain["trial_s"]),
        "round_ms_p50": float(np.median(p50)),
        "round_ms_p95": float(np.median(p95)),
        "setup_s": statistics.median(plain["setup_s"]),
        "peak_rss_mb": plain["peak_rss_kb"] / 1024,
        "final_acc": statistics.median(plain["final_acc"]),
        "comm_mb": statistics.median(plain["comm_bytes"]) / 1e6,
    }


def per_layer(plain: dict, traced: dict) -> dict[str, float]:
    """Per-module metrics from a traced child's call table, per trial."""
    trials = traced["trials"]
    table = traced["table"]
    derived = {
        "semisup.pseudo_label.rows": traced["pseudo_rows"] / trials,
        "semisup.mask_rate": traced["pseudo_kept"] / traced["pseudo_rows"],
        "metrics.CommLedger.entries": statistics.mean(traced["ledger_entries"]),
        "runner.output_bytes": traced["output_bytes"] / trials,
        "trace.spans": traced["spans"] / trials,
    }
    plain_s = statistics.median(plain["trial_s"])
    traced_s = statistics.median(traced["trial_s"])
    derived["trace.overhead_s"] = traced_s - plain_s
    derived["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    out = {}
    for name, _ in LAYER_METRICS:
        if name in derived:
            out[name] = derived[name]
        else:
            func, field = name.rsplit(".", 1)
            out[name] = table[func][field] / trials
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "fedssl" / "__init__.py").is_file():
        print(f"error: no fedssl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    # a child whose first repetition failed has no samples to reduce
    if args.trace:
        children = [run_child(args.workload, args.seed, args.seconds / 2, t, deadline)
                    for t in (0, 1)]
        plain, traced = children
        units = dict(LAYER_METRICS)
        metrics = per_layer(plain, traced) if plain["trial_s"] and traced["trial_s"] else {}
    else:
        plain = run_child(args.workload, args.seed, args.seconds, 0, deadline)
        children = [plain]
        units = E2E_UNITS
        metrics = end_to_end(plain) if plain["trial_s"] else {}

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    problems = [p for c in children for p in c["problems"]]
    if args.trace and plain["digests"] != traced["digests"]:
        problems.append("traced outputs differ from untraced outputs")
        failed += traced["trials"]
    if plain["digests"] and earlier_digests(args.workload, args.seed,
                                            plain["digests"]) != plain["digests"]:
        problems.append("outputs differ from an earlier run of the same code and seed")
        failed += plain["trials"]
    failed = min(failed, attempted)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:.6g} {units[name]}")
    if not args.trace:
        rounds = [len(t) for t in plain["round_s"]]
        print(f"  {'round_samples':48s} {sum(rounds)} ({len(rounds)} trials of {rounds[0]})")
    print(f"  {'fail_rate':48s} {failed / attempted:.6g} ({failed} of {attempted} trials)")
    for child in children:
        print(f"  digest ({'traced' if child is not plain else 'plain'}) "
              f"{child.get('digest', 'none')}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "files": plain["digests"]}, sort_keys=True))
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
