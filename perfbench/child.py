"""One measured process of the benchmark: runs a workload config through the
public API (`parse_config` then `run_experiment`) until its time is up, and
writes the raw samples as JSON for run.py to reduce.

Usage (run.py starts it; the tests start it directly):

    python3 perfbench/child.py --ini W.ini --seed N --seconds S --trace 0|1 \
        --out DIR --result FILE [--spans FILE]

Every repetition parses a freshly written copy of the config, whose [run]
seed and output are set here, and writes into a fresh output directory.
With --trace 0 a thin timer wraps each `run_round` call and a few set-up-only
repetitions stop at the first round; with --trace 1 every public fedssl
function is traced instead (see tracer.py).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import fedssl
import fedssl.runner

from checks import check_run, combined_digest, digests
from tracer import Tracer

# set-up-only repetitions per untraced run; set-up takes milliseconds, so
# its median needs more samples than the full repetitions give
SETUP_REPS = 30


class _FirstRound(Exception):
    """Raised at the first run_round call to end a set-up-only repetition."""


class RoundClock:
    """Thin timer around `runner.run_round`, the name run_experiment calls."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.first_entry: float | None = None
        self.stop_at_first = False
        inner = fedssl.runner.run_round

        def timed(*args, **kwargs):
            start = time.perf_counter()
            if self.first_entry is None:
                self.first_entry = start
                if self.stop_at_first:
                    raise _FirstRound
            try:
                return inner(*args, **kwargs)
            finally:
                self.durations.append(time.perf_counter() - start)

        fedssl.runner.run_round = timed

    def arm(self, stop_at_first: bool) -> None:
        self.durations = []
        self.first_entry = None
        self.stop_at_first = stop_at_first


def workload_text(template: str, seed: int, output: Path) -> str:
    """The workload config with its [run] seed and output set."""
    for key, value in (("seed", str(seed)), ("output", output.as_posix())):
        template, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", template, flags=re.M)
        if n != 1:
            raise ValueError(f"workload config needs exactly one '{key} = ' line")
    return template


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ini", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    template = args.ini.read_text(encoding="utf-8")
    # repetitions chdir into their own directories
    args.out, args.result = args.out.resolve(), args.result.resolve()
    if args.spans is not None:
        args.spans = args.spans.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    tracer = clock = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    else:
        clock = RoundClock()

    res: dict = {"attempted": 0, "failed": 0, "problems": [], "trial_s": [], "setup_s": [],
                 "round_s": [], "final_acc": [], "comm_bytes": [], "output_bytes": 0,
                 "trials": 0, "digests": None}
    numbers = itertools.count()

    def fresh(tag: str) -> tuple[Path, Path]:
        # each repetition runs inside its own new directory and names its
        # output relatively, so the resolved config written with the outputs,
        # and hence the digest, does not depend on where the run happens
        rep_dir = args.out / f"{tag}{next(numbers):03d}"
        rep_dir.mkdir()
        os.chdir(rep_dir)
        ini = Path("workload.ini")
        ini.write_text(workload_text(template, args.seed, Path("out")), encoding="utf-8")
        return ini, rep_dir

    start = time.perf_counter()
    if clock is not None:
        for _ in range(SETUP_REPS):
            ini, rep_dir = fresh("setup")
            t0 = time.perf_counter()
            cfg = fedssl.parse_config(ini)
            t1 = time.perf_counter()
            clock.arm(stop_at_first=True)
            try:
                fedssl.run_experiment(cfg)
            except _FirstRound:
                pass
            res["setup_s"].append((t1 - t0) + (clock.first_entry - t1))
            os.chdir(args.out)
            shutil.rmtree(rep_dir)

    deadline = start + args.seconds
    while True:
        ini, rep_dir = fresh("rep")
        out = rep_dir / "out"
        t0 = time.perf_counter()
        cfg = fedssl.parse_config(ini)
        t1 = time.perf_counter()
        if clock is not None:
            clock.arm(stop_at_first=False)
        res["attempted"] += cfg.trials
        try:
            summaries = fedssl.run_experiment(cfg)
            t2 = time.perf_counter()
            problems = check_run(cfg, out)
            files = digests(out)
        except Exception:  # a failed repetition is counted, not fatal
            res["failed"] += cfg.trials
            res["problems"].append(traceback.format_exc())
            break
        bad = [p for p in problems if p]
        if res["digests"] is None:
            res["digests"] = files
        elif files != res["digests"]:
            bad = problems
            res["problems"].append(f"repetition {len(res['trial_s']) + 1}: outputs differ "
                                   "from the first repetition with the same seed")
        res["failed"] += len(bad)
        res["problems"].extend(msg for p in problems for msg in p)
        res["trials"] += cfg.trials
        res["trial_s"].append((t2 - t1) / cfg.trials)
        if clock is not None:
            res["setup_s"].append((t1 - t0) + (clock.first_entry - t1))
            n = cfg.training.rounds  # one list of round latencies per trial
            res["round_s"].extend(clock.durations[i:i + n]
                                  for i in range(0, len(clock.durations), n))
        res["final_acc"].append(sum(s.final_accuracy for s in summaries) / len(summaries))
        res["comm_bytes"].append(
            sum(s.downlink_bytes + s.uplink_bytes for s in summaries) / len(summaries))
        res["output_bytes"] += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        os.chdir(args.out)
        shutil.rmtree(rep_dir)
        if time.perf_counter() >= deadline:
            break

    res["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if res["digests"] is not None:
        res["digest"] = combined_digest(res["digests"])
    if tracer is not None:
        tracer.uninstall()
        res["table"] = tracer.table()
        res["spans"] = len(tracer.span_name)
        res["pseudo_rows"] = tracer.pseudo_rows
        res["pseudo_kept"] = tracer.pseudo_kept
        res["ledger_entries"] = tracer.ledger_entries
        if args.spans is not None:
            tracer.save(args.spans)
    args.result.write_text(json.dumps(res), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
