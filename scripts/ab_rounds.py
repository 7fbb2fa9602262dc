"""Time one trial round by round in two source trees, taking turns.

Run:
    python3 scripts/ab_rounds.py --base CHECKOUT --workload W [W ...] [--seed S [S ...]]
        [--json PATH]

For each workload W (desk, crowd or server_labels) and seed S, two worker
processes run one trial of perfbench/workloads/<W>.ini (its [run] trials
set to 1 and seed to S): one imports fedssl from CHECKOUT/src, the other
from this checkout's src. The workers take turns, one run_round at a time,
so only one of them computes at any moment; the one that goes first
alternates from round to round. After each round the two csv_row()s must be
equal, or the script stops with an error naming the round. Each worker runs
in a directory of its own and names its output directory relatively, so
the config it writes with its outputs does not depend on where it ran;
after the trial, the SHA-256 of every output file must be equal in both
trees, or the script stops naming the first file that differs. It prints
the quartiles of the per-round time ratio (this checkout over the base),
each tree's total round time, and each worker's peak resident memory once
its trial has written its outputs (ru_maxrss / 1024, the unit of
perfbench's peak_rss_mb). BLAS runs single-threaded, as in the benchmark.
Taking turns times single-threaded code fairly, and a background thread
unfairly: it keeps running while the other tree computes.

With --json, it also writes one record of every workload and seed to PATH:
each tree's commit (git describe --always --dirty, so a tree with
uncommitted changes reads "<commit>-dirty") and the SHA-256 of its
src/fedssl sources, and per workload and seed the per-round ratio
quartiles, each tree's total round time, trial set-up time (run_experiment's
start to its first round; the two workers set up at the same time) and peak
resident memory, and the SHA-256 of every output file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads"
# each worker's output directory, relative to its own working directory
OUTPUT = "out"


def workload_text(workload: str, seed: int, output: Path) -> str:
    """The workload config for one trial with the given seed and output."""
    text = (WORKLOADS / f"{workload}.ini").read_text(encoding="utf-8")
    for key, value in (("trials", "1"), ("seed", str(seed)), ("output", output.as_posix())):
        text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        if n != 1:
            raise ValueError(f"{workload}.ini needs exactly one '{key} = ' line")
    return text


def worker(src: str, config_text: str) -> None:
    """Run the trial, waiting for a line on stdin before each round and
    answering each with one JSON line: its duration and its csv_row().
    A last JSON line, once the trial has written its outputs, gives the
    process's ru_maxrss in KiB and the trial's set-up time.
    """
    sys.path.insert(0, src)
    import fedssl.runner

    protocol = sys.stdout
    cfg = fedssl.parse_config_text(config_text)
    inner = fedssl.runner.run_round
    setup: list[float] = []

    def turn(*args, **kwargs):
        if not setup:
            setup.append(time.perf_counter() - begin)
        if not sys.stdin.readline():
            raise SystemExit(1)
        start = time.perf_counter()
        result = inner(*args, **kwargs)
        elapsed = time.perf_counter() - start
        protocol.write(json.dumps({"s": elapsed, "row": result[1].csv_row()}) + "\n")
        protocol.flush()
        return result

    fedssl.runner.run_round = turn
    protocol.write(json.dumps({"rounds": cfg.training.rounds}) + "\n")
    protocol.flush()
    # run_experiment prints a summary line, which is not part of the protocol
    begin = time.perf_counter()
    with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
        fedssl.runner.run_experiment(cfg)
    protocol.write(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                               "setup_s": setup[0] if setup else None}) + "\n")
    protocol.flush()


def _start(src: Path, workload: str, seed: int, cwd: Path) -> subprocess.Popen:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    cwd.mkdir()
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(src),
         "--workload", workload, "--seed", str(seed), "--out", OUTPUT],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=cwd)


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file under out_dir, keyed by its relative path."""
    return {p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def first_difference(base: dict[str, str], change: dict[str, str]) -> str | None:
    """The first output file, by path, that only one tree wrote or whose
    contents differ; None when every file is equal.
    """
    for rel in sorted(base.keys() | change.keys()):
        if base.get(rel) != change.get(rel):
            return rel
    return None


def _reply(proc: subprocess.Popen, name: str) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"the {name} worker exited with {proc.wait()}")
    return json.loads(line)


def tree_identity(root: Path) -> dict[str, str | None]:
    """A source tree's commit, as git describe --always --dirty gives it
    (None outside a git checkout), and the SHA-256 of its src/fedssl
    sources, taken in path order.
    """
    try:
        commit = subprocess.run(
            ["git", "-C", str(root), "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    sources = hashlib.sha256()
    for path in sorted((root / "src" / "fedssl").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return {"commit": commit, "src_sha256": sources.hexdigest()}


def compare(base: Path, workload: str, seed: int) -> dict:
    """One interleaved trial of workload at seed in the base tree and this
    one; raises RuntimeError on any csv row or output file that differs.
    """
    with tempfile.TemporaryDirectory(prefix="ab_rounds-") as tmp:
        procs = {name: _start(src.resolve(), workload, seed, Path(tmp) / name)
                 for name, src in (("base", base / "src"), ("change", ROOT / "src"))}
        try:
            rounds = {name: _reply(p, name)["rounds"] for name, p in procs.items()}
            times: dict[str, list[float]] = {"base": [], "change": []}
            for rnd in range(rounds["base"]):
                order = ("base", "change") if rnd % 2 == 0 else ("change", "base")
                rows = {}
                for name in order:
                    procs[name].stdin.write("go\n")
                    procs[name].stdin.flush()
                    reply = _reply(procs[name], name)
                    times[name].append(reply["s"])
                    rows[name] = reply["row"]
                if rows["base"] != rows["change"]:
                    raise RuntimeError(f"round {rnd}: csv rows differ:\n  base   "
                                       f"{rows['base']}\n  change {rows['change']}")
            ends = {name: _reply(p, name) for name, p in procs.items()}
            for name, p in procs.items():
                p.stdin.close()
                if p.wait() != 0:
                    raise RuntimeError(f"the {name} worker exited with {p.returncode}")
            files = {name: digests(Path(tmp) / name / OUTPUT) for name in procs}
            differs = first_difference(files["base"], files["change"])
            if differs is not None:
                raise RuntimeError(f"output file {differs} differs between the trees")
        finally:
            for p in procs.values():
                if p.poll() is None:
                    p.kill()
                    p.wait()

    ratios = [c / b for b, c in zip(times["base"], times["change"])]
    q1, q2, q3 = statistics.quantiles(ratios, n=4)
    return {
        "workload": workload,
        "seed": seed,
        "rounds": len(ratios),
        "ratio_quartiles": [q1, q2, q3],
        "round_s_total": {name: sum(t) for name, t in times.items()},
        "setup_s": {name: end["setup_s"] for name, end in ends.items()},
        "peak_rss_mb": {name: end["maxrss_kb"] / 1024 for name, end in ends.items()},
        "output_sha256": files["change"],
    }


def report(record: dict) -> None:
    total, rss = record["round_s_total"], record["peak_rss_mb"]
    q1, q2, q3 = record["ratio_quartiles"]
    print(f"{record['workload']} seed {record['seed']}: {record['rounds']} rounds, every csv "
          f"row equal, {len(record['output_sha256'])} output files equal")
    print(f"per-round time ratio change/base: median {q2:.3f} (quartiles {q1:.3f}-{q3:.3f})")
    print(f"total round time: base {total['base']:.3f} s, change {total['change']:.3f} s "
          f"({total['change'] / total['base'] - 1:+.1%})")
    print(f"peak RSS (ru_maxrss): base {rss['base']:.2f} MB, change {rss['change']:.2f} MB "
          f"({rss['change'] - rss['base']:+.2f} MB)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = sorted(p.stem for p in WORKLOADS.glob("*.ini"))
    ap.add_argument("--base", type=Path, help="the other checkout, holding src/fedssl")
    ap.add_argument("--workload", required=True, nargs="+", choices=workloads)
    ap.add_argument("--seed", type=int, nargs="+", default=[0])
    ap.add_argument("--json", type=Path, help="write the record of every run here")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    ap.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        worker(args.worker, workload_text(args.workload[0], args.seed[0], args.out))
        return 0
    if args.base is None or not (args.base / "src" / "fedssl").is_dir():
        ap.error("--base must name a checkout that holds src/fedssl")

    records = []
    for workload in args.workload:
        for seed in args.seed:
            records.append(compare(args.base, workload, seed))
            report(records[-1])
    if args.json is not None:
        record = {"base": tree_identity(args.base.resolve()), "change": tree_identity(ROOT),
                  "runs": records}
        args.json.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
