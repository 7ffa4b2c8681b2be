"""Run every workload several times and print each end-to-end metric with its spread.

    python3 perfbench/compare.py [--runs 10] [--first-seed 1] [--baseline REV] [--out FILE]

Run from the root of a git checkout.  Each run is ``run.py`` with the
correctness checks on, its own seed, and the run length BENCHMARK.json
fixes.  For every workload and metric one row shows the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread, the interquartile
distance as a share of the median.

With ``--baseline REV`` the program at git revision REV is measured in the
same session: its tree is exported under ``.perfbench/``, this benchmark
(BENCHMARK.json and perfbench/) is copied over it, and every seed runs on
both sides back to back, alternating which side goes first, so that drift
of the host's speed hits both alike.  Each row then shows both sides and a
verdict against the bound BENCHMARK.json fixes for the metric:

- "unresolved" when either side's spread exceeds the bound, unless every
  run of the working tree beats every run of the baseline ("improved");
- "REGRESSED" when the median is worse than the baseline's by more than
  the bound;
- "improved" when the working tree wins at least nine tenths of the pairs
  and the medians differ by more than the baseline's interquartile distance;
- "ok" otherwise.

The results, with the Python version, nproc, seeds, run length, and each
side's git sha and ``src_lines``, go to ``--out`` (default
``.perfbench/results-<time>.json``).  Exits 1 on a regression or an
incorrect output.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        return med, q1, q3, 0.0 if q3 == q1 else float("inf")
    return med, q1, q3, (q3 - q1) / med


def git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout.strip()


def export_baseline(rev: str) -> tuple[str, str]:
    """Export REV's tree with this benchmark copied over it; return (dir, sha)."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    root = os.path.abspath(os.path.join(run.SCRATCH, f"base-{sha[:12]}"))
    shutil.rmtree(root, ignore_errors=True)
    archive = subprocess.run(["git", "archive", "--format=tar", sha], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(root, filter="data")
    shutil.rmtree(os.path.join(root, "perfbench"), ignore_errors=True)
    shutil.copytree(HERE, os.path.join(root, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", root)
    return root, sha


def run_once(root: str, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} in {root} exited with code {proc.returncode}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed {seed} {'baseline ' if root != os.getcwd() else ''}"
          f"correct={line['correct']} failed={line['failed']}/{line['attempted']}",
          file=sys.stderr, flush=True)
    return {
        "seed": seed,
        "correct": line["correct"],
        "attempted": line["attempted"],
        "failed": line["failed"],
        "metrics": {k: v["value"] for k, v in line["metrics"].items()},
    }


def run_all(workloads, seeds, seconds, base_root=None) -> tuple[dict, dict]:
    """Runs per workload for the working tree and, if given, the baseline;
    with a baseline the two sides alternate which goes first."""
    here = os.getcwd()
    cand, base = {}, {}
    for workload in workloads:
        cand[workload], base[workload] = [], []
        for k, seed in enumerate(seeds):
            sides = [(here, cand)] + ([(base_root, base)] if base_root else [])
            for root, out in (sides if k % 2 == 0 else sides[::-1]):
                out[workload].append(run_once(root, workload, seed, seconds))
    return cand, base if base_root else {}


def worse_by(metric: dict, new: float, old: float) -> float:
    """Relative worsening of new against old (negative when better)."""
    if old == 0:
        return 0.0
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def verdict(metric: dict, cur: list[float], base: list[float]) -> tuple[str, str]:
    """(verdict, pairs won) for one metric; cur[i] and base[i] ran as a pair."""
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    wins = sum((c < b) if lower else (c > b) for c, b in zip(cur, base))
    won = f"{wins}/{len(cur)}"
    cur_med, _, _, cur_sp = spread(cur)
    base_med, base_q1, base_q3, base_sp = spread(base)
    if cur_sp > bound or base_sp > bound:
        all_better = (max(cur) < min(base)) if lower else (min(cur) > max(base))
        return ("improved" if all_better else "unresolved"), won
    if worse_by(metric, cur_med, base_med) > bound:
        return "REGRESSED", won
    if wins >= 0.9 * len(cur) and abs(cur_med - base_med) > base_q3 - base_q1:
        return "improved", won
    return "ok", won


def values(rows: list[dict], name: str) -> list[float]:
    if name == "fail_ratio":
        return [r["failed"] / r["attempted"] for r in rows]
    return [r["metrics"][name] for r in rows]


def table(spec: dict, cand: dict, base: dict) -> int:
    """Print one row per workload and metric; return the number of problems."""
    metrics = spec["end_to_end"] + [{"name": "fail_ratio", "unit": "ratio", "bound": 0.0}]
    problems = 0
    head = f"{'workload':<18} {'metric':<12} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}"
    if base:
        head += f"  {'base median':>12} {'base q1':>12} {'base q3':>12} {'spread':>7}  bound  won    verdict"
    print(head)
    for workload, rows in cand.items():
        for metric in metrics:
            name = metric["name"]
            cur = values(rows, name)
            med, q1, q3, sp = spread(cur)
            line = (f"{workload:<18} {name:<12} {metric['unit']:<6} {med:>12.6g} {q1:>12.6g}"
                    f" {q3:>12.6g} {sp:>7.3f}")
            if base:
                old = values(base[workload], name)
                bmed, bq1, bq3, bsp = spread(old)
                line += f"  {bmed:>12.6g} {bq1:>12.6g} {bq3:>12.6g} {bsp:>7.3f}"
                if name == "fail_ratio":
                    line += "      -  -      -"  # a new failure shows as INCORRECT below
                else:
                    judged, won = verdict(metric, cur, old)
                    problems += judged == "REGRESSED"
                    line += f"  {metric['bound']:>5.2f}  {won:<6} {judged}"
            print(line)
        for side, side_rows in (("", rows), ("baseline ", base.get(workload, []))):
            bad = [r["seed"] for r in side_rows if not r["correct"]]
            if bad:
                print(f"{workload:<18} INCORRECT {side}output on seeds {bad}")
                problems += 1
    return problems


def main() -> int:
    spec = run.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload (pairs with --baseline)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--baseline", metavar="REV", help="git revision to measure alongside the working tree")
    parser.add_argument("--out", help="where to write the results (default .perfbench/results-<time>.json)")
    args = parser.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    meta = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seeds": seeds,
        "seconds": seconds,
        "git_sha": git("rev-parse", "HEAD"),
        "src_lines": run.src_lines(),
    }
    base_root = None
    if args.baseline:
        base_root, meta["baseline_sha"] = export_baseline(args.baseline)
        meta["baseline_src_lines"] = run.src_lines(base_root)
    cand, base = run_all(workloads, seeds, seconds, base_root)

    out = args.out or os.path.join(run.SCRATCH, f"results-{time.strftime('%Y%m%d-%H%M%S')}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "runs": cand, "baseline_runs": base}, fh, indent=1)
    print(f"results written to {out}")
    print(f"python {meta['python']}  nproc {meta['nproc']}  seeds {seeds[0]}..{seeds[-1]}  run {seconds} s  "
          f"git {meta['git_sha'][:12]} (src_lines {meta['src_lines']})"
          + (f"  baseline {meta['baseline_sha'][:12]} (src_lines {meta['baseline_src_lines']})"
             if base_root else ""))
    return 1 if table(spec, cand, base) else 0


if __name__ == "__main__":
    sys.exit(main())
