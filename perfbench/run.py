"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the run times the untraced program on the work ``--seconds``
names (``plan.rounds_for``) and reports the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` it runs a fixed number of rounds twice,
untraced and then traced, and reports the per-layer metrics and the tracing
overhead.  Times are scaled to the reference speed of the host-speed gauge
(gauge.py); the readable lines also give them as measured.  Human-readable
lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import gauge
import plan

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SCRATCH = ".perfbench"
SETUP_LAUNCHES = 9
IMPORT_PROBES = 5
WORKER_TIMEOUT_S = 170
# Rounds of a traced run: fixed, so that its counts repeat exactly for a seed.
TRACE_ROUNDS = {"cli-mix": 2, "selftest-default": 1, "chain-search": 10, "library-mix": 100}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json in the current directory: {exc}")


def program_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.path.abspath("src") + (os.pathsep + old if old else "")
    return env


def launch(workload: str, extra: list[str]) -> tuple[subprocess.Popen, float, float]:
    """Start a worker; return it and the seconds until it reported "ready",
    as measured and at the gauge's reference speed."""
    clock = gauge.Clock()
    clock.sample()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, workload, *extra],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=program_env(), text=True,
    )
    # A worker that hangs is killed, so that the run still ends in time.
    proc.deadline = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    proc.deadline.start()
    line = proc.stdout.readline()
    end = time.perf_counter()
    word, _, samples = line.partition(" ")
    if word != "ready":
        stop(proc)
        fail(f"worker for {workload} failed during set-up")
    clock.sample()
    # The worker's own samples lie between the two taken here.
    net, scaled = gauge.scale(start, end, [clock.samples[0], *map(tuple, json.loads(samples)), clock.samples[1]])
    return proc, net, scaled


def stop(proc: subprocess.Popen) -> None:
    proc.deadline.cancel()
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def ask(proc: subprocess.Popen, message: str) -> dict:
    proc.stdin.write(message + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        stop(proc)
        fail(f"worker exited with code {proc.returncode}")
    return json.loads(line)


def drive(workload: str, seed: int, rounds: int, extra: list[str] = ()) -> tuple[dict, float, float]:
    """Launch a worker, feed it the seed's opening ops and its first
    ``rounds`` rounds one at a time, and check every output against the
    corpus.  Times are kept at the gauge's reference speed (gauge.py), with
    the measured totals beside them.  Returns the run's figures and the
    worker's set-up seconds, measured and scaled."""
    # Launch before the corpus is loaded: Linux carries the peak RSS of the
    # process that starts the worker over into the worker's own figure.
    proc, ready, setup = launch(workload, list(extra))
    try:
        opening, plan_rounds = plan.build_plan(workload, plan.load_corpus(workload), seed)
        if rounds > len(plan_rounds):
            print(f"perfbench: {workload} has {len(plan_rounds)} distinct rounds; "
                  f"running those instead of {rounds}", file=sys.stderr)
        r = {"wall_s": 0.0, "cpu_s": 0.0, "raw_wall_s": 0.0, "round_ops": 0,
             "op_ms": [], "families": [], "attempted": 0, "failed": 0, "unexpected": []}
        seen, repeats = set(), 0
        start = time.perf_counter()
        todo = plan_rounds[:rounds]
        for k, ops in enumerate(([opening] if opening else []) + todo):
            is_round = not (opening and k == 0)
            reply = ask(proc, json.dumps([[op.family, op.args] for op in ops]))
            for op, out, raw, wall, cpu in zip(ops, reply["out"], reply["op_s"], reply["wall_s"], reply["cpu_s"]):
                r["op_ms"].append(wall * 1e3)
                r["families"].append(op.family)
                if is_round:
                    r["wall_s"] += wall
                    r["cpu_s"] += cpu
                    r["raw_wall_s"] += raw
                repeats += op.key() in seen
                seen.add(op.key())
                attempted, failed = plan.check(workload, op, out)
                if is_round:
                    r["round_ops"] += attempted if workload == "selftest-default" else 1
                r["attempted"] += attempted
                r["failed"] += failed
                if failed and not op.expect.get("defect"):
                    r["unexpected"].append(op.key())
        r["measured_s"] = time.perf_counter() - start
        r.update(ask(proc, ""))
        proc.wait()
    finally:
        stop(proc)
    r["rounds"] = len(todo)
    r["repeat_share"] = repeats / max(1, len(r["op_ms"]))
    return r, ready, setup


def percentile(sorted_values: list[float], p: float) -> float:
    k = p * (len(sorted_values) - 1)
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def tail_rank(n: int) -> float:
    """Highest percentile up to p90 with at least ten samples beyond it; below
    20 samples no tail percentile has that many, and p90 is interpolated."""
    return min(0.9, 1.0 - 10.0 / n) if n >= 20 else 0.9


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    ops = sorted(result["op_ms"])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": result["wall_s"],
        "cpu_s": result["cpu_s"],
        # Rounds only: chain-search's opening cliffs are a second composition.
        "ops_per_s": result["round_ops"] / result["wall_s"],
        "op_ms.p50": percentile(ops, 0.5),
        "op_ms.p90": percentile(ops, tail_rank(len(ops))),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def import_times() -> dict[str, float]:
    """Median of ``-X importtime`` for the CLI: sobranch total and the eager
    concurrent.futures import, in ms."""
    totals, futures = [], []
    for _ in range(IMPORT_PROBES):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sobranch.cli"],
            env=program_env(), capture_output=True, text=True, check=True,
        ).stderr
        rows = []
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
        totals.append(sum(cum for _, name, cum in rows if name == "sobranch.cli") / 1e3)
        conc = [(depth, cum) for depth, name, cum in rows if name.startswith("concurrent")]
        top = min((d for d, _ in conc), default=0)
        futures.append(sum(cum for d, cum in conc if d == top) / 1e3)
    return {"cli.import_ms": statistics.median(totals),
            "cli.import_ms.concurrent_futures": statistics.median(futures)}


def src_lines(root: str = ".") -> int:
    """Line count of the program's modules under ``root``."""
    total = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "sobranch", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def report(workload: str, seed: int, result: dict, metrics: dict, units: dict) -> None:
    n = len(result["op_ms"])
    print(f"workload {workload} seed {seed}: {result['attempted']} attempted, "
          f"{result['failed']} failed, {result['rounds']} rounds in {result['measured_s']:.1f} s")
    for name, value in metrics.items():
        note = ""
        if name == "op_ms.p90":
            note = f"  (p{100 * tail_rank(n):.0f} of {n} timed ops)"
        elif name == "op_ms.p50":
            note = f"  ({n} timed ops)"
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<42} {shown} {units.get(name, '')}{note}")
    print(f"  {'fail_ratio':<42} {result['failed'] / max(1, result['attempted']):>14.6g} ratio"
          f"  ({result['failed']}/{result['attempted']})")
    print(f"  {'repeat_share':<42} {result['repeat_share']:>14.6g} ratio")
    print(f"  {'as measured: wall_s':<42} {result['raw_wall_s']:>14.6g} s")
    if workload == "library-mix":
        per_family = {}
        for family, ms in zip(result["families"], result["op_ms"]):
            per_family[family] = per_family.get(family, 0.0) + ms
        total = sum(per_family.values())
        for family, ms in sorted(per_family.items()):
            print(f"  share of op time {family:<25} {ms / total:>14.3f}")
    for key in result["unexpected"][:20]:
        print(f"  UNEXPECTED FAILURE {key}")


def run_timed(args, spec) -> dict:
    setups, raw_setups = [], []
    for _ in range(SETUP_LAUNCHES - 1):
        proc, ready, setup = launch(args.workload, [])
        proc.stdin.close()
        proc.stdout.read()
        stop(proc)
        setups.append(setup)
        raw_setups.append(ready)
    result, ready, setup = drive(args.workload, args.seed, plan.rounds_for(args.workload, args.seconds))
    setups.append(setup)
    raw_setups.append(ready)
    metrics = end_to_end(result, setups)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    report(args.workload, args.seed, result, metrics, units)
    print(f"  {'as measured: setup_s':<42} {statistics.median(raw_setups):>14.6g} s")
    print(f"  {'rss after set-up':<42} {result['setup_rss_mb']:>14.6g} MB  (of the worker, before the first op)")
    return {
        "correct": not result["unexpected"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]},
    }


def run_traced(args, spec) -> dict:
    rounds = TRACE_ROUNDS[args.workload]
    cli = args.workload in plan.CLI_WORKLOADS
    plain, _, _ = drive(args.workload, args.seed, rounds, ["--main-timing"] if cli else [])
    trace_out = os.path.join(SCRATCH, f"trace-{args.workload}-seed{args.seed}.json")
    traced, _, _ = drive(args.workload, args.seed, rounds, ["--trace-out", trace_out])
    layers = dict(traced["layers"])
    layers.update(import_times())
    main_ms = plain.get("main_ms", 0.0)
    p50 = percentile(sorted(plain["op_ms"]), 0.5)
    layers["cli.main_ms"] = main_ms
    layers["cli.startup_share"] = 1.0 - main_ms / p50 if cli else 0.0
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layers["src_lines"] = src_lines()
    layers["inputs.repeat_share"] = plain["repeat_share"]
    layers["mem.setup_rss_mb"] = plain["setup_rss_mb"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    report(args.workload, args.seed, traced, {k: layers[k] for k in units}, units)
    print(f"  untraced wall_s {plain['wall_s']:.6g} s, traced {traced['wall_s']:.6g} s "
          f"over {traced['rounds']} rounds; spans and counters in {trace_out}")
    for name, row in sorted(traced["self_times"].items(), key=lambda kv: -kv[1]["self_ms"]):
        print(f"  span {name:<36} n={row['count']:<8} total {row['total_ms']:>10.2f} ms"
              f"  self {row['self_ms']:>10.2f} ms")
    return {
        "correct": not plain["unexpected"] and not traced["unexpected"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": {name: {"value": layers[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = load_spec()
    gauge.pin()
    if not os.path.isfile(os.path.join("src", "sobranch", "__init__.py")):
        fail("no program sources at src/sobranch; run from the repository root")
    result = run_traced(args, spec) if args.trace else run_timed(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
