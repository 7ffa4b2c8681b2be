"""Self-check of the benchmark: smoke runs, and corrupted expectations must fail.

    python3 perfbench/selfcheck.py

Run from the repository root; takes one to two minutes.  It runs every workload
for one second, and library-mix once traced, and checks that each result
line is complete.  Then it copies the benchmark, corrupts the expected
result of the first op a seed-1 run checks (for library-mix, cli-mix and
selftest-default), and checks that the copy reports the op as failed and
the run as incorrect.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import plan  # noqa: E402
import run  # noqa: E402


def bench(script_dir: str, workload: str, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(script_dir, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"FAIL: {workload} (trace {trace}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok    {message}")


def smoke(spec: dict) -> None:
    for workload in plan.WORKLOADS:
        line = bench(HERE, workload)
        names = [m["name"] for m in spec["end_to_end"]]
        expect(sorted(line) == ["attempted", "correct", "failed", "metrics"]
               and sorted(line["metrics"]) == sorted(names)
               and all(line["metrics"][n]["value"] > 0 for n in names)
               and line["attempted"] >= 1 and line["correct"],
               f"{workload}: smoke run reports every end-to-end metric, nonzero, and correct")
        if workload == "cli-mix":
            expect(line["failed"] >= 1, "cli-mix: the known exit-code defects count as failed ops")
    line = bench(HERE, "library-mix", trace=1)
    names = [m["name"] for m in spec["per_layer"]]
    expect(sorted(line["metrics"]) == sorted(names) and line["correct"],
           "library-mix: traced run reports every per-layer metric")


def corrupt(workload: str, entry: dict) -> None:
    if workload == "selftest-default":
        suite = next(iter(entry["cases"]))
        entry["cases"][suite] += 1
    elif workload == "cli-mix":
        entry["stdout"] = "0" * 16
    else:
        entry["digest"] = "0" * 16


def corrupted_expectations() -> None:
    copy = os.path.join(run.SCRATCH, "selfcheck", "perfbench")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        for workload in ("library-mix", "cli-mix", "selftest-default"):
            corpus = plan.load_corpus(workload)
            opening, rounds = plan.build_plan(workload, corpus, 1)
            corrupt(workload, (opening or rounds[0])[0].expect)
            plan.save_corpus(workload, corpus, os.path.join(copy, "corpus"))
            line = bench(copy, workload)
            clean = bench(HERE, workload)
            expect(not line["correct"] and line["failed"] > clean["failed"],
                   f"{workload}: a corrupted expected output is counted as a failure")
    finally:
        shutil.rmtree(os.path.dirname(copy), ignore_errors=True)


def main() -> int:
    spec = run.load_spec()
    smoke(spec)
    corrupted_expectations()
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
