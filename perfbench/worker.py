"""One benchmark worker: set up, signal "ready", then run the rounds it is sent.

    PYTHONPATH=src python3 perfbench/worker.py WORKLOAD [--trace-out FILE] [--main-timing]

The parent (run.py) times the launch until the "ready" line, so nothing but
the interpreter start, the sobranch import and the default grids happens
before it.  The parent holds the plan and the expected results.  It writes
one round per line to stdin, a JSON list of ``[family, args]``; the worker
runs the ops back to back while the gauge's clock samples the host's speed
(gauge.py), and answers one JSON line with each op's wall and CPU time,
scaled to reference speed, and its output in checkable form.  An empty line or the end of stdin ends
the run: the worker answers with its memory figures (and the trace) and
exits.  So the worker's peak memory is the program's and one round's, not
the corpus's.

In-process workloads run their ops in this process; the CLI workloads start
one child per op, one at a time: ``gauge.py``, which runs the CLI module as
``python -m sobranch.cli`` does with the gauge's clock on, or in the traced
run ``probe.py``.
"""

import json
import sys

import gauge

# The gauge's clock runs from here on, so that set-up is scaled too.
CLOCK = gauge.Clock()
CLOCK.sample()  # the speed right after the interpreter started
CLOCK.start()
WORKLOAD = sys.argv[1] if len(sys.argv) > 1 else ""

import sobranch  # noqa: E402  (setup: timed by the parent up to "ready")

if WORKLOAD in ("cli-mix", "selftest-default"):
    import sobranch.cli  # noqa: E402,F401
from sobranch.oracle import default_bounds  # noqa: E402

default_bounds()
print("ready", json.dumps(CLOCK.samples), flush=True)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import plan  # noqa: E402
import probe  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SCRATCH = os.path.join(os.getcwd(), ".perfbench")


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Runner:
    def __init__(self, workload: str, traced: bool):
        self.cli = workload in plan.CLI_WORKLOADS
        self.selftest = workload == "selftest-default"
        self.traced = traced
        self.tracer = probe.Tracer() if traced and not self.cli else None
        self.cli_traces: list[dict] = []
        self.argvs: list[list[str]] = []
        if self.cli:
            self.env = dict(os.environ)
            src = os.path.abspath("src")
            old = self.env.get("PYTHONPATH")
            self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        else:
            self.ops = plan.in_process_ops(workload)
            if self.tracer is not None:
                self.tracer.install()
        self.who = resource.RUSAGE_CHILDREN if self.cli else resource.RUSAGE_SELF
        self.op_count = 0
        self.clock = CLOCK
        if traced:
            # Spans would count the clock's samples; the samples before and
            # after each round still scale the traced run's times.
            self.clock.stop()

    def run_round(self, ops: list) -> dict:
        """Run ops back to back and time each; then scale the times with the
        gauge (see gauge.py) and make the outputs checkable, outside the
        timed region.  Returns per op its wall seconds without the gauge's
        samples, its wall and CPU seconds at reference speed, and its
        output."""
        results, spans, cpus, child_samples = [], [], [], []
        first = len(self.clock.samples)
        self.clock.sample()
        for family, args in ops:
            if self.cli:
                results.append(self._cli_call(args, spans, cpus, child_samples))
            else:
                call, _ = self.ops[family]
                if self.tracer is not None:
                    self.tracer.op = self.op_count
                c, t = time.process_time(), time.perf_counter()
                value = call(*args)
                spans.append((t, time.perf_counter()))
                cpus.append(time.process_time() - c)
                results.append(value)
            self.op_count += 1
        self.clock.sample()
        samples = sorted(self.clock.samples[first:] + child_samples)
        op_s, wall_s, cpu_s = [], [], []
        for (a, b), cpu in zip(spans, cpus):
            net, scaled = gauge.scale(a, b, samples)
            op_s.append(net)
            wall_s.append(scaled)
            # The gauge's samples ran on the same CPU: take them off the CPU time too.
            cpu_s.append(max(0.0, cpu - (b - a - net)) * scaled / net)
        if self.cli:
            out = [self._cli_output(*r) for r in results]
        else:
            out = [plan.digest(self.ops[family][1](r)) for (family, _), r in zip(ops, results)]
        return {"op_s": op_s, "wall_s": wall_s, "cpu_s": cpu_s, "out": out}

    def _cli_call(self, argv: list[str], spans: list, cpus: list, samples: list) -> tuple:
        self.argvs.append(argv)
        os.makedirs(SCRATCH, exist_ok=True)
        out = os.path.join(SCRATCH, f"cli-{os.getpid()}.json")
        if self.traced:
            cmd = [sys.executable, os.path.join(HERE, "probe.py"), out, *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "gauge.py"), out, *argv]
        r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, capture_output=True)
        spans.append((t, time.perf_counter()))
        r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpus.append(r1.ru_utime + r1.ru_stime - r0.ru_utime - r0.ru_stime)
        with open(out, encoding="utf-8") as fh:
            data = json.load(fh)
        os.remove(out)
        if self.traced:
            self.cli_traces.append(data)
        else:
            samples += [tuple(s) for s in data]
        return proc.returncode, proc.stdout, proc.stderr

    def _cli_output(self, code: int, stdout: bytes, stderr: bytes) -> dict:
        out = {"exit": code, "stdout": plan.stdout_digest(stdout), "traceback": plan.has_traceback(stderr)}
        if self.selftest:
            out["selftest"] = plan.selftest_summary(stdout)
        return out

    def main_timing(self) -> float:
        """Median ms of ``sobranch.cli.main(argv)`` in this process, per command run,
        at the gauge's reference speed."""
        times = []
        sink = io.StringIO()
        for argv in self.argvs:
            first = len(self.clock.samples)
            self.clock.sample()
            t = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    sobranch.cli.main(list(argv))
                except (SystemExit, Exception):  # argparse errors and the known defects; only time matters
                    pass
            end = time.perf_counter()
            self.clock.sample()
            times.append(gauge.scale(t, end, self.clock.samples[first:])[1] * 1e3)
            sink.seek(0)
            sink.truncate()
        return statistics.median(times)

    def trace_dump(self) -> dict:
        if self.cli:
            return probe.merge(self.cli_traces)
        return self.tracer.dump()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=plan.WORKLOADS)
    parser.add_argument("--trace-out", help="trace the ops and write the spans and counters here")
    parser.add_argument("--main-timing", action="store_true")
    args = parser.parse_args()
    setup_rss = rss_mb(resource.RUSAGE_SELF)

    runner = Runner(args.workload, bool(args.trace_out))
    for line in sys.stdin:
        if not line.strip():
            break
        print(json.dumps(runner.run_round(json.loads(line))), flush=True)

    result = {"peak_rss_mb": rss_mb(runner.who), "setup_rss_mb": setup_rss}
    if args.trace_out:
        dump = runner.trace_dump()
        result["layers"] = probe.layer_metrics(dump)
        result["self_times"] = probe.self_times(dump["spans"])
        os.makedirs(os.path.dirname(os.path.abspath(args.trace_out)), exist_ok=True)
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)
    if args.main_timing and runner.cli:
        result["main_ms"] = runner.main_timing()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
