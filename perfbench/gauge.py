"""Host-speed gauge: scale measured times to a fixed reference speed.

The measurement host shares its CPUs with other machines, and a CPU's speed
changes under the benchmark: a fixed loop runs at one speed for a tenth of
a second or for minutes, then 1.5 to 1.9 times slower, and back.  The two
CPUs change independently.  CPU time slows down with wall time, so neither
can tell a slower program from a slower host.

So the benchmark keeps all of its processes on one CPU (``pin``) and times a
fixed pure-Python loop of about 1 ms, the gauge, while the program runs: a
``Clock`` takes a sample after every ``TICK_S`` of its process's CPU time,
from a profiling-timer signal, and the benchmark takes one before and after
each round.  ``scale`` removes the samples from a measured interval and
scales each instant of it by ``REF_S`` over the duration of the sample
nearest to it.  ``REF_S`` is the gauge's time at full speed on the measurement
host, so on a quiet host the scaled times read about as measured.

The gauge is the benchmark's code, not the program's: a change of the
program does not move it.  What it cannot tell apart is work the program
leaves running on the same CPU, which slows the gauge; ``run.py`` prints
the unscaled figures next to the scaled ones.

Run as a script, the module is the gauged stand-in for
``python -m sobranch.cli``:

    PYTHONPATH=src python3 perfbench/gauge.py OUT.json selftest --table

It runs the CLI module as ``-m`` would, with a ``Clock`` on, and writes the
clock's samples to OUT.json when the CLI exits.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

SPIN = 4000  # iterations of one gauge sample: about 1 ms
REF_S = 0.00105  # one sample's time at full speed on the measurement host
TICK_S = 0.02  # CPU seconds between two clock samples


def _spin(n: int) -> int:
    # Tuples, a dict and small-int arithmetic: the interpreter work the
    # program's own loops are made of.
    acc = 0
    table = {}
    for i in range(n):
        key = (i & 63, i % 5)
        table[key] = table.get(key, 0) + i
        acc += len(key) * (i % 7)
    return acc


class Clock:
    """Gauge samples, as (start, end) ``perf_counter`` seconds in time order.

    ``perf_counter`` is the system's monotonic clock, so the samples of
    different processes on one host can be merged."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._busy = False

    def sample(self, *_) -> None:
        if self._busy:  # a timer signal during a sample
            return
        self._busy = True
        t = time.perf_counter()
        _spin(SPIN)
        self.samples.append((t, time.perf_counter()))
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)


def scale(a: float, b: float, samples: list[tuple[float, float]]) -> tuple[float, float]:
    """(seconds, seconds at reference speed) of the interval [a, b] without
    the gauge samples in it.  ``samples`` is in time order and holds one
    sample that ends by ``a`` and one that starts at ``b`` or later.  Each
    instant is scaled by the sample nearest to it: the speed often changes
    between two samples, and an op much shorter than the gap between them
    most likely ran at the speed of the nearer one."""
    before = [s for s in samples if s[1] <= a][-1]
    after = next(s for s in samples if s[0] >= b)
    inside = [s for s in samples if a <= s[0] and s[1] <= b]
    chain = [before, *inside, after]
    net = scaled = 0.0
    for s, t in zip(chain, chain[1:]):
        lo, hi = max(s[1], a), min(t[0], b)
        if hi <= lo:
            continue
        mid = (s[1] + t[0]) / 2
        net += hi - lo
        scaled += max(0.0, min(hi, mid) - lo) * REF_S / (s[1] - s[0])
        scaled += max(0.0, hi - max(lo, mid)) * REF_S / (t[1] - t[0])
    return net, scaled


def pin() -> None:
    """Keep this process, and every process it starts, on one CPU, so that
    the gauge samples the CPU the program runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv: list[str]) -> None:
    import runpy

    out_path = argv[0]
    sys.argv = ["sobranch", *argv[1:]]
    sys.path[0] = os.getcwd()  # as for python -m
    clock = Clock()
    clock.sample()  # the speed right after the interpreter started
    clock.start()
    try:
        runpy.run_module("sobranch.cli", run_name="__main__", alter_sys=True)
    finally:
        clock.stop()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(clock.samples, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
