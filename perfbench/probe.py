"""Tracing from outside the program: wrappers around sobranch's public functions.

``Tracer.install`` replaces each traced function on every ``sobranch``
module that binds it, because callers import names directly (the chain
search calls ``sobranch.periods.branch_enumerate``, the oracle calls
``sobranch.oracle.multiplicity``).  Calls that happen at most a few thousand
times per op get a span (name, start, end, parent, op id); hot calls, such
as the oracle's millions of ``multiplicity`` checks, only add to a call
counter and an inclusive nanosecond total, which keeps memory flat.  All of
it stays in memory and is written out once, when the run ends.

Run as a script, the module is a traced stand-in for ``python -m sobranch.cli``:

    PYTHONPATH=src python3 perfbench/probe.py OUT.json selftest --table

It runs ``sobranch.cli.main`` on the arguments with every wrapper installed
and writes the spans and counters to OUT.json.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter_ns as now

SUITES = (
    "dim-conservation", "roundtrip", "height-consistency",
    "trivial-rho-diagrams", "chi-twist", "height0-vs-finite",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, op, parent, start_ns, end_ns]
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op = None
        self.chain_depth = 0
        self.enumerate_depth = 0

    # ------------------------------------------------------------ wrappers

    def span(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [sid, name(args) if callable(name) else name, self.op,
                   stack[-1] if stack else None, now(), 0]
            spans.append(rec)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                rec[5] = now()
                stack.pop()

        return wrapper

    def count(self, name, fn):
        c = self.counters
        calls, total = name + ".calls", name + ".ns"

        def wrapper(*args, **kwargs):
            t = now()
            try:
                return fn(*args, **kwargs)
            finally:
                c[total] += now() - t
                c[calls] += 1

        return wrapper

    def _chain(self, fn):
        inner = self.span("periods.distinguishing_chain", fn, self._chain_result)

        def wrapper(*args, **kwargs):
            self.chain_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self.chain_depth -= 1

        return wrapper

    def _chain_result(self, chain):
        self.counters["periods.chain.found"] += chain is not None

    def _branch_enumerate(self, fn):
        c, tracer = self.counters, self

        def wrapper(big):
            gen = fn(big)
            c["branching.branch_enumerate.calls"] += 1
            in_chain = tracer.chain_depth > 0
            if in_chain:
                c["periods.chain.nodes_expanded"] += 1

            def stream():
                last = None
                while True:
                    t = now()
                    tracer.enumerate_depth += 1
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.enumerate_depth -= 1
                        c["branching.branch_enumerate.ns"] += now() - t
                    c["branching.branch_enumerate.targets"] += 1
                    if item.s != last:
                        c["branching.branch_enumerate.kept"] += 1
                        last = item.s
                    if in_chain:
                        c["periods.chain.targets_examined"] += 1
                    yield item

            return stream()

        return wrapper

    def _enumerate_interlacing(self, fn):
        c, tracer = self.counters, self

        def wrapper(mu, target_rank):
            under = tracer.enumerate_depth > 0
            for nu in fn(mu, target_rank):
                c["weights.enumerate_interlacing.yielded"] += 1
                if under:
                    c["branching.branch_enumerate.candidates"] += 1
                yield nu

        return wrapper

    def _run_suite(self, fn):
        def result(report):
            self.counters[f"oracle.{report.suite}.cases"] += report.cases_run

        return self.span(lambda a: f"oracle.{a[0]}", fn, result)

    def install(self) -> None:
        """Wrap the traced functions on every loaded sobranch module."""
        from sobranch import branching, cohomology, oracle, periods, reps, weights

        targets = [
            (branching.multiplicity, self.count("branching.multiplicity", branching.multiplicity)),
            (weights.interlaces, self.count("weights.interlaces", weights.interlaces)),
            (weights.weyl_dim, self.count("weights.weyl_dim", weights.weyl_dim)),
            (reps.enhanced_from_langlands, self.count("reps.convert", reps.enhanced_from_langlands)),
            (reps.langlands_from_enhanced, self.count("reps.convert", reps.langlands_from_enhanced)),
            (reps.classify, self.span("reps.classify", reps.classify)),
            (branching.branch_enumerate, self._branch_enumerate(branching.branch_enumerate)),
            (weights.enumerate_interlacing, self._enumerate_interlacing(weights.enumerate_interlacing)),
            (branching.sb_diagram, self.span("branching.sb_diagram", branching.sb_diagram)),
            (branching.gp_tempered_check, self.span("branching.gp_tempered_check", branching.gp_tempered_check)),
            (cohomology.bilinear_gate, self.span("cohomology.bilinear_gate", cohomology.bilinear_gate)),
            (periods.period_value, self.span("periods.period_value", periods.period_value)),
            (periods.distinguishing_chain, self._chain(periods.distinguishing_chain)),
            (oracle.run_suite, self._run_suite(oracle.run_suite)),
        ]
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "sobranch" or name.startswith("sobranch."))]
        for original, wrapper in targets:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        init = reps.EnhancedParam.__init__
        reps.EnhancedParam.__init__ = self.count("reps.EnhancedParam", init)

    # ------------------------------------------------------------- results

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def merge(parts: list[dict]) -> dict:
    """Merge the dumps of traced CLI calls, one op each, renumbering span ids."""
    spans, counters = [], defaultdict(int)
    for op, part in enumerate(parts):
        base = len(spans)
        for sid, name, _, parent, start, end in part["spans"]:
            spans.append([base + sid, name, op, None if parent is None else base + parent, start, end])
        for k, v in part["counters"].items():
            counters[k] += v
    return {"spans": spans, "counters": dict(counters)}


def self_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: count, total and self milliseconds (span minus children)."""
    child_ns = defaultdict(int)
    for _, _, _, parent, start, end in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for sid, name, _, _, start, end in spans:
        row = out.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += (end - start) / 1e6
        row["self_ms"] += (end - start - child_ns[sid]) / 1e6
    return out


def layer_metrics(data: dict) -> dict[str, float]:
    """Per-layer metrics from a (merged) dump; 0 where the layer did not run."""
    c = defaultdict(int, data["counters"])
    spans = self_times(data["spans"])

    def ratio(a, b):
        return a / b if b else 0.0

    def span_us(name):
        row = spans.get(name)
        return row["total_ms"] * 1e3 / row["count"] if row else 0.0

    out = {
        "branching.multiplicity.calls": c["branching.multiplicity.calls"],
        "branching.multiplicity.us": ratio(c["branching.multiplicity.ns"], 1e3 * c["branching.multiplicity.calls"]),
        "branching.branch_enumerate.us": ratio(c["branching.branch_enumerate.ns"], 1e3 * c["branching.branch_enumerate.calls"]),
        "branching.branch_enumerate.kept_ratio": ratio(c["branching.branch_enumerate.kept"], c["branching.branch_enumerate.candidates"]),
        "weights.enumerate_interlacing.yielded": c["weights.enumerate_interlacing.yielded"],
        "weights.interlaces.calls": c["weights.interlaces.calls"],
        "weights.weyl_dim.us": ratio(c["weights.weyl_dim.ns"], 1e3 * c["weights.weyl_dim.calls"]),
        "reps.EnhancedParam.count": c["reps.EnhancedParam.calls"],
        "reps.EnhancedParam.us": ratio(c["reps.EnhancedParam.ns"], 1e3 * c["reps.EnhancedParam.calls"]),
        "reps.classify.us": span_us("reps.classify"),
        "reps.convert.us": ratio(c["reps.convert.ns"], 1e3 * c["reps.convert.calls"]),
        "periods.distinguishing_chain.us": span_us("periods.distinguishing_chain"),
        "periods.chain.nodes_expanded": c["periods.chain.nodes_expanded"],
        "periods.chain.targets_examined": c["periods.chain.targets_examined"],
        "periods.chain.found_ratio": ratio(
            c["periods.chain.found"], spans.get("periods.distinguishing_chain", {}).get("count", 0)
        ),
        "cohomology.bilinear_gate.us": span_us("cohomology.bilinear_gate"),
    }
    for suite in SUITES:
        row = spans.get(f"oracle.{suite}")
        seconds = row["total_ms"] / 1e3 if row else 0.0
        cases = c[f"oracle.{suite}.cases"]
        out[f"oracle.{suite}.s"] = seconds
        out[f"oracle.{suite}.cases"] = cases
        out[f"oracle.{suite}.cases_per_s"] = ratio(cases, seconds)
    return out


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import sobranch.cli

    tracer = Tracer()
    tracer.install()
    main_span = tracer.span("cli.main", sobranch.cli.main)
    try:
        return main_span(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
