"""Capture the correctness corpus: the op pools and their expected results.

    PYTHONPATH=src python3 perfbench/capture.py [WORKLOAD ...]

Run from the repository root.  It rewrites ``perfbench/corpus/<workload>.json``
with the results of the checked-out code, so run it only on a commit whose
outputs are known to be right; the corpus is what later commits are checked
against.  Pools are built from a fixed generator seed, never from the
workload seed.
"""

from __future__ import annotations

import functools
import json
import os
import random
import statistics
import subprocess
import sys
import time

import plan

from sobranch import branching, periods, reps, weights
from sobranch.oracle import default_bounds, grid_enhanced, grid_weights, run_suite

G, W = weights.GroupTag, weights.Weight

CLI_POOL = 40  # argvs per subcommand
LIGHT_POOL = 100  # chain queries per (N, found) stratum
HEAVY_POOL = 200
# A library family's pool holds this many times the op time a timed run gives
# the family (run_seconds over the number of families), measured at capture.
LIBRARY_POOL_MARGIN = 2.0
LIGHT_NODES = 300  # chain searches expanding more nodes than this are not "light"
HEAVY_NODES = (500, 1100)  # band around the 773 nodes of the SO(9,1) cliff
BRANCH_CANDIDATES = (300, 1200)  # interlacing candidates of a library branch_enumerate op


def csv(entries) -> str:
    return ",".join(str(x) for x in entries)


def enh(e) -> str:
    return f"{csv(e.s.entries)};h={e.height};sig={e.sig.value}"


def langlands(d) -> str:
    if isinstance(d, reps.FiniteDim):
        return f"weight={csv(d.s.entries)};sig={d.sig.value}"
    if isinstance(d, reps.Nontempered):
        return f"sigma={csv(d.sigma.entries)};delta={d.delta.value};lambda={d.lam}"
    if isinstance(d, reps.TemperedPS):
        return f"sigma={csv(d.sigma.entries)};delta={d.delta.value}"
    return f"sigma={csv(d.sigma.entries)};lambda={d.lam}"


@functools.lru_cache(maxsize=None)
def members(N: int, max_entry: int = 3) -> list:
    return grid_enhanced(G(N), max_entry)


def random_weight(rng, group, top) -> tuple:
    free = group.rank - (0 if group.is_even else 1)
    body = sorted((rng.randint(0, top) for _ in range(free)), reverse=True)
    return tuple(body) + (() if group.is_even else (0,))


def distinct(items, limit):
    out, seen = [], set()
    for item in items:
        key = json.dumps(item)
        if key not in seen:
            seen.add(key)
            out.append(item)
        if len(out) == limit:
            break
    return out


# ---------------------------------------------------------------- cli-mix


def cli_candidates(rng) -> dict[str, list[list[str]]]:
    c: dict[str, list[list[str]]] = {}

    def params(lo, hi):
        out = [(N, e) for N in range(lo, hi + 1) for e in members(N)]
        rng.shuffle(out)
        return out

    c["classify"] = [
        ["classify", "--group", str(G(N)), "--weight", csv(s.entries)]
        for N in range(2, 13) for s in grid_weights(G(N), 3)
    ]
    rng.shuffle(c["classify"])
    for name in ("convert", "height", "signature"):
        rows = []
        for k, (N, e) in enumerate(params(2, 11)):
            if k % 2:
                rows.append([name, "--group", str(G(N)), "--langlands", langlands(reps.langlands_from_enhanced(e))])
            else:
                rows.append([name, "--group", str(G(N)), "--enhanced", enh(e)])
        c[name] = rows
    c["hasse"] = [
        ["hasse", "--group", str(G(N)), "--weight", csv(s.entries), "--sig0", sig]
        + (["--standard"] if rng.random() < 0.5 else [])
        for N in range(2, 12) for s in grid_weights(G(N), 3) for sig in "+-"
    ]
    rng.shuffle(c["hasse"])
    rows = []
    for N, e in params(3, 9):
        if rng.random() < 0.5:
            rows.append(["branch", "--group", str(G(N)), "--enhanced", enh(e), "--list"])
        else:
            targets = list(branching.branch_enumerate(e)) or members(N - 1)
            pick = rng.choice(targets if rng.random() < 0.5 else members(N - 1))
            rows.append(["branch", "--group", str(G(N)), "--enhanced", enh(e), "--to", enh(pick)])
    c["branch"] = rows
    c["branch-fd"] = [
        ["branch-fd", "--group", str(G(N)), "--weight", csv(s.entries), "--delta", d]
        for N in range(3, 11) for s in grid_weights(G(N), 3) for d in "+-"
    ]
    rng.shuffle(c["branch-fd"])
    rows = []
    for N in range(3, 11):
        sub = G(N - 1)
        for s in grid_weights(G(N), 3):
            for nu in weights.enumerate_interlacing(s, sub.rank):
                if sub.is_even or nu.entries[-1] == 0:
                    rows.append(["diagram", "--group", str(G(N)), "--weight", csv(s.entries),
                                 "--subweight", csv(nu.entries), "--sig", rng.choice("+-")])
    rng.shuffle(rows)
    c["diagram"] = rows
    rows = []
    for N in (3, 5, 7, 9, 11):
        m = N // 2
        for _ in range(30):
            sig_big = sorted((rng.randint(1, 4) for _ in range(m)), reverse=True)
            sub_sigma = sorted((rng.randint(0, 3) for _ in range(m - 1)), reverse=True)
            top = m - 1 + (sub_sigma[-1] if sub_sigma else 3)
            if top < m:
                continue
            lam = rng.randint(m, top)
            rows.append(["gp-check", "--group", str(G(N)),
                         "--big", f"sigma={csv(sig_big)};delta={rng.choice('+-')}",
                         "--small", f"sigma={csv(sub_sigma)};lambda={lam}"])
    rng.shuffle(rows)
    c["gp-check"] = rows
    c["period"] = [
        ["period", "--n", str(n), "--i", str(i)] + (["--ktype"] if (n + i) % 3 == 0 else [])
        for n in range(1, 25) for i in range(0, n + 1)
    ]
    rng.shuffle(c["period"])
    c["distinguished"] = [
        ["distinguished", "--group", str(G(N)), "--enhanced", enh(e)] for N, e in params(3, 10)
    ]
    c["chain"] = [
        ["chain", "--group", str(G(N)), "--enhanced", enh(e), "--target", str(G(rng.randint(2, N - 1))),
         "--psi", rng.choice("+-")]
        for N, e in params(3, 7)
    ]
    rows = []
    for n in range(1, 16):
        for i in range(0, n // 2 + 1):
            for j in range(0, n + 1):
                rows.append(["cohomology", "--n", str(n), "--i", str(i), "--delta", rng.choice("+-"),
                             "--j", str(j)] + (["--intro-rendering"] if rng.random() < 0.3 else []))
    for N, e in params(3, 9)[:200]:
        targets = list(branching.branch_enumerate(e)) or members(N - 1)
        rows.append(["cohomology", "--group", str(G(N)), "--enhanced", enh(e), "--gate", enh(rng.choice(targets))])
    rng.shuffle(rows)
    c["cohomology"] = rows
    suites = list(default_bounds())
    rows = []
    for grids in ("perfbench/grids/small-a.json", "perfbench/grids/small-b.json"):
        for a in suites:
            rows.append(["selftest", "--suite", a, "--grids", grids])
            for b in suites:
                if a < b:
                    rows.append(["selftest", "--suite", a, "--suite", b, "--grids", grids])
    rng.shuffle(rows)
    c["selftest"] = rows
    for name, rows in c.items():
        rows = distinct(rows, CLI_POOL)
        for k, argv in enumerate(rows):
            argv.append("--table" if k % 2 else "--json")
        c[name] = rows
    return c


MALFORMED = [
    ["classify", "--group", "SO(4)", "--weight", "0,0"],
    ["classify", "--group", "SO(a,1)", "--weight", "0,0"],
    ["classify", "--group", "SO(1,1)", "--weight", "0"],
    ["classify", "--group", "SU(3,1)", "--weight", "0,0"],
    ["classify", "--group", "SO(4,1)", "--weight", "1,a"],
    ["classify", "--group", "SO(4,1)", "--weight", "1,2"],
    ["classify", "--group", "SO(4,1)", "--weight", "3,2,1"],
    ["classify", "--group", "SO(4,1)", "--weight", "-1,0"],
    ["classify", "--group", "SO(5,1)", "--weight", "1,1,1"],
    ["classify", "--group", "SO(4,1)"],
    ["height", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=x;sig=-"],
    ["height", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=1"],
    ["height", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=1;sig=?"],
    ["height", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=9;sig=+"],
    ["height", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=;sig=+"],
    ["signature", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=1.5;sig=+"],
    ["signature", "--group", "SO(5,1)"],
    ["convert", "--group", "SO(5,1)", "--langlands", "sigma=2"],
    ["convert", "--group", "SO(5,1)", "--langlands", "delta=+"],
    ["convert", "--group", "SO(5,1)", "--langlands", "sigma=a,0;delta=+"],
    ["convert", "--group", "SO(5,1)", "--langlands", "sigma=2,0;delta=+;lambda=q"],
    ["gp-check", "--group", "SO(3,1)", "--big", "sigma=2;delta=+", "--small", "sigma=;lambda=x"],
    ["gp-check", "--group", "SO(4,1)", "--big", "sigma=2;delta=+", "--small", "sigma=;lambda=2"],
    ["branch", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=1;sig=-", "--to", "1,1;h=5;sig=-"],
    ["branch", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=1;sig=pm"],
    ["period", "--n", "-1", "--i", "0"],
    ["period", "--n", "3", "--i", "9"],
    ["period", "--n", "x", "--i", "1"],
    ["cohomology", "--n", "4", "--i", "1"],
    ["cohomology", "--n", "4", "--i", "3", "--j", "1"],
    ["chain", "--group", "SO(4,1)", "--enhanced", "0,0;h=2;sig=pm", "--target", "SO(2,1)", "--psi", "pm"],
    ["chain", "--group", "SO(4,1)", "--enhanced", "0,0;h=2;sig=pm", "--target", "SO(6,1)"],
    ["distinguished", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=x;sig=+"],
    ["diagram", "--group", "SO(4,1)", "--weight", "2,0", "--subweight", "3,0"],
    ["hasse", "--group", "SO(4,1)", "--weight", "1,0", "--sig0", "pm"],
    ["branch-fd", "--group", "SO(4,1)", "--weight", "1,1", "--delta", "x"],
    ["selftest", "--suite", "nope"],
    ["selftest", "--grids", "perfbench/grids/missing.json"],
    ["selftest", "--grids", "perfbench/README.md"],
    ["selftest", "--grids", "perfbench/grids/bad-bound.json", "--suite", "dim-conservation"],
    ["frobnicate"],
    [],
]


def run_cli(argv) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    proc = subprocess.run([sys.executable, "-m", "sobranch.cli", *argv], env=env, capture_output=True)
    entry = {"argv": argv, "exit": proc.returncode, "stdout": plan.stdout_digest(proc.stdout)}
    if proc.returncode not in plan.CONTRACT_EXITS or plan.has_traceback(proc.stderr):
        entry["defect"] = True
    return entry


def capture_cli_mix() -> dict:
    rng = random.Random("capture:cli-mix")
    valid = {name: [run_cli(argv) for argv in rows] for name, rows in cli_candidates(rng).items()}
    broken = [e["argv"] for rows in valid.values() for e in rows if e.get("defect")]
    if broken:
        raise SystemExit(f"valid calls broke the exit-code contract: {broken}")
    return {"valid": valid, "malformed": [run_cli(argv) for argv in MALFORMED]}


def capture_selftest() -> dict:
    reports = [run_suite(name, bounds) for name, bounds in default_bounds().items()]
    return {"passed": all(r.passed for r in reports), "cases": {r.suite: r.cases_run for r in reports}}


# ------------------------------------------------------------ chain-search


class _TooDeep(Exception):
    pass


def chain_nodes(query, cap):
    """(result, nodes expanded) of one chain query, or None above ``cap`` nodes."""
    original = periods.branch_enumerate
    count = [0]

    def counting(node):
        count[0] += 1
        if count[0] > cap:
            raise _TooDeep
        return original(node)

    call, canon = plan.in_process_ops("chain-search")["chain"]
    periods.branch_enumerate = counting
    try:
        return canon(call(*query)), count[0]
    except _TooDeep:
        return None
    finally:
        periods.branch_enumerate = original


def chain_entry(query, cap):
    got = chain_nodes(query, cap)
    if got is None:
        return None
    result, nodes = got
    return {"query": query, "found": result is not None, "digest": plan.digest(result), "nodes": nodes}


def as_query(e, M, psi):
    return [e.group.N, list(e.s.entries), e.height, e.sig.value, M, psi]


def capture_chain() -> dict:
    rng = random.Random("capture:chain-search")
    cliffs = [chain_entry(q, 10**9) for q in plan.NAMED_CLIFFS]
    light = {}
    for N in range(5, 12):
        queries = [as_query(e, M, psi) for e in members(N, 3 if N <= 9 else 2)
                   for M in range(2, N) for psi in "+-"]
        rng.shuffle(queries)
        found, none = [], []
        for query in queries:
            if len(found) >= LIGHT_POOL and len(none) >= LIGHT_POOL:
                break
            entry = chain_entry(query, LIGHT_NODES)
            if entry is None:
                continue
            bucket = found if entry["found"] else none
            if len(bucket) < LIGHT_POOL:
                bucket.append(entry)
        light[f"N{N:02d}-found"] = found
        light[f"N{N:02d}-none"] = none
    heavy, seen = [], {json.dumps(q) for q in plan.NAMED_CLIFFS}
    while len(heavy) < HEAVY_POOL:
        N = rng.choice((8, 9, 10))
        g = G(N)
        h = rng.randint(0, 2)
        sig = "pm" if g.is_even and h == g.top_height else rng.choice("+-")
        query = [N, list(random_weight(rng, g, 9)), h, sig, rng.randint(2, 4), rng.choice("+-")]
        if json.dumps(query) in seen:
            continue
        seen.add(json.dumps(query))
        entry = chain_entry(query, HEAVY_NODES[1])
        if entry and not entry["found"] and entry["nodes"] >= HEAVY_NODES[0]:
            heavy.append(entry)
    return {"cliffs": cliffs, "light": light, "heavy": heavy}


# ------------------------------------------------------------- library-mix


def library_candidates(rng, family):
    """Endless stream of candidate argument lists for one library family."""
    while True:
        if family in ("classify", "roundtrip", "height-signature"):
            N = rng.randint(8, 24)
            yield [N, list(random_weight(rng, G(N), 6))]
        elif family == "branch_enumerate":
            N = rng.randint(10, 14)
            g = G(N)
            s = random_weight(rng, g, 12)
            sub = g.subgroup
            if not BRANCH_CANDIDATES[0] <= weights.count_interlacing(W(s), sub.rank) <= BRANCH_CANDIDATES[1]:
                continue
            h = rng.randint(0, g.top_height)
            sig = "pm" if g.is_even and h == g.top_height else rng.choice("+-")
            yield [N, list(s), h, sig]
        elif family in ("multiplicity", "bilinear_gate"):
            N = rng.randint(6, 16)
            g, sub = G(N), G(N - 1)
            s = random_weight(rng, g, 4)
            occurring = [nu.entries for nu in weights.enumerate_interlacing(W(s), sub.rank)
                         if sub.is_even or nu.entries[-1] == 0]
            nu = rng.choice(occurring) if occurring and rng.random() < 0.5 else random_weight(rng, sub, 4)
            args = [N, list(s), list(nu)]
            if family == "bilinear_gate":
                args.append(list(random_weight(rng, sub, 4)) if rng.random() < 0.2 else None)
            yield args
        elif family == "sb_diagram":
            N = rng.randint(8, 20)
            g, sub = G(N), G(N - 1)
            s = W(random_weight(rng, g, 5))
            subs = [nu for nu in weights.enumerate_interlacing(s, sub.rank) if sub.is_even or nu.entries[-1] == 0]
            yield [N, list(s.entries), list(rng.choice(subs).entries), rng.choice("+-")]
        elif family == "gp_tempered_check":
            N = rng.choice((5, 7, 9, 11, 13, 15))
            m = N // 2
            sigma = sorted((rng.randint(1, 9) for _ in range(m)), reverse=True)
            yield [N, sigma, sorted((rng.randint(3, 9) for _ in range(m - 1)), reverse=True)]
        elif family == "period_value":
            n = rng.randint(1, 200)
            lo = rng.randint(0, n)
            yield [n, lo, min(n, lo + 63)]
        elif family == "weyl_dim":
            N = rng.randint(3, 20)
            lam = sorted((rng.randint(0, 10) for _ in range(N // 2)), reverse=True)
            if N % 2 == 0 and lam and lam[-1] and rng.random() < 0.5:
                lam[-1] = -lam[-1]
            yield [N, lam]
        else:
            raise ValueError(family)


def capture_library() -> dict:
    """Pools of distinct ops per family, and the slots each family gets in a round.

    Every op is timed as it is captured.  A family's pool grows until its
    ops add up to LIBRARY_POOL_MARGIN times the family's share of a timed
    run, and its slots per round are the costliest family's median op time
    over its own, so each family takes about the same share of a round.
    """
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    ops = plan.in_process_ops("library-mix")
    budget_ns = LIBRARY_POOL_MARGIN * run_seconds / len(ops) * 1e9
    pools, median_ms = {}, {}
    for family in sorted(ops):
        rng = random.Random(f"capture:library-mix:{family}")
        call, canon = ops[family]
        entries, seen, times = [], set(), []
        for tries, args in enumerate(library_candidates(rng, family)):
            if tries > 200_000:
                raise SystemExit(f"{family}: too few distinct candidates")
            key = json.dumps(args)
            if key in seen:
                continue
            seen.add(key)
            try:
                t = time.perf_counter_ns()
                result = call(*args)
                elapsed = time.perf_counter_ns() - t
                result = canon(result)
            except Exception:  # keep only ops that succeed: no op of the workload may fail
                continue
            entries.append({"args": args, "digest": plan.digest(result)})
            times.append(elapsed)
            if sum(times) >= budget_ns:
                break
        pools[family] = entries
        median_ms[family] = statistics.median(times) / 1e6
    costliest = max(median_ms.values())
    slots = {f: max(1, round(costliest / ms)) for f, ms in median_ms.items()}
    return {"slots": slots, "median_op_ms": median_ms, "pools": pools}


CAPTURES = {
    "cli-mix": capture_cli_mix,
    "selftest-default": capture_selftest,
    "chain-search": capture_chain,
    "library-mix": capture_library,
}


def main(names: list[str]) -> int:
    for name in names or plan.WORKLOADS:
        data = CAPTURES[name]()
        print(f"wrote {plan.save_corpus(name, data)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
