"""Operations, per-seed plans and correctness checks of the four workloads.

Every workload draws its operations from a fixed pool stored in
``corpus/<workload>.json`` with the expected result of each operation, as
captured by ``capture.py``.  The workload seed only orders the pool: a seed
gives the same operations on every commit, and no operation repeats inside
a run.  A run is a fixed number of rounds of fixed composition (one draw
from each stratum of the pool; for library-mix the corpus's number of slots
per family), so a seed and a run length name the same work on every commit.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_DIR = os.path.join(HERE, "corpus")

WORKLOADS = ("cli-mix", "selftest-default", "chain-search", "library-mix")
CLI_WORKLOADS = ("cli-mix", "selftest-default")

# Documented CLI exit codes: 0 success, 2 malformed input, 3 outside the
# supported family, 4 self-test failure.  Anything else, or a traceback,
# breaks the contract.
CONTRACT_EXITS = (0, 2, 3, 4)

# The two malformed calls that open the malformed slice of every cli-mix run.
NAMED_MALFORMED = (
    ["height", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=x;sig=-"],
    ["gp-check", "--group", "SO(3,1)", "--big", "sigma=2;delta=+", "--small", "sigma=;lambda=x"],
)

# Known defects in a cli-mix run besides the two named calls.
CLI_EXTRA_DEFECTS = 1

# Chain-search queries as (N, weight, height, signature, M, psi): the two
# exponential cliffs of the memoized DFS, run once at the start of every run.
NAMED_CLIFFS = (
    [9, [8, 6, 4, 2, 0], 1, "-", 3, "+"],
    [11, [10, 8, 6, 4, 2, 0], 1, "-", 3, "+"],
)
CHAIN_HEAVY_PER_ROUND = 2
CHAIN_HEAVY_BINS = 24
CHAIN_LIGHT_PER_ROUND = 5  # per light stratum: a 20-second run takes 95 of its 100
CHAIN_LIGHT_BINS = 16

# A library weyl_dim op is the dimension ladder lam + k*e1, k < WEYL_LADDER.
WEYL_LADDER = 16

# Seconds a round takes, its checks and chain-search's opening share
# included, on the measurement host at its usual mix of speeds.  A run of S
# seconds is a fixed S / ROUND_S rounds, so the same seed and run length
# always give the same ops.
ROUND_S = {"cli-mix": 2.9, "selftest-default": 6.5, "chain-search": 1.05, "library-mix": 0.2}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def corpus_path(workload: str, corpus_dir: str = CORPUS_DIR) -> str:
    return os.path.join(corpus_dir, workload + ".json.gz")


def load_corpus(workload: str) -> dict:
    with gzip.open(corpus_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_corpus(workload: str, data: dict, corpus_dir: str = CORPUS_DIR) -> str:
    path = corpus_path(workload, corpus_dir)
    # mtime=0 keeps the file byte-identical when the content is.
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write(json.dumps(data, separators=(",", ":")).encode("utf-8"))
    return path


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def stdout_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# ------------------------------------------------------------ in-process ops
#
# Each op looks its library function up on the module at call time, so the
# traced run can wrap the attribute.  ``call`` returns the raw result fully
# consumed; ``canon`` turns it into the public JSON form that is digested.


def _library_ops() -> dict:
    from sobranch import branching, cohomology, periods, reps, weights

    G, W, S, E = weights.GroupTag, weights.Weight, reps.Signature, reps.EnhancedParam

    def ep(N, s, h, sig):
        return E(G(N), W(tuple(s)), h, S(sig))

    def members(N, s):
        g = G(N)
        for h in range(g.top_height + 1):
            sigs = ("pm",) if g.is_even and h == g.top_height else ("+", "-")
            for sig in sigs:
                yield ep(N, s, h, sig)

    def roundtrip(N, s):
        out = []
        for e in members(N, s):
            d = reps.langlands_from_enhanced(e)
            out.append((d, reps.enhanced_from_langlands(d)))
        return out

    def height_signature(N, s):
        out = []
        for e in members(N, s):
            d = reps.langlands_from_enhanced(e)
            out.append((reps.height(d), reps.signature(d)))
        return out

    def family_table(fn, N, s, nu):
        """``fn(big, small)`` for every member with weight ``s`` against every
        member of the subgroup with weight ``nu``."""
        return [[fn(big, small) for small in members(N - 1, nu)] for big in members(N, s)]

    def gate(off):
        def fn(big, small):
            coeff = W(tuple(off)) if off is not None else small.s
            return cohomology.bilinear_gate(big, small, big.s, coeff)

        return fn

    def gp_row(N, sigma, sub_sigma):
        """The check for both deltas and every admissible lambda."""
        m = N // 2
        return [
            branching.gp_tempered_check(
                reps.TemperedPS(G(N), W(tuple(sigma)), S(delta)),
                reps.DiscreteSeries(G(N - 1), W(tuple(sub_sigma)), lam),
            )
            for delta in ("+", "-") for lam in range(m, m + sub_sigma[-1])
        ]

    djson = reps.descriptor_to_json
    same = lambda r: r  # noqa: E731  (already in public JSON form)
    return {
        "classify": (
            lambda N, s: reps.classify(G(N), W(tuple(s))),
            lambda r: [djson(d) for d in r],
        ),
        "roundtrip": (roundtrip, lambda r: [[djson(d), e.to_json()] for d, e in r]),
        "height-signature": (height_signature, lambda r: [[h, sig.value] for h, sig in r]),
        "branch_enumerate": (
            lambda N, s, h, sig: list(branching.branch_enumerate(ep(N, s, h, sig))),
            lambda r: [t.to_json() for t in r],
        ),
        "multiplicity": (
            lambda N, s, nu: family_table(branching.multiplicity, N, s, nu),
            same,
        ),
        "sb_diagram": (
            lambda N, s, s2, sig: branching.sb_diagram(G(N), W(tuple(s)), W(tuple(s2)), S(sig)),
            lambda r: [[a.from_height, a.to_height] for a in r],
        ),
        "bilinear_gate": (lambda N, s, nu, off: family_table(gate(off), N, s, nu), same),
        "gp_tempered_check": (gp_row, same),
        "period_value": (
            lambda n, lo, hi: [periods.period_value(n, i) for i in range(lo, hi + 1)],
            lambda r: [v.to_json() for v in r],
        ),
        "weyl_dim": (
            lambda N, lam: [weights.weyl_dim(N, [lam[0] + k, *lam[1:]]) for k in range(WEYL_LADDER)],
            lambda r: [str(d) for d in r],
        ),
    }


def _chain_op():
    from sobranch import periods, reps, weights

    def call(N, s, h, sig, M, psi):
        e = reps.EnhancedParam(weights.GroupTag(N), weights.Weight(tuple(s)), h, reps.Signature(sig))
        return periods.distinguishing_chain(e, weights.GroupTag(M), reps.Signature(psi))

    def canon(chain):
        if chain is None:
            return None
        return [[str(t.group), t.to_json()] for t in chain]

    return call, canon


def in_process_ops(workload: str) -> dict:
    """Map op family -> (call, canon) for an in-process workload."""
    if workload == "chain-search":
        return {"chain": _chain_op()}
    return _library_ops()


# ------------------------------------------------------------------- plans


class Op:
    """One planned operation with the expectation it is checked against."""

    __slots__ = ("family", "args", "expect")

    def __init__(self, family, args, expect):
        self.family = family
        self.args = args
        self.expect = expect

    def key(self) -> str:
        return self.family + json.dumps(self.args, separators=(",", ":"))


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _by_nodes(rng: random.Random, entries: list[dict], bins: int) -> list[list[Op]]:
    """Chain queries cut into ``bins`` equal bins by the nodes their search
    expanded at capture, each bin in seeded order.  Drawing every round
    alike from the bins keeps the cost profile of a run the same for every
    seed, so seeds change the queries but not the figures."""
    ordered = sorted(entries, key=lambda e: e["nodes"])
    size = len(ordered) // bins
    return [
        _shuffled(rng, [Op("chain", e["query"], e) for e in ordered[b * size : (b + 1) * size]])
        for b in range(bins)
    ]


def build_plan(workload: str, corpus: dict, seed: int) -> tuple[list[Op], list[list[Op]]]:
    """Return (opening ops, rounds) for the seed.

    Opening ops run once before the rounds and count as ops but not as a
    round; every round has the same composition.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "selftest-default":
        op = Op("selftest", ["selftest"], corpus)
        return [], [[op] for _ in range(1000)]
    if workload == "cli-mix":
        pools = {
            name: _shuffled(rng, [Op(name, e["argv"], e) for e in entries])
            for name, entries in sorted(corpus["valid"].items())
        }
        named = [json.dumps(a) for a in NAMED_MALFORMED]
        by_key = {json.dumps(e["argv"]): e for e in corpus["malformed"]}
        malformed = [Op("malformed", by_key[k]["argv"], by_key[k]) for k in named]
        rest = _shuffled(rng, [Op("malformed", e["argv"], e) for k, e in by_key.items() if k not in named])
        # One more known defect, then calls that keep the contract: every
        # seed's run holds the same number of defects, so ``failed`` is the
        # same for every seed.
        defects = [op for op in rest if op.expect.get("defect")]
        malformed += defects[:CLI_EXTRA_DEFECTS]
        malformed += [op for op in rest if not op.expect.get("defect")]
        n = min(min(len(p) for p in pools.values()), len(malformed))
        rounds = []
        for r in range(n):
            ops = [pool[r] for pool in pools.values()]
            rng.shuffle(ops)
            rounds.append(ops + [malformed[r]])
        return [], rounds
    if workload == "chain-search":
        opening = [Op("chain", e["query"], e) for e in corpus["cliffs"]]
        light = [_by_nodes(rng, corpus["light"][name], CHAIN_LIGHT_BINS) for name in sorted(corpus["light"])]
        heavy = _by_nodes(rng, corpus["heavy"], CHAIN_HEAVY_BINS)
        n = min(min(len(b) for bins in light for b in bins) * CHAIN_LIGHT_BINS // CHAIN_LIGHT_PER_ROUND,
                min(len(b) for b in heavy) * CHAIN_HEAVY_BINS // CHAIN_HEAVY_PER_ROUND)
        rounds = []
        for r in range(n):
            # The k-th draw of light stratum i comes from bin (k + i) mod
            # CHAIN_LIGHT_BINS, and the heavy queries come from the heavy
            # bins in turn, so every run of the same length draws alike from
            # every bin.
            ops = [bins[(k + i) % CHAIN_LIGHT_BINS][k // CHAIN_LIGHT_BINS]
                   for i, bins in enumerate(light)
                   for k in range(r * CHAIN_LIGHT_PER_ROUND, (r + 1) * CHAIN_LIGHT_PER_ROUND)]
            ops += [heavy[k % CHAIN_HEAVY_BINS][k // CHAIN_HEAVY_BINS]
                    for k in range(r * CHAIN_HEAVY_PER_ROUND, (r + 1) * CHAIN_HEAVY_PER_ROUND)]
            rng.shuffle(ops)
            rounds.append(ops)
        return opening, rounds
    if workload == "library-mix":
        slots = corpus["slots"]
        pools = {
            name: _shuffled(rng, [Op(name, e["args"], e) for e in corpus["pools"][name]])
            for name in sorted(slots)
        }
        n = min(len(pools[name]) // k for name, k in slots.items())
        rounds = []
        for r in range(n):
            ops = [op for name, k in sorted(slots.items()) for op in pools[name][r * k : (r + 1) * k]]
            rng.shuffle(ops)
            rounds.append(ops)
        return [], rounds
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------------ checks


def has_traceback(stderr: bytes) -> bool:
    return b"Traceback (most recent call last)" in stderr


def check_cli(op: Op, out: dict) -> bool:
    """A CLI call passes when it keeps the exit-code contract with no
    traceback; a well-formed call must also reproduce the captured exit
    code and stdout bytes, while malformed input expects only the contract."""
    if out["exit"] not in CONTRACT_EXITS or out["traceback"]:
        return False
    if op.family == "malformed":
        return True
    return out["exit"] == op.expect["exit"] and out["stdout"] == op.expect["stdout"]


def selftest_summary(stdout: bytes) -> dict | None:
    try:
        payload = json.loads(stdout)
        return {
            "passed": payload["passed"],
            "cases": {s["suite"]: s["cases_run"] for s in payload["suites"]},
        }
    except (ValueError, KeyError, TypeError):
        return None


def check_selftest(expect: dict, out: dict) -> tuple[int, int]:
    """Return (cases attempted, cases failed) for one selftest call.

    The cases of a suite count as failed when its count or its pass flag
    differs from the corpus; every case fails when the call itself broke.
    """
    total = sum(expect["cases"].values())
    got = out["selftest"]
    if out["exit"] not in CONTRACT_EXITS or out["traceback"] or got is None:
        return total, total
    failed = 0
    for suite, cases in expect["cases"].items():
        if got["cases"].get(suite) != cases or got["passed"] is not expect["passed"]:
            failed += cases
    return total, failed


def check(workload: str, op: Op, out) -> tuple[int, int]:
    """Return (attempted, failed) for one op's output as the worker reports it."""
    if workload == "selftest-default":
        return check_selftest(op.expect, out)
    if workload in CLI_WORKLOADS:
        return 1, int(not check_cli(op, out))
    return 1, int(out != op.expect["digest"])
