"""Independent brute-force verification suites; the package's trust anchor.

The classical compact branching rule implemented here is deliberately
separate from the Lorentz-group decision procedures, so a suite failure
localizes a bug to either the classical substrate or the engine built on
top of it.  Every suite sweeps a finite grid deterministically; reports are
reproducible bit for bit for fixed bounds.
"""

from __future__ import annotations

import json
import time
from importlib import resources
from itertools import product
from typing import Callable, Iterator, Sequence

from . import SUITE_NAMES
from .branching import multiplicity, sb_diagram
from .errors import NotMonotoneError, UnknownSuiteError, WrongRankError
from .reps import (
    EnhancedParam,
    FiniteDim,
    Signature,
    classify,
    enhanced_from_langlands,
    enhanced_params,
    langlands_from_enhanced,
    twist_chi_minus,
    _height_by_insertion,
    _height_by_intervals,
)
from .values import Value
from .weights import GroupTag, Weight, weyl_dim, zero_weight


class SuiteReport(Value):
    """Outcome of one verification sweep; empty failures means pass.

    Unlike the package's other records a report is mutable, and therefore
    unhashable.
    """

    __slots__ = ("suite", "cases_run", "failures", "elapsed")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self, suite: str, cases_run: int, failures: list | None = None, elapsed: float = 0.0
    ) -> None:
        self.suite = suite
        self.cases_run = cases_run
        self.failures = [] if failures is None else failures
        self.elapsed = elapsed

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        # elapsed is kept off the wire so that identical inputs give
        # byte-identical output; it stays available on the object.
        return {
            "suite": self.suite,
            "cases_run": self.cases_run,
            "failures": self.failures,
            "passed": self.passed,
        }

    def summary_line(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({len(self.failures)})"
        return f"{self.suite:<22} {self.cases_run:>9} cases  {status}"


def compact_branch_so(N: int, lam: Sequence[int]) -> list[tuple[int, ...]]:
    """Classical multiplicity-free branching SO(N) -> SO(N-1).

    Weights follow the compact convention: the last entry of an even-rank
    weight may be negative (the two mirror classes).  For N = 2k+1 the
    components are mu_1 >= nu_1 >= ... >= mu_k >= |nu_k|; for N = 2k they
    are mu_1 >= nu_1 >= ... >= nu_{k-1} >= |mu_k|.  Entries must be
    integers (no floats, no bools).
    """
    if N < 2:
        raise WrongRankError(f"branching needs N >= 2, got {N}")
    k = N // 2
    lam = tuple(lam)
    if any(type(x) is not int for x in lam):
        raise NotMonotoneError(f"SO({N}) weight entries must be integers: {lam}")
    if len(lam) != k:
        raise WrongRankError(f"SO({N}) weight needs rank {k}, got {len(lam)}")
    body, last = lam[:-1], lam[-1] if lam else 0
    norm = body + (abs(last),) if lam else ()
    if any(x < 0 for x in body) or any(norm[i] < norm[i + 1] for i in range(k - 1)):
        raise NotMonotoneError(f"SO({N}) weight must be weakly decreasing: {lam}")
    if N % 2 == 1:
        ranges = [range(lam[i], lam[i + 1] - 1, -1) for i in range(k - 1)]
        ranges.append(range(lam[k - 1], -lam[k - 1] - 1, -1))
    else:
        ranges = [range(norm[i], norm[i + 1] - 1, -1) for i in range(k - 1)]
    return [combo for combo in product(*ranges)]


def so_weights(N: int, max_entry: int) -> Iterator[tuple[int, ...]]:
    """All compact SO(N) highest weights with |entries| bounded, lex decreasing."""
    k = N // 2
    signed_last = N % 2 == 0 and k >= 1

    def rec(prefix: tuple[int, ...], bound: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == k:
            yield prefix
            return
        is_last = len(prefix) == k - 1
        for v in range(bound, -1, -1):
            yield from rec(prefix + (v,), v)
            if is_last and signed_last and v > 0:
                yield from rec(prefix + (-v,), v)

    yield from rec((), max_entry)


def grid_weights(group: GroupTag, max_entry: int) -> Iterator[Weight]:
    """All theta-weights for SO(N,1) with entries bounded, self-dual when N is odd."""
    free = group.rank - (0 if group.is_even else 1)

    def rec(prefix: tuple[int, ...], bound: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == free:
            yield prefix
            return
        for v in range(bound, -1, -1):
            yield from rec(prefix + (v,), v)

    for body in rec((), max_entry):
        yield Weight(body if group.is_even else body + (0,))


def grid_enhanced(group: GroupTag, max_entry: int) -> list[EnhancedParam]:
    """Every enhanced parameter over the bounded weight grid, in classify order."""
    return [e for s in grid_weights(group, max_entry) for e in enhanced_params(group, s)]


def height0_targets(group: GroupTag, s: Weight) -> set[Weight]:
    """Subgroup weights nu for which the finite-dimensional module of weight s
    contains the one of weight nu when restricted to the subgroup.

    Read off the compact branching SO(N+1) -> SO(N), whose finite-dimensional
    modules are those of SO(N,1) -> SO(N-1,1): keep the nu with a
    nonnegative last entry, and for an odd subgroup N only those ending in 0
    (the self-dual family).
    """
    sub = group.subgroup
    return {
        Weight(nu)
        for nu in compact_branch_so(group.N + 1, s.entries)
        if nu[-1] >= 0 and (sub.is_even or nu[-1] == 0)
    }


def _suite_dim_conservation(bounds: dict) -> tuple[int, list]:
    max_so = int(bounds["max_so"])
    max_entry = int(bounds["max_entry"])
    cases, failures = 0, []
    for N in range(2, max_so + 1):
        for mu in so_weights(N, max_entry):
            cases += 1
            total = weyl_dim(N, mu)
            parts = sum(weyl_dim(N - 1, nu) for nu in compact_branch_so(N, mu))
            if total != parts:
                failures.append({"N": N, "mu": list(mu), "dim": total, "sum": parts})
    return cases, failures


def _suite_roundtrip(bounds: dict) -> tuple[int, list]:
    max_group = int(bounds["max_group"])
    max_entry = int(bounds["max_entry"])
    cases, failures = 0, []
    for N in range(2, max_group + 1):
        group = GroupTag(N)
        for s in grid_weights(group, max_entry):
            for d in classify(group, s):
                cases += 1
                back = langlands_from_enhanced(enhanced_from_langlands(d))
                if back != d:
                    failures.append(
                        {"descriptor": repr(d), "roundtrip": repr(back)}
                    )
    return cases, failures


def _suite_height_consistency(bounds: dict) -> tuple[int, list]:
    max_group = int(bounds["max_group"])
    max_entry = int(bounds["max_entry"])
    cases, failures = 0, []
    for N in range(2, max_group + 1):
        group = GroupTag(N)
        for s in grid_weights(group, max_entry):
            for d in classify(group, s):
                cases += 1
                h_ins = _height_by_insertion(d)
                h_int = _height_by_intervals(d)
                if h_ins != h_int:
                    failures.append(
                        {"descriptor": repr(d), "insertion": h_ins, "intervals": h_int}
                    )
                if isinstance(d, FiniteDim) and h_ins != 0:
                    failures.append({"descriptor": repr(d), "insertion": h_ins})
    return cases, failures


def _suite_trivial_rho_diagrams(bounds: dict) -> tuple[int, list]:
    max_n = int(bounds["max_n"])
    cases, failures = 0, []
    for n in range(2, max_n + 1):
        group = GroupTag(n + 1)
        sub = group.subgroup
        cases += 1
        arrows = {
            (a.from_height, a.to_height)
            for a in sb_diagram(
                group, zero_weight(group.rank), zero_weight(sub.rank), Signature.PLUS
            )
        }
        expected = {(i, i) for i in range(sub.top_height + 1)} | {
            (i, i - 1) for i in range(1, group.top_height + 1)
        }
        if arrows != expected:
            failures.append({"n": n, "arrows": sorted(arrows), "expected": sorted(expected)})
    return cases, failures


def _suite_chi_twist(bounds: dict) -> tuple[int, list]:
    """Twisting both sides by chi_- leaves every multiplicity unchanged.

    ``twist_chi_minus`` maps the grid onto itself, so the twisted pair is
    another case of the same grid: each engine value is computed once, as
    the row ``multiplicity(big, q)`` over the small grid, and compared with
    its twin, the entry of the twisted small parameter in the twisted big
    parameter's row.  A row is kept until it has served both as a row and
    as a twin row, so only the current twist pair's rows are held.  A
    twisted parameter outside the grid (an engine bug) is evaluated
    directly.
    """
    max_group = int(bounds["max_group"])
    max_entry = int(bounds["max_entry"])
    cases, failures = 0, []
    for N in range(3, max_group + 1):
        big_params = grid_enhanced(GroupTag(N), max_entry)
        small_params = grid_enhanced(GroupTag(N - 1), max_entry)
        twisted_small = [twist_chi_minus(p) for p in small_params]
        position = {p: i for i, p in enumerate(small_params)}
        twin = [position.get(t) for t in twisted_small]
        twisted_big = [twist_chi_minus(p) for p in big_params]
        uses = dict.fromkeys(big_params, 1)  # once as a row, once per twin
        for t in twisted_big:
            if t in uses:
                uses[t] += 1
        held: dict[EnhancedParam, list[int]] = {}

        def row_of(p: EnhancedParam) -> list[int]:
            row = held.pop(p, None)
            if row is None:
                row = [multiplicity(p, q) for q in small_params]
            uses[p] -= 1
            if uses[p]:
                held[p] = row
            return row

        for big, tbig in zip(big_params, twisted_big):
            row = row_of(big)
            twin_row = row_of(tbig) if tbig in uses else None
            if twin_row is None:
                twisted = [multiplicity(tbig, t) for t in twisted_small]
            else:
                twisted = [
                    multiplicity(tbig, t) if j is None else twin_row[j]
                    for t, j in zip(twisted_small, twin)
                ]
            cases += len(row)
            if row != twisted:
                failures.extend(
                    {"big": repr(big), "small": repr(small)}
                    for small, m, tm in zip(small_params, row, twisted)
                    if m != tm
                )
    return cases, failures


def _suite_height0_vs_finite(bounds: dict) -> tuple[int, list]:
    max_group = int(bounds["max_group"])
    max_entry = int(bounds["max_entry"])
    signs = (Signature.PLUS, Signature.MINUS)
    cases, failures = 0, []
    for N in range(3, max_group + 1):
        group = GroupTag(N)
        sub = group.subgroup
        sub_weights = list(grid_weights(sub, max_entry))
        for s in grid_weights(group, max_entry):
            allowed = height0_targets(group, s)
            for delta in signs:
                big = EnhancedParam(group, s, 0, delta)
                for nu in sub_weights:
                    for eps in signs:
                        cases += 1
                        m = multiplicity(big, EnhancedParam(sub, nu, 0, eps))
                        expected = 1 if (eps is delta and nu in allowed) else 0
                        if m != expected:
                            failures.append(
                                {
                                    "N": N,
                                    "s": s.to_json(),
                                    "nu": nu.to_json(),
                                    "delta": delta.value,
                                    "eps": eps.value,
                                    "multiplicity": m,
                                    "expected": expected,
                                }
                            )
    return cases, failures


# Suite "a-b" runs _suite_a_b; the names and their order are the package's SUITE_NAMES.
_SUITES: dict[str, Callable[[dict], tuple[int, list]]] = {
    name: globals()["_suite_" + name.replace("-", "_")] for name in SUITE_NAMES
}


def default_bounds() -> dict:
    """Grid bounds shipped with the package (see suite_grids.json)."""
    text = resources.files("sobranch").joinpath("suite_grids.json").read_text()
    data = json.loads(text)
    data.pop("_comment", None)
    return data


def run_suite(suite: str, bounds: dict | None = None) -> SuiteReport:
    """Run one named suite over its grid and report the counterexamples.

    A bound that ``bounds`` leaves out keeps its value from suite_grids.json.
    """
    if suite not in _SUITES:
        raise UnknownSuiteError(
            f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    bounds = {**default_bounds()[suite], **(bounds or {})}
    start = time.perf_counter()
    cases, failures = _SUITES[suite](bounds)
    return SuiteReport(suite, cases, failures, time.perf_counter() - start)


def run_all(bounds_map: dict | None = None) -> list[SuiteReport]:
    """Run every suite with the given (or default) bounds, in registry order."""
    return [run_suite(name, (bounds_map or {}).get(name)) for name in SUITE_NAMES]
