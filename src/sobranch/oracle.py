"""Independent brute-force verification suites; the package's trust anchor.

The classical compact branching rule implemented here is deliberately
separate from the Lorentz-group decision procedures, so a suite failure
localizes a bug to either the classical substrate or the engine built on
top of it.  Every suite sweeps a finite grid deterministically; reports are
reproducible bit for bit for fixed bounds, which are parsed and checked here
only (suite_grids.json and ``selftest --grids`` files).
"""

from __future__ import annotations

import json
import time
from importlib import resources
from itertools import combinations_with_replacement, compress, product
from operator import ne
from typing import Callable, Iterator, Sequence

from . import SUITE_NAMES
from .branching import multiplicity, multiplicity_rows, sb_diagram
from .errors import (
    InvalidDescriptorError, NotMonotoneError, OutOfRangeError, UnknownSuiteError, WrongRankError,
)
from .reps import (
    DiscreteSeries,
    EnhancedParam,
    FiniteDim,
    RepDescriptor,
    Signature,
    TemperedPS,
    enhanced_from_langlands,
    enhanced_params,
    height,
    langlands_from_enhanced,
    twist_chi_minus,
)
from .values import Value
from .weights import GroupTag, Weight, weyl_dim, zero_weight


class SuiteReport(Value):
    """Outcome of one verification sweep; empty failures means pass.

    ``failures`` holds the first counterexamples a suite kept (at most
    ``KEPT_FAILURES``) and ``failures_total`` counts all of them.  Unlike
    the package's other records a report is mutable, and therefore
    unhashable.
    """

    __slots__ = ("suite", "cases_run", "failures", "elapsed", "failures_total")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        suite: str,
        cases_run: int,
        failures: list | None = None,
        elapsed: float = 0.0,
        failures_total: int | None = None,
    ) -> None:
        self.suite = suite
        self.cases_run = cases_run
        self.failures = [] if failures is None else failures
        self.elapsed = elapsed
        self.failures_total = len(self.failures) if failures_total is None else failures_total

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        # elapsed is kept off the wire so that identical inputs give
        # byte-identical output; it stays available on the object.  Only a
        # failing report carries the total.
        data = {"suite": self.suite, "cases_run": self.cases_run, "failures": self.failures}
        if not self.passed:
            data["failures_total"] = self.failures_total
        data["passed"] = self.passed
        return data

    def summary_line(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({self.failures_total})"
        return f"{self.suite:<22} {self.cases_run:>9} cases  {status}"


KEPT_FAILURES = 20


class _Failures(list):
    """A suite's first ``KEPT_FAILURES`` counterexamples; ``total`` counts
    all of them, so a broken engine costs no memory per failure."""

    def __init__(self) -> None:
        super().__init__()
        self.total = 0

    def append(self, failure: dict) -> None:
        self.total += 1
        if len(self) < KEPT_FAILURES:
            super().append(failure)

    def add(self, cases: list, record: Callable) -> None:
        """Count every case and keep ``record(case)`` for those that still
        fit, so no record is built only to be dropped."""
        self.total += len(cases)
        super().extend(map(record, cases[: KEPT_FAILURES - len(self)]))


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
    if max_entry < 0:  # no weight; itertools would still allocate N // 2 slots to find none
        return
    for w in combinations_with_replacement(range(max_entry, -1, -1), N // 2):
        yield w
        if N % 2 == 0 and w and w[-1] > 0:  # its mirror, the negated last entry
            yield w[:-1] + (-w[-1],)


def grid_weights(group: GroupTag, max_entry: int) -> Iterator[Weight]:
    """All theta-weights for SO(N,1) with entries bounded, self-dual when N is odd."""
    if max_entry < 0:  # as in so_weights
        return
    for body in combinations_with_replacement(range(max_entry, -1, -1), group.free_rank):
        yield Weight(body if group.is_even else body + (0,))


def grid_enhanced(group: GroupTag, max_entry: int) -> list[EnhancedParam]:
    """Every enhanced parameter over the bounded weight grid, in classify order."""
    return [e for s in grid_weights(group, max_entry) for e in enhanced_params(group, s)]


def _grid(shared: dict, N: int, max_entry: int, descriptors: bool = False) -> list:
    """[``grid_enhanced`` of SO(N,1), the ``langlands_from_enhanced`` of each
    or None], kept in ``shared`` under (N, max_entry): each is built once, the
    descriptors only when first asked for."""
    grid = shared.get((N, max_entry))
    if grid is None:
        grid = shared[N, max_entry] = [grid_enhanced(GroupTag(N), max_entry), None]
    if descriptors and grid[1] is None:
        grid[1] = [langlands_from_enhanced(e) for e in grid[0]]
    return grid


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


def _suite_dim_conservation(bounds: dict, shared: dict) -> tuple[int, _Failures]:
    max_so = bounds["max_so"]
    max_entry = bounds["max_entry"]
    cases, failures = 0, _Failures()
    for N in range(2, max_so + 1):
        for mu in so_weights(N, max_entry):
            cases += 1
            total = weyl_dim(N, mu)
            parts = sum(weyl_dim(N - 1, nu) for nu in compact_branch_so(N, mu))
            if total != parts:
                failures.append({"N": N, "mu": list(mu), "dim": total, "sum": parts})
    return cases, failures


def _suite_roundtrip(bounds: dict, shared: dict) -> tuple[int, _Failures]:
    """Parameter -> descriptor -> parameter on every grid parameter:
    ``enhanced_from_langlands(langlands_from_enhanced(e))`` must be e.

    Each parameter e is paired with its descriptor d from the shared grid
    (``_grid``), so one conversion each way per case, whichever suite built
    d.  Since ``classify`` lists the ``langlands_from_enhanced`` of every
    parameter of a weight, this also gives back every ``classify``
    descriptor d from its parameter, and a ``langlands_from_enhanced`` that
    sends two parameters to one descriptor fails at one of them at least.
    """
    max_group = bounds["max_group"]
    max_entry = bounds["max_entry"]
    cases, failures = 0, _Failures()
    for N in range(2, max_group + 1):
        for e, d in zip(*_grid(shared, N, max_entry, descriptors=True)):
            cases += 1
            back = enhanced_from_langlands(d)
            if back != e:
                failures.append(
                    {"parameter": repr(e), "descriptor": repr(d), "roundtrip": repr(back)}
                )
    return cases, failures


def _height_by_intervals(d: RepDescriptor) -> int:
    """Height from the defining inequalities i - sigma_i < lam < i+1 - sigma_{i+1}.

    sigma_0 is treated as +infinity and sigma_k = 0 beyond the stored rank,
    which subsumes the top nontempered interval for N even.
    """
    if isinstance(d, FiniteDim):
        return 0
    if isinstance(d, (TemperedPS, DiscreteSeries)):
        return d.group.top_height
    pad = (*d.sigma.entries, 0)  # pad[k - 1] is sigma_k
    lam = d.lam
    hits = [
        i for i in range(d.group.top_height)
        if (i == 0 or lam > i - pad[i - 1]) and lam < i + 1 - pad[i]
    ]
    if len(hits) != 1:
        raise InvalidDescriptorError(
            f"height intervals select {hits} for lam={d.lam}, sigma={d.sigma}"
        )
    return hits[0]


def _suite_height_consistency(bounds: dict, shared: dict) -> tuple[int, _Failures]:
    """The engine's ``height`` against the interval criterion on every grid descriptor.

    The descriptors are those of the shared grid (``_grid``), in the order
    that ``classify`` lists them weight by weight: it lists exactly the
    ``langlands_from_enhanced`` of each parameter of the weight.
    """
    max_group = bounds["max_group"]
    max_entry = bounds["max_entry"]
    cases, failures = 0, _Failures()
    for N in range(2, max_group + 1):
        for d in _grid(shared, N, max_entry, descriptors=True)[1]:
            cases += 1
            h = height(d)
            h_int = _height_by_intervals(d)
            if h != h_int:
                failures.append({"descriptor": repr(d), "insertion": h, "intervals": h_int})
    return cases, failures


def _suite_trivial_rho_diagrams(bounds: dict, shared: dict) -> tuple[int, _Failures]:
    max_n = bounds["max_n"]
    cases, failures = 0, _Failures()
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


def _suite_chi_twist(bounds: dict, shared: dict) -> tuple[int, _Failures]:
    """Twisting both sides by chi_- leaves every multiplicity unchanged.

    The per-pair check a row at a time: the row of each big parameter over
    the small grid, from ``multiplicity_rows``, equals the row of its twist
    over the twisted smalls, and a mismatch lists the smalls where they
    differ.  Both grids are read from the shared ones (``_grid``).  The big
    grid of N is the small grid of N + 1, so each grid is twisted once: the
    twisted bigs of N are the twisted smalls of N + 1.
    """
    max_group = bounds["max_group"]
    max_entry = bounds["max_entry"]
    cases, failures = 0, _Failures()
    small_params = twisted_smalls = None
    for N in range(3, max_group + 1):
        if small_params is None:
            small_params = _grid(shared, N - 1, max_entry)[0]
            twisted_smalls = [twist_chi_minus(q) for q in small_params]
        big_params = _grid(shared, N, max_entry)[0]
        twisted_bigs = [twist_chi_minus(b) for b in big_params]
        own_rows = multiplicity_rows(big_params, small_params)
        twisted_rows = multiplicity_rows(twisted_bigs, twisted_smalls)
        for big, own, twisted in zip(big_params, own_rows, twisted_rows):
            cases += len(own)
            if own != twisted:
                failures.add(
                    list(compress(small_params, map(ne, own, twisted))),
                    lambda small: {"big": repr(big), "small": repr(small)},
                )
        small_params, twisted_smalls = big_params, twisted_bigs
    return cases, failures


def _suite_height0_vs_finite(bounds: dict, shared: dict) -> tuple[int, _Failures]:
    max_group = bounds["max_group"]
    max_entry = bounds["max_entry"]
    signs = (Signature.PLUS, Signature.MINUS)
    cases, failures = 0, _Failures()
    for N in range(3, max_group + 1):
        group = GroupTag(N)
        sub = group.subgroup
        smalls = [
            (nu, eps, EnhancedParam(sub, nu, 0, eps))
            for nu in grid_weights(sub, max_entry)
            for eps in signs
        ]
        for s in grid_weights(group, max_entry):
            allowed = height0_targets(group, s)
            for delta in signs:
                big = EnhancedParam(group, s, 0, delta)
                for nu, eps, small in smalls:
                    cases += 1
                    m = multiplicity(big, small)
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
_SUITES: dict[str, Callable[[dict, dict], tuple[int, _Failures]]] = {
    name: globals()["_suite_" + name.replace("-", "_")] for name in SUITE_NAMES
}


# The longest file ``load_grids`` reads, in characters; a longer one is refused
# once that many are read.  The grids files in the repository hold under 1 000.
MAX_GRIDS_CHARS = 65_536


def _parse_bounds(text: str, source: str) -> dict:
    """The grid-bounds format: a JSON object {suite: {bound: integer}}, less its ``_comment``."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise OutOfRangeError(f"{source} must hold a JSON object")
    data.pop("_comment", None)
    return data


def default_bounds() -> dict:
    """Grid bounds shipped with the package (see suite_grids.json)."""
    text = resources.files("sobranch").joinpath("suite_grids.json").read_text()
    return _parse_bounds(text, "suite_grids.json")


def load_grids(path: str) -> dict:
    """Read a grid-bounds override file and ``check_bounds`` each suite's bounds; an
    unreadable file, or one longer than ``MAX_GRIDS_CHARS``, raises ``OutOfRangeError``."""
    source = f"grid file {path!r}"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read(MAX_GRIDS_CHARS + 1)
        if len(text) > MAX_GRIDS_CHARS:
            raise OutOfRangeError(f"{source} is longer than {MAX_GRIDS_CHARS} characters")
        data = _parse_bounds(text, source)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise OutOfRangeError(f"cannot read {source}: {exc}") from exc
    defaults = default_bounds()
    for suite, bounds in data.items():
        try:
            check_bounds(suite, bounds, defaults)
        except (UnknownSuiteError, OutOfRangeError) as exc:
            raise type(exc)(f"{source}: {exc}") from None
    return data


def check_bounds(suite: str, bounds: dict, defaults: dict) -> None:
    """Raise ``UnknownSuiteError`` unless ``suite`` is a suite name, and
    ``OutOfRangeError`` unless bounds is a dict whose keys ``defaults[suite]``
    lists and whose values are integers; each key is checked before its value."""
    if suite not in SUITE_NAMES:
        raise UnknownSuiteError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    if not isinstance(bounds, dict):
        raise OutOfRangeError(f"bounds of {suite!r} must be an object")
    known = defaults[suite]
    for key, value in bounds.items():
        if key not in known:
            raise OutOfRangeError(f"unknown bound {suite}.{key}; choose from {', '.join(known)}")
        if type(value) is not int:
            raise OutOfRangeError(f"bound {suite}.{key} must be an integer, got {value!r}")


def run_suite(suite: str, bounds: dict | None = None, shared: dict | None = None) -> SuiteReport:
    """Run one named suite over its grid and report the counterexamples.

    A bound that ``bounds`` leaves out keeps its value from suite_grids.json;
    bounds that are not a dict (None means none given), a key that
    suite_grids.json does not list, a value that is not an integer, or bounds
    whose grid holds no case (a pass that checked nothing) raise
    ``OutOfRangeError``.  A caller running several suites passes them one
    ``shared`` dict: the grid parameters and descriptors that roundtrip,
    height-consistency and chi-twist build are kept in it by (N, max_entry)
    and read by the later suites.  Without it the call builds its own.
    """
    bounds = {} if bounds is None else bounds
    defaults = default_bounds()
    check_bounds(suite, bounds, defaults)
    bounds = {**defaults[suite], **bounds}
    start = time.perf_counter()
    cases, failures = _SUITES[suite](bounds, {} if shared is None else shared)
    elapsed = time.perf_counter() - start
    if not cases:
        raise OutOfRangeError(f"the bounds of {suite!r} select no case; nothing was checked")
    return SuiteReport(suite, cases, list(failures), elapsed, failures.total)
