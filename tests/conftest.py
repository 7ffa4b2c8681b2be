"""Shared brute-force oracles, independent of the package's code paths.

These deliberately re-derive answers by exhaustive enumeration or classical
closed forms so that test failures localize bugs: the library computes one
way, the oracle another.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial
from pathlib import Path

from sobranch import GroupTag, Weight, branch_enumerate, interlaces, multiplicity
from sobranch.branching import branch_states
from sobranch.errors import (
    GroupMismatchError,
    InvalidDescriptorError,
    InvalidEnhancedError,
    InvariantError,
    NotMonotoneError,
    SingularInfCharError,
)
from sobranch.reps import (
    DiscreteSeries,
    EnhancedParam,
    FiniteDim,
    Nontempered,
    Signature,
    TemperedPS,
    signatures_at,
)
from sobranch.weights import enumerate_interlacing, validate_weight, zero_weight


def brute_interlacing(mu: tuple[int, ...], target_rank: int) -> list[tuple[int, ...]]:
    """All nu of the given rank with mu_1 >= nu_1 >= mu_2 >= ... by raw filtering."""
    bound = mu[0] if mu else 0
    out = []
    for nu in product(range(bound, -1, -1), repeat=target_rank):
        ok = True
        for k in range(target_rank):
            if nu[k] > mu[k]:
                ok = False
                break
            if k + 1 < len(mu) and nu[k] < mu[k + 1]:
                ok = False
                break
        if ok:
            out.append(nu)
    return out


@lru_cache(maxsize=None)
def _brute_interlacing_set(mu: tuple[int, ...], target_rank: int) -> frozenset:
    return frozenset(brute_interlacing(mu, target_rank))


def reference_multiplicity(big, small) -> int:
    """The three-condition rule written out directly: signatures equal or
    one of them the wildcard, height drop 0 or 1, and the weights interlace
    (by raw filtering)."""
    if small.group.N != big.group.N - 1:
        raise GroupMismatchError(f"{small.group} is not the rank-one subgroup of {big.group}")
    both = Signature.BOTH
    return int(
        (big.sig == small.sig or both in (big.sig, small.sig))
        and big.height - small.height in (0, 1)
        and small.s.entries in _brute_interlacing_set(big.s.entries, small.group.rank)
    )


def so3_dim(a: int) -> int:
    return 2 * a + 1


def so4_dim(a: int, b: int) -> int:
    # so(4) = sl(2) x sl(2); highest weight (a, b) with a >= |b|
    return (a + b + 1) * (a - b + 1)


def so5_dim(a: int, b: int) -> int:
    return (a - b + 1) * (a + b + 2) * (2 * a + 3) * (2 * b + 1) // 6


def recursive_so_dim(N: int, lam: tuple[int, ...]) -> int:
    """Dimension of the SO(N) module by restricting all the way down to SO(2).

    Uses the classical one-step rule re-implemented here by brute filtering,
    so it shares no code with the package's product formula.
    """
    k = N // 2
    assert len(lam) == k
    if N <= 2:
        return 1
    if N % 2 == 1:
        # nu_i in [mu_{i+1}, mu_i], last entry signed within [-mu_k, mu_k]
        ranges = [range(lam[i], lam[i + 1] - 1, -1) for i in range(k - 1)]
        ranges.append(range(lam[k - 1], -lam[k - 1] - 1, -1))
    else:
        body = lam[:-1] + (abs(lam[-1]),)
        ranges = [range(body[i], body[i + 1] - 1, -1) for i in range(k - 1)]
    return sum(recursive_so_dim(N - 1, nu) for nu in product(*ranges))


def period_formula(n: int, i: int) -> tuple[int, Fraction, int]:
    """(sign, rational, quarter power) by direct substitution in the closed form."""
    quarters = i * (2 * n - i - 1)
    lead = Fraction(1, factorial(n - i) ** (i - 1)) if i >= 1 else Fraction(factorial(n))
    if 2 * i < n + 1:
        value = lead / factorial(n - 2 * i)
        sign = 1
    else:
        value = lead * factorial(2 * i - n - 1)
        sign = (-1) ** (n + 1)
    return sign, abs(value), quarters


def reference_weyl_dim(N: int, lam: tuple[int, ...]) -> int:
    """The rational-arithmetic Weyl dimension formula that ``weyl_dim``
    replaced with one integer quotient, kept as its reference: every root
    factor is multiplied in as a ``Fraction``."""
    rank = N // 2
    assert len(lam) == rank
    if rank == 0:
        return 1
    lam = lam[:-1] + (abs(lam[-1]),)
    dim = Fraction(1)
    if N % 2 == 1:
        ell = [2 * (lam[i] + rank - 1 - i) + 1 for i in range(rank)]
        rho = [2 * (rank - 1 - i) + 1 for i in range(rank)]
        for i in range(rank):
            dim *= Fraction(ell[i], rho[i])
    else:
        ell = [lam[i] + rank - 1 - i for i in range(rank)]
        rho = [rank - 1 - i for i in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            dim *= Fraction(ell[i] ** 2 - ell[j] ** 2, rho[i] ** 2 - rho[j] ** 2)
    assert dim.denominator == 1 and dim > 0
    return int(dim)


def theta_weights(group: GroupTag, max_entry: int) -> list[Weight]:
    """Exhaustive theta-weight grid, independent of the package's generator."""
    free = group.rank if group.is_even else group.rank - 1
    out = []
    for combo in product(range(max_entry, -1, -1), repeat=free):
        if all(combo[i] >= combo[i + 1] for i in range(free - 1)):
            entries = combo if group.is_even else combo + (0,)
            out.append(Weight(entries))
    return out


def reference_so_weights(N: int, max_entry: int) -> list[tuple[int, ...]]:
    """Compact SO(N) highest weights with |entries| <= max_entry by raw filtering,
    sorted lex decreasing on the absolute values, each positive last entry of
    an even N just before its mirror."""
    k = N // 2
    out = []
    for w in product(range(max_entry, -max_entry - 1, -1), repeat=k):
        norm = w[:-1] + (abs(w[-1]),)
        if min(w[:-1], default=0) < 0 or (N % 2 and w[-1] < 0):
            continue
        if all(norm[i] >= norm[i + 1] for i in range(k - 1)):
            out.append(w)
    return sorted(out, key=lambda w: (*w[:-1], abs(w[-1]), w[-1]), reverse=True)


def src_env() -> dict:
    """Environment for a child interpreter that imports sobranch from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def reference_chain(big, target, psi):
    """The exhaustive search that ``distinguishing_chain`` replaced, kept as
    its reference: depth first over every target of ``branch_enumerate``,
    memoized on the visited parameters, first success wins."""
    memo = {}

    def search(node):
        if node.group.N == target.N:
            chi = node.height == 0 and node.s == zero_weight(node.group.rank) and node.sig is psi
            return (node,) if chi else None
        if node in memo:
            return memo[node]
        result = None
        for nxt in branch_enumerate(node):
            tail = search(nxt)
            if tail is not None:
                result = (node,) + tail
                break
        memo[node] = result
        return result

    found = search(big)
    return None if found is None else list(found)


def reference_branch_enumerate(big):
    """The filter-after-enumeration body that ``branch_enumerate`` replaced,
    kept as its reference: every interlacing weight of the subgroup's full
    rank, dropping those outside its self-dual family (an odd subgroup's
    weights end in 0)."""
    sub = big.group.subgroup
    states = branch_states(sub, big.height, big.sig)
    for nu in enumerate_interlacing(big.s, sub.rank):
        if not sub.is_even and nu.entries[-1] != 0:
            continue
        for h, sig in states:
            yield EnhancedParam(sub, nu, h, sig)


@lru_cache(maxsize=None)
def reference_chain_states(N, height, M, psi):
    """The level-by-level table that ``periods._reaches`` replaced with a
    closed form, kept as its reference.  Entry k: the (height, signature)
    pairs on SO(M + k, 1) from which k one-step branchings (``branch_states``)
    reach height 0 with sign ``psi``, for a chain that starts at this height
    on SO(N, 1); heights never grow and drop by at most one per step, so only
    heights up to min(k, height) are tried."""
    good = [frozenset({(0, psi)})]
    for k in range(1, N - M + 1):
        level, below = GroupTag(M + k), good[-1]
        sub = level.subgroup
        good.append(frozenset(
            (h, sig)
            for h in range(min(level.top_height, k, height) + 1)
            for sig in signatures_at(level, h)
            if any(state in below for state in branch_states(sub, h, sig))
        ))
    return tuple(good)


def reference_greedy_chain(big, target, psi):
    """The greedy descent that ``distinguishing_chain`` replaced with a
    closed-form node, kept as its reference: the feasibility test of
    ``reference_chain_states``, then at each level the first feasible
    target of ``branch_enumerate``."""
    good = reference_chain_states(big.group.N, big.height, target.N, psi)

    def feasible(node):
        steps = node.group.N - target.N
        return not any(node.s.entries[steps:]) and (node.height, node.sig) in good[steps]

    if not feasible(big):
        return None
    chain = [big]
    while chain[-1].group.N > target.N:
        chain.append(next(nxt for nxt in branch_enumerate(chain[-1]) if feasible(nxt)))
    return chain


def reference_chi_twist(bounds):
    """The per-pair chi-twist loop that ``oracle._suite_chi_twist`` replaced,
    kept as its reference: two engine calls per case.  ``multiplicity`` and
    ``twist_chi_minus`` are read from ``sobranch.oracle`` at call time, and
    ``multiplicity`` and the suite's ``multiplicity_rows`` both decide the
    states with ``branching._states_match``, so a monkeypatched twist or
    state rule reaches the reference and the suite alike."""
    from sobranch import oracle

    max_group = int(bounds.get("max_group", 11))
    max_entry = int(bounds.get("max_entry", 4))
    cases, failures = 0, []
    for N in range(3, max_group + 1):
        big_params = oracle.grid_enhanced(GroupTag(N), max_entry)
        small_params = oracle.grid_enhanced(GroupTag(N - 1), max_entry)
        twisted_small = [oracle.twist_chi_minus(p) for p in small_params]
        for big in big_params:
            tbig = oracle.twist_chi_minus(big)
            for small, tsmall in zip(small_params, twisted_small):
                cases += 1
                if oracle.multiplicity(big, small) != oracle.multiplicity(tbig, tsmall):
                    failures.append({"big": repr(big), "small": repr(small)})
    return cases, failures


def reference_bilinear_gate(big, small, coeff_big, coeff_small):
    """The five-condition gate that ``cohomology.bilinear_gate`` replaced,
    kept as its reference: coefficients match the theta-weights, the
    coefficients interlace, equal heights, matching signatures, and
    multiplicity 1."""
    if small.group.N != big.group.N - 1:
        raise GroupMismatchError(f"{small.group} is not the rank-one subgroup of {big.group}")
    if coeff_big != big.s or coeff_small != small.s:
        return None
    if not interlaces(coeff_big, coeff_small):
        return None
    if big.height != small.height:
        return None
    if not big.sig.matches(small.sig):
        return None
    if multiplicity(big, small) != 1:
        return None
    return big.height


def reference_weight_error(e) -> str | None:
    """The message ``Weight(e)`` raised before its one-pass check, kept as
    its reference: three loops, type before sign before order."""
    if any(type(x) is not int for x in e):
        return f"weight entries must be integers: {e}"
    if any(x < 0 for x in e):
        return f"weight entries must be nonnegative: {e}"
    if any(e[k] < e[k + 1] for k in range(len(e) - 1)):
        return f"weight entries must be weakly decreasing: {e}"
    return None


# The conversions through the doubled infinitesimal character, which
# ``sobranch.reps`` replaced with the closed-form dictionary, kept as their
# reference: a tagged sort for the slot, the rho-shift one position at a
# time, sigma rebuilt entry by entry, and the interval test through a helper.


def _reference_doubled_rho_shift(group, j):
    # doubled value of n/2 + 1 - j at 1-based position j
    return group.n + 2 - 2 * j


def reference_char_slots(d):
    group = d.group
    n = group.n
    if isinstance(d, (Nontempered, TemperedPS, DiscreteSeries)):
        sigma = d.sigma
        if isinstance(d, TemperedPS):
            lam2 = n
        else:
            lam2 = 2 * d.lam
        sig_part = [2 * sigma.entries[k] + n - 2 * (k + 1) for k in range(sigma.rank)]
        lam_entry = abs(lam2 - n)
        if lam_entry in sig_part:
            raise SingularInfCharError(
                f"parameter hits a reducibility wall: repeated entry {lam_entry}/2"
            )
        tagged = sorted([(v, 0) for v in sig_part] + [(lam_entry, 1)], reverse=True)
        slot = next(i for i, (_, tag) in enumerate(tagged) if tag == 1)
        return [v for v, _ in tagged], slot
    raise TypeError(f"no character slots for {type(d).__name__}")


def reference_height_by_insertion(d):
    if isinstance(d, FiniteDim):
        return 0
    if isinstance(d, DiscreteSeries):
        return d.group.top_height
    return reference_char_slots(d)[1]


def reference_height_by_intervals(d):
    if isinstance(d, FiniteDim):
        return 0
    if isinstance(d, (TemperedPS, DiscreteSeries)):
        return d.group.top_height
    sig_e = d.sigma.entries

    def sigma_at(k):
        return sig_e[k - 1] if 1 <= k <= len(sig_e) else 0

    hits = []
    for i in range(d.group.top_height):
        below = True if i == 0 else d.lam > i - sigma_at(i)
        above = d.lam < i + 1 - sigma_at(i + 1)
        if below and above:
            hits.append(i)
    if len(hits) != 1:
        raise InvalidDescriptorError(
            f"height intervals select {hits} for lam={d.lam}, sigma={d.sigma}"
        )
    return hits[0]


def reference_signature(d):
    if isinstance(d, FiniteDim):
        return d.sig
    if isinstance(d, TemperedPS):
        return d.delta
    if isinstance(d, DiscreteSeries):
        return Signature.BOTH
    return d.delta.times_sign(reference_height_by_insertion(d) - d.lam)


def reference_enhanced_from_langlands(d):
    group = d.group
    if isinstance(d, FiniteDim):
        return EnhancedParam(group, d.s, 0, d.sig)
    doubled, slot = reference_char_slots(d)
    ent = []
    for j in range(group.rank):
        v = doubled[j] - _reference_doubled_rho_shift(group, j + 1)
        if v < 0 or v % 2:
            raise InvalidDescriptorError(
                f"{d} does not match a self-dual finite-dimensional character"
            )
        ent.append(v // 2)
    try:
        weight = validate_weight(ent, group)
    except NotMonotoneError as exc:
        raise InvalidDescriptorError(str(exc)) from exc
    if isinstance(d, DiscreteSeries):
        return EnhancedParam(group, weight, group.top_height, Signature.BOTH)
    if isinstance(d, TemperedPS):
        return EnhancedParam(group, weight, group.top_height, d.delta)
    return EnhancedParam(group, weight, slot, d.delta.times_sign(slot - d.lam))


def reference_langlands_from_enhanced(e):
    group = e.group
    n = group.n
    top = group.top_height
    if e.height == 0:
        return FiniteDim(group, e.s, e.sig)
    a_doubled = [
        2 * e.s.entries[j] + _reference_doubled_rho_shift(group, j + 1)
        for j in range(group.rank)
    ]

    def sigma_from(skip):
        vals = []
        for k in range(group.rank):
            if k == skip:
                continue
            pos = len(vals)
            v = a_doubled[k] - n + 2 * (pos + 1)
            if v < 0 or v % 2:
                raise InvariantError(f"sigma entry {v}/2 of {e} is not a nonnegative integer")
            vals.append(v // 2)
        return Weight(tuple(vals))

    if e.sig is Signature.BOTH:
        lam = (a_doubled[-1] + n) // 2
        return DiscreteSeries(group, sigma_from(group.rank - 1), lam)
    lam2 = n - a_doubled[e.height]
    if lam2 % 2:
        raise InvalidEnhancedError(f"non-integral lam for {e}")
    lam = lam2 // 2
    sigma = sigma_from(e.height)
    if e.height == top:
        if a_doubled[e.height] != 0:
            raise InvariantError(f"tempered slot of {e} holds {a_doubled[e.height]}/2, not 0")
        return TemperedPS(group, sigma, e.sig)
    return Nontempered(group, sigma, e.sig.times_sign(e.height - lam), lam)


# The sequence builders before each member was built once: the Hasse
# sequence through the full EnhancedParam checks, then every member twisted
# i times by the sign character, with the discrete-series slot spelled out
# here rather than taken from ``signatures_at``.


def reference_hasse_sequence(group, s, sig0):
    out = []
    for i in range(group.top_height + 1):
        if group.is_even and i == group.top_height:
            sig = Signature.BOTH
        else:
            sig = sig0.times_sign(i - s.entries[i] + s.entries[0])
        out.append(EnhancedParam(group, s, i, sig))
    return out


def reference_standard_sequence(group, s, sig0):
    out = []
    for i, u in enumerate(reference_hasse_sequence(group, s, sig0)):
        sig = u.sig
        for _ in range(i):
            sig = sig.flipped()
        out.append(EnhancedParam(group, u.s, u.height, sig))
    return out
