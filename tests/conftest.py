"""Shared brute-force oracles, independent of the package's code paths.

These deliberately re-derive answers by exhaustive enumeration or classical
closed forms so that test failures localize bugs: the library computes one
way, the oracle another.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import product
from math import factorial
from pathlib import Path

from sobranch import GroupTag, Weight, branch_enumerate, interlaces, multiplicity
from sobranch.errors import GroupMismatchError


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
            chi = node.height == 0 and node.s.is_zero() and node.sig is psi
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


def reference_chi_twist(bounds):
    """The per-pair chi-twist loop that ``oracle._suite_chi_twist`` replaced,
    kept as its reference: two engine calls per case.  ``multiplicity`` and
    ``twist_chi_minus`` are read from ``sobranch.oracle`` at call time, so a
    monkeypatched engine reaches the reference and the suite alike."""
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
