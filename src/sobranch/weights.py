"""Exact weight vectors, interlacing, and compact Weyl dimensions.

This is the arithmetic substrate for the whole package.  Half-integers are
stored doubled, so every value in this module is a plain Python integer and
every computation is exact; no floats appear anywhere.
"""

from __future__ import annotations

import re
from itertools import product
from math import prod
from typing import Iterator, Sequence

from .errors import (
    InvariantError,
    NotMonotoneError,
    NotSelfDualError,
    OutOfRangeError,
    RankMismatchError,
    WrongRankError,
)
from .values import Ordered, store

_GROUP_RE = re.compile(r"SO\(\s*(\d+)\s*,\s*1\s*\)")
_INT_ONLY = frozenset((int,))
_GROUPS: dict[int, "GroupTag"] = {}  # the shared GroupTag of each N


class GroupTag(Ordered):
    """The Lorentz group SO(N,1); its rank-one subgroup is SO(N-1,1).

    N is the one field: repr, equality, hash, ordering and pickling see N
    alone.  ``GroupTag(N)`` returns one shared object per N (the table
    keeps one small object for each N ever asked for), built once with its
    derived numbers as plain attributes:

    * ``n = N - 1``, the dimension parameter of the maximal compact part;
    * ``rank = (N + 1) // 2``, the number of entries of a highest weight or
      theta-weight;
    * ``free_rank = N // 2``, the entries of a theta-weight that may be
      nonzero (for N odd the last entry is 0: self-duality);
    * ``top_height = N // 2``, the largest height, attained exactly by the
      tempered parameters;
    * ``is_even``, whether N is even.

    Pickling and copying return the shared object.  Instances of a subclass
    are built afresh and never equal a ``GroupTag``.
    """

    __slots__ = ("N", "n", "rank", "free_rank", "top_height", "is_even")

    def __new__(cls, N: int) -> "GroupTag":
        # The type test comes first: 5.0 and True would find the entry of 5 and 1.
        if type(N) is not int:
            raise OutOfRangeError(
                f"SO({N!r},1) not supported; N must be an int, not {type(N).__name__}"
            )
        if cls is GroupTag:
            g = _GROUPS.get(N)
            if g is not None:
                return g
        if N < 2:
            raise OutOfRangeError(f"SO({N},1) not supported; need N >= 2")
        g = object.__new__(cls)
        store(g, "N", N)
        store(g, "n", N - 1)
        store(g, "rank", (N + 1) // 2)
        store(g, "free_rank", N // 2)
        store(g, "top_height", N // 2)
        store(g, "is_even", N % 2 == 0)
        # setdefault: a thread that lost a race still returns the shared object
        return _GROUPS.setdefault(N, g) if cls is GroupTag else g

    def _astuple(self) -> tuple:
        return (self.N,)

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(N={self.N!r})"

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self.N == other.N
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.N,))

    @property
    def subgroup(self) -> "GroupTag":
        return GroupTag(self.N - 1)

    @staticmethod
    def parse(text: str) -> "GroupTag":
        m = _GROUP_RE.fullmatch(text.strip())
        if m is None:
            raise OutOfRangeError(f"cannot parse group {text!r}; expected 'SO(N,1)'")
        return GroupTag(int(m.group(1)))

    def __str__(self) -> str:
        return f"SO({self.N},1)"


class Weight(Ordered):
    """Weakly decreasing vector of nonnegative integers."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]) -> None:
        e = entries
        # Each check runs in C; their order picks the message: type, then sign,
        # then order.  ``sorted`` sees only plain ints; its last entry is the minimum.
        if not _INT_ONLY.issuperset(map(type, e)):
            raise NotMonotoneError(f"weight entries must be integers: {e}")
        descending = sorted(e, reverse=True)
        if descending and descending[-1] < 0:
            raise NotMonotoneError(f"weight entries must be nonnegative: {e}")
        if list(e) != descending:
            raise NotMonotoneError(f"weight entries must be weakly decreasing: {e}")
        store(self, "entries", tuple(e))

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.entries,))

    @property
    def rank(self) -> int:
        return len(self.entries)

    def to_json(self) -> list[int]:
        return list(self.entries)

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.entries) + ")"


def zero_weight(rank: int) -> Weight:
    return Weight((0,) * rank)


def validate_weight(entries: Sequence[int], group: GroupTag) -> Weight:
    """Check a weight vector against the conventions for SO(N,1).

    The vector must have rank (N+1)//2 and be weakly decreasing and
    nonnegative integers (no floats, no bools: ``Weight`` rejects them).
    For N odd the trailing entry must vanish (self-duality of the
    finite-dimensional anchor); for N even there is no extra constraint.
    """
    return check_weight(Weight(tuple(entries)), group)


def check_weight(w: Weight, group: GroupTag) -> Weight:
    """``validate_weight`` for an already constructed ``Weight``; returns it."""
    if len(w.entries) != group.rank:
        raise WrongRankError(
            f"weight {w} has rank {w.rank}, but {group} needs rank {group.rank}"
        )
    # Entries decrease, so the first one past free_rank is the largest of them.
    if group.free_rank < group.rank and w.entries[group.free_rank]:
        raise NotSelfDualError(
            f"weight {w} for {group}: trailing entry must vanish when N is odd"
        )
    return w


def interlaces(mu: Weight, nu: Weight) -> bool:
    """Alternating chain mu_1 >= nu_1 >= mu_2 >= nu_2 >= ... to the end.

    Ranks must satisfy rank(nu) in {rank(mu), rank(mu)-1}.  With equal ranks
    the chain ends ... >= mu_p >= nu_p (>= 0 automatically); with
    rank(nu) = rank(mu)-1 it ends ... >= nu_{p-1} >= mu_p.
    """
    m = mu.entries
    n = nu.entries
    p = len(m)
    q = len(n)
    if q != p and q != p - 1:
        raise RankMismatchError(
            f"rank(nu)={q} must be rank(mu)={p} or {p - 1} for interlacing"
        )
    for k in range(q):
        if n[k] > m[k]:
            return False
        if k + 1 < p and n[k] < m[k + 1]:
            return False
    return True


def _interlacing_ranges(mu: Weight, target_rank: int) -> list[range]:
    """Entry k of a nu of the given rank interlacing mu ranges independently
    over mu_k down to mu_{k+1} (0 beyond the end of mu), decreasing.

    The target rank must be rank(mu) or rank(mu) - 1.
    """
    m = mu.entries
    p = len(m)
    if target_rank not in (p, p - 1):
        raise RankMismatchError(
            f"target rank {target_rank} must be {p} or {p - 1} for mu of rank {p}"
        )
    return [range(m[k], (m[k + 1] if k + 1 < p else 0) - 1, -1) for k in range(target_rank)]


def enumerate_interlacing(mu: Weight, target_rank: int) -> Iterator[Weight]:
    """Yield every nu of the given rank interlacing mu, lexicographically
    decreasing: the product of the ranges of ``_interlacing_ranges``."""
    for combo in product(*_interlacing_ranges(mu, target_rank)):
        yield Weight(combo)


def interlacing_entries(mu: Weight, sub: GroupTag) -> Iterator[tuple[int, ...]]:
    """Entry tuples of the weights of ``sub`` that interlace mu, lexicographically
    decreasing: the product of the ranges of ``_interlacing_ranges`` on the
    ``sub.free_rank`` entries that may be nonzero, and on an odd subgroup
    its trailing 0 appended.  mu must be a weight of the group above ``sub``."""
    combos = product(*_interlacing_ranges(mu, sub.free_rank))
    if sub.rank > sub.free_rank:
        return (combo + (0,) for combo in combos)
    return combos


def count_interlacing(mu: Weight, target_rank: int) -> int:
    """Closed-form size of the enumerate_interlacing stream: the product of
    the lengths of the ranges of ``_interlacing_ranges``."""
    # r.start - r.stop, not len(r), which overflows past sys.maxsize
    return prod(r.start - r.stop for r in _interlacing_ranges(mu, target_rank))


def weyl_dim(N: int, lam: Sequence[int]) -> int:
    """Exact dimension of the irreducible SO(N) module with highest weight lam.

    Product formula over the positive roots of types B (N odd) and D (N even),
    evaluated as one big-integer quotient of the numerator and denominator
    products.  Entries must be integers (no floats, no bools).  For N even
    the last entry may be negative; the two mirror-image modules have equal
    dimension.
    """
    if N < 1:
        raise OutOfRangeError(f"weyl_dim needs N >= 1, got {N}")
    rank = N // 2
    lam = tuple(lam)
    if any(type(x) is not int for x in lam):
        raise NotMonotoneError(f"SO({N}) weight entries must be integers: {lam}")
    if len(lam) != rank:
        raise WrongRankError(f"SO({N}) weight needs rank {rank}, got {len(lam)}")
    if rank == 0:
        return 1
    body, last = lam[:-1], abs(lam[-1])
    lam = body + (last,)
    if any(x < 0 for x in body) or any(
        lam[k] < lam[k + 1] for k in range(rank - 1)
    ):
        raise NotMonotoneError(f"SO({N}) weight must be weakly decreasing: {lam}")

    if N % 2 == 1:
        # Type B: doubled coordinates l_i = 2(lam_i + rank - i) + 1 stay integral.
        ell = [2 * (lam[i] + rank - 1 - i) + 1 for i in range(rank)]
        rho = [2 * (rank - 1 - i) + 1 for i in range(rank)]
        num, den = 1, 1
        for i in range(rank):
            num *= ell[i]
            den *= rho[i]
    else:
        # Type D: l_i = lam_i + rank - i; short-root factor absent.
        ell = [lam[i] + rank - 1 - i for i in range(rank)]
        rho = [rank - 1 - i for i in range(rank)]
        num, den = 1, 1
    for i in range(rank):
        for j in range(i + 1, rank):
            num *= ell[i] ** 2 - ell[j] ** 2
            den *= rho[i] ** 2 - rho[j] ** 2
    dim, rest = divmod(num, den)
    if rest or dim <= 0:
        raise InvariantError(f"SO({N}) dimension of {lam} came out as {num}/{den}")
    return dim
