"""Periods, distinguished representations, and exact period values.

A pair (big, small) over adjacent groups carries a nonzero invariant
functional exactly when the branching decision accepts it.  Parameters with
an all-zero tail behind the bar are the cohomologically induced modules;
they are distinguished for a smaller Lorentz subgroup, witnessed here by an
explicit chain of one-step branchings.  For the family with most regular
behaviour the exact value of the period on the canonical vector of the
minimal K-type is a sign times a rational times a quarter-power of pi, and
is computed in exact arithmetic.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

from .branching import branch_enumerate, branch_states
from .errors import BadTargetError, NotAqLambdaError, OutOfRangeError
from .reps import EnhancedParam, Signature, signatures_at
from .values import Value, store
from .weights import GroupTag, Weight


class AqDescriptor(Value):
    """Cohomological induction data behind a parameter with all-zero tail.

    The parabolic index equals the height ``i``; the inducing degree is
    i(n-i), and the Levi factor is SO(2)^i x SO(n-2i+1,1).
    """

    __slots__ = ("group", "i", "lambda_part")

    def __init__(self, group: GroupTag, i: int, lambda_part: Weight) -> None:
        store(self, "group", group)
        store(self, "i", i)
        store(self, "lambda_part", lambda_part)

    @property
    def inducing_degree(self) -> int:
        return self.i * (self.group.n - self.i)

    @property
    def levi(self) -> tuple[int, int]:
        """(number of SO(2) factors, M of the residual SO(M,1) factor)."""
        return (self.i, self.group.n - 2 * self.i + 1)

    def to_json(self) -> dict:
        so2, rest = self.levi
        return {
            "group": str(self.group),
            "i": self.i,
            "lambda": self.lambda_part.to_json(),
            "inducing_degree": self.inducing_degree,
            "levi": f"SO(2)^{so2} x SO({rest},1)",
        }


class PeriodValue(Value):
    """Exact value sign * rational * pi^(pi_quarters/4); ``rational`` is a ``Fraction``."""

    __slots__ = ("sign", "rational", "pi_quarters")

    def __init__(self, sign: int, rational, pi_quarters: int) -> None:
        if sign not in (1, -1) or rational <= 0:
            raise OutOfRangeError(
                f"period value needs sign +-1 and a positive rational, "
                f"got {sign} and {rational}"
            )
        store(self, "sign", sign)
        store(self, "rational", rational)
        store(self, "pi_quarters", pi_quarters)

    def pretty(self) -> str:
        parts = []
        if self.rational != 1 or self.pi_quarters == 0:
            parts.append(str(self.rational))
        if self.pi_quarters != 0:
            g = math.gcd(self.pi_quarters, 4)
            num, den = self.pi_quarters // g, 4 // g
            if self.pi_quarters == 4:
                parts.append("π")
            elif den == 1:
                parts.append(f"π^{num}")
            else:
                parts.append(f"π^{{{num}/{den}}}")
        text = "·".join(parts)
        return f"-{text}" if self.sign < 0 else text

    def to_json(self) -> dict:
        return {
            "sign": self.sign,
            "num": str(self.rational.numerator),
            "den": str(self.rational.denominator),
            "pi_quarters": self.pi_quarters,
            "pretty": self.pretty(),
        }


class KTypeLabel(Value):
    """Minimal K-type: the degree-``degree`` exterior power of C^ambient, trivial O(1) part."""

    __slots__ = ("degree", "ambient")

    def __init__(self, degree: int, ambient: int) -> None:
        store(self, "degree", degree)
        store(self, "ambient", ambient)

    @property
    def dimension(self) -> int:
        return math.comb(self.ambient, self.degree)

    def pretty(self) -> str:
        return f"Λ^{self.degree}(C^{self.ambient}) ⊠ 1"

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "ambient": self.ambient,
            "dimension": self.dimension,
            "pretty": self.pretty(),
        }


def is_aq_lambda(e: EnhancedParam) -> Optional[AqDescriptor]:
    """Recognize parameters whose theta-weight vanishes behind the bar."""
    if any(x != 0 for x in e.s.entries[e.height :]):
        return None
    return AqDescriptor(e.group, e.height, Weight(e.s.entries[: e.height]))


def distinguished_subgroup(e: EnhancedParam) -> GroupTag:
    """The subgroup SO(n+1-height, 1) for which an all-zero-tail parameter is distinguished."""
    if is_aq_lambda(e) is None:
        raise NotAqLambdaError(f"{e} has nonzero entries behind the bar")
    return GroupTag(e.group.n + 1 - e.height)


@lru_cache(maxsize=1024)
def _chain_states(
    N: int, height: int, M: int, psi: Signature
) -> tuple[frozenset[tuple[int, Signature]], ...]:
    """Entry k: the (height, signature) pairs on SO(M + k, 1) from which k
    one-step branchings reach height 0 with sign ``psi``, for a chain that
    starts at this height on SO(N, 1).

    Built level by level from the target up to SO(N, 1) with the same rule
    as ``branch_enumerate`` (``branch_states``).  Heights never grow along a
    chain and drop by at most one per step, so only heights up to
    min(k, height) are tried.  The table depends on nothing but the four
    arguments, so it is cached.
    """
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


def distinguishing_chain(
    big: EnhancedParam, target: GroupTag, psi: Signature
) -> Optional[list[EnhancedParam]]:
    """Chain big -> ... -> chi_psi of the target group, or None.

    Returns the full node path (starting at ``big``, ending at the
    one-dimensional parameter of sign ``psi`` on the target) with every
    consecutive multiplicity equal to 1.  Under the branching rule the
    theta-weight moves independently of the (height, signature) pair, so a
    node on SO(N,1) reaches chi_psi on SO(M,1) in t = N - M steps exactly
    when both hold:

    (a) weight: s_j = 0 for every 1-based j > t.  Taking nu_k = mu_(k+1)
        at each step is always admissible and componentwise minimal;
    (b) height and signature: the pair reaches (0, psi) on SO(M,1) through
        the admissible one-step moves (a small table over (N, h, sig)).

    The search returns None at once when ``big`` fails the test; otherwise
    it takes at each level the first feasible target of ``branch_enumerate``
    (lexicographically largest weight first), so the witness is the
    lexicographically first chain and the cost is O((N - M) x branching).
    A chain certifies stepwise nonvanishing of each factor, not of the
    composed functional.
    """
    if psi is Signature.BOTH:
        raise BadTargetError("psi must be a definite sign")
    if target.N > big.group.N:
        raise BadTargetError(f"{target} is not a subgroup of {big.group}")
    good = _chain_states(big.group.N, big.height, target.N, psi)

    def feasible(node: EnhancedParam) -> bool:
        steps = node.group.N - target.N
        return not any(node.s.entries[steps:]) and (node.height, node.sig) in good[steps]

    if not feasible(big):
        return None
    chain = [big]
    while chain[-1].group.N > target.N:
        chain.append(next(nxt for nxt in branch_enumerate(chain[-1]) if feasible(nxt)))
    return chain


def period_value(n: int, i: int) -> PeriodValue:
    """Exact period value on the canonical minimal K-type vector.

    For the height-i member over SO(n+1,1) with sign +, the SO(n+1-i,1)
    period of the canonical vector equals
    pi^(i(2n-i-1)/4) / ((n-i)!)^(i-1) times 1/(n-2i)! below the middle
    (2i < n+1) and times (-1)^(n+1) (2i-n-1)! at or above it.
    """
    if not 0 <= i <= n:
        raise OutOfRangeError(f"period_value needs 0 <= i <= n, got i={i}, n={n}")
    if n < 1:
        raise OutOfRangeError(f"period_value needs n >= 1 (SO(n+1,1)), got n={n}")
    from fractions import Fraction  # fractions and decimal: about 2.4 ms to import

    quarters = i * (2 * n - i - 1)
    base = Fraction(math.factorial(n - i)) ** (1 - i)
    if 2 * i < n + 1:
        return PeriodValue(1, base / math.factorial(n - 2 * i), quarters)
    sign = -1 if n % 2 == 0 else 1  # (-1)^(n+1)
    return PeriodValue(sign, base * math.factorial(2 * i - n - 1), quarters)


def minimal_k_type_trivial_rho(n: int, i: int) -> KTypeLabel:
    """Minimal K-type of the height-i, sign-+ member over SO(n+1,1): Λ^i(C^(n+1))."""
    if not 0 <= i <= n + 1:
        raise OutOfRangeError(
            f"minimal_k_type_trivial_rho needs 0 <= i <= n+1, got i={i}, n={n}"
        )
    if n < 1:
        raise OutOfRangeError(f"minimal_k_type_trivial_rho needs n >= 1 (SO(n+1,1)), got n={n}")
    return KTypeLabel(i, n + 1)
