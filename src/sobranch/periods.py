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
import sys
from typing import Optional

from .branching import branch_states
from .errors import BadTargetError, NotAqLambdaError, OutOfRangeError
from .reps import EnhancedParam, Signature
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
            num, den = self.rational.numerator, self.rational.denominator
            parts.append(_decimal(num) if den == 1 else f"{_decimal(num)}/{_decimal(den)}")
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
            "num": _decimal(self.rational.numerator),
            "den": _decimal(self.rational.denominator),
            "pi_quarters": self.pi_quarters,
            "pretty": self.pretty(),
        }


def _decimal(x: int, what: str = "period value") -> str:
    """``str(x)``, or ``OutOfRangeError`` past Python's digit limit for it."""
    try:
        return str(x)
    except ValueError:  # raised only by the limit, for an int
        raise _digit_limit_error(what) from None


def _digit_limit_error(what: str = "period value") -> OutOfRangeError:
    return OutOfRangeError(
        f"{what} has more than {sys.get_int_max_str_digits()} digits, "
        "the limit of Python's int-to-string conversion"
    )


def check_period_digits(n: int, i: int) -> None:
    """Raise the error ``_decimal`` would raise on ``period_value(n, i)``
    when its reduced numerator or denominator has more digits than the
    limit, before any factorial is formed.

    Below the middle (2i < n+1) the value is 1 / (((n-i)!)^(i-1) (n-2i)!).
    At or above it, it is a! / (b!)^(i-1) with a = 2i-n-1, b = n-i and
    i-1 = a+b.  If a <= b, a! divides b!, so the numerator reduces to 1.
    If a > b, every prime p <= b divides b!, and (i-1) v_p(b!) >= a >=
    v_p(a!), so the reduction removes every such prime from a! and no
    other: the reduced numerator is a! without its primes up to b, whose
    exponents are Legendre's sums.  When that is needed b is small, since
    the unreduced quotient (b!)^(a+b) / a! has already passed the check.
    The logs come from ``math.lgamma``; a slack of 1e-9 of their size
    absorbs the rounding, so no value that can be written is refused.
    Arguments ``period_value`` rejects are left to it.
    """
    limit = sys.get_int_max_str_digits()
    if limit == 0 or not 1 <= i <= n:
        return  # period_value(n, 0) is 1

    def log10_factorial(k: int) -> float:
        return math.lgamma(k + 1) / math.log(10)

    def refuse_past(digits: float, size: float) -> None:
        # a positive integer x has more than ``limit`` digits iff log10 x >= limit
        if digits >= limit + 1e-9 * (1 + size):
            raise _digit_limit_error()

    a, b = 2 * i - n - 1, n - i
    try:
        power = (i - 1) * log10_factorial(b)  # of ((n-i)!)^(i-1)
        other = log10_factorial(a if a >= 0 else n - 2 * i)  # of a! or (n-2i)!
    except OverflowError:  # n past about 10^305: every value at i >= 1 is far longer
        raise _digit_limit_error() from None
    size = power + other
    if a < 0:
        refuse_past(size, size)
        return
    refuse_past(abs(power - other), size)  # the larger reduced side is at least the quotient
    if a > b:
        sieve, shared = bytearray([1]) * (b + 1), 0.0
        for p in range(2, b + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, b + 1, p)))
                v, q = 0, a
                while q:
                    q //= p
                    v += q
                shared += v * math.log10(p)
        refuse_past(other - shared + max(power - other, 0), size)


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
        """The label, its dimension formed once, or ``OutOfRangeError`` when
        the dimension has more digits than ``_decimal`` can write.  The bound
        C(ambient, k) >= (ambient / k)^k, k = min(degree, ambient - degree),
        refuses one far past the limit before it is formed: it needs no float
        range, never refuses a writable value (given the slack of
        ``check_period_digits``), and what passes it has under 2.5 times the
        limit's digits."""
        what = "minimal K-type dimension"
        k = min(self.degree, self.ambient - self.degree)
        limit = sys.get_int_max_str_digits()
        if limit and k > 0:
            low = k * (math.log10(self.ambient) - math.log10(k))
            if low >= limit + 1e-9 * (1 + low):
                raise _digit_limit_error(what)
        dim = self.dimension
        _decimal(dim, what)  # json.dumps would fail on it the same way
        return {
            "degree": self.degree,
            "ambient": self.ambient,
            "dimension": dim,
            "pretty": self.pretty(),
        }


def is_aq_lambda(e: EnhancedParam) -> Optional[AqDescriptor]:
    """Recognize parameters whose theta-weight vanishes behind the bar."""
    if any(x != 0 for x in e.s.entries[e.height :]):
        return None
    return AqDescriptor(e.group, e.height, Weight(e.s.entries[: e.height]))


def distinguished_subgroup(e: EnhancedParam) -> GroupTag:
    """The subgroup SO(n+1-height, 1) for which an all-zero-tail parameter is distinguished.

    On SO(2,1) the discrete series, at height 1, would need SO(1,1), which
    is below the supported groups: that raises ``OutOfRangeError`` naming
    the parameter and its group.
    """
    if is_aq_lambda(e) is None:
        raise NotAqLambdaError(f"{e} has nonzero entries behind the bar")
    N = e.group.n + 1 - e.height
    if N < 2:
        raise OutOfRangeError(
            f"{e} of {e.group} has no distinguished subgroup: at height {e.height} it "
            f"would lie below SO(2,1), the smallest group supported"
        )
    return GroupTag(N)


def _reaches(N: int, h: int, sig: Signature, M: int, psi: Signature) -> bool:
    """Whether (h, sig) on SO(N, 1) reaches (0, psi) on SO(M, 1) through
    N - M one-step moves of ``branch_states``.

    A height drops by 0 or 1 per step, so h <= N - M is needed.  When the
    signs already match (the wildcard matches either), it is enough: drop
    the height each step until it is 0; every height on the way stays
    admissible, and a discrete-series slot met on the way may leave with
    either sign.  A definite sign changes only by passing through such a
    slot, height K/2 on an even SO(K, 1): it is the wildcard, and the next
    step picks the other sign.  From the slot the chain still has to drop
    to height 0 on SO(M, 1), so K >= 2M; and it can reach the slot only if
    K <= N - 1 (one step at least) and K/2 <= h (heights never grow).  An
    even K with 2M <= K <= min(N - 1, 2h) exists exactly when M <= h and
    2M < N.
    """
    return h <= N - M and (sig.matches(psi) or (M <= h and 2 * M < N))


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
        the admissible one-step moves, decided in closed form by
        ``_reaches``: h <= N - M, and either the signs match or the chain
        can pass a discrete-series slot (M <= h and 2M < N).

    The search returns None at once when ``big`` fails the test.  Otherwise
    each node is built from a formula, with t' the steps left after it and
    f the subgroup's ``free_rank``: its weight keeps the first min(t', f)
    entries of the parent's and is 0 after them, and its (height,
    signature) is the first pair of ``branch_states`` that still reaches
    (0, psi) in t' steps.
    That is the first feasible target ``branch_enumerate`` would yield
    (weights lexicographically decreasing, states inner), so the witness is
    the lexicographically first chain, and it costs N - M node
    constructions whatever the entries.  A chain certifies stepwise
    nonvanishing of each factor, not of the composed functional.
    """
    if psi is Signature.BOTH:
        raise BadTargetError("psi must be a definite sign")
    if target.N > big.group.N:
        raise BadTargetError(f"{target} is not a subgroup of {big.group}")
    M = target.N
    steps = big.group.N - M
    if any(big.s.entries[steps:]) or not _reaches(big.group.N, big.height, big.sig, M, psi):
        return None
    chain = [big]
    for left in range(steps - 1, -1, -1):
        node = chain[-1]
        sub = node.group.subgroup
        keep = min(left, sub.free_rank)
        nu = Weight(node.s.entries[:keep] + (0,) * (sub.rank - keep))
        h, sig = next(
            state for state in branch_states(sub, node.height, node.sig)
            if _reaches(sub.N, *state, M, psi)
        )
        chain.append(EnhancedParam(sub, nu, h, sig))
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

    if i == 0:  # ((n-i)!)^(1-i) / (n-2i)! is n!/n!: no factorial to form
        return PeriodValue(1, Fraction(1), 0)
    quarters = i * (2 * n - i - 1)
    # integer numerator and denominator, reduced once by Fraction
    den = math.factorial(n - i) ** (i - 1)
    if 2 * i < n + 1:
        return PeriodValue(1, Fraction(1, den * math.factorial(n - 2 * i)), quarters)
    sign = -1 if n % 2 == 0 else 1  # (-1)^(n+1)
    return PeriodValue(sign, Fraction(math.factorial(2 * i - n - 1), den), quarters)


def minimal_k_type_trivial_rho(n: int, i: int) -> KTypeLabel:
    """Minimal K-type of the height-i, sign-+ member over SO(n+1,1): Λ^i(C^(n+1))."""
    if not 0 <= i <= n + 1:
        raise OutOfRangeError(
            f"minimal_k_type_trivial_rho needs 0 <= i <= n+1, got i={i}, n={n}"
        )
    if n < 1:
        raise OutOfRangeError(f"minimal_k_type_trivial_rho needs n >= 1 (SO(n+1,1)), got n={n}")
    return KTypeLabel(i, n + 1)
