"""Representation descriptors and enhanced parameters for SO(N,1).

An irreducible representation with regular integral infinitesimal character
matching a self-dual finite-dimensional module is carried here in one of two
coordinate systems:

* a Langlands-style descriptor: finite-dimensional, nontempered (sigma,
  delta, lambda), tempered principal series (N odd), or discrete series
  (N even);
* an enhanced parameter (theta-weight, height, signature), where the height
  marks the bar position of the underlying cohomologically induced module
  and the signature flips under twisting by the nontrivial character.

The two share an infinitesimal character, and are related by a closed-form
dictionary: the height is the slot where the continuous parameter sorts
among the entries coming from sigma, and the theta-weight is sigma shifted
down by one above that slot, with one entry for the continuous parameter at
it (see ``enhanced_from_langlands`` and ``langlands_from_enhanced``).
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, Union

from .errors import (
    InvalidDescriptorError,
    InvalidEnhancedError,
    InvariantError,
    SingularInfCharError,
    WrongRankError,
)
from .weights import GroupTag, Weight, check_weight
from .values import Value, store


class Signature(Enum):
    """Sign invariant of a representation; BOTH is the discrete-series wildcard.

    The three members are singletons compared by identity, so they hash by
    identity too, in C; ``Enum``'s own hash of the member name is a Python
    call on every dict lookup of a (height, signature) state.
    """

    PLUS = "+"
    MINUS = "-"
    BOTH = "pm"

    __hash__ = object.__hash__

    def flipped(self) -> "Signature":
        """Effect of tensoring with the nontrivial character (fixes BOTH)."""
        if self is _PLUS:
            return _MINUS
        if self is _MINUS:
            return _PLUS
        return _BOTH

    def times_sign(self, exponent: int) -> "Signature":
        """Multiply by (-1)**exponent (fixes BOTH)."""
        return self.flipped() if exponent % 2 else self

    def matches(self, other: "Signature") -> bool:
        """Equality with BOTH matching either definite sign."""
        return self is other or self is _BOTH or other is _BOTH

    @staticmethod
    def parse(text: str) -> "Signature":
        table = {"+": Signature.PLUS, "-": Signature.MINUS, "pm": Signature.BOTH,
                 "+-": Signature.BOTH, "plus": Signature.PLUS, "minus": Signature.MINUS}
        key = text.strip()
        if key not in table:
            raise InvalidDescriptorError(f"cannot parse signature {text!r}")
        return table[key]

    def __str__(self) -> str:
        return self.value


# module-level: an enum class attribute lookup is slow
_PLUS, _MINUS, _BOTH = Signature.PLUS, Signature.MINUS, Signature.BOTH
_DS_SLOT = (_BOTH,)
_DEFINITE = (_PLUS, _MINUS)


def signatures_at(group: GroupTag, height: int) -> tuple[Signature, ...]:
    """Signatures a parameter of this height on ``group`` may carry.

    The discrete-series slot, the top height of an even-N group, carries
    only the wildcard; every other height carries both definite signs.
    This is the one place that knows where the slot is.
    """
    if group.is_even and height == group.top_height:
        return _DS_SLOT
    return _DEFINITE


def _require_definite(sig: Signature, what: str) -> None:
    """Refuse anything but the two definite signs, by identity."""
    if sig is not _PLUS and sig is not _MINUS:
        if sig is _BOTH:
            raise InvalidDescriptorError(f"{what} must be '+' or '-', not 'pm'")
        raise InvalidDescriptorError(
            f"{what} must be a Signature, not {type(sig).__name__} {sig!r}"
        )


def _require_int(lam: int) -> None:
    if type(lam) is not int:
        raise InvalidDescriptorError(f"lam must be an integer, got {lam!r}")


def _validate_sigma(group: GroupTag, sigma: Weight) -> None:
    half_n = group.n // 2
    if sigma.rank != half_n:
        raise WrongRankError(
            f"sigma {sigma} has rank {sigma.rank}; {group} needs rank {half_n}"
        )


class FiniteDim(Value):
    """Finite-dimensional module with highest weight s and sign label sig."""

    __slots__ = ("group", "s", "sig")

    def __init__(self, group: GroupTag, s: Weight, sig: Signature) -> None:
        check_weight(s, group)
        _require_definite(sig, "finite-dimensional signature")
        store(self, "group", group)
        store(self, "s", s)
        store(self, "sig", sig)


class Nontempered(Value):
    """Unique subrepresentation of the induced module I_delta(sigma, lam).

    lam is an int below the tempered wall 2*lam < n and off the reducibility
    walls lam = k - sigma_k (k from 1), which rise with k, so one scan stops at
    the first wall >= lam; for N odd, sigma must also be self-dual (last entry 0).
    """

    __slots__ = ("group", "sigma", "delta", "lam")

    def __init__(self, group: GroupTag, sigma: Weight, delta: Signature, lam: int) -> None:
        _validate_sigma(group, sigma)
        _require_definite(delta, "delta")
        n = group.n
        sig_e = sigma.entries
        if not group.is_even and sig_e and sig_e[-1] != 0:
            raise InvalidDescriptorError(
                f"sigma {sigma} must be self-dual (last entry 0) for {group}"
            )
        _require_int(lam)
        if 2 * lam >= n:
            raise InvalidDescriptorError(
                f"lam={lam} is not below the tempered wall n/2={n}/2"
            )
        for k, x in enumerate(sig_e, 1):
            if k - x >= lam:
                if k - x == lam:
                    raise SingularInfCharError(
                        f"lam={lam} hits a reducibility wall for sigma {sigma}"
                    )
                break
        store(self, "group", group)
        store(self, "sigma", sigma)
        store(self, "delta", delta)
        store(self, "lam", lam)


class TemperedPS(Value):
    """Tempered principal series of SO(N,1), N odd, at lam = n/2.

    sigma is stored with positive last entry, the canonical member of the
    mirror pair sigma <-> sigma^vee that induces isomorphic modules.
    """

    __slots__ = ("group", "sigma", "delta")

    def __init__(self, group: GroupTag, sigma: Weight, delta: Signature) -> None:
        if group.is_even:
            raise InvalidDescriptorError(
                f"tempered principal series requires N odd, got {group}"
            )
        _validate_sigma(group, sigma)
        _require_definite(delta, "delta")
        if sigma.entries[-1] <= 0:
            raise InvalidDescriptorError(
                f"tempered sigma must have positive last entry, got {sigma}"
            )
        store(self, "group", group)
        store(self, "sigma", sigma)
        store(self, "delta", delta)


class DiscreteSeries(Value):
    """Discrete series of SO(N,1), N even, with m <= lam <= m - 1 + sigma_{m-1}.

    The two square-integrable halves are isomorphic as modules for the
    two-component group, so a single descriptor represents the pair and its
    signature is the wildcard BOTH.
    """

    __slots__ = ("group", "sigma", "lam")

    def __init__(self, group: GroupTag, sigma: Weight, lam: int) -> None:
        if not group.is_even:
            raise InvalidDescriptorError(
                f"discrete series requires N even, got {group}"
            )
        _validate_sigma(group, sigma)
        _require_int(lam)
        m = group.N // 2
        if lam < m:
            raise InvalidDescriptorError(f"discrete series needs lam >= {m}, got {lam}")
        if sigma.rank >= 1 and lam > m - 1 + sigma.entries[-1]:
            raise InvalidDescriptorError(
                f"lam={lam} exceeds m-1+sigma_(m-1)={m - 1 + sigma.entries[-1]}"
            )
        store(self, "group", group)
        store(self, "sigma", sigma)
        store(self, "lam", lam)


RepDescriptor = Union[FiniteDim, Nontempered, TemperedPS, DiscreteSeries]


class EnhancedParam(Value):
    """Enhanced parameter (theta-weight, height, signature) of a representation.

    Invariants: 0 <= height <= floor(N/2); the signature is BOTH exactly when
    the parameter is the top-height discrete series of an even-N group;
    height 0 corresponds to the finite-dimensional members.
    """

    __slots__ = ("group", "s", "height", "sig")

    def __init__(self, group: GroupTag, s: Weight, height: int, sig: Signature) -> None:
        check_weight(s, group)
        if type(height) is not int:
            raise InvalidEnhancedError(f"height must be an integer, got {height!r}")
        top = group.top_height
        if not 0 <= height <= top:
            raise InvalidEnhancedError(
                f"height {height} outside [0, {top}] for {group}"
            )
        if sig not in signatures_at(group, height):
            if sig is _BOTH:
                raise InvalidEnhancedError(
                    "signature 'pm' only allowed at top height of an even-N group"
                )
            if type(sig) is not Signature:
                raise InvalidEnhancedError(
                    f"signature must be a Signature, not {type(sig).__name__} {sig!r}"
                )
            raise InvalidEnhancedError(
                f"top height {top} of {group} is the discrete series; signature must be 'pm'"
            )
        store(self, "group", group)
        store(self, "s", s)
        store(self, "height", height)
        store(self, "sig", sig)

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return (self.group, self.s, self.height, self.sig) == (
                other.group, other.s, other.height, other.sig
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.group, self.s, self.height, self.sig))

    def to_json(self) -> dict:
        return {
            "weight": self.s.to_json(),
            "height": self.height,
            "signature": self.sig.value,
        }

    def __str__(self) -> str:
        return theta_param_str(self)


def theta_param_str(e: EnhancedParam) -> str:
    """Bar notation (s_1,...,s_i || s_{i+1},...)_sig with the bar at the height."""
    head = ",".join(str(x) for x in e.s.entries[: e.height])
    tail = ",".join(str(x) for x in e.s.entries[e.height :])
    return f"({head}||{tail}){e.sig.value}"


def _char_slot(d: RepDescriptor) -> tuple[int, int]:
    """Slot of the continuous parameter among the doubled infinitesimal-character
    entries sorted decreasing, and its doubled entry a = |2 lam - n|: the walls
    2 sigma_k + n - 2k (k from 1) fall strictly, so one scan stops at the first
    wall <= a; the slot counts the walls above a, and a wall equal to a is refused."""
    n = d.group.n
    a = 0 if isinstance(d, TemperedPS) else abs(2 * d.lam - n)
    for slot, x in enumerate(d.sigma.entries):
        wall = 2 * (x - slot) + n - 2
        if wall <= a:
            if wall == a:
                raise SingularInfCharError(f"parameter hits a reducibility wall: repeated entry {a}/2")
            return slot, a
    return len(d.sigma.entries), a


def _slot_height_sig(d: RepDescriptor) -> tuple[int, int, int, Signature]:
    """``_char_slot`` of a descriptor that is not finite-dimensional, with
    its height and signature: the slot and delta * (-1)^(slot - lam) below
    the tempered wall, the top height and delta for the tempered principal
    series, the top height and the wildcard for the discrete series (whose
    entry always sorts last)."""
    slot, a = _char_slot(d)
    if isinstance(d, DiscreteSeries):
        return slot, a, d.group.top_height, _BOTH
    if isinstance(d, TemperedPS):
        return slot, a, d.group.top_height, d.delta
    return slot, a, slot, d.delta.times_sign(slot - d.lam)


def height(d: RepDescriptor) -> int:
    """Height of the descriptor: 0 for the finite-dimensional form, else the
    slot of its continuous parameter (the top for the discrete series)."""
    if isinstance(d, FiniteDim):
        return 0
    return _slot_height_sig(d)[2]


def signature(d: RepDescriptor) -> Signature:
    """Signature of the descriptor, the one ``enhanced_from_langlands`` gives."""
    if isinstance(d, FiniteDim):
        return d.sig
    return _slot_height_sig(d)[3]


def enhanced_from_langlands(d: RepDescriptor) -> EnhancedParam:
    """Enhanced parameter (theta-weight, height, signature) of a descriptor.

    With the continuous parameter at ``_char_slot`` position slot and doubled
    entry a, the theta-weight is sigma_k - 1 above the slot, slot + (a - n)/2
    at it and sigma_k below it; height and signature are those of
    ``_slot_height_sig``.
    """
    group = d.group
    if isinstance(d, FiniteDim):
        return EnhancedParam(group, d.s, 0, d.sig)
    slot, a, h, sig = _slot_height_sig(d)
    sig_e = d.sigma.entries
    ent = (*[x - 1 for x in sig_e[:slot]], slot + (a - group.n) // 2, *sig_e[slot:])
    if min(ent) < 0:
        raise InvalidDescriptorError(
            f"{d} does not match a self-dual finite-dimensional character"
        )
    return EnhancedParam(group, Weight(ent), h, sig)  # EnhancedParam checks the weight


def langlands_from_enhanced(e: EnhancedParam) -> RepDescriptor:
    """Invert enhanced_from_langlands; the unique descriptor with this parameter.

    Height 0 returns the finite-dimensional form.  Otherwise the entry s_h at
    the height h is skipped: sigma is s_k + 1 above it and s_k below it,
    lam = h - s_h and delta = sig * (-1)^(s_h); the discrete series, whose slot
    is the last, has lam = s_h + N/2.
    """
    group = e.group
    h = e.height
    if h == 0:
        return FiniteDim(group, e.s, e.sig)
    s = e.s.entries
    if e.sig is _BOTH:  # only the discrete-series slot carries the wildcard
        return DiscreteSeries(group, Weight(tuple([x + 1 for x in s[:-1]])), s[-1] + group.N // 2)
    sigma = Weight((*[x + 1 for x in s[:h]], *s[h + 1 :]))
    if h == group.top_height:
        # N odd tempered slot: the skipped entry is forced to 0, so lam = n/2.
        if s[h] != 0:
            raise InvariantError(f"tempered slot of {e} holds {s[h]}, not 0")
        return TemperedPS(group, sigma, e.sig)
    return Nontempered(group, sigma, e.sig.times_sign(s[h]), h - s[h])


def twist_chi_minus(e: EnhancedParam) -> EnhancedParam:
    """Tensor with the nontrivial character: flips the signature, fixes BOTH."""
    return EnhancedParam(e.group, e.s, e.height, e.sig.flipped())


def _member(group: GroupTag, s: Weight, sig0: Signature, step: int, i: int) -> EnhancedParam:
    """Member i, 0 <= i <= top, of a sequence of weight s: height i and signature
    sig0 * (-1)^(step*i + s_1 - s_{i+1}), the wildcard at the discrete-series slot."""
    if _BOTH in signatures_at(group, i):
        return EnhancedParam(group, s, i, _BOTH)
    return EnhancedParam(group, s, i, sig0.times_sign(step * i + s.entries[0] - s.entries[i]))


def _sequence(group: GroupTag, s: Weight, sig0: Signature, step: int) -> list[EnhancedParam]:
    """Members at heights 0..top of weight s (``_member``)."""
    _require_definite(sig0, "sig0")
    check_weight(s, group)
    return [_member(group, s, sig0, step, i) for i in range(group.top_height + 1)]


def hasse_member(group: GroupTag, s: Weight, sig0: Signature, i: int) -> EnhancedParam:
    """Member i of ``hasse_sequence(group, s, sig0)``, built alone."""
    _require_definite(sig0, "sig0")
    check_weight(s, group)
    if not 0 <= i <= group.top_height:
        raise InvalidEnhancedError(f"height {i} outside [0, {group.top_height}] for {group}")
    return _member(group, s, sig0, 1, i)


def hasse_sequence(group: GroupTag, s: Weight, sig0: Signature) -> list[EnhancedParam]:
    """Chain U_0, ..., U_top of parameters starting at the finite-dimensional one.

    Member i sits at height i with signature sig0 * (-1)^(i - s_{i+1} + s_1),
    normalized so that U_0 carries sig0; the top member is tempered (for N
    even it is the discrete series and carries the wildcard signature).
    """
    return _sequence(group, s, sig0, 1)


def standard_sequence(group: GroupTag, s: Weight, sig0: Signature) -> list[EnhancedParam]:
    """Hasse sequence with member i twisted by the i-th power of the sign
    character: member i carries sig0 * (-1)^(s_1 - s_{i+1})."""
    return _sequence(group, s, sig0, 0)


def enhanced_params(group: GroupTag, s: Weight) -> Iterator[EnhancedParam]:
    """The enhanced parameters of theta-weight s: every height from 0 to the
    top, each with the signatures ``signatures_at`` admits there ('+' before
    '-')."""
    for i in range(group.top_height + 1):
        for sig in signatures_at(group, i):
            yield EnhancedParam(group, s, i, sig)


def classify(group: GroupTag, s: Weight) -> list[RepDescriptor]:
    """All irreducibles sharing the infinitesimal character of the weight s.

    There are exactly n + 2 of them: every height below the top with both
    signatures, plus the tempered top (two principal series members for N
    odd, one discrete series for N even), each ``langlands_from_enhanced``
    of one of ``enhanced_params``.
    """
    out = [langlands_from_enhanced(e) for e in enhanced_params(group, s)]
    if len(out) != group.n + 2:
        raise InvariantError(f"classify found {len(out)} parameters for {group}, not n + 2")
    return out


def descriptor_to_json(d: RepDescriptor) -> dict:
    if isinstance(d, FiniteDim):
        return {
            "group": str(d.group),
            "variant": "finite",
            "weight": d.s.to_json(),
            "signature": d.sig.value,
        }
    if isinstance(d, Nontempered):
        return {
            "group": str(d.group),
            "variant": "nontempered",
            "sigma": d.sigma.to_json(),
            "delta": d.delta.value,
            "lambda": d.lam,
        }
    if isinstance(d, TemperedPS):
        return {
            "group": str(d.group),
            "variant": "tempered",
            "sigma": d.sigma.to_json(),
            "delta": d.delta.value,
        }
    return {
        "group": str(d.group),
        "variant": "discrete",
        "sigma": d.sigma.to_json(),
        "lambda": d.lam,
    }
