"""Branching decisions for the restriction from SO(N,1) to SO(N-1,1).

The multiplicity of one irreducible in the restriction of another is always
0 or 1, and equals 1 exactly when three conditions hold on the enhanced
parameters: equal signatures (with the discrete-series wildcard matching
either sign), the target height drops by at most one, and the theta-weights
interlace.  The rule factors into a test on the (height, signature) states,
``_states_match``, times a test on the theta-weights, ``interlaces``.
``multiplicity`` applies both to one pair; ``multiplicity_rows`` decides a
row of pairs by tabulating each test once per distinct state and distinct
weight and writing the state table into the blocks of the interlacing
weights; ``diagram`` tests its two shared weights once and then applies the
state half alone.  ``_states_match`` is the one statement of the state rule:
an ``Arrow`` and the candidate states of ``branch_states`` are checked by it
too.  Everything else in this module (enumeration, the tempered pairing
check) is derived from that single decision procedure.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import (
    GroupMismatchError,
    NotInterlacingError,
    NotTemperedError,
    OutOfRangeError,
)
from .reps import (
    DiscreteSeries,
    EnhancedParam,
    Signature,
    TemperedPS,
    enhanced_from_langlands,
    signatures_at,
    standard_sequence,
    theta_param_str,
)
from .values import Value, store
from .weights import (
    GroupTag, Weight, check_weight, count_interlacing, enumerate_interlacing, interlaces,
    interlacing_entries,
)


class Arrow(Value):
    """One nonzero symmetry-breaking direction between sequence members.

    The height keeps or drops by one: an arrow that ``_states_match`` refuses
    with both signatures the wildcard raises ``OutOfRangeError``.
    """

    __slots__ = ("from_height", "to_height", "source", "target")

    def __init__(
        self, from_height: int, to_height: int, source: EnhancedParam, target: EnhancedParam
    ) -> None:
        if not _states_match(from_height, Signature.BOTH, to_height, Signature.BOTH):
            raise OutOfRangeError(
                f"arrow {from_height} -> {to_height} must keep or drop the height by one"
            )
        store(self, "from_height", from_height)
        store(self, "to_height", to_height)
        store(self, "source", source)
        store(self, "target", target)


class FiniteDimComponent(Value):
    """One summand of a restricted finite-dimensional module.

    ``self_dual`` is False when the summand falls outside the self-dual
    family for the subgroup (possible only when N-1 is odd and the last
    entry of nu is positive); such components are listed but flagged.
    """

    __slots__ = ("nu", "sig", "self_dual")

    def __init__(self, nu: Weight, sig: Signature, self_dual: bool) -> None:
        store(self, "nu", nu)
        store(self, "sig", sig)
        store(self, "self_dual", self_dual)


def finite_dim_branch(
    group: GroupTag, lam: Weight, delta: Signature
) -> list[FiniteDimComponent]:
    """Restriction of the finite-dimensional module (lam, delta) to SO(N-1,1).

    The sum is multiplicity-free over the interlacing weights nu: for N even
    the chain is lam_1 >= nu_1 >= ... >= lam_m >= nu_m >= 0 with equal ranks,
    for N odd it ends nu_m >= lam_{m+1} with nu one entry shorter.  The sign
    label delta is inherited by every component.
    """
    check_weight(lam, group)
    sub = group.subgroup
    return [
        FiniteDimComponent(nu, delta, not any(nu.entries[sub.free_rank:]))
        for nu in enumerate_interlacing(lam, sub.rank)
    ]


def _states_match(height: int, sig: Signature, sub_height: int, sub_sig: Signature) -> bool:
    """The (height, signature) half of the rule: the signatures match (BOTH
    is a wildcard) and the height drops by 0 or 1."""
    d = height - sub_height
    return (d == 0 or d == 1) and sig.matches(sub_sig)


def _mismatch_error(big: EnhancedParam, small: EnhancedParam) -> GroupMismatchError:
    return GroupMismatchError(f"{small.group} is not the rank-one subgroup of {big.group}")


def multiplicity(big: EnhancedParam, small: EnhancedParam) -> int:
    """Multiplicity (0 or 1) of ``small`` in the restriction of ``big``.

    Equals 1 iff the signatures match (BOTH is a wildcard), the height drops
    by 0 or 1, and the theta-weights interlace.
    """
    if small.group.N != big.group.N - 1:
        raise _mismatch_error(big, small)
    if not _states_match(big.height, big.sig, small.height, small.sig):
        return 0
    return 1 if interlaces(big.s, small.s) else 0


def multiplicity_rows(
    bigs: Iterable[EnhancedParam], smalls: Iterable[EnhancedParam]
) -> Iterator[bytes]:
    """Yield ``bytes(multiplicity(big, q) for q in smalls)`` for each big, in order.

    The smalls are indexed once by their distinct (height, signature) states
    and distinct theta-weights, and each row is laid out weight-major: the
    cell of weight w and state k is w * S + k, for S states.  A cell is 1
    only where the big's weight interlaces w, so each big weight (tabulated
    again only when it changes) keeps just the starts w * S of the weights it
    interlaces, and each distinct big (height, signature) decides the S
    states once per call.  Those weights are found one of two ways, picked
    by the closed-form ``count_interlacing``: when the big weight has at
    most as many interlacing weights as there are distinct small weights,
    each of them (``interlacing_entries``) is looked up among the smalls';
    otherwise each small weight is tested with ``interlaces``, so a big
    weight with huge entries never enumerates its targets.  A row is a zeroed
    ``bytearray(W * S)`` with that state vector sliced into each interlacing
    weight's block.  When the smalls are exactly that product in that order,
    every weight with the same states in the same order (as
    ``oracle.grid_enhanced`` lists them), the table is the row; any other
    order, repeat or subset of smalls reads the row from the table at each
    small's cell.  Each row is immutable ``bytes`` (``list(row)`` is the
    list of 0/1 multiplicities), so rows are written and compared in C and
    no write can reach a later row.  A small outside the big's rank-one
    subgroup raises ``multiplicity``'s ``GroupMismatchError``, naming the
    first such small.
    """
    smalls = list(smalls)
    states: dict[tuple[int, Signature], int] = {}
    weights: dict[tuple[int, ...], int] = {}  # the entries of each distinct small weight
    nus: list[Weight] = []  # the distinct small weights, in the order of ``weights``
    firsts: dict[int, EnhancedParam] = {}  # the first small of each group's N
    for q in smalls:
        states.setdefault((q.height, q.sig), len(states))
        if q.s.entries not in weights:
            weights[q.s.entries] = len(nus)
            nus.append(q.s)
        firsts.setdefault(q.group.N, q)
    S = len(states)
    cell_of = [weights[q.s.entries] * S + states[q.height, q.sig] for q in smalls]
    size = len(weights) * S
    in_order = cell_of == list(range(size))
    matches: dict[tuple[int, Signature], bytes] = {}
    entries = starts = None
    for big in bigs:
        for q in firsts.values():
            if q.group.N != big.group.N - 1:
                raise _mismatch_error(big, q)
        s = big.s
        if s.entries != entries:
            entries = s.entries
            if not nus:  # nothing to find, and SO(2,1) has no subgroup to ask
                starts = []
            elif count_interlacing(s, big.group.subgroup.free_rank) <= len(nus):
                found = map(weights.get, interlacing_entries(s, big.group.subgroup))
                starts = [w * S for w in found if w is not None]
            else:
                starts = [w * S for w, nu in enumerate(nus) if interlaces(s, nu)]
        key = (big.height, big.sig)
        match = matches.get(key)
        if match is None:
            match = matches[key] = bytes(
                1 if _states_match(*key, h, sig) else 0 for h, sig in states
            )
        table = bytearray(size)
        for start in starts:
            table[start : start + S] = match
        yield bytes(table) if in_order else bytes(map(table.__getitem__, cell_of))


def branch_states(
    sub: GroupTag, height: int, sig: Signature
) -> list[tuple[int, Signature]]:
    """(height, signature) pairs on ``sub`` that a parameter of this height
    and signature restricts to, in the order ``branch_enumerate`` yields them.

    The candidates are the admissible states of ``sub`` at heights
    height - 1 and height; ``_states_match`` decides which of them are kept.
    The pairs do not depend on the theta-weight.
    """
    return [
        (h, s)
        for h in (height - 1, height)
        if 0 <= h <= sub.top_height
        for s in signatures_at(sub, h)
        if _states_match(height, sig, h, s)
    ]


def branch_enumerate(big: EnhancedParam) -> Iterator[EnhancedParam]:
    """All subgroup parameters occurring in the restriction of ``big``.

    Streams, without filtering, the cross product of the interlacing weights
    (lexicographically decreasing) with the admissible (height, signature)
    pairs of ``branch_states``; discrete-series targets appear once, with
    the wildcard signature.  The weights are those of ``interlacing_entries``,
    each built once.
    """
    sub = big.group.subgroup
    states = branch_states(sub, big.height, big.sig)
    for nu in map(Weight, interlacing_entries(big.s, sub)):
        for h, sig in states:
            yield EnhancedParam(sub, nu, h, sig)


def branch_count(big: EnhancedParam) -> int:
    """Closed-form length of the ``branch_enumerate`` stream of ``big``."""
    sub = big.group.subgroup
    return count_interlacing(big.s, sub.free_rank) * len(branch_states(sub, big.height, big.sig))


class Diagram(Value):
    """Two standard sequences, ``top`` on a group and ``bottom`` on its
    rank-one subgroup, and the ``arrows`` between them, as tuples."""

    __slots__ = ("top", "bottom", "arrows")

    def __init__(self, top: Iterable[EnhancedParam], bottom: Iterable[EnhancedParam],
                 arrows: Iterable[Arrow]) -> None:
        store(self, "top", tuple(top))
        store(self, "bottom", tuple(bottom))
        store(self, "arrows", tuple(arrows))

    def to_json(self) -> dict:
        return {
            "group": str(self.top[0].group),
            "subgroup": str(self.bottom[0].group),
            "top": [e.to_json() for e in self.top],
            "bottom": [e.to_json() for e in self.bottom],
            "arrows": [[a.from_height, a.to_height] for a in self.arrows],
        }

    def render(self) -> str:
        """Aligned ASCII view of the two sequences and their arrows."""
        labels_g = [theta_param_str(e) for e in self.top]
        labels_h = [theta_param_str(e) for e in self.bottom]
        width = max(len(t) for t in labels_g + labels_h) + 2
        top = "".join(t.ljust(width) for t in labels_g).rstrip()
        bottom = "".join(t.ljust(width) for t in labels_h).rstrip()
        marks = [" "] * (width * len(labels_g))
        for a in self.arrows:
            i = a.from_height
            if a.to_height == i:
                marks[i * width] = "|"
            else:  # to_height == i - 1: arrow drops one column to the left
                marks[i * width - width // 2] = "/"
        return "\n".join([top, "".join(marks).rstrip(), bottom])


def diagram(group: GroupTag, s: Weight, s_sub: Weight, sig: Signature) -> Diagram:
    """The standard sequences of s on ``group`` and of s_sub on its subgroup,
    both starting with signature ``sig``, each built once, and every nonzero
    symmetry-breaking arrow between them: exactly the pairs the decision
    procedure accepts, top member by top member.  The weights must
    interlace, otherwise already the finite-dimensional members admit no
    nonzero map and the request is rejected.  Every top member has weight s
    and every bottom one s_sub, so ``_states_match`` alone then decides each
    pair (member i sits at height i).
    """
    sub = group.subgroup
    check_weight(s, group)
    check_weight(s_sub, sub)
    if not interlaces(s, s_sub):
        raise NotInterlacingError(
            f"weights {s} and {s_sub} do not interlace; the diagram is empty"
        )
    seq_g = standard_sequence(group, s, sig)
    seq_h = standard_sequence(sub, s_sub, sig)
    arrows = [
        Arrow(i, j, top, bottom)
        for i, top in enumerate(seq_g)
        for j, bottom in enumerate(seq_h)
        if _states_match(i, top.sig, j, bottom.sig)
    ]
    return Diagram(seq_g, seq_h, arrows)


def sb_diagram(group: GroupTag, s: Weight, s_sub: Weight, sig: Signature) -> list[Arrow]:
    """The arrows of ``diagram(group, s, s_sub, sig)``, as a list."""
    return list(diagram(group, s, s_sub, sig).arrows)


def gp_tempered_check(big: TemperedPS, small: DiscreteSeries) -> bool:
    """Nonvanishing test for a tempered pair at top height.

    ``big`` must be a tempered principal series of SO(2m+1,1) and ``small``
    a discrete series of SO(2m,1); the answer is the interlacing of their
    theta-weights, as produced by the general decision procedure.  Whether
    the pair is nontrivial on the centers is the caller's responsibility.
    """
    if not isinstance(big, TemperedPS):
        raise NotTemperedError(f"expected a tempered principal series, got {big!r}")
    if not isinstance(small, DiscreteSeries):
        raise NotTemperedError(f"expected a discrete series, got {small!r}")
    return multiplicity(enhanced_from_langlands(big), enhanced_from_langlands(small)) == 1
