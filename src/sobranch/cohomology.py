"""Nonvanishing decisions for bilinear forms on relative Lie algebra cohomology.

A symmetry breaking operator between coefficient-matched representations
induces, degree by degree, a pairing between the cohomology of the big group
and the complementary-degree cohomology of the subgroup.  This module only
decides when such pairings are nonzero; it never computes cohomology
dimensions.
"""

from __future__ import annotations

from typing import Optional

from .branching import multiplicity
from .errors import OutOfRangeError
from .reps import EnhancedParam, Signature, hasse_member
from .values import Value, store
from .weights import GroupTag, Weight, zero_weight


class PairingDescriptor(Value):
    """One induced bilinear form between cohomology groups in complementary degrees.

    The left factor is the height-i member over SO(n+1,1) in degree j; the
    right factor lives on SO(n,1) in degree n-j and is recorded by its
    sequence label (index, sign), which is how the pairing statement names
    it.  ``rendering`` records which of the two published conventions
    produced the right-hand label.
    """

    __slots__ = (
        "n", "degree_j", "left", "left_coeff", "right_group",
        "right_index", "right_sig", "right_coeff", "nonzero", "rendering",
    )

    def __init__(
        self,
        n: int,
        degree_j: int,
        left: EnhancedParam,
        left_coeff: Weight,
        right_group: GroupTag,
        right_index: int,
        right_sig: Signature,
        right_coeff: Weight,
        nonzero: bool,
        rendering: str,
    ) -> None:
        store(self, "n", n)
        store(self, "degree_j", degree_j)
        store(self, "left", left)
        store(self, "left_coeff", left_coeff)
        store(self, "right_group", right_group)
        store(self, "right_index", right_index)
        store(self, "right_sig", right_sig)
        store(self, "right_coeff", right_coeff)
        store(self, "nonzero", nonzero)
        store(self, "rendering", rendering)

    @property
    def right_degree(self) -> int:
        return self.n - self.degree_j

    def to_json(self) -> dict:
        return {
            "degree": self.degree_j,
            "left": {
                "group": str(self.left.group),
                "param": self.left.to_json(),
                "coefficient": self.left_coeff.to_json(),
            },
            "right": {
                "group": str(self.right_group),
                "degree": self.right_degree,
                "label_index": self.right_index,
                "label_signature": self.right_sig.value,
                "coefficient": self.right_coeff.to_json(),
            },
            "nonzero": self.nonzero,
            "rendering": self.rendering,
        }


def bilinear_nonzero_trivial_rho(n: int, i: int, delta: Signature, j: int) -> bool:
    """Whether the induced pairing in degree j is nonzero for the height-i pair.

    The coefficient is the trivial module, so the pair is the height-i members
    of the zero-weight Hasse sequences from '+' on SO(n+1,1) and SO(n,1): True
    when delta is the big member's signature and ``bilinear_gate`` puts the
    pair in degree j, which is j == i and delta == (-1)^i.  The gate pins only
    the coefficient's weight and also accepts the twisted members: at n = 4,
    i = 1, delta = '+' it gives degree 1 and this table none.  n < 2 raises.
    """
    if not 0 <= 2 * i <= n:
        raise OutOfRangeError(f"need 0 <= i <= n/2, got i={i}, n={n}")
    if not 0 <= j <= n:
        raise OutOfRangeError(f"need 0 <= j <= n, got j={j}")
    if delta is Signature.BOTH:
        raise OutOfRangeError("delta must be a definite sign")
    big, small = (hasse_member(g, zero_weight(g.rank), Signature.PLUS, i)
                  for g in (GroupTag(n + 1), GroupTag(n)))
    return big.sig is delta and bilinear_gate(big, small, big.s, small.s) == j


def pairing_trivial_rho(
    n: int, i: int, delta: Signature, j: int, intro_rendering: bool = False
) -> PairingDescriptor:
    """Describe the pairing attached to the degree-j form for the height-i pair.

    Two published statements label the right-hand partner differently: the
    default uses index n-i with sign (-1)^n * delta, the alternate uses
    index i with sign (-1)^(n-1) * delta.  Both are exposed; the
    nonvanishing answer does not depend on the choice.
    """
    nonzero = bilinear_nonzero_trivial_rho(n, i, delta, j)
    group = GroupTag(n + 1)
    sub = GroupTag(n)
    if intro_rendering:
        right_index = i
        right_sig = delta.times_sign(n - 1)
        rendering = "intro"
    else:
        right_index = n - i
        right_sig = delta.times_sign(n)
        rendering = "section6"
    left = EnhancedParam(group, zero_weight(group.rank), i, delta)
    return PairingDescriptor(
        n=n,
        degree_j=j,
        left=left,
        left_coeff=zero_weight(group.rank),
        right_group=sub,
        right_index=right_index,
        right_sig=right_sig,
        right_coeff=zero_weight(sub.rank),
        nonzero=nonzero,
        rendering=rendering,
    )


def bilinear_gate(
    big: EnhancedParam, small: EnhancedParam, coeff_big: Weight, coeff_small: Weight
) -> Optional[int]:
    """Degree in which a symmetry breaking operator induces a nonzero pairing.

    Returns the common height when all three gate conditions hold, and
    None otherwise:

    * the branching multiplicity is 1 (``multiplicity`` raises for a
      ``small`` off the rank-one subgroup, whatever the coefficients);
    * the heights agree;
    * each coefficient weight is the theta-weight of its parameter.  Only
      the weight is pinned, so the coefficient may be F or F twisted by the
      nontrivial character, and the twisted members pass too;
      ``bilinear_nonzero_trivial_rho`` fixes the trivial coefficient.
    """
    if multiplicity(big, small) != 1 or big.height != small.height:
        return None
    if coeff_big != big.s or coeff_small != small.s:
        return None
    return big.height
