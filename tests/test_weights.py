import copy
import pickle
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sobranch import (
    EnhancedParam,
    GroupTag,
    Signature,
    Weight,
    enumerate_interlacing,
    interlaces,
    validate_weight,
    weyl_dim,
)
from sobranch.errors import (
    NotMonotoneError,
    NotSelfDualError,
    OutOfRangeError,
    RankMismatchError,
    WrongRankError,
)
from sobranch.weights import count_interlacing

from conftest import (
    brute_interlacing,
    recursive_so_dim,
    reference_weight_error,
    reference_weyl_dim,
    so3_dim,
    so4_dim,
    so5_dim,
)


def W(*entries):
    return Weight(tuple(entries))


class TestGroupTag:
    def test_parse_and_str(self):
        g = GroupTag.parse("SO(5,1)")
        assert g.N == 5 and str(g) == "SO(5,1)"

    def test_derived_quantities(self):
        g = GroupTag(5)
        assert (g.n, g.rank, g.top_height, g.is_even) == (4, 3, 2, False)
        g = GroupTag(4)
        assert (g.n, g.rank, g.top_height, g.is_even) == (3, 2, 2, True)

    def test_one_shared_object_per_n(self):
        for N in range(2, 65):
            g = GroupTag(N)
            assert GroupTag(N) is g and GroupTag.parse(str(g)) is g
            if N > 2:
                assert g.subgroup is GroupTag(N - 1)
            for twin in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
                assert twin is g
        assert copy.deepcopy([GroupTag(5)])[0] is GroupTag(5)

    def test_derived_numbers_match_their_formulas(self):
        for N in range(2, 65):
            g = GroupTag(N)
            assert (g.N, g.n, g.rank, g.top_height, g.is_even) == (
                N, N - 1, (N + 1) // 2, N // 2, N % 2 == 0
            )
            assert type(g.is_even) is bool
            assert g.free_rank == N // 2 == g.rank - (not g.is_even)

    def test_subclass_instances_are_not_shared(self):
        twin_cls = type("Twin", (GroupTag,), {})
        twin = twin_cls(5)
        assert twin is not twin_cls(5) and twin == twin_cls(5)
        assert twin != GroupTag(5) and GroupTag(5) is not twin
        assert (twin.rank, twin.top_height, twin.subgroup) == (3, 2, GroupTag(4))

    def test_rejects_a_non_int(self):
        for N in (True, False, 5.0, 5.5, "7", None):
            with pytest.raises(OutOfRangeError, match="N must be an int"):
                GroupTag(N)
        assert GroupTag(5).rank == 3  # a rejected 5.0 left the entry of 5 alone

    def test_rejects_small_n(self):
        with pytest.raises(OutOfRangeError):
            GroupTag(1)
        with pytest.raises(OutOfRangeError):
            GroupTag.parse("SO(2,2)")


class TestValidateWeight:
    def test_zero_weight(self):
        assert validate_weight((0, 0, 0), GroupTag(5)) == W(0, 0, 0)

    def test_self_dual_ok(self):
        assert validate_weight((1, 1, 0), GroupTag(5)) == W(1, 1, 0)

    def test_not_self_dual(self):
        with pytest.raises(NotSelfDualError):
            validate_weight((1, 1, 1), GroupTag(5))

    def test_even_group_free_last_entry(self):
        assert validate_weight((2, 1), GroupTag(4)) == W(2, 1)

    def test_rejects_bad_shapes(self):
        with pytest.raises(WrongRankError):
            validate_weight((1, 0), GroupTag(5))
        with pytest.raises(NotMonotoneError):
            validate_weight((0, 1, 0), GroupTag(5))
        with pytest.raises(NotMonotoneError):
            validate_weight((1, 0, -1), GroupTag(5))

    def test_rejects_bool_entries(self):
        with pytest.raises(NotMonotoneError):
            Weight((True, False))

    @pytest.mark.parametrize("entries", [(1.9, 0.5, 0), (True, False, False)])
    def test_rejects_non_int_entries(self, entries):
        # No truncation to (1, 0, 0): the entries are passed through as given.
        with pytest.raises(NotMonotoneError):
            validate_weight(entries, GroupTag(5))


INTEGERS = "weight entries must be integers: "
NONNEGATIVE = "weight entries must be nonnegative: "
DECREASING = "weight entries must be weakly decreasing: "


class TestWeightErrors:
    """``Weight`` reports the first of its faults: type, then sign, then order."""

    @pytest.mark.parametrize(
        "entries, prefix",
        [
            ((1.5,), INTEGERS),
            ((2, 1.0), INTEGERS),
            ((True,), INTEGERS),
            ((1, False), INTEGERS),
            (("2", "1"), INTEGERS),
            ((-1,), NONNEGATIVE),
            ((3, 0, -2), NONNEGATIVE),
            ((1, 2), DECREASING),
            ((0, 1, 0), DECREASING),
            ((-1, 2), NONNEGATIVE),  # sign before order
            ((1.5, -1), INTEGERS),  # type before sign
            ((-1, 0.5, 3), INTEGERS),  # type before sign and order
            ([1, 2], DECREASING),
            ([-1, 2], NONNEGATIVE),
        ],
    )
    def test_message(self, entries, prefix):
        with pytest.raises(NotMonotoneError) as exc:
            Weight(entries)
        assert str(exc.value) == f"{prefix}{entries}"

    @pytest.mark.parametrize("entries", [(), (0,), (3, 3, 1, 0), [2, 1]])
    def test_accepts(self, entries):
        assert tuple(Weight(entries).entries) == tuple(entries)

    def test_list_argument_equals_tuple(self):
        # A list used to be kept as given: unequal to the tuple weight, and unhashable.
        w = Weight([2, 1])
        assert w == Weight((2, 1)) and hash(w) == hash(Weight((2, 1)))
        assert type(w.entries) is tuple
        e = EnhancedParam(GroupTag(4), w, 1, Signature.PLUS)
        table = {e: "found"}
        assert table[EnhancedParam(GroupTag(4), Weight((2, 1)), 1, Signature.PLUS)] == "found"

    def test_matches_reference_loops(self):
        # Every tuple of up to three mixed values raises what the old loops raised.
        values = [-1, 0, 1, 2, 1.5, True, "x"]
        for k in range(4):
            for entries in product(values, repeat=k):
                want = reference_weight_error(entries)
                try:
                    Weight(entries)
                    got = None
                except NotMonotoneError as exc:
                    got = str(exc)
                assert got == want, entries


class TestInterlaces:
    def test_examples(self):
        assert interlaces(W(1, 0), W(1)) is True
        assert interlaces(W(0, 0), W(0)) is True
        assert interlaces(W(1, 0), W(2)) is False

    def test_equal_rank_chain(self):
        assert interlaces(W(3, 1), W(2, 0)) is True
        assert interlaces(W(3, 1), W(2, 2)) is False  # nu_2 > mu_2

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            interlaces(W(1, 0), W(1, 0, 0))


class TestEnumerateInterlacing:
    def test_examples(self):
        assert [w.entries for w in enumerate_interlacing(W(1, 0), 1)] == [(1,), (0,)]
        assert [w.entries for w in enumerate_interlacing(W(0, 0, 0), 2)] == [(0, 0)]
        assert [w.entries for w in enumerate_interlacing(W(1, 1, 0), 2)] == [(1, 1), (1, 0)]

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            list(enumerate_interlacing(W(1, 0), 3))
        with pytest.raises(RankMismatchError):
            count_interlacing(W(1, 0), 3)

    def test_count_past_maxsize(self):
        # len() of a range this long raises OverflowError
        huge = 10**30
        assert count_interlacing(W(huge, 0), 1) == huge + 1
        assert count_interlacing(W(huge, 7, 0), 3) == (huge - 6) * 8

    @given(
        mu=st.lists(st.integers(0, 4), min_size=1, max_size=4),
        drop=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, mu, drop):
        mu = Weight(tuple(sorted(mu, reverse=True)))
        target = mu.rank - 1 if drop else mu.rank
        if target == 0:
            got = [w.entries for w in enumerate_interlacing(mu, 0)]
            assert got == [()]
            return
        got = [w.entries for w in enumerate_interlacing(mu, target)]
        assert got == brute_interlacing(mu.entries, target)
        # stream/decision agreement and the closed-form count
        assert all(interlaces(mu, Weight(nu)) for nu in got)
        assert len(got) == count_interlacing(mu, target)
        # lexicographically decreasing, no repeats
        assert got == sorted(set(got), reverse=True)


class TestWeylDim:
    def test_spot_values(self):
        assert weyl_dim(5, (1, 0)) == 5
        assert weyl_dim(5, (1, 1)) == 10
        assert weyl_dim(4, (1, 1)) == 3

    def test_small_rank_closed_forms(self):
        for a in range(5):
            assert weyl_dim(3, (a,)) == so3_dim(a)
        for a in range(4):
            for b in range(-a, a + 1):
                assert weyl_dim(4, (a, b)) == so4_dim(a, abs(b))
        for a in range(4):
            for b in range(a + 1):
                assert weyl_dim(5, (a, b)) == so5_dim(a, b)

    def test_fundamental_exterior_powers(self):
        from math import comb

        for N in range(2, 13):
            for k in range(1, (N - 1) // 2 + 1):
                lam = (1,) * k + (0,) * (N // 2 - k)
                assert weyl_dim(N, lam) == comb(N, k)

    def test_chirality_independent(self):
        assert weyl_dim(8, (2, 2, 1, 1)) == weyl_dim(8, (2, 2, 1, -1))
        assert weyl_dim(6, (3, 1, 1)) == weyl_dim(6, (3, 1, -1))

    def test_against_recursive_restriction(self):
        cases = [
            (5, (2, 1)),
            (6, (2, 1, 1)),
            (6, (2, 1, -1)),
            (7, (2, 2, 1)),
            (8, (1, 1, 1, 1)),
            (9, (2, 1, 1, 0)),
        ]
        for N, lam in cases:
            assert weyl_dim(N, lam) == recursive_so_dim(N, lam)

    def test_trivial_groups(self):
        assert weyl_dim(1, ()) == 1
        assert weyl_dim(2, (5,)) == 1

    def test_validation(self):
        with pytest.raises(WrongRankError):
            weyl_dim(5, (1, 0, 0))
        with pytest.raises(NotMonotoneError):
            weyl_dim(5, (0, 1))

    @pytest.mark.parametrize("lam", [(1.9, 0), (2.0, 1), (True, False), (1, False), ("1", 0)])
    def test_rejects_non_integer_entries(self, lam):
        # int() used to truncate: weyl_dim(5, (1.9, 0)) returned 5, the dimension of (1, 0).
        with pytest.raises(NotMonotoneError, match="must be integers"):
            weyl_dim(5, lam)

    def test_matches_fraction_reference(self):
        # Every SO(N) highest weight with N <= 12 and entries bounded by 4,
        # both signs of the last entry when N is even.
        checked = 0
        for N in range(1, 13):
            rank = N // 2
            for lam in product(range(-4, 5), repeat=rank):
                body = lam[:-1] + (abs(lam[-1]),) if lam else ()
                if any(x < 0 for x in lam[:-1]) or (N % 2 and lam and lam[-1] < 0):
                    continue
                if any(body[k] < body[k + 1] for k in range(rank - 1)):
                    continue
                assert weyl_dim(N, lam) == reference_weyl_dim(N, lam), (N, lam)
                checked += 1
        assert checked == 922

    @given(
        n_half=st.integers(1, 4),
        entries=st.lists(st.integers(0, 3), min_size=4, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_positive_integer(self, n_half, entries):
        lam = tuple(sorted(entries, reverse=True))[:n_half]
        for N in (2 * n_half, 2 * n_half + 1):
            assert weyl_dim(N, lam) >= 1
