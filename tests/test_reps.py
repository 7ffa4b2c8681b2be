import copy
import pickle
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from sobranch import (
    DiscreteSeries,
    EnhancedParam,
    FiniteDim,
    GroupTag,
    Nontempered,
    Signature,
    TemperedPS,
    Weight,
    classify,
    enhanced_from_langlands,
    hasse_sequence,
    height,
    langlands_from_enhanced,
    signature,
    standard_sequence,
    twist_chi_minus,
    zero_weight,
)
from sobranch.errors import (
    InvalidDescriptorError,
    InvalidEnhancedError,
    NotSelfDualError,
    SingularInfCharError,
    WrongRankError,
)
from sobranch.oracle import _height_by_intervals, grid_weights
from sobranch.reps import (
    descriptor_to_json,
    enhanced_params,
    hasse_member,
    theta_param_str,
)
from sobranch.values import store

from conftest import (
    reference_char_slots,
    reference_enhanced_from_langlands,
    reference_height_by_insertion,
    reference_hasse_sequence,
    reference_height_by_intervals,
    reference_langlands_from_enhanced,
    reference_signature,
    reference_standard_sequence,
    theta_weights,
)

P, M, B = Signature.PLUS, Signature.MINUS, Signature.BOTH


def W(*entries):
    return Weight(tuple(entries))


def enhanced_grid(max_group=7, max_entry=2):
    for N in range(2, max_group + 1):
        group = GroupTag(N)
        for s in grid_weights(group, max_entry):
            for i in range(group.top_height + 1):
                if group.is_even and i == group.top_height:
                    yield EnhancedParam(group, s, i, B)
                else:
                    yield EnhancedParam(group, s, i, P)
                    yield EnhancedParam(group, s, i, M)


class TestSignature:
    def test_flip_and_match(self):
        assert P.flipped() is M and M.flipped() is P and B.flipped() is B
        assert P.matches(B) and B.matches(M) and not P.matches(M)

    def test_times_sign(self):
        assert P.times_sign(3) is M and P.times_sign(4) is P and B.times_sign(1) is B

    @pytest.mark.parametrize("sig", [P, M, B])
    def test_hash_survives_copy_and_pickle(self, sig):
        # Members hash by identity; a copy or an unpickled member is the same
        # member, so it keeps its hash and finds its dict entries.
        table = {s: s.value for s in Signature}
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(sig, protocol))
            assert back is sig and hash(back) == hash(sig) and table[back] == sig.value
        for back in (copy.copy(sig), copy.deepcopy(sig), copy.deepcopy({sig: 1}).popitem()[0]):
            assert back is sig and hash(back) == hash(sig)


class TestDescriptorValidation:
    def test_nontempered_needs_self_dual_sigma_for_odd_n(self):
        # N odd (n even): last sigma entry must vanish
        with pytest.raises(InvalidDescriptorError):
            Nontempered(GroupTag(5), W(2, 1), P, 0)

    def test_nontempered_below_tempered_wall(self):
        with pytest.raises(InvalidDescriptorError):
            Nontempered(GroupTag(5), W(1, 0), P, 2)  # lam = n/2

    def test_nontempered_reducibility_wall(self):
        with pytest.raises(SingularInfCharError):
            Nontempered(GroupTag(5), W(1, 0), P, 0)  # lam = 1 - sigma_1

    def test_tempered_requires_odd_group_and_positive_tail(self):
        with pytest.raises(InvalidDescriptorError):
            TemperedPS(GroupTag(4), W(1), P)
        with pytest.raises(InvalidDescriptorError):
            TemperedPS(GroupTag(5), W(1, 0), P)

    def test_discrete_series_window(self):
        # N=6 gives m=3, so the window is 3 <= lam <= 2 + sigma_2
        DiscreteSeries(GroupTag(6), W(2, 1), 3)
        DiscreteSeries(GroupTag(6), W(2, 2), 4)
        with pytest.raises(InvalidDescriptorError):
            DiscreteSeries(GroupTag(6), W(2, 1), 2)  # lam < m
        with pytest.raises(InvalidDescriptorError):
            DiscreteSeries(GroupTag(6), W(2, 1), 4)  # lam > m - 1 + sigma_{m-1}
        with pytest.raises(InvalidDescriptorError):
            DiscreteSeries(GroupTag(5), W(1, 0), 2)  # N odd

    def test_discrete_series_so21_no_upper_bound(self):
        DiscreteSeries(GroupTag(2), W(), 7)

    @pytest.mark.parametrize("build, error, message", [
        (lambda: FiniteDim(GroupTag(4), W(0, 0), "+"), InvalidDescriptorError,
         "finite-dimensional signature must be a Signature, not str '+'"),
        (lambda: FiniteDim(GroupTag(4), W(0, 0), B), InvalidDescriptorError,
         "finite-dimensional signature must be '+' or '-', not 'pm'"),
        (lambda: TemperedPS(GroupTag(5), W(1, 1), "-"), InvalidDescriptorError,
         "delta must be a Signature, not str '-'"),
        (lambda: Nontempered(GroupTag(5), W(1, 0), None, -1), InvalidDescriptorError,
         "delta must be a Signature, not NoneType None"),
        (lambda: hasse_sequence(GroupTag(4), W(0, 0), "+"), InvalidDescriptorError,
         "sig0 must be a Signature, not str '+'"),
        (lambda: hasse_member(GroupTag(4), W(0, 0), 1, 0), InvalidDescriptorError,
         "sig0 must be a Signature, not int 1"),
        (lambda: EnhancedParam(GroupTag(4), W(0, 0), 0, "+"), InvalidEnhancedError,
         "signature must be a Signature, not str '+'"),
        (lambda: EnhancedParam(GroupTag(4), W(0, 0), 2, "pm"), InvalidEnhancedError,
         "signature must be a Signature, not str 'pm'"),
        (lambda: EnhancedParam(GroupTag(4), W(0, 0), 2, P), InvalidEnhancedError,
         "top height 2 of SO(4,1) is the discrete series; signature must be 'pm'"),
        (lambda: Nontempered(GroupTag(5), W(1, 0), P, True), InvalidDescriptorError,
         "lam must be an integer, got True"),
        (lambda: Nontempered(GroupTag(5), W(1, 0), P, -1.0), InvalidDescriptorError,
         "lam must be an integer, got -1.0"),
        (lambda: DiscreteSeries(GroupTag(2), W(), True), InvalidDescriptorError,
         "lam must be an integer, got True"),
        (lambda: DiscreteSeries(GroupTag(6), W(2, 1), "3"), InvalidDescriptorError,
         "lam must be an integer, got '3'"),
    ])
    def test_wrong_typed_fields_raise_package_errors(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize("N", range(2, 11))
    def test_nontempered_refuses_exactly_the_reducibility_walls(self, N):
        # Reference: the walls as a set, lam in {k - sigma_k : k >= 1}.
        group = GroupTag(N)
        n = group.n
        for entries in combinations_with_replacement(range(3, -1, -1), n // 2):
            sigma = Weight(entries)
            if not group.is_even and entries and entries[-1]:
                continue  # not self-dual: refused before lam is looked at
            walls = {k - x for k, x in enumerate(entries, 1)}
            for lam in range(-4, (n + 1) // 2 + 1):
                got = outcome(Nontempered, group, sigma, M, lam)
                if 2 * lam >= n:
                    assert got == (InvalidDescriptorError,
                                   f"lam={lam} is not below the tempered wall n/2={n}/2")
                elif lam in walls:
                    assert got == (SingularInfCharError,
                                   f"lam={lam} hits a reducibility wall for sigma {sigma}")
                else:
                    assert isinstance(got, Nontempered) and got.lam == lam


class TestClassify:
    def test_trivial_rho_so31(self):
        reps = classify(GroupTag(3), W(0, 0))
        assert len(reps) == 4
        kinds = [type(d).__name__ for d in reps]
        assert kinds == ["FiniteDim", "FiniteDim", "TemperedPS", "TemperedPS"]

    def test_trivial_rho_so41(self):
        reps = classify(GroupTag(4), W(0, 0))
        assert len(reps) == 5
        heights = [height(d) for d in reps]
        sigs = [signature(d) for d in reps]
        assert heights == [0, 0, 1, 1, 2]
        assert sigs == [P, M, P, M, B]
        assert isinstance(reps[-1], DiscreteSeries)

    def test_weighted_so31(self):
        reps = classify(GroupTag(3), W(1, 0))
        assert reps[:2] == [FiniteDim(GroupTag(3), W(1, 0), P), FiniteDim(GroupTag(3), W(1, 0), M)]
        assert reps[2:] == [
            TemperedPS(GroupTag(3), W(2), P),
            TemperedPS(GroupTag(3), W(2), M),
        ]

    def test_count_and_census(self):
        for N in range(2, 10):
            group = GroupTag(N)
            for s in grid_weights(group, 2):
                reps = classify(group, s)
                assert len(reps) == group.n + 2
                params = [enhanced_from_langlands(d) for d in reps]
                heights = sorted(e.height for e in params)
                top = group.top_height
                expected = sorted(list(range(top)) * 2 + ([top] if group.is_even else [top, top]))
                assert heights == expected
                # pairwise distinct as enhanced parameters
                assert len(set(params)) == len(params)

    def test_enhanced_params_follow_written_out_rule(self):
        got = [
            e
            for N in range(2, 8)
            for s in grid_weights(GroupTag(N), 2)
            for e in enhanced_params(GroupTag(N), s)
        ]
        assert got == list(enhanced_grid())

    def test_common_infinitesimal_character(self):
        # Every descriptor of s has the doubled infinitesimal character of the
        # finite-dimensional module of s: 2 s_j + n - 2j at 0-based j, decreasing.
        for N in (3, 4, 5, 6, 7):
            group = GroupTag(N)
            for s in grid_weights(group, 2):
                target = [2 * x + group.n - 2 * j for j, x in enumerate(s.entries)]
                for d in classify(group, s):
                    if isinstance(d, FiniteDim):
                        assert (d.group, d.s) == (group, s)
                    else:
                        assert reference_char_slots(d)[0] == target

    def test_every_admissible_parameter_is_regular(self):
        # Any (sigma, lam) accepted by the constructors has a regular
        # integral doubled character: strictly decreasing, of one parity.
        from itertools import product as iproduct

        for N in (3, 4, 5, 6):
            group = GroupTag(N)
            half_n = group.n // 2
            for raw in iproduct(range(3, -1, -1), repeat=half_n):
                if any(raw[i] < raw[i + 1] for i in range(half_n - 1)):
                    continue
                if not group.is_even and half_n and raw[-1] != 0:
                    continue  # self-dual constraint for N odd
                sigma = Weight(raw)
                excluded = {k + 1 - raw[k] for k in range(half_n)}
                for lam in range(-4, (group.n + 1) // 2):
                    if 2 * lam >= group.n or lam in excluded:
                        continue
                    chars = reference_char_slots(Nontempered(group, sigma, P, lam))[0]
                    assert all(a > b for a, b in zip(chars, chars[1:]))
                    assert len({x % 2 for x in chars}) == 1


class TestConversions:
    def test_character_parameters(self):
        for N in (3, 4, 5, 6):
            group = GroupTag(N)
            sigma = Weight((0,) * (group.n // 2))
            for delta in (P, M):
                e = enhanced_from_langlands(Nontempered(group, sigma, delta, 0))
                assert e.s == zero_weight(group.rank) and e.height == 0 and e.sig is delta

    def test_example_height_one(self):
        e = enhanced_from_langlands(Nontempered(GroupTag(5), W(1, 0), M, 1))
        assert e == EnhancedParam(GroupTag(5), W(0, 0, 0), 1, M)

    def test_example_weighted(self):
        e = enhanced_from_langlands(Nontempered(GroupTag(5), W(2, 0), P, 0))
        assert e == EnhancedParam(GroupTag(5), W(1, 1, 0), 1, M)

    def test_inverse_examples(self):
        assert langlands_from_enhanced(
            EnhancedParam(GroupTag(5), W(0, 0, 0), 1, P)
        ) == Nontempered(GroupTag(5), W(1, 0), P, 1)
        assert langlands_from_enhanced(
            EnhancedParam(GroupTag(5), W(1, 1, 0), 1, M)
        ) == Nontempered(GroupTag(5), W(2, 0), P, 0)
        assert langlands_from_enhanced(
            EnhancedParam(GroupTag(4), W(0, 0), 2, B)
        ) == DiscreteSeries(GroupTag(4), W(1), 2)

    def test_roundtrip_exhaustive_small(self):
        for e in enhanced_grid():
            d = langlands_from_enhanced(e)
            assert enhanced_from_langlands(d) == e
            assert langlands_from_enhanced(enhanced_from_langlands(d)) == d

    def test_invalid_enhanced(self):
        with pytest.raises(InvalidEnhancedError):
            EnhancedParam(GroupTag(4), W(0, 0), 2, P)  # top of even group needs BOTH
        with pytest.raises(InvalidEnhancedError):
            EnhancedParam(GroupTag(4), W(0, 0), 1, B)
        with pytest.raises(InvalidEnhancedError):
            EnhancedParam(GroupTag(4), W(0, 0), 3, P)

    def test_rejects_bool_height(self):
        with pytest.raises(InvalidEnhancedError):
            EnhancedParam(GroupTag(5), W(0, 0, 0), True, P)

    def test_rejects_weight_unfit_for_group(self):
        with pytest.raises(WrongRankError):
            EnhancedParam(GroupTag(5), W(0, 0), 0, P)
        with pytest.raises(NotSelfDualError):
            EnhancedParam(GroupTag(5), W(1, 1, 1), 0, P)


class TestHeightSignature:
    def test_finite_dim_height_zero(self):
        assert height(FiniteDim(GroupTag(7), W(3, 1, 0, 0), M)) == 0

    def test_example(self):
        d = Nontempered(GroupTag(5), W(2, 0), P, 0)
        assert height(d) == 1  # 1 - 2 < 0 < 2 - 0

    def test_discrete_series_top(self):
        assert height(DiscreteSeries(GroupTag(4), W(1), 2)) == 2

    def test_signature_examples(self):
        assert signature(Nontempered(GroupTag(5), W(0, 0), M, 0)) is M
        assert signature(TemperedPS(GroupTag(3), W(2), P)) is P
        assert signature(DiscreteSeries(GroupTag(4), W(1), 2)) is B

    def test_signature_agrees_with_enhanced(self):
        for e in enhanced_grid():
            assert signature(langlands_from_enhanced(e)) is e.sig


class TestTwist:
    def test_flip(self):
        assert twist_chi_minus(EnhancedParam(GroupTag(3), W(0, 0), 1, P)) == EnhancedParam(
            GroupTag(3), W(0, 0), 1, M
        )

    def test_discrete_series_fixed(self):
        e = EnhancedParam(GroupTag(2), W(1), 1, B)
        assert twist_chi_minus(e) == e

    def test_involution_and_height_invariance(self):
        for e in enhanced_grid():
            t = twist_chi_minus(e)
            assert t.height == e.height and t.s == e.s
            assert twist_chi_minus(t) == e
            if e.sig is not B:
                assert t.sig is not e.sig


class TestSequences:
    def test_hasse_trivial_so31(self):
        seq = hasse_sequence(GroupTag(3), W(0, 0), P)
        assert [(e.height, e.sig) for e in seq] == [(0, P), (1, M)]

    def test_first_member_is_input(self):
        for N in (3, 4, 5, 6, 7):
            group = GroupTag(N)
            for s in grid_weights(group, 2):
                for sig0 in (P, M):
                    seq = hasse_sequence(group, s, sig0)
                    assert seq[0] == EnhancedParam(group, s, 0, sig0)
                    assert standard_sequence(group, s, sig0)[0] == seq[0]

    def test_hasse_weighted_so51(self):
        # epsilon_i = sig0 * (-1)^(i - s_{i+1} + s_1) on s = (1,1,0)
        seq = hasse_sequence(GroupTag(5), W(1, 1, 0), P)
        assert [(e.height, e.sig) for e in seq] == [(0, P), (1, M), (2, M)]

    def test_standard_trivial_so31(self):
        seq = standard_sequence(GroupTag(3), W(0, 0), P)
        assert [(e.height, e.sig) for e in seq] == [(0, P), (1, P)]

    def test_standard_weighted_so51(self):
        seq = standard_sequence(GroupTag(5), W(1, 1, 0), P)
        assert [(e.height, e.sig) for e in seq] == [(0, P), (1, P), (2, M)]

    def test_standard_is_twisted_hasse(self):
        for N in (3, 4, 5, 6, 7, 8):
            group = GroupTag(N)
            for s in grid_weights(group, 2):
                hasse = hasse_sequence(group, s, P)
                std = standard_sequence(group, s, P)
                assert len(hasse) == group.top_height + 1
                for i, (u, p) in enumerate(zip(hasse, std)):
                    assert p.s == u.s and p.height == u.height == i
                    expected = u
                    for _ in range(i):
                        expected = twist_chi_minus(expected)
                    assert p == expected

    def test_members_pairwise_distinct_and_top_tempered(self):
        for N in (3, 4, 5, 6, 7, 8, 9):
            group = GroupTag(N)
            for s in grid_weights(group, 2):
                seq = hasse_sequence(group, s, P)
                assert len(set(seq)) == len(seq)
                top = standard_sequence(group, s, P)[-1]
                assert top.height == group.top_height
                if group.is_even:
                    assert top.sig is B

    def test_trivial_rho_standard_signature_constant(self):
        for N in (3, 4, 5, 6, 7, 8, 9, 10, 11):
            group = GroupTag(N)
            zero = Weight((0,) * group.rank)
            for sig0 in (P, M):
                for e in standard_sequence(group, zero, sig0):
                    assert e.sig in (sig0, B)


class TestSequencesMatchReference:
    """Each member built once, against the Hasse sequence twisted member by member;
    ``hasse_member`` builds each Hasse member alone."""

    @pytest.mark.parametrize("N", range(2, 14))
    def test_every_weight(self, N):
        group = GroupTag(N)
        for s in theta_weights(group, 3):
            for sig0 in (P, M):
                expected = reference_hasse_sequence(group, s, sig0)
                assert hasse_sequence(group, s, sig0) == expected
                assert [hasse_member(group, s, sig0, i) for i in range(len(expected))] == expected
                assert standard_sequence(group, s, sig0) == reference_standard_sequence(
                    group, s, sig0
                )

    def test_member_rejections(self):
        with pytest.raises(InvalidDescriptorError):
            hasse_member(GroupTag(5), W(1, 1, 1), B, 9)  # sig0 is checked first
        with pytest.raises(NotSelfDualError):
            hasse_member(GroupTag(5), W(1, 1, 1), P, 9)
        for i in (-1, 3):
            with pytest.raises(InvalidEnhancedError, match=f"height {i} outside"):
                hasse_member(GroupTag(5), W(1, 1, 0), P, i)

    def test_rejections_unchanged(self):
        with pytest.raises(InvalidDescriptorError):
            standard_sequence(GroupTag(5), W(1, 1, 1), B)  # sig0 is checked first
        with pytest.raises(NotSelfDualError):
            standard_sequence(GroupTag(5), W(1, 1, 1), P)
        with pytest.raises(WrongRankError):
            hasse_sequence(GroupTag(4), W(1, 1, 0), M)


class TestJson:
    def test_documented_shape(self):
        d = Nontempered(GroupTag(5), W(2, 0), P, 0)
        assert descriptor_to_json(d) == {
            "group": "SO(5,1)",
            "variant": "nontempered",
            "sigma": [2, 0],
            "delta": "+",
            "lambda": 0,
        }

    def test_enhanced_shape(self):
        e = EnhancedParam(GroupTag(5), W(1, 1, 0), 1, M)
        assert e.to_json() == {"weight": [1, 1, 0], "height": 1, "signature": "-"}

    def test_theta_string(self):
        assert theta_param_str(EnhancedParam(GroupTag(5), W(1, 1, 0), 1, M)) == "(1||1,0)-"


def outcome(fn, *args):
    """fn(*args), or the class and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def unchecked(cls, **fields):
    """A descriptor built without its constructor's checks."""
    d = object.__new__(cls)
    for name in cls.__slots__:
        store(d, name, fields[name])
    return d


def descriptor_grid(group, max_entry):
    """Every descriptor on group whose constructor accepts it, sigma entries
    up to max_entry and lam from below zero to past the tempered wall."""
    n, m = group.n, group.N // 2
    for entries in combinations_with_replacement(range(max_entry, -1, -1), n // 2):
        sigma = Weight(entries)
        for lam in range(-2, n + 1):
            for delta in (P, M):
                try:
                    yield Nontempered(group, sigma, delta, lam)
                except (InvalidDescriptorError, SingularInfCharError):
                    pass
        if not group.is_even and sigma.entries[-1] > 0:
            yield TemperedPS(group, sigma, P)
            yield TemperedPS(group, sigma, M)
        if group.is_even:
            top = m - 1 + sigma.entries[-1] if sigma.rank else m + max_entry
            for lam in range(m, top + 1):
                yield DiscreteSeries(group, sigma, lam)


class TestConversionsMatchReference:
    """The closed-form conversions against the infinitesimal-character
    sorting they replaced."""

    GROUPS = [GroupTag(N) for N in range(2, 17)]

    @pytest.mark.parametrize("group", GROUPS, ids=str)
    def test_every_enhanced_param(self, group):
        for s in theta_weights(group, 3):
            descriptors = []
            for e in enhanced_params(group, s):
                d = langlands_from_enhanced(e)
                assert d == reference_langlands_from_enhanced(e)
                assert enhanced_from_langlands(d) == reference_enhanced_from_langlands(d) == e
                assert height(d) == reference_height_by_intervals(d) == e.height
                assert signature(d) == reference_signature(d)
                assert height(d) == reference_height_by_insertion(d)
                descriptors.append(d)
            assert classify(group, s) == descriptors

    @pytest.mark.parametrize("group", GROUPS, ids=str)
    def test_every_descriptor(self, group):
        # Includes lam below zero, where the intervals and the slot still agree.
        count = 0
        for d in descriptor_grid(group, 2):
            count += 1
            assert outcome(height, d) == outcome(reference_height_by_insertion, d)
            assert outcome(_height_by_intervals, d) == outcome(reference_height_by_intervals, d)
            assert outcome(signature, d) == outcome(reference_signature, d)
            assert outcome(enhanced_from_langlands, d) == outcome(reference_enhanced_from_langlands, d)
        assert count > 0

    @pytest.mark.parametrize("N", [3, 4, 7, 10])
    def test_singular_input_raises_the_same(self, N):
        # Every wall lam = k - sigma_k, built past the constructor's check.
        group = GroupTag(N)
        sigma = W(*range(group.n // 2, 0, -1))
        for k in range(1, sigma.rank + 1):
            d = unchecked(Nontempered, group=group, sigma=sigma, delta=P, lam=k - sigma.entries[k - 1])
            want = outcome(reference_char_slots, d)
            assert want[0] is SingularInfCharError
            for fn in (height, signature, enhanced_from_langlands):
                assert outcome(fn, d) == want
        d = unchecked(TemperedPS, group=GroupTag(5), sigma=W(1, 0), delta=P)
        assert outcome(enhanced_from_langlands, d) == outcome(reference_enhanced_from_langlands, d)
        assert outcome(enhanced_from_langlands, d)[0] is SingularInfCharError


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_roundtrip_property(data):
    N = data.draw(st.integers(2, 9), label="N")
    group = GroupTag(N)
    free = group.rank if group.is_even else group.rank - 1
    raw = data.draw(
        st.lists(st.integers(0, 5), min_size=free, max_size=free), label="weight"
    )
    entries = tuple(sorted(raw, reverse=True))
    s = Weight(entries if group.is_even else entries + (0,))
    i = data.draw(st.integers(0, group.top_height), label="height")
    if group.is_even and i == group.top_height:
        sig = B
    else:
        sig = data.draw(st.sampled_from([P, M]), label="sig")
    e = EnhancedParam(group, s, i, sig)
    assert enhanced_from_langlands(langlands_from_enhanced(e)) == e
