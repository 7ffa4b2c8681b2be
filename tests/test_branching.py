import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import sobranch.branching as branching
from sobranch import (
    DiscreteSeries,
    EnhancedParam,
    GroupTag,
    Signature,
    TemperedPS,
    Weight,
    branch_enumerate,
    diagram,
    enhanced_from_langlands,
    finite_dim_branch,
    gp_tempered_check,
    interlaces,
    multiplicity,
    sb_diagram,
    twist_chi_minus,
    zero_weight,
)
from sobranch.branching import branch_count, multiplicity_rows
from sobranch.errors import (
    GroupMismatchError,
    NotInterlacingError,
    NotTemperedError,
    OutOfRangeError,
)
from sobranch.oracle import grid_enhanced, grid_weights
from sobranch.reps import enhanced_params

from conftest import (
    reference_branch_enumerate,
    reference_multiplicity,
    reference_standard_sequence,
    theta_weights,
)

P, M, B = Signature.PLUS, Signature.MINUS, Signature.BOTH


def W(*entries):
    return Weight(tuple(entries))


def E(N, entries, h, sig):
    return EnhancedParam(GroupTag(N), W(*entries), h, sig)


class TestFiniteDimBranch:
    def test_so41_vector(self):
        # Equal ranks for N even: 1 >= nu_1 >= 0 >= nu_2 >= 0
        comps = finite_dim_branch(GroupTag(4), W(1, 0), P)
        assert [(c.nu.entries, c.sig, c.self_dual) for c in comps] == [
            ((1, 0), P, True),
            ((0, 0), P, True),
        ]

    def test_trivial_restricts_to_trivial(self):
        for N in range(3, 9):
            group = GroupTag(N)
            comps = finite_dim_branch(group, zero_weight(group.rank), P)
            assert [(c.nu, c.sig) for c in comps] == [
                (zero_weight(group.subgroup.rank), P)
            ]

    def test_so41_forced_component_flagged(self):
        # 1 >= nu_1 >= 1 >= nu_2 >= 0: the component (1,1) is outside the
        # self-dual family of SO(3,1) and is listed with the flag down.
        comps = finite_dim_branch(GroupTag(4), W(1, 1), P)
        assert [(c.nu.entries, c.self_dual) for c in comps] == [
            ((1, 1), False),
            ((1, 0), True),
        ]

    def test_so51_down(self):
        comps = finite_dim_branch(GroupTag(5), W(2, 1, 0), M)
        assert [c.nu.entries for c in comps] == [(2, 1), (2, 0), (1, 1), (1, 0)]
        assert all(c.sig is M and c.self_dual for c in comps)


class TestMultiplicity:
    def test_diagram_arrow(self):
        assert multiplicity(E(3, (0, 0), 1, P), E(2, (0,), 0, P)) == 1

    def test_height_gap_too_large(self):
        assert multiplicity(E(5, (0, 0, 0), 0, P), E(4, (0, 0), 1, P)) == 0
        assert multiplicity(E(5, (0, 0, 0), 0, P), E(4, (0, 0), 2, B)) == 0

    def test_interlacing_fails(self):
        assert multiplicity(E(5, (1, 1, 0), 1, M), E(4, (2, 0), 1, M)) == 0

    def test_signature_mismatch(self):
        assert multiplicity(E(3, (0, 0), 1, P), E(2, (0,), 0, M)) == 0

    def test_wildcard_signature(self):
        assert multiplicity(E(3, (0, 0), 1, M), E(2, (0,), 1, B)) == 1
        assert multiplicity(E(4, (0, 0), 2, B), E(3, (0, 0), 1, P)) == 1
        assert multiplicity(E(4, (0, 0), 2, B), E(3, (0, 0), 1, M)) == 1

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            multiplicity(E(5, (0, 0, 0), 0, P), E(3, (0, 0), 0, P))

    def test_matches_three_condition_spec(self):
        # Every pair with N <= 7 and entries <= 2, against the rule written
        # out directly (``conftest.reference_multiplicity``).
        def params(group):
            top = group.top_height
            for s in theta_weights(group, 2):
                for h in range(top + 1):
                    sigs = (B,) if group.is_even and h == top else (P, M)
                    for sig in sigs:
                        yield EnhancedParam(group, s, h, sig)

        for N in range(3, 8):
            group, sub = GroupTag(N), GroupTag(N - 1)
            smalls = list(params(sub))
            for big in params(group):
                for small in smalls:
                    assert multiplicity(big, small) == reference_multiplicity(big, small), (
                        big, small,
                    )


class TestMultiplicityRows:
    """``multiplicity_rows`` against per-pair ``multiplicity`` and the rule
    written out directly.  Each row is ``bytes``; ``check`` and ``rows``
    return them as lists."""

    @staticmethod
    def per_pair(bigs, smalls):
        return [[multiplicity(big, q) for q in smalls] for big in bigs]

    @staticmethod
    def rows(bigs, smalls):
        rows = list(multiplicity_rows(bigs, smalls))
        assert all(type(row) is bytes for row in rows)
        return [list(row) for row in rows]

    def check(self, bigs, smalls):
        rows = self.rows(iter(bigs), iter(smalls))
        assert rows == self.per_pair(bigs, smalls)
        assert rows == [[reference_multiplicity(big, q) for q in smalls] for big in bigs]
        return rows

    def test_grid(self):
        for N in range(3, 10):
            bigs = grid_enhanced(GroupTag(N), 3)
            rows = self.check(bigs, grid_enhanced(GroupTag(N - 1), 3))
            assert len(rows) == len(bigs)
            assert any(1 in row for row in rows) and any(0 in row for row in rows)

    def test_shuffled_and_duplicated(self):
        rng = random.Random(11)
        for N in range(3, 8):
            bigs = grid_enhanced(GroupTag(N), 2)
            smalls = grid_enhanced(GroupTag(N - 1), 2)
            smalls = smalls + rng.sample(smalls, len(smalls) // 2) + smalls[:3]
            rng.shuffle(smalls)
            rng.shuffle(bigs)
            self.check(bigs, smalls)

    def test_equal_weights_in_distinct_objects(self):
        def copied(e):
            return EnhancedParam(e.group, Weight(tuple(list(e.s.entries))), e.height, e.sig)

        for N in range(3, 8):
            bigs = [copied(e) for e in grid_enhanced(GroupTag(N), 2)]
            smalls = [copied(e) for e in grid_enhanced(GroupTag(N - 1), 2)]
            assert bigs[0].s == bigs[1].s and bigs[0].s is not bigs[1].s
            self.check(bigs, smalls + [copied(e) for e in smalls])

    def test_bigs_alternating_between_weights(self):
        for N in range(3, 8):
            group = GroupTag(N)
            per_weight = [list(enhanced_params(group, s)) for s in grid_weights(group, 2)]
            for a, b in zip(per_weight, per_weight[1:]):
                alternating = [e for pair in zip(a, b, a) for e in pair]
                self.check(alternating, grid_enhanced(group.subgroup, 2))

    def test_states_reordered_for_a_later_weight(self):
        # Every weight with every state, but the states of later weights in
        # another order: not the weight-major product, so each small is read
        # at its own cell.  A prefix of the product is read the same way.
        for N in range(3, 8):
            sub = GroupTag(N).subgroup
            blocks = [list(enhanced_params(sub, s)) for s in grid_weights(sub, 2)]
            smalls = blocks[0] + [e for block in blocks[1:] for e in reversed(block)]
            bigs = grid_enhanced(GroupTag(N), 2)
            self.check(bigs, smalls)
            self.check(bigs, grid_enhanced(sub, 2)[:-1])

    def test_in_order_rows_are_bytes(self):
        # On the grid each row is the table itself, frozen into bytes: no
        # write into one row can reach the rows after it.
        bigs = grid_enhanced(GroupTag(5), 2)
        smalls = grid_enhanced(GroupTag(4), 2)
        expected = self.per_pair(bigs, smalls)
        rows = list(multiplicity_rows(bigs, smalls))
        assert [type(row) for row in rows] == [bytes] * len(bigs)
        assert rows == [bytes(want) for want in expected]

    def test_empty(self):
        bigs = grid_enhanced(GroupTag(5), 1)
        assert list(multiplicity_rows(bigs, [])) == [b"" for _ in bigs]
        so21 = grid_enhanced(GroupTag(2), 1)  # no subgroup in the package
        assert list(multiplicity_rows(so21, [])) == [b"" for _ in so21]
        assert list(multiplicity_rows([], grid_enhanced(GroupTag(4), 1))) == []

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_wrong_group_small(self, where):
        big = E(5, (1, 1, 0), 1, P)
        smalls = grid_enhanced(GroupTag(4), 1)
        k = {"first": 0, "middle": len(smalls) // 2, "last": len(smalls)}[where]
        smalls = smalls[:k] + [E(3, (1, 0), 0, M)] + smalls[k:]
        if where != "last":
            smalls.append(E(5, (0, 0, 0), 0, P))  # a later mismatch is not named
        with pytest.raises(GroupMismatchError) as expected:
            self.per_pair([big], smalls)
        with pytest.raises(GroupMismatchError) as got:
            list(multiplicity_rows([big], smalls))
        assert str(got.value) == str(expected.value) == (
            "SO(3,1) is not the rank-one subgroup of SO(5,1)"
        )

    def test_rows_before_a_wrong_big(self):
        smalls = grid_enhanced(GroupTag(4), 1)
        bigs = grid_enhanced(GroupTag(5), 1)
        rows = multiplicity_rows(bigs + [E(6, (0, 0, 0), 0, P)], smalls)
        for big in bigs:
            assert next(rows) == bytes(multiplicity(big, q) for q in smalls)
        with pytest.raises(GroupMismatchError) as got:
            next(rows)
        assert str(got.value) == "SO(4,1) is not the rank-one subgroup of SO(6,1)"

    # A row is written only in the blocks of the small weights that the big's
    # weight interlaces, from one state vector per big (height, signature).

    def test_weight_interlacing_no_small_gives_zero_row(self):
        # 4 >= nu_1 >= 4 >= nu_2: no weight of the grid with entries <= 1.
        smalls = grid_enhanced(GroupTag(4), 1)
        bigs = [E(5, (4, 4, 0), h, sig) for h, sig in [(0, P), (1, M), (2, P)]]
        assert self.check(bigs, smalls) == [[0] * len(smalls)] * len(bigs)
        self.check(bigs, smalls[::-1])

    def test_shared_states_across_weights(self, monkeypatch):
        # Bigs of different weights with the same (height, signature) reuse
        # one state vector: S decisions per distinct state of the bigs.
        calls = []

        def counted(*args):
            calls.append(args)
            return engine_states_match(*args)

        engine_states_match = branching._states_match
        monkeypatch.setattr(branching, "_states_match", counted)
        smalls = grid_enhanced(GroupTag(4), 2)
        S = len({(q.height, q.sig) for q in smalls})
        weights = [(2, 1, 0), (1, 1, 0), (2, 2, 0), (0, 0, 0), (2, 1, 0)]
        bigs = [E(5, s, h, sig) for s in weights for h, sig in [(1, P), (0, M), (1, P)]]
        calls.clear()
        rows = self.rows(bigs, smalls)
        assert len(calls) == 2 * S
        monkeypatch.undo()
        assert rows == self.check(bigs, smalls)

    @pytest.mark.parametrize("where, block", [("first", 0), ("last", 2)])
    def test_single_interlacing_weight(self, where, block):
        # SO(4,1) weights interlace the SO(3,1) weights (nu_1, 0) with
        # lam_1 >= nu_1 >= lam_2; of the grid (2, 0), (1, 0), (0, 0), each
        # with 4 states, (2, 2) interlaces only the first, (0, 0) only the last.
        s = {"first": (2, 2), "last": (0, 0)}[where]
        bigs = list(enhanced_params(GroupTag(4), W(*s)))
        rows = self.check(bigs, grid_enhanced(GroupTag(3), 2))
        assert {i // 4 for row in rows for i, m in enumerate(row) if m} == {block}

    def test_writing_into_a_row_leaves_later_rows(self):
        # Bigs of one state over one small weight: every row, on the grid or
        # read through the cells, is bytes, so no write into it can reach
        # the shared state vector or a later row.
        smalls = list(enhanced_params(GroupTag(4), W(1, 0)))
        bigs = [E(5, s, 1, P) for s in [(1, 0, 0), (1, 1, 0), (2, 0, 0), (1, 0, 0)]]
        for order in (smalls, smalls[::-1]):
            want = self.check(bigs, order)
            assert all(1 in row for row in want)
            for row, w in zip(multiplicity_rows(bigs, order), want):
                assert type(row) is bytes and list(row) == w
                with pytest.raises(TypeError):
                    row[0] = 7

    # The weights a big weight interlaces are looked up among the smalls' when
    # it has at most as many as there are distinct small weights, and found by
    # testing each small weight otherwise; both ways give the per-pair rows.

    @staticmethod
    def count_paths(monkeypatch):
        """Count the calls of each way: ``interlacing_entries`` per big weight
        looked up, ``interlaces`` per small weight tested."""
        used = {"lookup": 0, "test": 0}
        real_entries, real_interlaces = branching.interlacing_entries, branching.interlaces

        def looked_up(mu, sub):
            used["lookup"] += 1
            return real_entries(mu, sub)

        def tested(mu, nu):
            used["test"] += 1
            return real_interlaces(mu, nu)

        monkeypatch.setattr(branching, "interlacing_entries", looked_up)
        monkeypatch.setattr(branching, "interlaces", tested)
        return used

    @pytest.mark.parametrize("smalls_of", ["grid", "shuffled", "duplicated", "subset"])
    def test_both_ways_against_per_pair(self, monkeypatch, smalls_of):
        # Bigs with entries up to 3 over smalls with entries up to 1: the
        # small big weights are looked up, the large ones tested, on odd
        # (N even) and even (N odd) subgroups alike.
        rng = random.Random(25)
        for N in range(3, 9):
            bigs = grid_enhanced(GroupTag(N), 3)
            smalls = grid_enhanced(GroupTag(N - 1), 1)
            if smalls_of == "shuffled":
                rng.shuffle(smalls)
            elif smalls_of == "duplicated":
                smalls = smalls + smalls[::2]
            elif smalls_of == "subset":
                smalls = smalls[1::2]
            used = self.count_paths(monkeypatch)
            rows = self.rows(bigs, smalls)
            monkeypatch.undo()
            assert used["lookup"] > 0 and used["test"] > 0, (N, used)
            assert rows == self.check(bigs, smalls)

    @pytest.mark.parametrize("s", [(10**6, 10**5, 10**4), (10**6, 2, 1)])
    def test_huge_big_weight_tests_the_small_weights(self, monkeypatch, s):
        # Some 10^16 (or 2 * 10^6) weights interlace s: none is enumerated,
        # each of the grid's small weights is tested once per big weight.
        smalls = grid_enhanced(GroupTag(5), 4)
        bigs = list(enhanced_params(GroupTag(6), W(*s)))
        used = self.count_paths(monkeypatch)
        start = time.perf_counter()
        rows = self.rows(bigs, smalls)
        assert time.perf_counter() - start < 0.5
        monkeypatch.undo()
        assert used == {"lookup": 0, "test": len({q.s for q in smalls})}
        assert rows == self.per_pair(bigs, smalls)  # the reference would enumerate
        assert any(1 in row for row in rows) is (s[1] == 2)

    def test_wrong_big_after_shared_states(self):
        smalls = grid_enhanced(GroupTag(4), 1)
        bigs = [E(5, (1, 1, 0), 1, P), E(5, (1, 0, 0), 1, P), E(6, (1, 1, 0), 1, P)]
        rows = multiplicity_rows(bigs, smalls)
        for big in bigs[:2]:
            assert list(next(rows)) == [reference_multiplicity(big, q) for q in smalls]
        with pytest.raises(GroupMismatchError) as expected:
            self.per_pair(bigs[2:], smalls)
        with pytest.raises(GroupMismatchError) as got:
            next(rows)
        assert str(got.value) == str(expected.value) == (
            "SO(4,1) is not the rank-one subgroup of SO(6,1)"
        )


class TestBranchEnumerate:
    def test_trivial_rho_so31(self):
        got = list(branch_enumerate(E(3, (0, 0), 1, P)))
        assert got == [E(2, (0,), 0, P), E(2, (0,), 1, B)]

    def test_character_branches_to_character(self):
        for N in range(3, 9):
            group = GroupTag(N)
            got = list(branch_enumerate(EnhancedParam(group, zero_weight(group.rank), 0, P)))
            assert got == [EnhancedParam(group.subgroup, zero_weight(group.subgroup.rank), 0, P)]

    def test_weighted_so51(self):
        got = list(branch_enumerate(E(5, (1, 1, 0), 1, M)))
        assert got == [
            E(4, (1, 1), 0, M),
            E(4, (1, 1), 1, M),
            E(4, (1, 0), 0, M),
            E(4, (1, 0), 1, M),
        ]

    def test_self_dual_filter(self):
        # From SO(4,1) the subgroup is SO(3,1); targets must end in 0.
        for t in branch_enumerate(E(4, (2, 2), 1, P)):
            assert t.s.entries[-1] == 0

    def test_matches_the_filtering_reference(self):
        # The unfiltered stream, in order, and its closed-form length.
        bigs = [big for N in range(3, 12) for big in grid_enhanced(GroupTag(N), 4)]
        bigs += enhanced_params(GroupTag(6), W(40, 20, 10))
        bigs.append(E(6, (120, 60, 30), 0, P))
        for big in bigs:
            got = list(branch_enumerate(big))
            assert got == list(reference_branch_enumerate(big)), big
            assert branch_count(big) == len(got), big

    @staticmethod
    def drawn_and_built(monkeypatch, big):
        """The targets of ``big``, the entry tuples drawn from
        ``interlacing_entries`` and those built into a ``Weight``."""
        drawn, built = [], []
        real_entries, real_weight = branching.interlacing_entries, branching.Weight

        def counting(mu, sub):
            for entries in real_entries(mu, sub):
                drawn.append(entries)
                yield entries

        def counting_weight(entries):
            built.append(entries)
            return real_weight(entries)

        monkeypatch.setattr(branching, "interlacing_entries", counting)
        monkeypatch.setattr(branching, "Weight", counting_weight)
        got = list(branch_enumerate(big))
        monkeypatch.undo()
        assert got == list(reference_branch_enumerate(big))
        assert all(entries[-1] == 0 for entries in drawn)
        return got, drawn, built

    def test_odd_subgroup_draws_only_self_dual_weights(self, monkeypatch):
        # Every weight drawn is a target, built into one validated Weight:
        # a filter would draw 58 621 here.
        got, drawn, built = self.drawn_and_built(monkeypatch, E(6, (120, 60, 30), 0, P))
        assert len(drawn) == len(built) == len(got) == 1891
        assert built == drawn == [t.s.entries for t in got]

    def test_one_weight_for_the_states_of_a_target(self, monkeypatch):
        # Two (height, signature) states per weight share its one Weight.
        got, drawn, built = self.drawn_and_built(monkeypatch, E(6, (4, 2, 1), 1, M))
        assert built == drawn == list(dict.fromkeys(t.s.entries for t in got))
        assert len(got) == 2 * len(drawn)
        assert all(got[2 * k].s is got[2 * k + 1].s for k in range(len(drawn)))

    def test_stream_decision_agreement(self):
        for N in (3, 4, 5, 6):
            for big in grid_enhanced(GroupTag(N), 2):
                got = set(branch_enumerate(big))
                sub = GroupTag(N - 1)
                everything = set(grid_enhanced(sub, 2 + 1))
                accepted = {t for t in everything if multiplicity(big, t) == 1}
                assert got == accepted


class TestOneStateRule:
    """``_states_match`` is the one statement of the (height, signature)
    rule: ``branch_states`` and ``Arrow`` ask it rather than restate it."""

    @staticmethod
    def no_drop(monkeypatch):
        def keeps_height(height, sig, sub_height, sub_sig):
            return height == sub_height and sig.matches(sub_sig)

        monkeypatch.setattr(branching, "_states_match", keeps_height)

    def test_branch_states_follow_the_rule(self, monkeypatch):
        assert branching.branch_states(GroupTag(4), 2, P) == [(1, P), (2, B)]
        self.no_drop(monkeypatch)
        assert branching.branch_states(GroupTag(4), 2, P) == [(2, B)]

    def test_arrow_follows_the_rule(self, monkeypatch):
        top, bottom = E(3, (0, 0), 1, P), E(2, (0,), 0, P)
        assert branching.Arrow(1, 0, top, bottom).to_height == 0
        message = "arrow {} -> {} must keep or drop the height by one"
        with pytest.raises(OutOfRangeError, match=message.format(0, 2)):
            branching.Arrow(0, 2, top, bottom)
        self.no_drop(monkeypatch)
        with pytest.raises(OutOfRangeError, match=message.format(1, 0)):
            branching.Arrow(1, 0, top, bottom)
        assert branching.Arrow(1, 1, top, bottom).to_height == 1


class TestDiagrams:
    def test_trivial_so31(self):
        arrows = sb_diagram(GroupTag(3), W(0, 0), W(0), P)
        assert sorted((a.from_height, a.to_height) for a in arrows) == [(0, 0), (1, 0), (1, 1)]

    def test_trivial_so41(self):
        arrows = sb_diagram(GroupTag(4), W(0, 0), W(0, 0), P)
        assert sorted((a.from_height, a.to_height) for a in arrows) == [
            (0, 0),
            (1, 0),
            (1, 1),
            (2, 1),
        ]

    def test_weighted_so31(self):
        # Decision procedure with normalized signatures: the (1,0) slot drops.
        arrows = sb_diagram(GroupTag(3), W(1, 0), W(1), P)
        assert sorted((a.from_height, a.to_height) for a in arrows) == [(0, 0), (1, 1)]

    def test_arrow_shape(self):
        for N in (3, 4, 5, 6, 7):
            group = GroupTag(N)
            for s in grid_weights(group, 2):
                for s_sub in grid_weights(group.subgroup, 2):
                    if not interlaces(s, s_sub):
                        continue
                    for a in sb_diagram(group, s, s_sub, P):
                        assert a.to_height in (a.from_height, a.from_height - 1)

    @pytest.mark.parametrize("N", range(3, 14))
    def test_arrows_match_reference_sequences(self, N):
        group = GroupTag(N)
        sub_weights = theta_weights(group.subgroup, 3)
        for s in theta_weights(group, 3):
            for s_sub in sub_weights:
                if not interlaces(s, s_sub):
                    continue
                for sig in (P, M):
                    top = reference_standard_sequence(group, s, sig)
                    bottom = reference_standard_sequence(group.subgroup, s_sub, sig)
                    want = [(i, j) for i, t in enumerate(top) for j, b in enumerate(bottom)
                            if multiplicity(t, b) == 1]
                    got = sb_diagram(group, s, s_sub, sig)
                    assert [(a.from_height, a.to_height) for a in got] == want

    def test_not_interlacing_rejected(self):
        with pytest.raises(NotInterlacingError):
            sb_diagram(GroupTag(3), W(1, 0), W(2), P)

    def test_json_and_render(self):
        d = diagram(GroupTag(4), W(0, 0), W(0, 0), P)
        assert list(d.arrows) == sb_diagram(GroupTag(4), W(0, 0), W(0, 0), P)
        data = d.to_json()
        assert data["arrows"] == [[0, 0], [1, 0], [1, 1], [2, 1]]
        assert len(data["top"]) == 3 and len(data["bottom"]) == 2
        text = d.render()
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].count("(") == 3 and lines[2].count("(") == 2
        assert "|" in lines[1] and "/" in lines[1]


class TestGpCheck:
    def test_interlacing_pair(self):
        # Theta-weights (1,0) over SO(3,1) and (1) over SO(2,1)
        big = TemperedPS(GroupTag(3), W(2), P)
        assert enhanced_from_langlands(big).s == W(1, 0)
        small = DiscreteSeries(GroupTag(2), W(), 2)
        assert enhanced_from_langlands(small).s == W(1)
        assert gp_tempered_check(big, small) is True

    def test_failing_pair(self):
        big = TemperedPS(GroupTag(3), W(2), P)
        small = DiscreteSeries(GroupTag(2), W(), 4)  # theta-weight (3)
        assert gp_tempered_check(big, small) is False

    def test_trivial_rho_pair(self):
        big = TemperedPS(GroupTag(3), W(1), P)
        small = DiscreteSeries(GroupTag(2), W(), 1)
        assert gp_tempered_check(big, small) is True

    def test_type_checks(self):
        with pytest.raises(NotTemperedError):
            gp_tempered_check(
                TemperedPS(GroupTag(3), W(2), P), TemperedPS(GroupTag(3), W(2), M)
            )
        with pytest.raises(GroupMismatchError):
            gp_tempered_check(
                TemperedPS(GroupTag(5), W(1, 1), P), DiscreteSeries(GroupTag(2), W(), 1)
            )

    def test_direct_interlacing_oracle(self):
        # The answer must equal the raw chain mu_1 >= nu_1 >= ... >= mu_m >= nu_m >= 0.
        for N in (3, 5, 7):
            group = GroupTag(N)
            sub = group.subgroup
            for s in grid_weights(group, 2):
                big = TemperedPS(group, Weight(tuple(x + 1 for x in s.entries[:-1])), P)
                mu = enhanced_from_langlands(big).s.entries
                for nu_w in grid_weights(sub, 3):
                    small_lam = sub.N // 2 + nu_w.entries[-1]
                    sigma = Weight(tuple(x + 1 for x in nu_w.entries[:-1]))
                    small = DiscreteSeries(sub, sigma, small_lam)
                    nu = enhanced_from_langlands(small).s.entries
                    assert nu == nu_w.entries
                    expected = all(
                        mu[k] >= nu[k] and nu[k] >= mu[k + 1] for k in range(len(nu))
                    )
                    assert gp_tempered_check(big, small) is expected


class TestChiTwistEquivariance:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_twist_preserves_multiplicity(self, data):
        N = data.draw(st.integers(3, 8), label="N")
        group, sub = GroupTag(N), GroupTag(N - 1)

        def draw_param(g, label):
            free = g.rank if g.is_even else g.rank - 1
            raw = data.draw(
                st.lists(st.integers(0, 3), min_size=free, max_size=free), label=label
            )
            entries = tuple(sorted(raw, reverse=True))
            s = Weight(entries if g.is_even else entries + (0,))
            h = data.draw(st.integers(0, g.top_height), label=label + "_h")
            if g.is_even and h == g.top_height:
                sig = B
            else:
                sig = data.draw(st.sampled_from([P, M]), label=label + "_sig")
            return EnhancedParam(g, s, h, sig)

        big = draw_param(group, "big")
        small = draw_param(sub, "small")
        assert multiplicity(big, small) == multiplicity(
            twist_chi_minus(big), twist_chi_minus(small)
        )
