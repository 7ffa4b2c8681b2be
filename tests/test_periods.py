import itertools
import math
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from sobranch import (
    EnhancedParam,
    GroupTag,
    Signature,
    Weight,
    distinguished_subgroup,
    distinguishing_chain,
    is_aq_lambda,
    minimal_k_type_trivial_rho,
    multiplicity,
    period_value,
    zero_weight,
)
from sobranch.errors import BadTargetError, NotAqLambdaError, OutOfRangeError
from sobranch.oracle import grid_enhanced
from sobranch.periods import PeriodValue, check_period_digits

from conftest import (
    period_formula,
    reference_chain,
    reference_chain_states,
    reference_greedy_chain,
    src_env,
)

P, M, B = Signature.PLUS, Signature.MINUS, Signature.BOTH


def W(*entries):
    return Weight(tuple(entries))


def E(N, entries, h, sig):
    return EnhancedParam(GroupTag(N), W(*entries), h, sig)


class TestHasPeriod:
    """A pair carries a nonzero invariant functional exactly when the
    branching multiplicity is 1."""

    def test_diagram_pair(self):
        assert multiplicity(E(3, (0, 0), 1, P), E(2, (0,), 0, P)) == 1

    def test_signature_mismatch(self):
        assert multiplicity(E(3, (0, 0), 1, P), E(2, (0,), 0, M)) == 0

    def test_trivial_pair(self):
        assert multiplicity(E(3, (0, 0), 0, P), E(2, (0,), 0, P)) == 1


class TestAqRecognition:
    def test_example_so71(self):
        aq = is_aq_lambda(E(7, (2, 1, 0, 0), 2, P))
        assert aq is not None
        assert aq.i == 2
        assert aq.lambda_part == W(2, 1)
        assert aq.inducing_degree == 8  # 2 * (6 - 2)
        assert aq.levi == (2, 3)  # SO(2)^2 x SO(3,1)

    def test_trivial_rho_members(self):
        for N in (3, 4, 5, 6):
            group = GroupTag(N)
            for i in range(group.top_height + 1):
                sig = B if group.is_even and i == group.top_height else P
                aq = is_aq_lambda(EnhancedParam(group, zero_weight(group.rank), i, sig))
                assert aq is not None and aq.i == i and aq.lambda_part == zero_weight(i)

    def test_rejects_nonzero_tail(self):
        assert is_aq_lambda(E(5, (1, 1, 0), 1, M)) is None

    def test_inducing_degree_matches_height(self):
        for N in (4, 5, 6, 7, 8):
            group = GroupTag(N)
            for e in grid_enhanced(group, 2):
                aq = is_aq_lambda(e)
                if aq is not None:
                    assert aq.inducing_degree == e.height * (group.n - e.height)


class TestDistinguishedSubgroup:
    def test_height_two_so51(self):
        assert distinguished_subgroup(E(5, (2, 1, 0), 2, M)) == GroupTag(3)

    def test_trivial_rho(self):
        for N in (4, 5, 6, 7):
            group = GroupTag(N)
            for i in range(group.top_height + 1):
                sig = B if group.is_even and i == group.top_height else P
                e = EnhancedParam(group, zero_weight(group.rank), i, sig)
                assert distinguished_subgroup(e) == GroupTag(group.n + 1 - i)

    def test_height_zero_is_own_group(self):
        e = E(6, (0, 0, 0), 0, P)
        assert distinguished_subgroup(e) == GroupTag(6)

    def test_requires_zero_tail(self):
        with pytest.raises(NotAqLambdaError):
            distinguished_subgroup(E(5, (1, 1, 0), 1, M))

    def test_below_the_smallest_group(self):
        # The discrete series of SO(2,1) would be distinguished by SO(1,1):
        # refused with the parameter and its group, not the unsupported one.
        with pytest.raises(OutOfRangeError) as got:
            distinguished_subgroup(E(2, (0,), 1, B))
        assert str(got.value) == (
            "(0||)pm of SO(2,1) has no distinguished subgroup: at height 1 it "
            "would lie below SO(2,1), the smallest group supported"
        )


class TestDistinguishingChain:
    def test_example_so31(self):
        chain = distinguishing_chain(E(3, (0, 0), 1, P), GroupTag(2), P)
        assert chain == [E(3, (0, 0), 1, P), E(2, (0,), 0, P)]

    def test_own_group_trivial(self):
        e = E(3, (0, 0), 0, P)
        assert distinguishing_chain(e, GroupTag(3), P) == [e]
        assert distinguishing_chain(e, GroupTag(3), M) is None

    def test_discrete_series_so41(self):
        chain = distinguishing_chain(E(4, (0, 0), 2, B), GroupTag(2), P)
        assert chain == [E(4, (0, 0), 2, B), E(3, (0, 0), 1, P), E(2, (0,), 0, P)]

    def test_consecutive_multiplicities(self):
        chain = distinguishing_chain(E(7, (2, 1, 0, 0), 2, P), GroupTag(5), P)
        assert chain is not None
        assert len(chain) == 3
        for a, b in zip(chain, chain[1:]):
            assert multiplicity(a, b) == 1
        assert chain[-1] == E(5, (0, 0, 0), 0, P)

    def test_minus_signature_reaches_minus_character(self):
        assert distinguishing_chain(E(3, (0, 0), 1, M), GroupTag(2), P) is None
        assert distinguishing_chain(E(3, (0, 0), 1, M), GroupTag(2), M) is not None

    def test_bad_target(self):
        with pytest.raises(BadTargetError):
            distinguishing_chain(E(3, (0, 0), 1, P), GroupTag(5), P)
        with pytest.raises(BadTargetError):
            distinguishing_chain(E(3, (0, 0), 1, P), GroupTag(2), B)

    def test_every_aq_has_a_chain(self):
        # Plus-signature (and discrete-series) members with all-zero tail reach
        # the trivial character of their distinguished subgroup.
        for N in (3, 4, 5, 6, 7):
            group = GroupTag(N)
            for e in grid_enhanced(group, 2):
                aq = is_aq_lambda(e)
                if aq is None or e.sig is M:
                    continue
                target = GroupTag(group.n + 1 - e.height)
                if target.N < 2:
                    continue
                chain = distinguishing_chain(e, target, P)
                assert chain is not None
                assert len(chain) == group.N - target.N + 1
                for a, b in zip(chain, chain[1:]):
                    assert multiplicity(a, b) == 1

    def test_deterministic_witness(self):
        # Depth-first with lexicographically largest weights explored first:
        # both (1,1,0) steps dead-end (their SO(4,1) targets never reach the
        # zero weight), so the witness passes through (1,0,0) at height 0.
        e = E(6, (1, 1, 0), 1, P)
        chain = distinguishing_chain(e, GroupTag(4), P)
        assert chain == [e, E(5, (1, 0, 0), 0, P), E(4, (0, 0), 0, P)]
        assert chain == distinguishing_chain(e, GroupTag(4), P)

    def test_matches_reference_dfs(self):
        # Every parameter with N <= 9 and entries <= 2, every target, both
        # signs: same answer and same witness as the unpruned search.
        cases = 0
        for N in range(2, 10):
            for e in grid_enhanced(GroupTag(N), 2):
                for target in map(GroupTag, range(2, N + 1)):
                    for psi in (P, M):
                        expected = reference_chain(e, target, psi)
                        assert distinguishing_chain(e, target, psi) == expected, (e, target, psi)
                        cases += 1
        assert cases == 6484

    def test_matches_reference_greedy(self):
        # Every parameter with N <= 11 and entries <= 3, every smaller
        # target, both signs: same answer and same witness as the descent
        # that took the first feasible target of branch_enumerate per level.
        cases = found = 0
        for N in range(3, 12):
            for e in grid_enhanced(GroupTag(N), 3):
                for target in map(GroupTag, range(2, N)):
                    for psi in (P, M):
                        expected = reference_greedy_chain(e, target, psi)
                        assert distinguishing_chain(e, target, psi) == expected, (e, target, psi)
                        cases += 1
                        found += expected is not None
        assert (cases, found) == (33944, 13924)

    @pytest.mark.parametrize(
        "e, target, expected",
        [
            (E(5, (10**6, 10**6, 0), 0, P), 3,
             [E(5, (10**6, 10**6, 0), 0, P), E(4, (10**6, 0), 0, P), E(3, (0, 0), 0, P)]),
            (E(21, tuple(10**5 - k for k in range(10)) + (0,), 1, P), 2, None),
        ],
    )
    def test_entry_size_does_not_cost(self, e, target, expected):
        # A found chain is N - M node constructions whatever its entries; the
        # descent through branch_enumerate took seconds on both cases.
        start = time.perf_counter()
        chain = distinguishing_chain(e, GroupTag(target), P)
        assert time.perf_counter() - start < 0.5
        assert len(chain) == e.group.N - target + 1
        if expected is not None:
            assert chain == expected
        for a, b in zip(chain, chain[1:]):
            assert multiplicity(a, b) == 1
        assert chain[-1] == EnhancedParam(GroupTag(target), zero_weight(GroupTag(target).rank), 0, P)

    def test_reaches_matches_reference_table(self):
        # The closed form against the level-by-level table it replaced, on
        # every (N <= 24, M, h, sig, psi).
        from sobranch.periods import _reaches
        from sobranch.reps import signatures_at

        cases = 0
        for N in range(2, 25):
            group = GroupTag(N)
            for target in range(2, N + 1):
                for h in range(group.top_height + 1):
                    for sig in signatures_at(group, h):
                        for psi in (P, M):
                            case = (N, h, sig, target, psi)
                            table = reference_chain_states(N, h, target, psi)
                            assert _reaches(*case) == ((h, sig) in table[N - target]), case
                            cases += 1
        assert cases == 9752

    @pytest.mark.parametrize("N, h, target, found", [
        (7, 3, 3, True),   # 2M = N - 1: the slot of SO(6,1) flips the sign
        (6, 2, 3, False),  # 2M = N: a flip needs a slot on SO(K,1), K >= 6 = N
        (9, 2, 2, True),   # M = h: the slot of SO(4,1) is in reach
        (9, 2, 3, False),  # M = h + 1: the slots from SO(6,1) up lie above height 2
    ])
    def test_sign_flip_boundaries(self, N, h, target, found):
        # A definite sign against psi, checked against the exhaustive search.
        e = E(N, (0,) * GroupTag(N).rank, h, M)
        chain = distinguishing_chain(e, GroupTag(target), P)
        assert (chain is not None) is found
        assert chain == reference_chain(e, GroupTag(target), P)

    @pytest.mark.parametrize("N", [9, 11, 13])
    def test_exhaustive_search_cliffs_are_fast(self, N):
        # (N-1, N-3, ..., 0) at height 1 with sign - never reaches chi_+ on
        # SO(3,1); the exhaustive search took seconds to say so.
        e = E(N, tuple(range(N - 1, -1, -2)), 1, M)
        start = time.perf_counter()
        assert distinguishing_chain(e, GroupTag(3), P) is None
        assert time.perf_counter() - start < 0.5


class TestPeriodValue:
    def test_unit_at_height_zero(self):
        for n in range(1, 41):
            v = period_value(n, 0)
            assert (v.sign, v.rational, v.pi_quarters) == (1, 1, 0)
            assert v.pretty() == "1"

    def test_unit_at_height_zero_is_immediate(self):
        # Forming n! twice took about 20 s here before the value 1 came back.
        start = time.perf_counter()
        assert period_value(10**6, 0) == PeriodValue(1, Fraction(1), 0)
        assert time.perf_counter() - start < 0.5

    def test_examples(self):
        v = period_value(2, 1)
        assert (v.sign, v.rational, v.pi_quarters) == (1, Fraction(1), 2)
        assert v.pretty() == "π^{1/2}"
        v = period_value(3, 3)
        assert (v.sign, v.rational, v.pi_quarters) == (1, Fraction(2), 6)
        assert v.pretty() == "2·π^{3/2}"

    def test_sign_rule(self):
        for n in range(1, 16):
            for i in range(n + 1):
                v = period_value(n, i)
                if 2 * i >= n + 1:
                    assert v.sign == (-1) ** (n + 1)
                else:
                    assert v.sign == 1

    def test_quarters_formula(self):
        for n in range(1, 16):
            for i in range(n + 1):
                assert period_value(n, i).pi_quarters == i * (2 * n - i - 1)

    def test_matches_direct_substitution(self):
        # Every height for n up to 40, and for n in the benchmark's range up to 200.
        for n in [*range(1, 41), 59, 86, 104, 150, 200]:
            for i in range(n + 1):
                v = period_value(n, i)
                sign, rational, quarters = period_formula(n, i)
                assert (v.sign, v.rational, v.pi_quarters) == (sign, rational, quarters)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            period_value(4, 5)
        with pytest.raises(OutOfRangeError):
            period_value(4, -1)
        for n in (0, -1):  # SO(n+1,1) needs n >= 1
            with pytest.raises(OutOfRangeError):
                period_value(n, 0)

    def test_invalid_value_raises_under_optimize(self):
        # The invariant is a package error, not an assert, so it survives -O.
        code = (
            "from fractions import Fraction\n"
            "from sobranch.errors import SobranchError\n"
            "from sobranch.periods import PeriodValue\n"
            "try:\n"
            "    PeriodValue(2, Fraction(1), 0)\n"
            "except SobranchError:\n"
            "    print('rejected')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env=src_env(), capture_output=True, text=True
        )
        assert proc.stdout.strip() == "rejected", proc.stderr

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit limit set")
    def test_digit_limit_is_a_package_error(self):
        limit = sys.get_int_max_str_digits()
        widest = 10 ** limit - 1  # exactly the limit's number of digits
        assert PeriodValue(1, Fraction(widest, 7), 0).to_json()["num"] == str(widest)
        assert PeriodValue(-1, Fraction(1, widest), 4).pretty() == f"-1/{widest}·π"
        for v in (period_value(200, 100), PeriodValue(1, Fraction(1, 10 * widest + 7), 2)):
            for render in (v.pretty, v.to_json):
                with pytest.raises(OutOfRangeError, match=f"more than {limit} digits"):
                    render()

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit limit set")
    def test_digit_bound_refuses_only_unwritable_values(self):
        # Around the first values past the limit (n = 114), the early check
        # refuses a value only when writing it out fails as well.  At or
        # above the middle the numerator (2i-n-1)! passes the limit first
        # near i = n, where (n-1)! does; the second sweep covers that edge.
        limit = sys.get_int_max_str_digits()
        edge = next(n for n in itertools.count(2) if math.lgamma(n) / math.log(10) > limit)
        sweep = [(n, i) for n in range(100, 131) for i in range(n + 1)]
        sweep += [(n, i) for n in range(edge - 15, edge + 16) for i in range(n - 3, n + 1)]
        refused = set()
        for n, i in sweep:
            try:
                check_period_digits(n, i)
            except OutOfRangeError as exc:
                refused.add((n, i))
                with pytest.raises(OutOfRangeError, match=re.escape(str(exc))):
                    period_value(n, i).to_json()
        assert any(2 * i < n + 1 for n, i in refused)
        assert (edge + 15, edge + 15) in refused and (edge - 15, edge - 15) not in refused

    def test_digit_bound_is_exact(self):
        # With the smallest limit Python allows, the early check refuses
        # exactly the values whose reduced numerator or denominator cannot
        # be written, including the near-cancelling quotients at 2i >= n+1.
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for n in range(1, 251):
                for i in range(n + 1):
                    try:
                        check_period_digits(n, i)
                        early = None
                    except OutOfRangeError as exc:
                        early = str(exc)
                    try:
                        period_value(n, i).to_json()
                        late = None
                    except OutOfRangeError as exc:
                        late = str(exc)
                    assert early == late, (n, i)
        finally:
            sys.set_int_max_str_digits(old)

    def test_numerator_bound_refuses_before_forming_it(self):
        # period_value(300000, 300000) is 299999!, formed in about 1.6 s
        # before writing it failed.
        start = time.perf_counter()
        with pytest.raises(OutOfRangeError, match="digits"):
            check_period_digits(300000, 300000)
        assert time.perf_counter() - start < 0.5

    def test_json(self):
        assert period_value(3, 3).to_json() == {
            "sign": 1,
            "num": "2",
            "den": "1",
            "pi_quarters": 6,
            "pretty": "2·π^{3/2}",
        }


class TestMinimalKType:
    def test_examples(self):
        label = minimal_k_type_trivial_rho(4, 1)
        assert (label.degree, label.ambient, label.dimension) == (1, 5, 5)
        assert minimal_k_type_trivial_rho(3, 2).dimension == 6
        assert minimal_k_type_trivial_rho(7, 0).dimension == 1

    def test_binomial_dimension(self):
        for n in range(1, 10):
            for i in range(n + 2):
                assert minimal_k_type_trivial_rho(n, i).dimension == comb(n + 1, i)

    def test_dimension_refused_exactly_when_unwritable(self):
        # With the smallest limit Python allows, writing the label fails
        # exactly when str(C(n+1, i)) does.  The sweep covers every n <= 300,
        # where no dimension reaches the limit, and the rows around n = 2130,
        # where the middle dimensions pass it.
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            sweep = [(n, i) for n in range(1, 301) for i in range(n + 2)]
            sweep += [(n, i) for n in range(2110, 2160, 7) for i in range(n // 2 - 60, n // 2 + 62)]
            refused = 0
            for n, i in sweep:
                try:
                    str(comb(n + 1, i))
                    unwritable = False
                except ValueError:
                    unwritable = True
                try:
                    minimal_k_type_trivial_rho(n, i).to_json()
                    refusal = None
                except OutOfRangeError as exc:
                    refusal = str(exc)
                    refused += 1
                assert (refusal is not None) is unwritable, (n, i)
                if refusal is not None:
                    assert refusal == (
                        "minimal K-type dimension has more than 640 digits, "
                        "the limit of Python's int-to-string conversion"
                    )
            assert 0 < refused < len(sweep)
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit limit set")
    def test_far_past_the_limit_refused_before_forming(self, monkeypatch):
        # C(10^6 + 1, 5 * 10^5) took about 11 s to form; C(10^100, 5 * 10^49)
        # could not be formed at all.
        def no_comb(n, k):
            raise AssertionError(f"comb({n}, {k}) formed")

        monkeypatch.setattr(math, "comb", no_comb)
        for n, i in ((10 ** 6, 5 * 10 ** 5), (10 ** 100, 5 * 10 ** 49), (10 ** 4000, 2)):
            with pytest.raises(OutOfRangeError, match="K-type dimension has more than"):
                minimal_k_type_trivial_rho(n, i).to_json()

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            minimal_k_type_trivial_rho(3, 5)
        for n, i in ((0, 0), (0, 1), (-1, 0)):  # SO(n+1,1) needs n >= 1
            with pytest.raises(OutOfRangeError, match="n >= 1"):
                minimal_k_type_trivial_rho(n, i)
