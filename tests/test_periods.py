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

from conftest import period_formula, reference_chain, src_env

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
                assert aq is not None and aq.i == i and aq.lambda_part.is_zero()

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

    def test_state_table_cached_and_immutable(self):
        # The (height, signature) table depends only on plain values, so
        # one object serves every chain with the same (N, height, M, psi).
        from sobranch.periods import _chain_states

        table = _chain_states(9, 2, 3, P)
        assert table is _chain_states(9, 2, 3, P)
        assert isinstance(table, tuple) and len(table) == 7
        assert all(isinstance(level, frozenset) for level in table)
        assert _chain_states.cache_info().maxsize is not None

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
        for n in range(1, 13):
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

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            minimal_k_type_trivial_rho(3, 5)
        for n, i in ((0, 0), (0, 1), (-1, 0)):  # SO(n+1,1) needs n >= 1
            with pytest.raises(OutOfRangeError, match="n >= 1"):
                minimal_k_type_trivial_rho(n, i)
