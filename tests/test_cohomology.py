import pytest

from sobranch import (
    EnhancedParam,
    GroupTag,
    Signature,
    Weight,
    bilinear_gate,
    bilinear_nonzero_trivial_rho,
    gp_tempered_check,
    multiplicity,
    pairing_trivial_rho,
    zero_weight,
)
from sobranch.errors import GroupMismatchError, OutOfRangeError
from sobranch.oracle import grid_enhanced
from sobranch.reps import DiscreteSeries, TemperedPS

from conftest import reference_bilinear_gate

P, M, B = Signature.PLUS, Signature.MINUS, Signature.BOTH


def W(*entries):
    return Weight(tuple(entries))


def E(N, entries, h, sig):
    return EnhancedParam(GroupTag(N), W(*entries), h, sig)


class TestCoefficientWeight:
    """The gate's coefficient condition: each coefficient weight must be the
    theta-weight of its parameter."""

    def test_trivial_rho(self):
        big, small = E(5, (0, 0, 0), 1, P), E(4, (0, 0), 1, P)
        assert bilinear_gate(big, small, W(0, 0, 0), W(0, 0)) == 1
        assert bilinear_gate(big, small, W(1, 0, 0), W(0, 0)) is None

    def test_general(self):
        big, small = E(5, (1, 1, 0), 1, M), E(4, (1, 1), 1, M)
        assert bilinear_gate(big, small, W(1, 1, 0), W(1, 1)) == 1
        assert bilinear_gate(big, small, W(1, 1, 0), W(1, 0)) is None

    def test_finite_dim(self):
        big, small = E(4, (2, 1), 0, M), E(3, (2, 0), 0, M)
        assert bilinear_gate(big, small, W(2, 1), W(2, 0)) == 0
        assert bilinear_gate(big, small, W(2, 0), W(2, 0)) is None


class TestTrivialRhoTable:
    def test_examples(self):
        assert bilinear_nonzero_trivial_rho(6, 0, P, 0) is True
        assert bilinear_nonzero_trivial_rho(6, 1, P, 1) is False
        assert bilinear_nonzero_trivial_rho(6, 2, M, 3) is False

    def test_exact_truth_table(self):
        for n in range(2, 11):
            for i in range(n // 2 + 1):
                for delta in (P, M):
                    for j in range(n + 1):
                        expected = j == i and delta is (P if i % 2 == 0 else M)
                        assert bilinear_nonzero_trivial_rho(n, i, delta, j) is expected

    def test_unique_sign_per_height(self):
        for n in range(2, 11):
            for i in range(n // 2 + 1):
                hits = [
                    (delta, j)
                    for delta in (P, M)
                    for j in range(n + 1)
                    if bilinear_nonzero_trivial_rho(n, i, delta, j)
                ]
                assert hits == [(P if i % 2 == 0 else M, i)]

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            bilinear_nonzero_trivial_rho(4, 3, P, 0)
        with pytest.raises(OutOfRangeError):
            bilinear_nonzero_trivial_rho(4, 1, P, 5)
        with pytest.raises(OutOfRangeError):
            bilinear_nonzero_trivial_rho(4, 1, B, 1)

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_subgroup_below_two(self, n):
        # SO(n,1) does not exist for n < 2.
        with pytest.raises(OutOfRangeError, match=r"^SO\(1,1\) not supported; need N >= 2$"):
            bilinear_nonzero_trivial_rho(n, 0, P, 0)

    def test_twisted_member_passes_the_gate_only(self):
        # The gate pins only the coefficient's weight, so it accepts the
        # height-1 '+' members, the twist of the trivial-coefficient pair;
        # the table fixes the trivial coefficient and gives them no degree.
        big, small = E(5, (0, 0, 0), 1, P), E(4, (0, 0), 1, P)
        assert bilinear_gate(big, small, zero_weight(3), zero_weight(2)) == 1
        assert not any(bilinear_nonzero_trivial_rho(4, 1, P, j) for j in range(5))


class TestPairingDescriptor:
    def test_default_rendering(self):
        desc = pairing_trivial_rho(4, 1, M, 1)
        assert desc.right_degree == 3
        assert desc.right_index == 3  # n - i
        assert desc.right_sig is M  # (-1)^n * delta with n even
        assert desc.rendering == "section6"
        assert desc.nonzero is True  # j == i and delta == (-1)^1

    def test_intro_rendering_differs(self):
        default = pairing_trivial_rho(4, 1, M, 1)
        intro = pairing_trivial_rho(4, 1, M, 1, intro_rendering=True)
        assert intro.right_index == 1 and intro.right_sig is P
        assert (default.right_index, default.right_sig) != (
            intro.right_index,
            intro.right_sig,
        )
        # the nonvanishing answer is rendering-independent
        assert default.nonzero == intro.nonzero

    def test_json_mirror(self):
        data = pairing_trivial_rho(5, 2, P, 2).to_json()
        assert data["degree"] == 2
        assert data["right"]["degree"] == 3
        assert data["nonzero"] is True
        assert data["left"]["param"]["height"] == 2


class TestBilinearGate:
    def test_trivial_rho_height_one(self):
        big, small = E(5, (0, 0, 0), 1, P), E(4, (0, 0), 1, P)
        assert bilinear_gate(big, small, zero_weight(3), zero_weight(2)) == 1

    def test_signature_mismatch(self):
        big, small = E(5, (0, 0, 0), 1, P), E(4, (0, 0), 1, M)
        assert bilinear_gate(big, small, zero_weight(3), zero_weight(2)) is None

    def test_finite_dim_pair(self):
        big, small = E(5, (0, 0, 0), 0, P), E(4, (0, 0), 0, P)
        assert bilinear_gate(big, small, zero_weight(3), zero_weight(2)) == 0

    def test_coefficient_mismatch(self):
        big, small = E(5, (1, 1, 0), 1, M), E(4, (1, 1), 1, M)
        assert bilinear_gate(big, small, zero_weight(3), W(1, 1)) is None
        assert bilinear_gate(big, small, W(1, 1, 0), W(1, 1)) == 1

    def test_height_mismatch(self):
        big, small = E(5, (0, 0, 0), 1, P), E(4, (0, 0), 0, P)
        assert bilinear_gate(big, small, zero_weight(3), zero_weight(2)) is None

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            bilinear_gate(
                E(5, (0, 0, 0), 1, P),
                E(3, (0, 0), 1, P),
                zero_weight(3),
                zero_weight(2),
            )
        # The group check does not depend on the coefficients.
        with pytest.raises(GroupMismatchError, match=r"^SO\(3,1\) is not the rank-one subgroup"):
            bilinear_gate(E(5, (0, 0, 0), 1, P), E(3, (0, 0), 1, P), W(1, 0, 0), W(2, 0))

    def test_gate_refines_period(self):
        for N in (3, 4, 5, 6):
            for big in grid_enhanced(GroupTag(N), 2):
                for small in grid_enhanced(GroupTag(N - 1), 2):
                    degree = bilinear_gate(big, small, big.s, small.s)
                    if degree is not None:
                        assert degree == big.height == small.height
                        assert multiplicity(big, small) == 1

    def test_matches_five_condition_reference(self):
        for N in range(3, 8):
            for big in grid_enhanced(GroupTag(N), 2):
                zero_big = zero_weight(big.group.rank)
                for small in grid_enhanced(GroupTag(N - 1), 2):
                    zero_small = zero_weight(small.group.rank)
                    for coeffs in (
                        (big.s, small.s),
                        (zero_big, zero_small),
                        (big.s, zero_small),
                        (zero_big, small.s),
                    ):
                        assert bilinear_gate(big, small, *coeffs) == reference_bilinear_gate(
                            big, small, *coeffs
                        ), (big, small, coeffs)


def test_gp_tempered_check_group_mismatch():
    big = TemperedPS(GroupTag(5), W(1, 1), P)
    small = DiscreteSeries(GroupTag(2), W(), 1)
    with pytest.raises(GroupMismatchError) as exc:
        gp_tempered_check(big, small)
    assert str(exc.value) == "SO(2,1) is not the rank-one subgroup of SO(5,1)"
