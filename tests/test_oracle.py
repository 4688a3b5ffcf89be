"""Tests for the brute-force oracles, plus bounded agreement sweeps.

The full-tolerance equivalence sweeps live in test_acceptance; here the
oracles themselves are pinned to hand-checked values and cross-checked
against the fast implementations over small domains.
"""

import pytest

from dycknum import core, oracle, sequence


class TestBruteSuccessor:
    @pytest.mark.parametrize(
        "d,expected", [(0, 1), (13, 15), (31, 39), (143, 151), (55, 59)]
    )
    def test_known_values(self, d, expected):
        assert oracle.brute_successor(d) == expected

    def test_rejects_non_dyck(self):
        with pytest.raises(core.NotDyckNumberError):
            oracle.brute_successor(9)

    def test_budget_counts_every_scan(self, monkeypatch):
        # 31 has 5 bits and its odd candidates 33, 35, 37, 39 have 6
        cost = 5 * (5 + 512) + 4 * 6 * (6 + 512)
        monkeypatch.setattr(oracle, "SUCCESSOR_SCAN_BUDGET", cost)
        assert oracle.brute_successor(31) == 39
        monkeypatch.setattr(oracle, "SUCCESSOR_SCAN_BUDGET", cost - 1)
        with pytest.raises(ValueError, match=f"SUCCESSOR_SCAN_BUDGET = {cost - 1}$"):
            oracle.brute_successor(31)

    def test_refuses_past_the_budget(self):
        # 2**40 - 1 is followed by 2**19 odd candidates, so a scan without
        # the budget ends too, and this test then fails
        with pytest.raises(ValueError, match="on a 40-bit number") as exc_info:
            oracle.brute_successor(core.mersenne(40))
        assert str(oracle.SUCCESSOR_SCAN_BUDGET) in str(exc_info.value)

    def test_refuses_a_wide_input_before_scanning_it(self):
        # an even number is no Dyck number, so the budget spoke first
        with pytest.raises(ValueError, match="on a 50001-bit number"):
            oracle.brute_successor(1 << 50000)

    def test_budget_admits_every_scan_below_2_to_24(self):
        # 2**24 - 1 is followed by 2**11 candidates, the most below 2**24
        d = core.mersenne(24)
        assert oracle.brute_successor(d) == core.mersenne_successor(24)

    def test_agrees_with_closed_form_below_4096(self):
        d = 0
        while d < 4096:
            assert core.successor(d) == oracle.brute_successor(d)
            d = core.successor(d)


class TestBruteRange:
    def test_small_ranges(self):
        assert oracle.brute_range(1) == [1]
        assert oracle.brute_range(2) == [3]
        assert oracle.brute_range(3) == [5, 7]
        assert oracle.brute_range(4) == [11, 13, 15]

    def test_guard_refuses_large_scans(self):
        with pytest.raises(ValueError, match="force=True"):
            oracle.brute_range(oracle.SCAN_GUARD_BITS + 1)

    def test_force_overrides_guard(self):
        assert oracle.brute_range(5, force=True) == oracle.brute_range(5)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            oracle.brute_range(0)

    def test_agrees_with_successor_walk(self):
        for k in range(1, 11):
            assert sequence.range_terms(k) == oracle.brute_range(k)


class TestMembershipAgreement:
    def test_exhaustive_below_4096(self):
        for n in range(4096):
            assert core.is_dyck_number(n) == oracle._suffix_balanced(n)


class TestKasaZeroBounds:
    def test_holds_on_small_terms(self):
        assert oracle.kasa_zero_bounds(5)
        assert oracle.kasa_zero_bounds(0)
        assert oracle.kasa_zero_bounds(2893215)

    def test_holds_on_mersenne_numbers(self):
        assert all(oracle.kasa_zero_bounds(core.mersenne(k)) for k in range(12))

    def test_holds_across_small_ranges(self):
        for k in range(1, 12):
            assert all(oracle.kasa_zero_bounds(d) for d in sequence.iter_range(k))

    def test_rejects_non_dyck(self):
        with pytest.raises(core.NotDyckNumberError):
            oracle.kasa_zero_bounds(6)
