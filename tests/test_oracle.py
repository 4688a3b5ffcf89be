"""Tests for the brute-force oracles themselves.

Each reference is pinned to hand-checked values, its budget and its
refusals, and checked against the oracle's other references. The fast
paths are checked against the oracle in their own modules' tests and in
test_acceptance; membership below 4096 is the one such sweep kept here.
"""

import random
from itertools import chain

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

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="^expected a natural number, got -1$"):
            oracle.brute_successor(-1)

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


class TestBruteRange:
    def test_small_ranges(self):
        assert oracle.brute_range(1) == [1]
        assert oracle.brute_range(2) == [3]
        assert oracle.brute_range(3) == [5, 7]
        assert oracle.brute_range(4) == [11, 13, 15]

    def test_guard_refuses_large_scans(self):
        # range 20's 2**18 scans of 20 bits cost more than the budget, and a
        # range too wide to hold in memory is refused as quickly
        budget = oracle.SUCCESSOR_SCAN_BUDGET
        for k in (20, 10**12):
            with pytest.raises(ValueError, match=f"SUCCESSOR_SCAN_BUDGET = {budget}$"):
                oracle.brute_range(k)

    def test_budget_counts_every_candidate(self, monkeypatch):
        # range 5 has 8 odd candidates of 5 bits, range 1 the one candidate 1
        cost = 8 * 5 * (5 + 512)
        monkeypatch.setattr(oracle, "SUCCESSOR_SCAN_BUDGET", cost)
        assert oracle.brute_range(5) == sequence.range_terms(5)
        monkeypatch.setattr(oracle, "SUCCESSOR_SCAN_BUDGET", cost - 1)
        with pytest.raises(ValueError, match=r"brute_range\(5\) gives up: its 2\*\*3 scans"):
            oracle.brute_range(5)
        monkeypatch.setattr(oracle, "SUCCESSOR_SCAN_BUDGET", 513)
        assert oracle.brute_range(1) == [1]
        monkeypatch.setattr(oracle, "SUCCESSOR_SCAN_BUDGET", 512)
        with pytest.raises(ValueError):
            oracle.brute_range(1)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            oracle.brute_range(0)


class TestSuccessorAndRanking:
    """The references without a budget, against the scans below 2**14."""

    def test_successor_of_every_member(self):
        d = 0
        while d < 1 << 14:
            after = oracle.brute_successor(d)
            assert oracle._successor(d) == after, d
            d = after

    def test_ranking_at_every_ordinal(self):
        terms = [0, *chain.from_iterable(map(oracle.brute_range, range(1, 15)))]
        for i, d in enumerate(terms, start=1):
            assert oracle._term_at(i) == d, i
            assert oracle._index_of(d) == i, d

    def test_refusals(self):
        with pytest.raises(ValueError, match="^ordinal must be >= 1, got 0$"):
            oracle._term_at(0)
        for refuse in (oracle._successor, oracle._index_of):
            with pytest.raises(ValueError, match="^expected a natural number, got -1$"):
                refuse(-1)


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

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="^expected a natural number, got -1$"):
            oracle.kasa_zero_bounds(-1)


class TestPerDigitReferences:
    """The oracle's per-digit walks, for every n below 2**12."""

    def test_violating_suffix_is_the_shortest_unbalanced_suffix(self):
        for n in range(1 << 12):
            suffix = oracle._violating_suffix(n)
            assert (suffix is None) == oracle._suffix_balanced(n), n
            if suffix is not None:
                assert suffix == bin(n)[-len(suffix) :], n
                assert suffix.count("0") > suffix.count("1"), n
                shorter = (suffix[-k:] for k in range(1, len(suffix)))
                assert all(s.count("0") <= s.count("1") for s in shorter), n

    def test_valley_depth_is_none_only_without_a_valley(self):
        for n in range(1 << 12):
            no_valley = n == core.mersenne(n.bit_length())
            assert (oracle._valley_depth(n) is None) == no_valley, n

    def test_heights_end_at_ones_minus_zeros(self):
        for n in range(1 << 12):
            assert [0, *oracle._heights(n)][-1] == 2 * n.bit_count() - n.bit_length(), n

    def test_padding_digits_step_down(self):
        for n in range(1 << 12):
            width = n.bit_length()
            heights = oracle._heights(n, width + 9)
            assert heights[:width] == oracle._heights(n), n
            steps = [b - a for a, b in zip([0, *heights][width:], heights[width:])]
            assert steps == [-1] * 9, n


class TestRefusalsWithoutCore:
    """The oracle answers and names its refusals without core's or sequence's fast paths."""

    @pytest.fixture
    def no_fast_paths(self, monkeypatch):
        # the refusals the parent named through core, taken before the patch
        rng = random.Random(10**4)
        wide = rng.getrandbits(10**4) | 1 << 10**4 - 1
        while oracle._suffix_balanced(wide):
            wide = rng.getrandbits(10**4) | 1 << 10**4 - 1
        expected = {n: core.NotDyckNumberError(n, core.violating_suffix(n)) for n in (9, wide)}

        def broken(*args):
            raise AssertionError("the oracle must not read core's or sequence's fast paths")

        for name in ("_scan", "violating_suffix", "successor"):
            monkeypatch.setattr(core, name, broken)
        for name in ("term_at", "index_of", "_high_parts"):
            monkeypatch.setattr(sequence, name, broken)
        return expected

    def test_members_are_answered(self, no_fast_paths):
        assert [oracle.brute_range(k) for k in range(1, 5)] == [[1], [3], [5, 7], [11, 13, 15]]
        assert oracle.brute_successor(55) == 59
        assert oracle.kasa_zero_bounds(2893215)
        assert oracle._successor(2893215) == 2893231
        # the b-file anchor, and a term that test_no_successor_walk pins
        for i, d in [(13496, 65535), (10**18, 9983547819144068307)]:
            assert (oracle._term_at(i), oracle._index_of(d)) == (d, i)

    @pytest.mark.parametrize(
        "refuse",
        [oracle.brute_successor, oracle.kasa_zero_bounds, oracle._successor, oracle._index_of],
    )
    def test_non_members_are_refused_as_before(self, no_fast_paths, refuse):
        for n, error in no_fast_paths.items():
            with pytest.raises(core.NotDyckNumberError) as exc_info:
                refuse(n)
            assert type(exc_info.value) is core.NotDyckNumberError
            assert exc_info.value.args == error.args
            assert (exc_info.value.value, exc_info.value.suffix) == (n, error.suffix)
