"""Unit tests for enumeration, ranges, and ordinal indexing."""

from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from dycknum import core, oracle, sequence

HEAD = [0, 1, 3, 5, 7, 11, 13, 15, 19, 21, 23, 27, 29, 31, 39, 43, 45, 47, 51, 53, 55]

# first terms of ranges 1..15
RANGE_FIRSTS = [1, 3, 5, 11, 19, 39, 71, 143, 271, 543, 1055, 2111, 4159, 8319, 16511]


def _naive_is_dyck(n):
    bits = bin(n)[2:]
    return all(bits[p:].count("1") >= bits[p:].count("0") for p in range(len(bits)))


class TestCentralBinomial:
    def test_head(self):
        assert [sequence.central_binomial(m) for m in range(10)] == [
            1, 1, 2, 3, 6, 10, 20, 35, 70, 126,
        ]

    def test_spot_values(self):
        assert sequence.central_binomial(0) == 1
        assert sequence.central_binomial(4) == 6
        assert sequence.central_binomial(15) == 6435
        assert sequence.central_binomial(21) == 352716


class TestIterFrom:
    def test_head_from_zero(self):
        assert list(islice(sequence.iter_from(), len(HEAD))) == HEAD

    def test_resumes_mid_sequence(self):
        assert list(islice(sequence.iter_from(31), 2)) == [31, 39]
        assert next(sequence.iter_from(1)) == 1

    def test_rejects_non_dyck_start(self):
        with pytest.raises(core.NotDyckNumberError):
            next(sequence.iter_from(9))


class TestRanges:
    def test_small_ranges(self):
        assert sequence.range_terms(1) == [1]
        assert sequence.range_terms(2) == [3]
        assert sequence.range_terms(3) == [5, 7]
        assert sequence.range_terms(4) == [11, 13, 15]
        assert sequence.range_terms(5) == [19, 21, 23, 27, 29, 31]

    def test_range_16_boundaries(self):
        terms = sequence.range_terms(16)
        assert terms[:2] == [33023, 33151]
        assert terms[-1] == 65535
        assert len(terms) == 6435

    def test_zero_range_is_opt_in(self):
        with pytest.raises(ValueError):
            sequence.range_terms(0)
        assert sequence.range_terms(0, allow_zero_range=True) == [0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sequence.range_terms(-2)
        with pytest.raises(ValueError):
            next(sequence.iter_range(0))

    def test_terms_are_exactly_the_k_bit_dyck_numbers(self):
        for k in range(1, 9):
            brute = [
                n
                for n in range(1 << (k - 1), 1 << k)
                if _naive_is_dyck(n)
            ]
            assert sequence.range_terms(k) == brute

    def test_range_firsts(self):
        firsts = [next(sequence.iter_range(k)) for k in range(1, 16)]
        assert firsts == RANGE_FIRSTS

    def test_range_firsts_alternating_recurrence(self):
        # odd k doubles and adds one; even k adds 2**(k-1)
        f = RANGE_FIRSTS
        for k in range(1, 15):
            if k % 2 == 1:
                assert f[k] == 2 * f[k - 1] + 1
            else:
                assert f[k] == f[k - 1] + (1 << (k - 1))


class TestRangeStats:
    def test_range_5(self):
        stats = sequence.range_stats(5)
        assert stats == sequence.RangeStats(k=5, first=19, last=31, size=6, expected=6)
        assert stats.matches

    def test_range_1(self):
        stats = sequence.range_stats(1)
        assert (stats.first, stats.last, stats.size) == (1, 1, 1)

    def test_verify_conjecture_head(self):
        results = sequence.verify_conjecture(10)
        assert [r.size for r in results] == [1, 1, 2, 3, 6, 10, 20, 35, 70, 126]
        assert all(r.matches for r in results)

    def test_verify_conjecture_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            sequence.verify_conjecture(0)


class TestTermAt:
    @pytest.mark.parametrize("i,expected", [(1, 0), (2, 1), (4, 5), (9, 19), (14, 31)])
    def test_head_ordinals(self, i, expected):
        assert sequence.term_at(i) == expected

    def test_matches_plain_iteration(self):
        terms = list(islice(sequence.iter_from(), 100))
        assert [sequence.term_at(i) for i in range(1, 101)] == terms

    def test_bfile_anchor(self):
        assert sequence.term_at(13496) == 65535

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            sequence.term_at(0)


class TestIndexOf:
    def test_head_ordinals(self):
        for i, d in enumerate(HEAD, start=1):
            assert sequence.index_of(d) == i

    def test_ordinal_of_39_by_recount(self):
        brute = 1 + sum(1 for n in range(1, 40, 2) if _naive_is_dyck(n))
        assert brute == 15
        assert sequence.index_of(39) == 15

    def test_bfile_anchor(self):
        assert sequence.index_of(65535) == 13496

    def test_rejects_non_dyck(self):
        with pytest.raises(core.NotDyckNumberError):
            sequence.index_of(4)

    def test_inverse_of_term_at(self):
        for i in [1, 2, 3, 10, 50, 200, 1000]:
            assert sequence.index_of(sequence.term_at(i)) == i

    def test_mersenne_ordinals_accumulate_range_sizes(self):
        # the k-th Mersenne number closes range k, so its ordinal is one
        # (for the zero term) plus the sizes of ranges 1..k
        for k in range(1, 201):
            expected = 1 + sum(sequence.central_binomial(j) for j in range(k))
            assert sequence.index_of(core.mersenne(k)) == expected


class TestExactRanking:
    def test_every_term_below_2_to_16_against_the_oracle(self):
        terms = [0]
        for k in range(1, 17):
            terms.extend(oracle.brute_range(k))
        for i, d in enumerate(terms, start=1):
            assert sequence.index_of(d) == i
            assert sequence.term_at(i) == d

    @given(st.integers(min_value=1, max_value=10**40))
    @settings(deadline=None)
    def test_consecutive_ordinals_are_successors(self, i):
        assert sequence.term_at(i + 1) == core.successor(sequence.term_at(i))

    def test_no_successor_walk(self, monkeypatch):
        # ordinals near 10**18 or 200 bits are out of reach of any walk;
        # the pinned term was checked by a separate digit-DP count of the
        # Dyck numbers up to it, low digit first, with no binomials
        def no_walk(d):
            raise AssertionError("ranking must not step the successor")

        monkeypatch.setattr(core, "_successor_unchecked", no_walk)
        d = sequence.term_at(10**18)
        assert d == 9983547819144068307
        assert sequence.index_of(d) == 10**18
        expected = 1 + sum(sequence.central_binomial(j) for j in range(200))
        assert sequence.index_of(core.mersenne(200)) == expected

