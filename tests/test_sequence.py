"""Unit tests for enumeration, ranges, and ordinal indexing."""

import random
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

    def test_zero_range_is_refused(self):
        with pytest.raises(ValueError, match="range index must be >= 1, got 0"):
            sequence.range_terms(0)

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



def _plain_walk(d):
    # the per-term successor walk that block enumeration must reproduce
    while True:
        yield d
        d = core._successor_unchecked(d)


def _naive_lowest(n):
    level = lowest = 0
    for bit in bin(n)[:1:-1]:
        level += 1 if bit == "1" else -1
        lowest = min(lowest, level)
    return lowest


@st.composite
def high_parts(draw, floor=sequence._B, max_bits=60):
    """A walk whose lowest point is >= -floor, drawn digit by digit from the low end."""
    length = draw(st.integers(1, max_bits))
    level, high = floor, 0
    for pos in range(length - 1):
        bit = 1 if level == 0 else draw(st.integers(0, 1))
        high |= bit << pos
        level += 1 if bit else -1
    return high | 1 << (length - 1)


class TestBlockWalk:
    def test_tables_hold_exactly_the_walks_that_end_high_enough(self):
        small, tails = sequence._tables()
        assert list(small) == [0] + [d for k in range(1, 13) for d in oracle.brute_range(k)]
        B = sequence._B
        ends = {}
        for w in range(1 << B):
            heights = [2 * bin(w & ((1 << p) - 1)).count("1") - p for p in range(1, B + 1)]
            if min(heights) >= 0:
                ends[w] = heights[-1]
        assert len(tails) == B + 1
        for need, tail in enumerate(tails):
            assert list(tail) == sorted(w for w, end in ends.items() if end >= need)

    def test_odd_rows_are_the_even_rows_after_them(self):
        # a 12-digit walk ends at an even height, so no walk ends at 2t - 1
        tails = sequence._tables()[1]
        for t in range(1, sequence._B // 2 + 1):
            assert tails[2 * t - 1] is tails[2 * t], t
        assert len({id(row) for row in tails}) == sequence._B // 2 + 1

    def test_high_part_successor_against_a_search(self):
        # every Dyck number and every valid high part below 2**13: the Dyck
        # successor, and the block walk's step with its table row
        lowest = [_naive_lowest(h) for h in range(1 << 14)]
        valid = [h for h in range(1, 1 << 14) if lowest[h] >= 0]
        for h, following in zip(valid, valid[1:]):
            if h >> 13:
                break
            assert core._successor_unchecked(h) == following, h
        tails = sequence._tables()[1]
        valid = [h for h in range(1, 1 << 14) if lowest[h] >= -sequence._B]
        for h, following in zip(valid, valid[1:]):
            if h >> 13:
                break
            high, need = sequence._next_high(h)
            assert high == following, h
            assert tails[need] == tails[-lowest[following]], h

    def test_one_lowest_point_scan_per_high_part(self, monkeypatch):
        scans = []
        lowest = core._lowest

        def counted(n):
            scans.append(n)
            return lowest(n)

        monkeypatch.setattr(core, "_lowest", counted)
        highs = {d >> sequence._B for d in sequence.range_terms(20)}
        # plus one for the step that passes the range's last high part
        assert len(scans) <= len(highs) + 1

    def test_ranges_match_the_successor_walk(self):
        for k in range(1, 23):
            first, last = core.mersenne_successor(k - 1), core.mersenne(k)
            walked = []
            for d in _plain_walk(first):
                if d > last:
                    break
                walked.append(d)
            assert sequence.range_terms(k) == walked, k

    def test_ranges_match_the_oracle(self):
        for k in range(1, 17):
            assert sequence.range_terms(k) == oracle.brute_range(k), k

    def test_range_stops_by_value(self, monkeypatch):
        # a count of C(k-1, (k-1)//2) terms must play no part in where a
        # range ends, or verify_conjecture would check the count against
        # itself; range 12 ends inside the table of terms below 2**12
        monkeypatch.setattr(sequence, "central_binomial", lambda m: 1)
        for k, size in [(12, 462), (18, 24310)]:
            assert sum(1 for _ in sequence.iter_range(k)) == size, k

    def test_import_builds_no_table(self):
        import subprocess
        import sys

        probe = (
            "import dycknum, dycknum.cli\n"
            "from dycknum import sequence\n"
            "assert sequence._tables.cache_info().currsize == 0\n"
            "next(sequence.iter_from(0))\n"
            "assert sequence._tables.cache_info().currsize == 1\n"
            "next(sequence.iter_from(1 << 20 | 4095))\n"
            "assert sequence._tables.cache_info().currsize == 1\n"
            # the first-rank table is built past the 989 small terms only
            "sequence.index_of(sequence.term_at(989))\n"
            "assert sequence._firsts.cache_info().currsize == 0\n"
            "sequence.term_at(990)\n"
            "assert sequence._firsts.cache_info().currsize == 1\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr

    def _agrees(self, start, count=3000):
        assert list(islice(sequence.iter_from(start), count)) == list(
            islice(_plain_walk(start), count)
        )

    @given(high_parts(), st.integers(0, 10**6))
    @settings(deadline=None, max_examples=60)
    def test_from_the_last_word_of_a_block(self, high, pick):
        tail = sequence._tables()[1][-_naive_lowest(high)]
        self._agrees(high << sequence._B | tail[-1 - pick % min(len(tail), 3)])

    @given(st.integers(1, 60), st.integers(0, 10**6))
    @settings(deadline=None, max_examples=40)
    def test_from_mersenne_high_parts(self, m, pick):
        tail = sequence._tables()[1][0]
        self._agrees(core.mersenne(m) << sequence._B | tail[pick % len(tail)])

    @given(high_parts(floor=0, max_bits=40), st.integers(0, 10**6))
    @settings(deadline=None, max_examples=40)
    def test_from_a_high_part_at_the_floor(self, above, pick):
        # B down steps, then a walk that starts up and stays at or above -B
        high = above << sequence._B
        assert _naive_lowest(high) == -sequence._B
        tail = sequence._tables()[1][sequence._B]
        self._agrees(high << sequence._B | tail[pick % len(tail)])

    @given(st.integers(0, (1 << (sequence._B + 1)) - 1))
    @settings(deadline=None, max_examples=60)
    def test_from_below_the_blocks(self, n):
        while not _naive_is_dyck(n):
            n += 1
        self._agrees(n)

    @given(st.sampled_from([55, 840]), st.randoms(use_true_random=False))
    @settings(deadline=None, max_examples=30)
    def test_from_wide_starts(self, bits, rng):
        lo = sequence.index_of(core.mersenne_successor(bits - 1))
        self._agrees(sequence.term_at(rng.randrange(lo, 2 * lo)), count=2000)


def _per_digit_term_at(i):
    # the ranking by definition: one _completions count per range skipped
    # and per digit chosen, with no table and no stepped count
    if i == 1:
        return 0
    rank, k = i - 2, 1
    while rank >= (size := sequence._completions(k - 1, 0)):
        rank -= size
        k += 1
    d, need = 1, 0
    for r in range(k - 2, -1, -1):
        with_zero = sequence._completions(r, need + 1)
        if rank < with_zero:
            d, need = d << 1, need + 1
        else:
            rank -= with_zero
            d, need = d << 1 | 1, max(0, need - 1)
    return d


def _per_digit_index_of(d):
    if d == 0:
        return 1
    k = d.bit_length()
    ordinal = 2 + sum(sequence._completions(r, 0) for r in range(k - 1))
    need = 0
    for r, bit in zip(range(k - 2, -1, -1), bin(d)[3:]):
        if bit == "1":
            ordinal += sequence._completions(r, need + 1)
            need = max(0, need - 1)
        else:
            need += 1
    return ordinal


def _dp_count_up_to(d):
    # Dyck numbers n <= d, counted digit by digit from the low end with no
    # binomials: le[h] and gt[h] count the walks of the digits so far that
    # end at height h, split by whether those digits of n are <= d's
    le, gt = [1], [0]
    count = 1  # n = 0
    k = d.bit_length()
    for p in range(k):
        bit = d >> p & 1
        # a 1 steps up from h - 1, a 0 steps down from h + 1
        up_le, up_gt = [0] + le, [0] + gt
        down_le, down_gt = le[1:] + [0, 0], gt[1:] + [0, 0]
        if bit:
            # a 1 here keeps the comparison, a 0 here makes n's digits smaller
            new_le = [u + a + b for u, a, b in zip(up_le, down_le, down_gt)]
            new_gt = up_gt
        else:
            new_le = down_le
            new_gt = [u + a + b for u, a, b in zip(down_gt, up_le, up_gt)]
        # n may end with the 1 just placed: shorter than d, or as long and <= d
        count += sum(up_le) + (sum(up_gt) if p < k - 1 else 0)
        le, gt = new_le, new_gt
    return count


class TestSteppedRanking:
    """term_at and index_of step their counts; check them against the definition."""

    @given(st.integers(0, 400).flatmap(lambda b: st.integers(1 << b, (2 << b) - 1)))
    @settings(deadline=None, max_examples=150)
    def test_term_at_against_per_digit_counts(self, i):
        assert sequence.term_at(i) == _per_digit_term_at(i)

    @given(high_parts(floor=0, max_bits=400))
    @settings(deadline=None, max_examples=150)
    def test_index_of_against_per_digit_counts(self, d):
        assert sequence.index_of(d) == _per_digit_index_of(d)

    @pytest.mark.parametrize("bits", [1000, 2000, 4000])
    def test_wide_round_trips(self, bits):
        i = random.Random(bits).getrandbits(bits) | 1 << (bits - 1)
        d = sequence.term_at(i)
        assert sequence.index_of(d) == i
        assert sequence.term_at(i + 1) == core.successor(d)

    def test_1000_bit_ordinal_against_a_digit_dp(self):
        i = random.Random(1).getrandbits(1000) | 1 << 999
        d = sequence.term_at(i)
        # i Dyck numbers up to d and i - 1 below it: d is the i-th
        assert _dp_count_up_to(d) == i
        assert _dp_count_up_to(d - 1) == i - 1
        assert sequence.index_of(d) == i


def _outcome(f, x):
    # what f(x) returns, or the type, message and suffix of what it raises
    try:
        return f(x)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "suffix", None)


class TestMembershipFromTheCount:
    """index_of decides membership by its own walk; a scan only words the refusal."""

    def test_every_non_member_below_2_to_16(self):
        # TestExactRanking checks the members' ordinals against the oracle
        for n in range(1 << 16):
            if not oracle._suffix_balanced(n):
                got = _outcome(sequence.index_of, n)
                assert got == _outcome(core._require_dyck, n), n
                assert got[0] is core.NotDyckNumberError, n
                assert got[2] == core.violating_suffix(n), n

    @pytest.mark.parametrize("bits", [64, 1000, 10**4])
    def test_seeded_non_members(self, bits):
        rng = random.Random(bits)
        while True:
            member = sequence.term_at(rng.getrandbits(bits) | 1 << (bits - 1))
            if -_naive_lowest(member >> sequence._B) >= 2:
                break
        top = member.bit_length() - 1
        # the digits above the block are a member's, which need the block
        # to end at height 2 or more, so only the block can refuse these:
        # blocks that dip below 0, and 0b010101010101, which ends at 0
        high = member >> sequence._B << sequence._B
        shallow = [member - 1, high | 1, high | 0x555]
        # these dip more than 12 below the block: no row of blocks can
        # repair them, and the walk's need runs past the last row
        deep = [1 << 40 | 1, 1 << top | 1, 1 << top | (1 << 40) | 1]
        # 13 zero digits right above a random block, under random digits
        deep.append((rng.getrandbits(bits - 25) | 1 << (bits - 26)) << 25 | rng.getrandbits(12))
        for d in shallow:
            assert -_naive_lowest(d >> sequence._B) <= sequence._B
        for d in deep:
            assert -_naive_lowest(d >> sequence._B) > sequence._B
        for d in shallow + deep:
            assert not core.is_dyck_number(d)
            got = _outcome(sequence.index_of, d)
            assert got == _outcome(core._require_dyck, d)
            assert got[0] is core.NotDyckNumberError

    @pytest.mark.parametrize("n", [-1, -4095, -4096, -(1 << 70)])
    def test_negative_input(self, n):
        got = _outcome(sequence.index_of, n)
        assert got == (ValueError, f"expected a natural number, got {n}", None)
        assert got == _outcome(core._require_dyck, n)

    def test_members_are_not_scanned(self, monkeypatch):
        def no_scan(d):
            raise AssertionError(f"index_of scanned the member {d}")

        members = list(islice(sequence.iter_from(0), 20000))
        rng = random.Random(3)
        members += [sequence.term_at(rng.getrandbits(b) | 1 << (b - 1)) for b in (60, 64, 70, 1000)]
        monkeypatch.setattr(core, "_require_dyck", no_scan)
        monkeypatch.setattr(core, "violating_suffix", no_scan)
        for i, d in enumerate(members[:20000], start=1):
            assert sequence.index_of(d) == i
        for d in members[20000:]:
            sequence.index_of(d)


def _last_ordinal(k):
    # the k-th Mersenne number closes range k: one for the zero term plus
    # the sizes of ranges 1..k
    return 1 + sum(sequence.central_binomial(j) for j in range(k))


class TestFirstRankTable:
    def test_entries_are_the_summed_range_sizes(self):
        firsts = sequence._firsts()
        assert len(firsts) == sequence._TABLED + 1
        small = len(sequence._tables()[0])
        for t, first in enumerate(firsts):
            k = sequence._B + 1 + t
            assert first == _last_ordinal(k - 1) - small, k

    @pytest.mark.parametrize("k", range(60, 71))
    def test_range_edges_across_the_table_end(self, k):
        first, last = _last_ordinal(k - 1) + 1, _last_ordinal(k)
        assert sequence.term_at(first) == core.mersenne_successor(k - 1)
        assert sequence.term_at(last) == core.mersenne(k)
        for i in (first, last):
            d = sequence.term_at(i)
            assert sequence.index_of(d) == i
            assert sequence.term_at(i + 1) == core.successor(d)
