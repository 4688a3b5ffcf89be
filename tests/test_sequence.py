"""Unit tests for enumeration, ranges, and ordinal indexing."""

import random
from itertools import islice, takewhile

import pytest
from hypothesis import given, settings, strategies as st

from dycknum import core, oracle, sequence

HEAD = [0, 1, 3, 5, 7, 11, 13, 15, 19, 21, 23, 27, 29, 31, 39, 43, 45, 47, 51, 53, 55]

# first terms of ranges 1..15
RANGE_FIRSTS = [1, 3, 5, 11, 19, 39, 71, 143, 271, 543, 1055, 2111, 4159, 8319, 16511]


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

    def test_size_is_the_enumerated_count(self):
        for k in range(1, 23):
            counted = sum(1 for _ in sequence.iter_range(k))
            assert sequence.range_stats(k).size == counted, k

    def test_size_past_the_enumerated_ranges(self):
        # by rows, not terms: range 28 holds 20 M terms in 32,751 rows
        for k in range(23, 29):
            assert sequence.range_stats(k).size == sequence.central_binomial(k - 1), k

    def test_counting_generates_no_term(self, monkeypatch):
        def no_terms(rows):
            raise AssertionError("range_stats generated terms")

        monkeypatch.setattr(sequence, "_terms", no_terms)
        assert sequence.range_stats(20) == sequence.RangeStats(
            20, 525311, 1048575, 92378, 92378
        )

    @pytest.mark.parametrize("k", [0, -1])
    def test_range_index_below_1_is_refused(self, k):
        with pytest.raises(ValueError, match=f"^range index must be >= 1, got {k}$"):
            sequence.range_stats(k)

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
        brute = 1 + sum(1 for n in range(1, 40, 2) if oracle._suffix_balanced(n))
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

        monkeypatch.setattr(core, "successor", no_walk)
        d = sequence.term_at(10**18)
        assert d == 9983547819144068307
        assert sequence.index_of(d) == 10**18
        expected = 1 + sum(sequence.central_binomial(j) for j in range(200))
        assert sequence.index_of(core.mersenne(200)) == expected



def _plain_walk(d):
    # the per-term successor walk that block enumeration must reproduce
    while True:
        yield d
        d = core.successor(d)


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
            heights = oracle._heights(w, B)
            if min(heights) >= 0:
                ends[w] = heights[-1]
        assert len(tails) == B + 1
        for need, tail in enumerate(tails):
            assert list(tail) == sorted(w for w, end in ends.items() if end >= need)

    def test_odd_rows_are_the_even_rows_after_them(self):
        # a 12-digit walk ends at an even height, so no walk ends at 2t - 1;
        # _next_high gives need 12 for a lowest point of -11 by this
        tails = sequence._tables()[1]
        for t in range(1, sequence._B // 2 + 1):
            assert tails[2 * t - 1] == tails[2 * t], t
        assert len(set(tails)) == sequence._B // 2 + 1

    def test_high_part_successor_against_a_search(self):
        # every Dyck number and every valid high part below 2**13: the Dyck
        # successor, and the block walk's step with its table row
        lowest = [min([0, *oracle._heights(h)]) for h in range(1 << 14)]
        valid = [h for h in range(1, 1 << 14) if lowest[h] >= 0]
        for h, following in zip(valid, valid[1:]):
            if h >> 13:
                break
            assert core.successor(h) == following, h
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
        # itself; range 12 ends inside the table of terms below 2**12, and
        # range 26 is walked term by term, 5.2 M of them
        monkeypatch.setattr(sequence, "central_binomial", lambda m: 1)
        for k, size in [(12, 462), (18, 24310), (26, 5200300)]:
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
            # the table of first ranks is built past the 989 small terms only
            "sequence.index_of(sequence.term_at(989))\n"
            "assert sequence._high_parts.cache_info().currsize == 0\n"
            "sequence.term_at(990)\n"
            "assert sequence._high_parts.cache_info().currsize == 1\n"
            # ranking past 2**24, in the table's tail and past its end,
            # builds no table beside these two
            "last = sequence._high_parts()[1][1 << sequence._B]\n"
            "for i in (last, last + 1, 1 << 64, 1 << 100):\n"
            "    sequence.index_of(sequence.term_at(i))\n"
            "built = {name: f.cache_info().currsize\n"
            "         for name, f in vars(sequence).items() if hasattr(f, 'cache_info')}\n"
            "assert built == {'_tables': 1, '_high_parts': 1}, built\n"
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
        tail = sequence._tables()[1][-min([0, *oracle._heights(high)])]
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
        assert min([0, *oracle._heights(high)]) == -sequence._B
        tail = sequence._tables()[1][sequence._B]
        self._agrees(high << sequence._B | tail[pick % len(tail)])

    @given(st.integers(0, (1 << (sequence._B + 1)) - 1))
    @settings(deadline=None, max_examples=60)
    def test_from_below_the_blocks(self, n):
        while not oracle._suffix_balanced(n):
            n += 1
        self._agrees(n)

    @given(st.sampled_from([55, 840]), st.randoms(use_true_random=False))
    @settings(deadline=None, max_examples=30)
    def test_from_wide_starts(self, bits, rng):
        lo = sequence.index_of(core.mersenne_successor(bits - 1))
        self._agrees(sequence.term_at(rng.randrange(lo, 2 * lo)), count=2000)


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
    """term_at and index_of step their counts; check them against the oracle's."""

    @given(st.integers(0, 400).flatmap(lambda b: st.integers(1 << b, (2 << b) - 1)))
    @settings(deadline=None, max_examples=150)
    def test_term_at_against_per_digit_counts(self, i):
        assert sequence.term_at(i) == oracle._term_at(i)

    @given(high_parts(floor=0, max_bits=400))
    @settings(deadline=None, max_examples=150)
    def test_index_of_against_per_digit_counts(self, d):
        assert sequence.index_of(d) == oracle._index_of(d)

    # at 24-27 bits, past the terms below 2**24 into the table's tail of
    # range first ranks, at 60-70 bits across the end of that tail (64
    # bits), and wide; up to 1,000 bits also against the oracle's per-digit
    # counts, which wider ordinals make slow
    @pytest.mark.parametrize("bits", [*range(24, 28), *range(60, 71), 1000, 2000, 4000, 10**4])
    def test_wide_round_trips(self, bits):
        rng = random.Random(bits)
        for _ in range(3):
            i = rng.getrandbits(bits) | 1 << (bits - 1)
            d = sequence.term_at(i)
            assert sequence.index_of(d) == i
            assert sequence.term_at(i + 1) == core.successor(d)
            if bits <= 1000:
                assert (oracle._term_at(i), oracle._index_of(d)) == (d, i)
        if bits >= 1000:
            # index_of reads membership from its own count: a block that
            # dips, under a member's upper digits, and 24 zero digits,
            # which dip deeper than any block climbs
            for n in (d - 1, d >> 25 << 25 | 1):
                with pytest.raises(core.NotDyckNumberError):
                    sequence.index_of(n)

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
            if -min([0, *oracle._heights(member >> sequence._B)]) >= 2:
                break
        top = member.bit_length() - 1
        # the digits above the block are a member's, which need the block
        # to end at height 2 or more, so only the block can refuse these:
        # blocks that dip below 0, and 0b010101010101, which ends at 0
        high = member >> sequence._B << sequence._B
        shallow = [member - 1, high | 1, high | 0x555]
        # these dip more than 12 below the block: no row of blocks can
        # repair them, and the walk's need runs past the last row
        # (1 << top | 0xFFF ends its block at 12, the height of the last row)
        deep = [1 << 40 | 1, 1 << top | 1, 1 << top | (1 << 40) | 1, 1 << top | 0xFFF]
        # 13 zero digits right above a random block, under random digits
        deep.append((rng.getrandbits(bits - 25) | 1 << (bits - 26)) << 25 | rng.getrandbits(12))
        for d in shallow:
            assert -min([0, *oracle._heights(d >> sequence._B)]) <= sequence._B
        for d in deep:
            assert -min([0, *oracle._heights(d >> sequence._B)]) > sequence._B
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
        # past the high parts' first ranks, entry k - 24 of the tail counts
        # the terms below 2**k, for k = 24..64
        rows, starts, _, _, _ = sequence._high_parts()
        tail = starts[len(rows) :]
        assert len(tail) == sequence._TABLED + 1
        for k, first in enumerate(tail, start=2 * sequence._B):
            assert first == _last_ordinal(k), k

    # both seams: the high parts' ranks into the tail (24 bits), and the
    # tail's end into stepped range sizes (64 bits)
    @pytest.mark.parametrize("k", [*range(24, 28), *range(60, 71)])
    def test_range_edges_across_the_table_end(self, k):
        first, last = _last_ordinal(k - 1) + 1, _last_ordinal(k)
        assert sequence.term_at(first) == core.mersenne_successor(k - 1)
        assert sequence.term_at(last) == core.mersenne(k)
        for i in (first, last):
            d = sequence.term_at(i)
            assert sequence.index_of(d) == i
            assert sequence.term_at(i + 1) == core.successor(d)


class TestHighPartTable:
    """Ranks below 2**24 are read from one table; check it against the core."""

    def test_last_start_counts_the_terms_below_2_to_24(self):
        rows, starts, _, _, _ = sequence._high_parts()
        assert len(rows) == 1 << sequence._B
        assert starts[1 << sequence._B] == 1 + sum(sequence.central_binomial(j) for j in range(24))

    def test_places_invert_the_rows(self):
        # places[h][w] is w's place in rows[h], or -1, in one list per
        # distinct row of low blocks
        B = sequence._B
        rows, _, places, spots, _ = sequence._high_parts()
        tails = sequence._tables()[1]
        assert len(spots) == B + 1
        assert len({id(spot) for spot in spots}) == len(set(tails)) == 7
        for row, spot in zip(tails, spots):
            assert len(spot) == 1 << B
            assert [spot[w] for w in row] == list(range(len(row)))
            assert spot.count(-1) == (1 << B) - len(row)
        assert places[0] is None
        for h in range(1, 1 << B):
            need = -min([0, *oracle._heights(h)])
            assert rows[h] is tails[need] and places[h] is spots[need], h

    def test_hint_holds_each_buckets_first_rank(self):
        # hint[b] is the high part whose row holds rank b << 8, and term_at
        # steps from it to the row of the rank that it looks up
        B, width = sequence._B, 1 << sequence._BUCKET
        rows, starts, _, _, hint = sequence._high_parts()
        assert sequence._NARROW_RANKS == starts[1 << B]
        assert len(hint) == -(-sequence._NARROW_RANKS // width)
        for b, h in enumerate(hint):
            assert starts[h] <= b * width < starts[h + 1], b
        # each sampled bucket's first ordinal and the ordinal before it; the
        # buckets around the one row of a single rank, and the ordinals of
        # that row and of the last term below 2**24, each with its
        # neighbours, join the sample
        (single,) = [h for h, row in enumerate(rows) if len(row) == 1]
        near = starts[single] // width
        buckets = {*random.Random(35).sample(range(1, len(hint)), 200), near, near + 1}
        ordinals = {i for b in buckets for i in (b * width, b * width + 1)}
        for i in (starts[single] + 1, sequence._NARROW_RANKS):
            ordinals |= {i - 1, i, i + 1}
        for i in sorted(ordinals):
            assert sequence.term_at(i) == oracle._term_at(i), i

    @staticmethod
    def _least_high_part(need, start):
        return next(h for h in range(start, 1 << 24) if -min([0, *oracle._heights(h)]) == need)

    def _every_block_under(self, h):
        # each low block under h: a member gets the ordinal that iter_from
        # counts from the oracle's ordinal of the first member there, and a
        # non-member the refusal of core._require_dyck
        B = sequence._B
        first = next(d for d in range(h << B, h + 1 << B) if core.is_dyck_number(d))
        terms = takewhile(lambda d: d >> B == h, sequence.iter_from(first))
        ordinals = {d: i for i, d in enumerate(terms, start=oracle._index_of(first))}
        for d in range(h << B, h + 1 << B):
            got = _outcome(sequence.index_of, d)
            if d in ordinals:
                assert got == ordinals[d], d
            else:
                assert got == _outcome(core._require_dyck, d), d
                assert got[0] is core.NotDyckNumberError, d

    @pytest.mark.parametrize("need", range(12))
    def test_every_low_block_under_one_high_part_per_need(self, need):
        # the least high part of each need reads each place list, the -1
        # entries included; a 12-digit high part needs 11 at most
        h = self._least_high_part(need, 1)
        assert h < 1 << sequence._B
        self._every_block_under(h)

    def test_every_low_block_under_a_13_digit_high_part(self):
        # past 2**24, on the stepped path; need 2 shares the list of need
        # 1, which refuses blocks that end at 0 besides those that dip
        h = self._least_high_part(2, 1 << sequence._B)
        assert h.bit_length() == sequence._B + 1
        self._every_block_under(h)

    def test_each_high_part_starts_at_its_least_term(self):
        # the term before each start is a Dyck number below h << 12 whose
        # successor is at or above it, so the start is the least one there
        starts = sequence._high_parts()[1]
        for h in range(1, 1 << sequence._B):
            before, first = sequence.term_at(starts[h]), sequence.term_at(starts[h] + 1)
            assert core.is_dyck_number(before), h
            assert before < h << sequence._B <= first, h
            assert core.successor(before) == first, h

    @pytest.mark.parametrize("k", [12, 24])
    def test_table_edges(self, k):
        # the last small term and the first tabled one, and the last tabled
        # term and the first one that the stepped counts rank
        last = _last_ordinal(k)
        assert sequence.term_at(last) == core.mersenne(k)
        assert sequence.term_at(last + 1) == core.mersenne_successor(k)
        for i in (last, last + 1):
            d = sequence.term_at(i)
            assert sequence.index_of(d) == i
            assert sequence.term_at(i + 1) == core.successor(d)

    def test_seeded_non_members_below_2_to_24(self):
        # above 2**16, where test_every_non_member_below_2_to_16 stops
        rng = random.Random(24)
        B = sequence._B
        tails = sequence._tables()[1]
        cases = [rng.randrange(1 << 16, 1 << 24) for _ in range(4000)]
        cases = [n for n in cases if not oracle._suffix_balanced(n)]
        shallow = 0
        while shallow < 300:
            member = sequence.term_at(rng.randrange(_last_ordinal(16) + 1, _last_ordinal(24) + 1))
            high, need = member >> B << B, -min([0, *oracle._heights(member >> B)])
            # a block whose first digit steps below 0
            cases.append(high | rng.getrandbits(B) & ~1)
            if need >= 2:
                # a block that stays on the ground but ends below the need
                cases.append(high | rng.choice([w for w in tails[0] if w not in tails[need]]))
                shallow += 1
        for n in cases:
            assert not core.is_dyck_number(n), n
            got = _outcome(sequence.index_of, n)
            assert got == _outcome(core._require_dyck, n), n
            assert got[0] is core.NotDyckNumberError, n
