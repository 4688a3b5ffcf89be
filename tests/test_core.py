"""Unit tests for membership, structure, successor, and codecs."""

import random
import sys
from functools import cache
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from dycknum import core, oracle

# first 21 terms of A036991
HEAD = [0, 1, 3, 5, 7, 11, 13, 15, 19, 21, 23, 27, 29, 31, 39, 43, 45, 47, 51, 53, 55]


class TestMembership:
    def test_listed_terms_are_dyck(self):
        assert all(core.is_dyck_number(n) for n in HEAD)

    def test_everything_else_below_56_is_not(self):
        rest = set(range(56)) - set(HEAD)
        assert not any(core.is_dyck_number(n) for n in rest)

    @pytest.mark.parametrize("n,expected", [(21, True), (0, True), (9, False), (2, False)])
    def test_spot_values(self, n, expected):
        assert core.is_dyck_number(n) is expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            core.is_dyck_number(-1)

    def test_violating_suffix(self):
        assert core.violating_suffix(9) == "001"
        assert core.violating_suffix(2) == "0"
        assert core.violating_suffix(4) == "0"
        assert core.violating_suffix(21) is None
        assert core.violating_suffix(0) is None


class TestRepunitSuffix:
    @pytest.mark.parametrize(
        "n,length",
        [(47, 4), (7, 3), (2893215, 5), (0, 0), (1, 1), (4, 0), (65535, 16)],
    )
    def test_lengths(self, n, length):
        assert core.repunit_suffix_len(n) == length

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            core.repunit_suffix_len(-3)


def _walk(rng, width, ground=False):
    # the digits of a random walk of width steps that never dips, first
    # step lowest: an up step wherever it stands on the ground, and a 1 on
    # top, so a width-bit Dyck number; or, with ground, for an even width,
    # down steps wherever it must to end on the ground
    d = h = 0
    for p in range(width):
        left = width - p
        if h == 0 or not ground and left == 1:
            bit = 1
        elif ground and h == left:
            bit = 0
        else:
            bit = rng.getrandbits(1)
        d |= bit << p
        h += 1 if bit else -1
    return d


def _dip_on_top(d):
    # d's path ends at height 2 * d.bit_count() - d.bit_length(), so zeros
    # above it take the path to -1 at digit 2 * d.bit_count(); a leading 1
    # follows
    return 1 << (2 * d.bit_count() + 1) | d


@cache
def _wide_member(width):
    return _walk(random.Random(width), width)


class TestWideDips:
    """The dip's position, recovered from the bytes the scan has not read.

    A member of 10^4 + 5 bits, so that its top byte is partial, gets a dip
    planted at each offset of four of its bytes, and one of 10^5 bits at
    each offset of three. A path first dips after an odd number of steps,
    at an even digit, so the dip for an odd offset lands on the next
    digit, the next byte's first for offset 7.
    """

    WIDTH = 10**4 + 5
    # the width and byte index of each case
    BYTES = {
        "first": (WIDTH, 0),
        "middle": (WIDTH, WIDTH // 16),
        "last-full": (WIDTH, WIDTH // 8 - 1),
        "partial-top": (WIDTH, WIDTH // 8),
        "10^5-first": (10**5, 0),
        "10^5-middle": (10**5, 10**5 // 16),
        "10^5-last": (10**5, 10**5 // 8 - 1),
    }

    @pytest.mark.parametrize("offset", range(8))
    @pytest.mark.parametrize("case", BYTES)
    def test_planted_dip(self, case, offset):
        width, byte = self.BYTES[case]
        rng = random.Random(8 * byte + offset)
        d = _wide_member(width)
        q = 8 * byte + offset + offset % 2
        # a walk on the ground through digit q - 1, a down step at q, and
        # the member's digits above, with at least a 1 above q
        n = (d >> q + 1 | 1) << q + 1 | _walk(rng, q, ground=True)
        suffix = oracle._violating_suffix(n)
        assert suffix == bin(n)[-(q + 1) :]
        assert core.violating_suffix(n) == suffix
        for refuse in (core.successor, core.valley_depth):
            with pytest.raises(core.NotDyckNumberError) as exc_info:
                refuse(n)
            assert exc_info.value.suffix == suffix
        # the word whose number is n, or n with 1s set above it so that the
        # word can be balanced by leading U steps: read from its low end,
        # the number dips at q, so the word is refused, and for its first
        # dip read from the left
        t = 2 * n.bit_count() - n.bit_length()
        m = n | core.mersenne(max(0, -t)) << n.bit_length()
        word = "U" * (t + max(0, -t)) + format(m, "b").translate(str.maketrans("01", "UD"))
        reason = oracle._word_violation(word)
        assert reason.startswith("path dips below ground at step ")
        with pytest.raises(core.NotDyckWordError) as exc_info:
            core.from_dyck_word(word)
        assert exc_info.value.reason == reason

    @pytest.mark.parametrize("width", [WIDTH, 10**5])
    def test_member_against_the_oracle(self, width):
        d = _wide_member(width)
        assert d.bit_length() == width
        assert oracle._violating_suffix(d) is None
        assert core.violating_suffix(d) is None
        assert core.valley_depth(d) == oracle._valley_depth(d)
        assert core.successor(d) == oracle._successor(d)

    def test_zero_padding_of_the_top_byte_is_no_dip(self):
        # a member ending at height 1 with 5 digits in its top byte: the
        # second of the three padding zeros above it would reach height -1
        n = 1 << self.WIDTH - 1 | _walk(random.Random(0), self.WIDTH - 1, ground=True)
        assert n.bit_length() == self.WIDTH and self.WIDTH % 8 == 5
        heights = oracle._heights(n)
        assert heights[-1] == 1 and min(heights) >= 0
        assert core.violating_suffix(n) is None
        assert core.is_dyck_number(n)


class TestScanner:
    """core._scan, the one byte loop, against the oracle's walks one digit at a time."""

    def test_every_walk_below_2_to_14(self):
        # start levels 0..9 and widths bit_length .. bit_length + 9: the
        # digits past the bit length are down steps, while the top byte's
        # padding steps up and must not show
        for n in range(1 << 14):
            top = n.bit_length() + 9
            heights = oracle._heights(n, top)
            lows = list(accumulate(heights, min, initial=0))
            for level in range(10):
                dip = next((p for p, h in enumerate(heights) if h < -level), top)
                for width in range(n.bit_length(), top + 1):
                    expected = ~dip if dip < width else level + lows[width]
                    assert core._scan(n, width, level) == expected, (n, width, level)

    def test_walks_started_above_their_lowest_point(self):
        # up steps above level, the lowest height before the walk: the
        # lowest point stays at level unless the walk goes below it
        for n in range(1 << 10):
            width = n.bit_length() + 3
            heights = oracle._heights(n, width)
            for level in range(4):
                for up in range(10):
                    start = level + up
                    dip = next((p for p, h in enumerate(heights) if h < -start), None)
                    expected = ~dip if dip is not None else min(level, start + min(heights))
                    assert core._scan(n, width, level, up) == expected, (n, level, up)

    def test_lowest_point(self):
        for n in range(1 << 14):
            assert core._lowest(n) == min([0, *oracle._heights(n)]), n

    def test_successor_against_brute_force_below_2_to_20(self):
        # every Dyck number below 2**12, then members of 13 to 20 bits,
        # with trailing 1-runs of every length they can have
        rng = random.Random(20)
        members = [d for d in range(1 << 12) if oracle._violating_suffix(d) is None]
        for width in range(13, 21):
            members += [_walk(rng, width) for _ in range(60)]
            members += [core.mersenne(width), core.mersenne(width) ^ 1 << width - 2]
        for d in members:
            assert core.successor(d) == oracle.brute_successor(d), d

    def test_valley_depth_against_a_per_digit_recount(self):
        # depth: the least height just before a 0 digit is followed by a 1,
        # which the oracle reads one digit pair at a time
        rng = random.Random(14)
        members = [d for d in range(1 << 14) if oracle._violating_suffix(d) is None]
        members += [_walk(rng, w) for w in (*range(60, 70), 255, 256, 257, 10**4)]
        for d in members:
            assert core.valley_depth(d) == oracle._valley_depth(d), d

    def test_refusals_name_the_first_dip(self):
        # successor and valley_depth refuse as the membership scan does:
        # the same type, message and suffix for every non-member below 2**12
        for n in range(1 << 12):
            suffix = oracle._violating_suffix(n)
            if suffix is None:
                continue
            message = (
                f"{n} is not a Dyck number: suffix {suffix} of its binary "
                f"expansion has more 0s than 1s"
            )
            for refuse in (core.successor, core.valley_depth, core.height_profile):
                with pytest.raises(core.NotDyckNumberError) as exc_info:
                    refuse(n)
                assert exc_info.value.args == (message,), (refuse, n)
                assert (exc_info.value.value, exc_info.value.suffix) == (n, suffix)

    @pytest.mark.parametrize(
        "refuse", [core.successor, core.valley_depth, core.is_dyck_number, core.violating_suffix]
    )
    def test_negative_input(self, refuse):
        with pytest.raises(ValueError) as exc_info:
            refuse(-6)
        assert type(exc_info.value) is ValueError
        assert exc_info.value.args == ("expected a natural number, got -6",)

    def test_every_short_word(self):
        # refusals name the first invalid step or dip from the left, then
        # the balance, whichever path the word took to its refusal
        for length in range(11):
            for steps in range(1 << length):
                word = format(steps, f"0{length}b").translate(str.maketrans("01", "UD"))
                reason = oracle._word_violation(word)
                if reason is None:
                    assert core.from_dyck_word(word) == int("0" + format(steps, "b"), 2)
                    assert core.is_dyck_word(word)
                    continue
                with pytest.raises(core.NotDyckWordError) as exc_info:
                    core.from_dyck_word(word)
                assert exc_info.value.reason == reason, word
                assert exc_info.value.word == word
                assert str(exc_info.value) == f"{word!r} is not a Dyck word: {reason}"
                assert not core.is_dyck_word(word)


    def test_words_across_chunk_seams(self):
        # past 64 steps the word check reads chunks that end at steps 64,
        # 320 and 1344: a dip, an invalid step or an unbalanced end on
        # either side of each seam, and members that cross it high
        rng = random.Random(1344)

        def steps(width, ground=False):
            walk = _walk(rng, width, ground)
            return "".join("U" if walk >> p & 1 else "D" for p in range(width))

        words = []
        for seam in (64, 320, 1344):
            words += ["U" * seam + "D" * seam, steps(2 * seam, ground=True)]
            for at in range(seam - 3, seam + 3):
                ground, tail = steps(at - at % 2, ground=True), steps(seam + 8)
                words += [ground + "D" + tail, ground + "X" + tail, ground + tail]
                words.append(ground + "U" * (1 + at % 2))
        for word in words:
            reason = oracle._word_violation(word)
            assert core.is_dyck_word(word) == (reason is None), word
            if reason is None:
                assert core.to_dyck_word(core.from_dyck_word(word)) == word
                continue
            with pytest.raises(core.NotDyckWordError) as exc_info:
                core.from_dyck_word(word)
            assert exc_info.value.reason == reason, word


class TestHeightProfile:
    def test_small(self):
        assert core.height_profile(5) == [1, 0, 1]
        assert core.height_profile(1) == [1]
        assert core.height_profile(0) == []

    def test_example_path(self):
        # digit heights of 2893215, most significant digit first
        msb_first = "2121012343454543454321"
        profile = core.height_profile(2893215)
        assert "".join(str(h) for h in reversed(profile)) == msb_first

    def test_rejects_non_dyck(self):
        with pytest.raises(core.NotDyckNumberError):
            core.height_profile(9)

    def test_mersenne_profile_climbs_past_a_signed_byte(self):
        # the steps are signed bytes, but the running sums must not wrap at 127
        assert core.height_profile(2**300 - 1) == list(range(1, 301))

    @pytest.mark.parametrize(
        "width", [*range(1, 67), 127, 128, 129, 255, 256, 257, 10**4, 10**5]
    )
    def test_matches_a_per_bit_recount(self, width):
        rng = random.Random(width)
        for d in (core.mersenne(width), *(_walk(rng, width) for _ in range(3))):
            assert core.height_profile(d) == oracle._heights(d), width

    @pytest.mark.parametrize(
        "n",
        [
            _walk(random.Random(1), 10**4) << 1,
            # up 3 steps, then down through the second byte
            _walk(random.Random(2), 10**4) << 12 | 0b111,
            # up 4999 steps, then 5002 down: the dip is at digit 9999 of 10002
            1 << 10001 | core.mersenne(4999),
            _dip_on_top(_walk(random.Random(3), 10**4)),
        ],
        ids=["first-digit", "second-byte", "digit-9999", "top-digit"],
    )
    def test_wide_refusals_name_the_violating_suffix(self, n):
        with pytest.raises(core.NotDyckNumberError) as exc_info:
            core.height_profile(n)
        assert exc_info.value.suffix == core.violating_suffix(n)
        assert exc_info.value.suffix == oracle._violating_suffix(n)
        assert exc_info.value.value == n



class TestValleyDepth:
    def test_example_path_touches_ground(self):
        assert core.valley_depth(2893215) == 0

    def test_repunits_have_no_valley(self):
        assert core.valley_depth(7) is None
        assert core.valley_depth(0) is None
        assert core.valley_depth(65535) is None

    def test_single_valley(self):
        # 23 = 10111: one valley; depth recomputed by the oracle's digit walk
        brute = oracle._valley_depth(23)
        assert brute == 2
        assert core.valley_depth(23) == 2

    def test_deep_valley_before_suffix(self):
        assert core.valley_depth(47) == 3

    def test_rejects_non_dyck(self):
        with pytest.raises(core.NotDyckNumberError):
            core.valley_depth(6)


class TestMersenne:
    def test_values(self):
        assert [core.mersenne(k) for k in range(9)] == [0, 1, 3, 7, 15, 31, 63, 127, 255]
        assert core.mersenne(5) == 31
        assert core.mersenne(10) == 1023

    def test_all_are_dyck(self):
        assert all(core.is_dyck_number(core.mersenne(k)) for k in range(60))

    def test_successor_values(self):
        assert core.mersenne_successor(5) == 39
        assert core.mersenne_successor(7) == 143
        assert core.mersenne_successor(0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            core.mersenne(-1)
        with pytest.raises(ValueError):
            core.mersenne_successor(-1)


class TestSuccessor:
    @pytest.mark.parametrize(
        "d,expected",
        [(0, 1), (11, 13), (2893215, 2893231), (47, 51)],
    )
    def test_known_values(self, d, expected):
        assert core.successor(d) == expected

    def test_55_by_scan(self):
        # next odd suffix-balanced number after 55 is 59, not 57
        assert not oracle._suffix_balanced(57)
        assert oracle._suffix_balanced(59)
        assert core.successor(55) == 59

    def test_reproduces_head(self):
        d = 0
        for expected in HEAD[1:]:
            d = core.successor(d)
            assert d == expected

    def test_clamp_case(self):
        # 47 has repunit suffix 4 but valley depth 3; the effective depth
        # is capped at 2, giving a jump of 4
        assert core.repunit_suffix_len(47) == 4
        assert core.valley_depth(47) == 3
        assert core.successor(47) - 47 == 4

    def test_non_dyck_raises_dedicated_error(self):
        with pytest.raises(core.NotDyckNumberError) as exc_info:
            core.successor(9)
        assert exc_info.value.suffix == "001"
        assert exc_info.value.value == 9
        assert isinstance(exc_info.value, ValueError)

    def test_huge_non_dyck_raises_dedicated_error(self):
        n = (1 << 20001) | 1
        with pytest.raises(core.NotDyckNumberError) as exc_info:
            core.successor(n)
        assert exc_info.value.suffix == "001"
        assert exc_info.value.value == n

    def test_huge_non_dyck_is_named_by_bit_length(self):
        # 20002 bits have more decimal digits than Python's default limit
        with pytest.raises(core.NotDyckNumberError) as exc_info:
            core.successor((1 << 20001) | 1)
        assert exc_info.value.args[0] == (
            "a 20002-bit number is not a Dyck number: suffix 001 of its "
            "binary expansion has more 0s than 1s"
        )

    def test_refusals_name_values_in_decimal_up_to_1024_bits(self):
        # decimal text of a longer value would cost more than the scan
        assert core._DECIMAL_BITS == 1024
        at_bound = (1 << 1023) | 1
        with pytest.raises(core.NotDyckNumberError) as exc_info:
            core.successor(at_bound)
        assert exc_info.value.args[0].startswith(f"{at_bound} is not a Dyck number: suffix 001 ")
        with pytest.raises(core.NotDyckNumberError) as exc_info:
            core.successor(at_bound << 1 | 1)
        assert exc_info.value.args[0].startswith("a 1025-bit number is not a Dyck number: ")
        assert exc_info.value.value == at_bound << 1 | 1


class TestWordCodec:
    def test_to_word(self):
        assert core.to_dyck_word(5) == "UDUD"
        assert core.to_dyck_word(1) == "UD"
        assert core.to_dyck_word(0) == ""

    def test_example_path_word(self):
        expected = "UU" + "D" + "U" + "DD" + "UUUU" + "D" + "UU" + "D" + "U" + "DD" + "UU" + "DDDDD"
        assert core.to_dyck_word(2893215) == expected

    def test_from_word(self):
        assert core.from_dyck_word("UUDD") == 3
        assert core.from_dyck_word("") == 0
        assert core.from_dyck_word("UUDUDD") == 11

    def test_round_trip_head(self):
        for d in HEAD:
            assert core.from_dyck_word(core.to_dyck_word(d)) == d

    def test_invalid_words(self):
        with pytest.raises(core.NotDyckWordError, match="dips below ground"):
            core.from_dyck_word("DU")
        with pytest.raises(core.NotDyckWordError, match="unbalanced"):
            core.from_dyck_word("UU")
        with pytest.raises(core.NotDyckWordError, match="invalid step"):
            core.from_dyck_word("UXDD")

    @pytest.mark.parametrize(
        "word,reason",
        [
            ("0", "invalid step '0' at position 0 (expected U or D)"),
            ("1", "invalid step '1' at position 0 (expected U or D)"),
            ("UD01", "invalid step '0' at position 2 (expected U or D)"),
            ("U_D", "invalid step '_' at position 1 (expected U or D)"),
            ("U D", "invalid step ' ' at position 1 (expected U or D)"),
            ("UD ", "invalid step ' ' at position 2 (expected U or D)"),
            (" UD", "invalid step ' ' at position 0 (expected U or D)"),
            ("0bUD", "invalid step '0' at position 0 (expected U or D)"),
            ("0b10", "invalid step '0' at position 0 (expected U or D)"),
            ("U\u00e9D", "invalid step '\u00e9' at position 1 (expected U or D)"),
            ("UD\u0661", "invalid step '\u0661' at position 2 (expected U or D)"),
            ("DU_", "path dips below ground at step 1"),
        ],
    )
    def test_words_that_int_might_read(self, word, reason):
        # int(..., 2) takes "0b", "_", spaces and digits of other scripts;
        # none of them is a step
        with pytest.raises(core.NotDyckWordError) as exc_info:
            core.from_dyck_word(word)
        assert exc_info.value.reason == reason
        assert not core.is_dyck_word(word)

    def test_empty_word(self):
        assert core.from_dyck_word("") == 0
        assert core.is_dyck_word("")

    def test_is_dyck_word(self):
        assert core.is_dyck_word("UDUD")
        assert core.is_dyck_word("")
        assert not core.is_dyck_word("DU")
        assert not core.is_dyck_word("UDU")

    def test_to_word_rejects_non_dyck(self):
        with pytest.raises(core.NotDyckNumberError):
            core.to_dyck_word(9)


class TestStandardCode:
    @pytest.mark.parametrize("d,code", [(1, 2), (5, 10), (3, 12), (0, 0), (7, 56), (11, 52)])
    def test_known_codes(self, d, code):
        assert core.to_standard_code(d) == code

    def test_reverses_order_within_semilength(self):
        # paths of equal semilength sort oppositely under the two codes
        by_ones = {}
        for d in HEAD:
            by_ones.setdefault(d.bit_count(), []).append(d)
        for group in by_ones.values():
            codes = [core.to_standard_code(d) for d in sorted(group)]
            assert codes == sorted(codes, reverse=True)

    def test_rejects_non_dyck(self):
        with pytest.raises(core.NotDyckNumberError):
            core.to_standard_code(4)


class TestByteTables:
    """The path scanner's per-byte tables against the oracle's per-digit walk."""

    def test_every_entry(self):
        assert len(core._NET) == len(core._LOW) == 256
        for b in range(256):
            heights = oracle._heights(b, 8)
            net, lowest = heights[-1], min(heights)
            assert core._NET[b] == net, b
            assert core._LOW[b] == lowest, b
            assert core._DEPTH[b] == -lowest, b
        assert len(core._DEPTH) == 256


@cache
def _characters(test):
    return [c for c in map(chr, range(sys.maxunicode + 1)) if test(c)]


# str.isspace() counts these as whitespace, int() does not
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _spaces():
    return [c for c in _characters(str.isspace) if c not in _SEPARATORS]


def _reads_without_limit(text):
    # whether int() reads text once the digit limit is lifted
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        int(text)
        return True
    except ValueError:
        return False
    finally:
        sys.set_int_max_str_digits(limit)


@st.composite
def numerals(draw):
    """A decimal numeral that int() reads when it has no limit, and its digit count.

    One optional sign, digits from any script, single underscores between
    them, and whitespace around; the count straddles the limit.
    """
    limit = core._str_digit_limit()
    size = draw(st.sampled_from([1, limit - 1, limit, limit + 1, limit + 700]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    digits = [rng.choice(_characters(str.isdecimal)) for _ in range(size)]
    cuts = rng.sample(range(1, size), min(size - 1, draw(st.integers(0, 4))))
    for at in sorted(cuts, reverse=True):
        digits.insert(at, "_")
    spaces = st.text(st.sampled_from(_spaces()), max_size=3)
    sign = draw(st.sampled_from(["", "+", "-"]))
    return draw(spaces) + sign + "".join(digits) + draw(spaces), size


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits") or sys.get_int_max_str_digits() == 0,
    reason="no limit on int <-> decimal text conversion",
)
class TestDigitsPastLimit:
    """The one test of a numeral that int() refuses only for its length."""

    @given(numerals())
    @settings(deadline=None)
    def test_numeral_is_named_by_its_digit_count_past_the_limit(self, case):
        text, size = case
        assert _reads_without_limit(text)
        expected = size if size > sys.get_int_max_str_digits() else 0
        assert core._digits_past_limit(text) == expected

    @given(
        numerals(),
        st.characters().filter(
            lambda c: c in _SEPARATORS or not (c.isdecimal() or c.isspace() or c in "+-_")
        ),
        st.integers(min_value=0),
    )
    @settings(deadline=None)
    def test_any_other_character_gives_zero(self, case, char, at):
        text, _ = case
        at %= len(text) + 1
        text = text[:at] + char + text[at:]
        assert not _reads_without_limit(text)
        assert core._digits_past_limit(text) == 0

    @pytest.mark.parametrize(
        "shape",
        ["", " ", "+", "-", "_", "{}_", "_{}", "{}__1", "+-{}", "--{}", "- {}", "+_{}", "{}-", "\x1c{}", "{}\x1f"],
    )
    def test_misplaced_sign_underscore_or_space_gives_zero(self, shape):
        text = shape.format("9" * (sys.get_int_max_str_digits() + 1))
        assert not _reads_without_limit(text)
        assert core._digits_past_limit(text) == 0
