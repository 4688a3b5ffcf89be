"""Property-based tests of the core invariants.

The generators build valid inputs directly from the defining rules
(suffix balance for numbers, prefix balance for words), so they share no
code with the implementations under test.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from dycknum import core, oracle, sequence


@st.composite
def walk_bits(draw, length, level=0, balanced=False):
    """Digits, low first, of a walk from level that never goes below 0.

    Returns the walk as an int and the level it ends at; a balanced walk
    ends at 0.
    """
    value = 0
    for pos in range(length):
        if level == 0:
            # on the ground only a 1-digit keeps the suffixes valid
            bit = 1
        elif balanced and level == length - pos:
            bit = 0
        else:
            bit = draw(st.integers(0, 1))
        value |= bit << pos
        level += 1 if bit else -1
    return value, level


@st.composite
def dyck_numbers(draw, max_bits=64):
    """A Dyck number built bit by bit, least significant end first."""
    length = draw(st.integers(min_value=0, max_value=max_bits))
    if length == 0:
        return 0
    below, _ = draw(walk_bits(length - 1))
    return below | 1 << (length - 1)


@st.composite
def dyck_words(draw, max_semilength=24):
    """A balanced U/D path drawn step by step, forced where needed."""
    n = draw(st.integers(min_value=0, max_value=max_semilength))
    steps = []
    ups = downs = 0
    while ups + downs < 2 * n:
        if ups == n:
            step = core.DOWN
        elif ups == downs:
            step = core.UP
        else:
            step = core.UP if draw(st.booleans()) else core.DOWN
        steps.append(step)
        ups += step == core.UP
        downs += step == core.DOWN
    return "".join(steps)


@given(dyck_numbers(max_bits=16))
@settings(deadline=None)
def test_successor_matches_brute_force(d):
    assert core.successor(d) == oracle.brute_successor(d)


@given(dyck_numbers())
def test_successor_grows_and_stays_in_sequence(d):
    s = core.successor(d)
    assert s > d
    assert core.is_dyck_number(s)


@given(dyck_numbers(max_bits=12))
def test_successor_is_minimal(d):
    s = core.successor(d)
    for between in range(d + 1, s):
        assert not oracle._suffix_balanced(between)


@given(dyck_numbers(max_bits=48))
def test_short_repunit_suffix_steps_by_two(d):
    if core.repunit_suffix_len(d) in (1, 2):
        assert core.successor(d) - d == 2


@given(st.integers(min_value=0, max_value=300))
def test_mersenne_successor_closed_form(k):
    m = core.mersenne(k)
    assert core.successor(m) == core.mersenne_successor(k)
    assert core.mersenne_successor(k) == m + (1 << ((k + 1) // 2))


@given(st.integers(min_value=1, max_value=300))
def test_mersenne_successor_digit_shape(k):
    expected = "1" + "0" * (k // 2) + "1" * ((k + 1) // 2)
    assert bin(core.mersenne_successor(k))[2:] == expected


@given(dyck_numbers())
def test_word_round_trip(d):
    assert core.from_dyck_word(core.to_dyck_word(d)) == d


@given(dyck_words())
def test_word_round_trip_other_direction(w):
    d = core.from_dyck_word(w)
    assert core.is_dyck_number(d)
    assert core.to_dyck_word(d) == w


@given(dyck_numbers(max_bits=48))
def test_height_profile_is_a_walk(d):
    profile = core.height_profile(d)
    assert profile == oracle._heights(d)
    assert min(profile, default=0) >= 0


@given(st.integers(min_value=0, max_value=2**32))
@settings(deadline=None)
def test_membership_agrees_with_naive_scan(n):
    assert core.is_dyck_number(n) == oracle._suffix_balanced(n)


@given(dyck_numbers(max_bits=48))
def test_kasa_zero_bounds_hold(d):
    assert oracle.kasa_zero_bounds(d)


@given(dyck_numbers())
def test_standard_code_is_bit_complement(d):
    # padding to 2n digits and swapping U/D roles complements every bit
    width = 2 * d.bit_count()
    assert core.to_standard_code(d) == (1 << width) - 1 - d
    # the A014486 definition itself: U is 1, D is 0, read as binary
    word = core.to_dyck_word(d)
    assert core.to_standard_code(d) == int(word.translate(str.maketrans("UD", "10")) or "0", 2)


@st.composite
def near_dyck_numbers(draw):
    """A Dyck number of up to 40 bits with one digit flipped, so it may dip late."""
    d = draw(dyck_numbers(max_bits=40))
    return d ^ 1 << draw(st.integers(0, max(d.bit_length() - 1, 0)))


@given(st.one_of(st.integers(min_value=0, max_value=2**40), near_dyck_numbers()))
@example(9)
@example(1 << 33 | 0xFFFF)  # dips at its 33rd digit
@example(2**40)
def test_violating_suffix_is_the_shortest_unbalanced_suffix(n):
    assert core.violating_suffix(n) == oracle._violating_suffix(n)


# The scanner reads 8 digits per step, so dips and valleys next to a byte
# boundary or in the zero-padded top byte get inputs of their own.
BYTE_EDGES = [0, 2, 6, 8, 10, 14, 16, 18, 22, 24]


@st.composite
def planted_dips(draw):
    """A balanced walk of even length q, then a 0 at q, then any digits.

    The walk dips first at digit q. Without digits above it that 0 is not
    part of the number, which is then a member, and the zero padding of a
    partial top byte must not count as a dip.
    """
    q = draw(st.one_of(st.sampled_from(BYTE_EDGES), st.integers(0, 149).map(lambda h: 2 * h)))
    low, _ = draw(walk_bits(q, balanced=True))
    high = draw(st.one_of(st.just(0), st.integers(0, 2 ** (299 - q))))
    return high << (q + 1) | low


@st.composite
def planted_valleys(draw):
    """A member with a 0 at digit p - 1 and a 1 at digit p, p even.

    The p - 1 digits below have odd length, so they end at height >= 1 and
    the 0 keeps the walk on the ground. p = 8 and 16 straddle a byte
    boundary; without digits above, the ascent is the member's top digit.
    """
    p = draw(st.one_of(st.sampled_from(BYTE_EDGES[1:]), st.integers(1, 140).map(lambda h: 2 * h)))
    low, level = draw(walk_bits(p - 1))
    above = draw(st.integers(0, 290 - p))
    high, _ = draw(walk_bits(above, level=level))
    top = 1 << above if above else 0
    return (top | high) << (p + 1) | 1 << p | low


@given(planted_dips())
@example(0b1001_0101)  # dips at digit 6 of a full byte
@example(0b1_1001_0101)  # the same with a digit above the byte
@example(0b10_0101_0011)  # a balanced low byte, then a dip at digit 8
@example(0b1)  # seven padding zeros would dip after the top 1
@example(0b1_0101)  # ends at height 1; three padding zeros
@example(0b1_0101_0101)  # bit length 9: seven padding zeros above height 1
def test_violating_suffix_at_byte_edges(n):
    assert core.violating_suffix(n) == oracle._violating_suffix(n)
    assert core.is_dyck_number(n) == (oracle._violating_suffix(n) is None)


@given(st.integers(1, 40).filter(lambda length: length % 8))
def test_members_ending_low_in_a_partial_top_byte(length):
    # the lowest-ending member of each length: 1 or 11, then 01 repeated
    d = int(("1" if length % 2 else "11") + "01" * ((length - 1) // 2), 2)
    assert d.bit_length() == length
    assert core.violating_suffix(d) is None
    assert core.valley_depth(d) == oracle._valley_depth(d)
    assert core.successor(d) == oracle._successor(d)


@given(st.one_of(planted_valleys(), dyck_numbers(max_bits=300)))
@example(0b1_0111_1111)  # bit 7 = 0, bit 8 = 1: a valley at height 6 across the boundary
@example(0b1_0010_1011)  # the same at height 0, below the valleys at bits 3 and 5
@example(0b1_0111_1111_1111_1111)  # across the second boundary, into the top byte
@settings(deadline=None)
def test_valley_and_successor_at_byte_edges(d):
    assert core.violating_suffix(d) is None
    assert core.valley_depth(d) == oracle._valley_depth(d)
    assert core.successor(d) == oracle._successor(d)


@given(st.text(alphabet="UDX", max_size=70))
@example("DX")
@example("UXD")
@example("UUDUDD")
@example("UUUUUDDDDD")  # ends in D steps, the walk's high zeros
@example("U" * 9 + "D" * 9)  # 18 steps: a balanced walk in a partial top byte
@example("U" * 9 + "D" * 10)  # dips at its last step, in the top byte
@example("UD" * 4 + "DU")  # dips at step 9, the first of the second byte
@example("UUDD" * 4 + "X")  # invalid step just past two whole bytes
@example("UUDDDX")  # a dip beats a later invalid step
@example("UU\u00e9DD")  # a non-ASCII character is an invalid step at its own position
@example("U\U0001f600D")  # one outside the Basic Multilingual Plane
@example("U\ud800D")  # a lone surrogate, which UTF-8 cannot encode
def test_word_check_matches_naive_scan(word):
    reason = oracle._word_violation(word)
    assert core.is_dyck_word(word) == (reason is None)
    if reason is None:
        assert core.to_dyck_word(core.from_dyck_word(word)) == word
        return
    with pytest.raises(core.NotDyckWordError) as exc_info:
        core.from_dyck_word(word)
    assert exc_info.value.reason == reason
    assert str(exc_info.value) == f"{word!r} is not a Dyck word: {reason}"


def test_standard_code_reverses_order_within_semilength():
    groups = {}
    for k in range(1, 11):
        for d in sequence.iter_range(k):
            groups.setdefault(d.bit_count(), []).append(d)
    for terms in groups.values():
        assert terms == sorted(terms)
        codes = [core.to_standard_code(d) for d in terms]
        assert codes == sorted(codes, reverse=True)
        assert len(set(codes)) == len(codes)


@given(st.integers(min_value=1, max_value=10**40))
@settings(deadline=None)
def test_index_of_inverts_term_at(i):
    assert sequence.index_of(sequence.term_at(i)) == i


@given(dyck_numbers(max_bits=256))
@settings(deadline=None)
def test_term_at_inverts_index_of(d):
    assert sequence.term_at(sequence.index_of(d)) == d


@given(dyck_numbers(max_bits=32))
def test_iter_from_starts_at_start(d):
    it = sequence.iter_from(d)
    assert next(it) == d
    assert next(it) == core.successor(d)
