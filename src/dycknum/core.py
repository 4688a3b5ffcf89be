"""Dyck numbers: membership, structure, successor, and path codecs.

A Dyck number is a natural number whose binary expansion keeps at least as
many 1s as 0s in every suffix (OEIS A036991). Read left to right, with
enough leading zeros restored to balance the digit counts, the expansion
encodes a lattice path: 0 is an up step, 1 is a down step (A350346).
Zero is a Dyck number and stands for the empty path; every other Dyck
number is odd.

Bit positions are counted right to left starting at 0, as usual for
integers, so "suffix" always means the low-order end of the expansion.
Height profiles returned by this module are indexed the same way
(entry 0 belongs to the least significant digit); reverse them when you
want the left-to-right picture of the path.

Membership, the step-word check, the successor and the valley depth all
read that path from the low end a byte per step: two 256-entry tables
built at import give each byte's net height change and its lowest height.
Membership stops at the first byte in which the path dips below ground
and walks only that byte digit by digit; the successor and the valley
depth need just the lowest point of a path. The height profile, after
the membership scan, is one C-level pass over the digits: each becomes a
signed byte step, and the running sums are taken over those bytes.

All functions are pure and operate on plain ``int`` values of any size.
"""

from __future__ import annotations

import sys
from itertools import accumulate

UP = "U"
DOWN = "D"

_BITS_TO_STEPS = str.maketrans("01", UP + DOWN)
_STEPS_TO_BITS = str.maketrans(UP + DOWN, "01")
_WORD_TO_WALK = bytes(
    ord("1") if c == ord(UP) else ord("0") if c == ord(DOWN) else ord("x") for c in range(256)
)
# a binary digit as a signed byte step: "1" -> +1, "0" -> -1 (0xff)
_DIGIT_STEPS = bytes.maketrans(b"01", b"\xff\x01")


# Refusals name a value in decimal only up to this many bits. Past it the
# conversion, quadratic in the length, would cost more than the scan that
# found the dip, so the value is named by its bit length. 1024 bits is
# 309 decimal digits, below the least limit (640) that Python lets a
# program set on int -> decimal conversion, so the conversion cannot fail.
_DECIMAL_BITS = 1024


def _str_digit_limit() -> int:
    # the interpreter's cap on int <-> decimal text conversion, 0 for none
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    return get_limit() if get_limit else 0


# int() takes any whitespace around a numeral that str.strip() takes but
# the four ASCII information separators
_SEPARATORS = str.maketrans("\x1c\x1d\x1e\x1f", "????")


def _digits_past_limit(text: str) -> int:
    # the digit count of a decimal numeral that int() refuses only because
    # it is longer than the limit above: one optional sign, digits in any
    # script, single underscores between them; 0 for any other text
    body = text.translate(_SEPARATORS).strip()
    groups = body[body.startswith(("+", "-")) :].split("_")
    digits = sum(map(len, groups))
    limit = _str_digit_limit()
    return digits if limit and digits > limit and all(map(str.isdecimal, groups)) else 0


class NotDyckNumberError(ValueError):
    """Input fails the suffix-balance rule, so it encodes no Dyck path."""

    def __init__(self, value: int, suffix: str):
        self.value = value
        self.suffix = suffix
        width = value.bit_length()
        shown = str(value) if width <= _DECIMAL_BITS else f"a {width}-bit number"
        super().__init__(
            f"{shown} is not a Dyck number: suffix {suffix} of its binary "
            f"expansion has more 0s than 1s"
        )


class NotDyckWordError(ValueError):
    """Step string is not a balanced path that stays on or above ground."""

    def __init__(self, word: str, reason: str):
        self.word = word
        self.reason = reason
        super().__init__(f"{word!r} is not a Dyck word: {reason}")


# The path is read from the low end one byte at a time, low bit first
# (1 = up, 0 = down), through two 256-entry tables per byte value: the net
# height change and the lowest height after any of its eight steps, both
# relative to the start of the byte. These are the block excess and
# min-excess tables of range min-max trees (Navarro & Sadakane, ACM TALG
# 2014).
_NET = [2 * b.bit_count() - 8 for b in range(256)]
_LOW = [min(accumulate(2 * (b >> i & 1) - 1 for i in range(8))) for b in range(256)]


def _dip(n: int, width: int) -> int | None:
    # first bit position, counted from the low end of the width-bit walk n,
    # at which the height goes below 0; None if it never does
    level = 0
    # length and byteorder both given, positionally: Python 3.10 has no
    # defaults for them, and only the CI's 3.10 leg would catch an omission
    for i, b in enumerate(n.to_bytes((width + 7) // 8, "little")):
        if level + _LOW[b] < 0:
            pos = 8 * i
            while b & 1 or level:
                level += 1 if b & 1 else -1
                b >>= 1
                pos += 1
            # past width the dip comes from the zero padding of the top byte
            return pos if pos < width else None
        level += _NET[b]
    return None


def _lowest(n: int) -> int:
    # lowest height of the walk n, its start included; the top byte is
    # padded with up steps, since down steps there could reach below the
    # walk's own minimum
    width = n.bit_length()
    level = lowest = 0
    for b in (n | 255 << width).to_bytes((width + 15) // 8, "little"):
        if level + _LOW[b] < lowest:
            lowest = level + _LOW[b]
        level += _NET[b]
    return lowest


def violating_suffix(n: int) -> str | None:
    """Shortest suffix of n's binary expansion with more 0s than 1s.

    Returns the suffix as a left-to-right digit string, or None when n is
    a Dyck number. Scans from the low end a byte at a time, so the byte in
    which the running 1s-minus-0s balance first dips below zero ends the
    search.
    """
    if n < 0:
        raise ValueError(f"expected a natural number, got {n}")
    pos = _dip(n, n.bit_length())
    if pos is None:
        return None
    width = pos + 1
    return format(n & ((1 << width) - 1), f"0{width}b")


def is_dyck_number(n: int) -> bool:
    """True when every suffix of n's binary expansion has #1s >= #0s.

    is_dyck_number(0) is True: zero encodes the empty path.
    """
    return violating_suffix(n) is None


def _require_dyck(n: int) -> None:
    suffix = violating_suffix(n)
    if suffix is not None:
        raise NotDyckNumberError(n, suffix)


def repunit_suffix_len(n: int) -> int:
    """Number of trailing 1-digits of n (0 for n = 0 and for even n)."""
    if n < 0:
        raise ValueError(f"expected a natural number, got {n}")
    return ((n + 1) & -(n + 1)).bit_length() - 1


def mersenne(k: int) -> int:
    """k-th Mersenne number 2**k - 1, the largest Dyck number of k bits."""
    if k < 0:
        raise ValueError(f"Mersenne index must be non-negative, got {k}")
    return (1 << k) - 1


def mersenne_successor(k: int) -> int:
    """Dyck successor of the k-th Mersenne number, in closed form.

    The next Dyck number after 2**k - 1 is 2**k - 1 + 2**ceil(k/2): one
    leading 1, then floor(k/2) zeros, then ceil(k/2) ones. It is the first
    member of the (k+1)-bit range.
    """
    if k < 0:
        raise ValueError(f"Mersenne index must be non-negative, got {k}")
    return (1 << k) - 1 + (1 << ((k + 1) // 2))


def height_profile(d: int) -> list[int]:
    """Per-digit path heights of d's binary expansion, low digit first.

    Entry p is the count of 1s minus the count of 0s among bit positions
    0..p. For a Dyck number the profile never dips below zero; entry 0 is
    always 1 (the expansion of a non-zero Dyck number ends in 1). The
    empty list is returned for d = 0.

    Raises NotDyckNumberError if the profile would go negative.
    """
    _require_dyck(d)
    if d == 0:
        return []
    # the digits low first, mapped to one signed byte each and summed in C
    steps = bin(d)[:1:-1].encode().translate(_DIGIT_STEPS)
    return list(accumulate(memoryview(steps).cast("b")))


def valley_depth(d: int) -> int | None:
    """Depth of the deepest valley of d's path, or None if there is none.

    A valley sits wherever a 1-digit immediately follows a 0-digit going
    up from the least significant end; its depth is the height just
    before that ascent. Mersenne numbers and 0 have no 0-digit inside the
    expansion, hence no valley and a None depth. Above the trailing 1-run
    every step either climbs out of a valley or descends into one, so the
    deepest valley is the lowest point of the path there, found a byte
    per step.
    """
    _require_dyck(d)
    rep = repunit_suffix_len(d)
    if rep == d.bit_length():
        return None
    return rep + _lowest(d >> rep)


def _successor_unchecked(d: int) -> int:
    if d & 7 != 7:
        # a trailing 1-run of at most two digits, or d = 0
        return d + 2 if d else 1
    return d + (1 << -(_lowest(d + 1) // 2))


def successor(d: int) -> int:
    """Smallest Dyck number strictly greater than d, in closed form.

    Adding 1 turns d's trailing 1-run into down steps, so the path of
    d + 1 dips to some lowest height L < 0. Setting a low digit of d + 1
    from 0 to 1 lifts every later height by 2, and the fewest such digits
    are the lowest ones, so the successor is d + 2**ceil(-L/2). For the
    Mersenne number 2**k - 1, L = -k; a trailing 1-run of at most two
    digits gives d + 2, and 0 gives 1. No candidates are scanned:
    validation and the lowest-point search each read the binary expansion
    a byte per step through precomputed tables, so the cost is linear in
    the bit length with a small constant. Raises NotDyckNumberError on
    non-Dyck input.
    """
    _require_dyck(d)
    return _successor_unchecked(d)


def _word_violation(word: str) -> str | None:
    # one digit per character: U -> 1, D -> 0, anything else -> x (a
    # non-ASCII character encodes to a single "?"); the walk is the digits
    # before the first x, reversed so that the first step is its low bit,
    # and a dip in it comes before the invalid step that ends it
    digits = word.encode("ascii", "replace").translate(_WORD_TO_WALK)
    steps = digits.find(b"x")
    if steps < 0:
        steps = len(digits)
    walk = int(digits[:steps][::-1] or b"0", 2)
    pos = _dip(walk, steps)
    if pos is not None:
        return f"path dips below ground at step {pos + 1}"
    if steps < len(word):
        return f"invalid step {word[steps]!r} at position {steps} (expected U or D)"
    level = 2 * walk.bit_count() - steps
    if level != 0:
        return f"unbalanced: {level} more up steps than down steps"
    return None


def is_dyck_word(word: str) -> bool:
    """True for a balanced U/D string whose every prefix has #U >= #D."""
    return _word_violation(word) is None


def to_dyck_word(d: int) -> str:
    """Step string of the path encoded by d, e.g. 5 -> 'UDUD'.

    Leading zeros are restored so the expansion has as many 0s as 1s,
    then 0 maps to U and 1 to D, most significant digit first. Returns
    the empty string for d = 0.
    """
    _require_dyck(d)
    if d == 0:
        return ""
    width = 2 * d.bit_count()
    return format(d, f"0{width}b").translate(_BITS_TO_STEPS)


def from_dyck_word(word: str) -> int:
    """Dyck number encoding the given step string; inverse of to_dyck_word.

    Raises NotDyckWordError when the string is unbalanced, dips below
    ground, or contains characters other than U and D.
    """
    reason = _word_violation(word)
    if reason is not None:
        raise NotDyckWordError(word, reason)
    if not word:
        return 0
    return int(word.translate(_STEPS_TO_BITS), 2)


def to_standard_code(d: int) -> int:
    """A014486 code of d's path: U maps to 1, D to 0, read as binary.

    The standard code of a path of semilength n occupies exactly 2n bits
    and is the bitwise complement of the zero-restored expansion of d, so
    within one semilength the map reverses order. to_standard_code(0) = 0.
    """
    _require_dyck(d)
    return ((1 << 2 * d.bit_count()) - 1) ^ d
