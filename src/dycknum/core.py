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

Membership, the step-word codec, the successor and the valley depth all
read that path through one scanner, from the low end a byte per step:
256-entry tables built at import give each byte's net height change and
its depth, the least height from which its steps stay on or above
ground. The scanner keeps the height above the lowest point so far and
reads a byte's depth only while that height is below 8, since a byte
drops at most 8. It stops at the first byte that goes below ground,
takes that byte's index from the count of bytes not yet read, and walks
only that byte digit by digit. So one pass both validates a path and
finds its lowest point, which is all the successor and the valley depth
need. The height profile, after the membership scan, is one C-level pass
over the digits: each becomes a signed byte step, and the running sums
are taken over those bytes.

All functions are pure and operate on plain ``int`` values of any size.
"""

from __future__ import annotations

import sys
from itertools import accumulate

UP = "U"
DOWN = "D"

_BITS_TO_STEPS = str.maketrans("01", UP + DOWN)
# a step word's characters as binary digits: U -> 1, D -> 0, anything else
# -> x (a non-ASCII character encodes to a single "?")
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


def _named(n: int) -> str:
    # n in decimal, or by its bit length past _DECIMAL_BITS
    width = n.bit_length()
    return str(n) if width <= _DECIMAL_BITS else f"a {width}-bit number"


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
        super().__init__(
            f"{_named(value)} is not a Dyck number: suffix {suffix} of its binary "
            f"expansion has more 0s than 1s"
        )


class NotDyckWordError(ValueError):
    """Step string is not a balanced path that stays on or above ground."""

    def __init__(self, word: str, reason: str):
        self.word = word
        self.reason = reason
        super().__init__(f"{word!r} is not a Dyck word: {reason}")


# The path is read from the low end one byte at a time, low bit first
# (1 = up, 0 = down), through 256-entry tables per byte value: the net
# height change and the lowest height after any of its eight steps, both
# relative to the start of the byte. These are the block excess and
# min-excess tables of range min-max trees (Navarro & Sadakane, ACM TALG
# 2014).
_NET = [2 * b.bit_count() - 8 for b in range(256)]
# a byte's lowest height is its low nibble's, or its high nibble's from
# the height the low nibble ends at
_LOW4 = [min(accumulate(2 * (b >> i & 1) - 1 for i in range(4))) for b in range(16)]
_LOW = [min(_LOW4[b & 15], 2 * (b & 15).bit_count() - 4 + _LOW4[b >> 4]) for b in range(256)]
# the least height from which a byte's steps stay on or above ground, so
# byte b dips below ground from level exactly when level < _DEPTH[b]
_DEPTH = [-low for low in _LOW]


def _scan(n: int, width: int, level: int = 0) -> int:
    # the lowest height of the width-bit walk n started at level >= 0, or,
    # if the walk goes below 0, ~p for the first bit position p, counted
    # from the low end, at which it does; the top byte is padded with up
    # steps, which can neither dip nor lower the minimum
    if n < 0:
        raise ValueError(f"expected a natural number, got {n}")
    low, up = level, 0  # the lowest height so far, and the current height above it
    size = width + 15 >> 3
    # length and byteorder both given, positionally: Python 3.10 has no
    # defaults for them, and only the CI's 3.10 leg would catch an omission
    rest = iter((n | 255 << width).to_bytes(size, "little"))
    for b in rest:
        # a byte drops at most 8, so only below 8 can it reach a new low
        if up < 8 and up < _DEPTH[b]:
            level = low + up
            if level < _DEPTH[b]:
                # b's index, from the count of bytes the loop has not read
                # yet; no byte before the dip pays for counting
                pos = 8 * (size - 1 - rest.__length_hint__())
                while b & 1 or level:
                    level += 1 if b & 1 else -1
                    b >>= 1
                    pos += 1
                return ~pos
            low, up = level - _DEPTH[b], _DEPTH[b]
        up += _NET[b]
    return low


def _lowest(n: int) -> int:
    # lowest height of the walk n, its start included; started at its own
    # width, the walk cannot dip
    w = n.bit_length()
    return _scan(n, w, w) - w


def _suffix(n: int, pos: int) -> str:
    # the digits of n from bit pos down, left to right (zfill takes half the
    # time of a format spec at 22 bits)
    return bin(n & (1 << pos + 1) - 1)[2:].zfill(pos + 1)


def violating_suffix(n: int) -> str | None:
    """Shortest suffix of n's binary expansion with more 0s than 1s.

    Returns the suffix as a left-to-right digit string, or None when n is
    a Dyck number. Scans from the low end a byte at a time, so the byte in
    which the running 1s-minus-0s balance first dips below zero ends the
    search. The balance dips in a byte exactly when it starts that byte
    below the byte's depth, the least balance from which its digits keep
    it at zero or above. A byte lowers the balance by at most 8, so the
    depth is read only while the balance is below 8.
    """
    low = _scan(n, n.bit_length())
    return None if low >= 0 else _suffix(n, ~low)


def is_dyck_number(n: int) -> bool:
    """True when every suffix of n's binary expansion has #1s >= #0s.

    is_dyck_number(0) is True: zero encodes the empty path.
    """
    return _scan(n, n.bit_length()) >= 0


def _require_dyck(n: int) -> None:
    low = _scan(n, n.bit_length())
    if low < 0:
        raise NotDyckNumberError(n, _suffix(n, ~low))


def repunit_suffix_len(n: int) -> int:
    """Number of trailing 1-digits of n (0 for n = 0 and for even n)."""
    if n < 0:
        raise ValueError(f"expected a natural number, got {n}")
    return (n ^ n + 1).bit_length() - 1


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
    deepest valley is the lowest point of the path there. One pass over
    those digits, a byte per step, finds it and validates d.
    """
    rep, width = repunit_suffix_len(d), d.bit_length()
    if rep == width:
        return None
    low = _scan(d >> rep, width - rep, rep)
    if low < 0:
        raise NotDyckNumberError(d, _suffix(d, ~low + rep))
    return low


def successor(d: int) -> int:
    """Smallest Dyck number strictly greater than d, in closed form.

    Adding 1 turns d's trailing 1-run into down steps, so the path of
    d + 1 dips to some lowest height L < 0. Setting a low digit of d + 1
    from 0 to 1 lifts every later height by 2, and the fewest such digits
    are the lowest ones, so the successor is d + 2**ceil(-L/2). For the
    Mersenne number 2**k - 1, L = -k; a trailing 1-run of at most two
    digits gives d + 2, and 0 gives 1. No candidates are scanned: with r
    trailing 1-digits, L = min(-r, V - 2r + 2), where V is the lowest
    point of d's path above the run (its valley depth, see valley_depth).
    One pass over those digits, a byte per step through precomputed
    tables, finds V and validates d, so the cost is linear in the bit
    length with a small constant. Raises NotDyckNumberError on non-Dyck
    input.
    """
    rep = repunit_suffix_len(d)
    low = _scan(d >> rep, d.bit_length() - rep, rep)
    if low < 0:
        raise NotDyckNumberError(d, _suffix(d, ~low + rep))
    return d + (1 << -(min(-rep, low - 2 * rep + 2) // 2))


def _word_violation(word: str, digits: bytes) -> str | None:
    # the walk is the word's digits before the first x, reversed so that
    # the first step is its low bit, and a dip in it comes before the
    # invalid step that ends it
    steps = digits.find(b"x")
    if steps < 0:
        steps = len(digits)
    walk = int(digits[:steps][::-1] or b"0", 2)
    low = _scan(walk, steps)
    if low < 0:
        return f"path dips below ground at step {~low + 1}"
    if steps < len(word):
        return f"invalid step {word[steps]!r} at position {steps} (expected U or D)"
    level = 2 * walk.bit_count() - steps
    if level != 0:
        return f"unbalanced: {level} more up steps than down steps"
    return None


def is_dyck_word(word: str) -> bool:
    """True for a balanced U/D string whose every prefix has #U >= #D."""
    digits = word.encode("ascii", "replace").translate(_WORD_TO_WALK)
    return _word_violation(word, digits) is None


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
    digits = word.encode("ascii", "replace").translate(_WORD_TO_WALK)
    if b"x" not in digits:
        ups = int(digits or b"0", 2)
        if 2 * ups.bit_count() == len(digits):
            # read from its low end, d is the balanced word read backwards
            # with U and D swapped, which never dips exactly when it does
            d = ups ^ (1 << len(digits)) - 1
            if _scan(d, d.bit_length()) >= 0:
                return d
    raise NotDyckWordError(word, _word_violation(word, digits))


def to_standard_code(d: int) -> int:
    """A014486 code of d's path: U maps to 1, D to 0, read as binary.

    The standard code of a path of semilength n occupies exactly 2n bits
    and is the bitwise complement of the zero-restored expansion of d, so
    within one semilength the map reverses order. to_standard_code(0) = 0.
    """
    _require_dyck(d)
    return ((1 << 2 * d.bit_count()) - 1) ^ d
