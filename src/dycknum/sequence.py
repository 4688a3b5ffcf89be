"""Range structure and ordinal indexing of the Dyck number sequence.

Dyck numbers of the same binary length k form the k-th range: it starts
at the successor of the (k-1)-th Mersenne number and ends at the k-th.
Below its leading 1, a k-bit Dyck number is a string of k-1 digits that,
read from the low end with 1 as a step up and 0 as a step down, is a walk
that never goes below 0; every such walk occurs. Range k therefore holds
C(k-1, floor((k-1)/2)) terms, the central binomial sequence A001405.

term_at and index_of rank and unrank exactly through one table of first
ranks, built on the first ranking past the terms below 2**12: the rank
at which each 12-digit high part's row of low blocks starts, and then
the counts of Dyck numbers below 2**k for k = 25..64. Built with it, a
list of block places per distinct row gives each 12-digit low block its
place in that row, or -1 where the block does not complete the high
part, and a hint gives, per bucket of 256 ranks, the high part whose row
holds the bucket's first rank. Below 2**24, term_at reads the hint at
its rank, steps to the row that holds the rank, in at most one step but
where rows are short, and indexes that row; index_of takes two list
indexings. Both read these tables without a call once they are built.
From 25 bits on they count the walks with ballot numbers: a range of up
to 64 bits is found in the same table, wider ones by their sizes, and
each count is stepped from the one before by one multiply and one exact
divide by small integers, so an ordinal costs O(k) such steps and no
successor steps. index_of reads membership once, from a list of block
places: the digits above the lowest 12 fix the row that can complete
them, and the input is a Dyck number exactly when its lowest 12 digits
have a place in that row, so only a refusal scans the input to name its
violating suffix. Below 2**12 it bisects the table of small terms
instead, which needs no table of first ranks.

iter_from and iter_range enumerate in blocks: a term is a high part
followed by a 12-digit low block, and each valid high part is followed
by every low block whose walk ends high enough to carry it, taken in
order from a table; the high part 0 takes the Dyck numbers below 2**12
from a table of their own. The tables are built on the first enumeration
or ranking, not at import. The walk yields each high part's row of low
blocks; the enumerations join each row to its high part in one C-level
map, or_ over repeat(high << 12) and the row, and range_stats adds up
the rows' lengths. The walk stops at a range's last term by value,
independently of ballot counts.

Ordinals are 1-based with term 1 equal to 0, matching the published
A036991 b-file (term 13496 is 65535).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Iterator
from functools import cache
from itertools import accumulate, chain, islice, repeat
from math import comb
from operator import or_

from . import core


def central_binomial(m: int) -> int:
    """C(m, floor(m/2)), the m-th term of A001405, exactly."""
    return comb(m, m // 2)


# Block enumeration. A term is high << _B | w, where the low block w is _B
# digits read as a walk from the low end that never goes below 0 and ends at
# some height e. For a high part other than 0, the term is a Dyck number
# exactly when the walk of high, which starts at e, stays on or above
# ground, that is when e >= need = -_lowest(high). So each such valid high
# part contributes the block walks ending at height >= need, in ascending
# order, and the valid high parts are the walks whose lowest point is
# >= -_B, which _next_high steps by the successor's rule with the floor at
# -_B. The high part 0 contributes the Dyck numbers below 2**_B instead. The
# per-height tables are the block min-excess idea of range min-max trees
# (Navarro & Sadakane, ACM TALG 2014) applied to generation in order, as in
# Knuth's Algorithm P (TAOCP 4A, 7.2.1.6).
_B = 12
# the mask of a low block, and the bound below which a term is a high part
# with a row of low blocks of its own in _high_parts()
_MASK = (1 << _B) - 1
_NARROW = 1 << 2 * _B


@cache
def _tables() -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    # (small, tails): small holds the Dyck numbers below 2**_B and
    # tails[need] the _B-digit nonnegative walks ending at height >= need,
    # each ascending; built on first use, by adding one top digit at a time
    small = [0]
    ends = [[0]]  # ends[h]: the walks so far that end at height h
    for j in range(_B):
        up = (1 << j).__or__
        # a leading 1 over the j-digit walks gives range j + 1
        small += sorted(map(up, chain.from_iterable(ends)))
        # a top digit 0 steps down from h + 1 and a top digit 1 up from
        # h - 1; at[h + 1] is ends[h], or empty
        at = [[]] + ends + [[], []]
        ends = [at[h + 2] + list(map(up, at[h])) for h in range(j + 2)]
    tails = (tuple(sorted(chain.from_iterable(ends[need:]))) for need in range(_B + 1))
    return tuple(small), tuple(tails)


def _next_high(high: int) -> tuple[int, int]:
    # the valid high part after the valid high part high, and its need. With
    # L the lowest point of high + 1, that is high + 1 if L >= -_B; otherwise
    # the successor's jump sets the c = ceil((-_B - L)/2) lowest digits of
    # high + 1, 0s that all come before its walk reaches L, so that point
    # rises by 2c, to -_B or -_B + 1. Block walks end at even heights, so
    # both take the last table entry.
    low = core._lowest(high + 1)
    if low >= -_B:
        return high + 1, -low
    return high + (1 << -((low + _B) // 2)), _B


def _rows(d: int, last: int | None) -> Iterator[tuple[int, tuple[int, ...]]]:
    # (high, row) per valid high part, row the ascending low blocks that
    # complete high into the Dyck numbers from d through last, or from d on.
    # last is a Mersenne number: the steps reach its high part, and its low
    # block 2**_B - 1 ends every row, so only a first row there is cut short.
    small, tails = _tables()
    high = d >> _B
    top = None if last is None else last >> _B
    row = tails[-core._lowest(high)] if high else small
    stop = bisect_right(row, last & _MASK) if high == top else None
    yield high, row[bisect_left(row, d & _MASK) : stop]
    while high != top:
        high, need = _next_high(high)
        yield high, tails[need]


def _terms(rows: Iterator[tuple[int, tuple[int, ...]]]) -> Iterator[int]:
    return chain.from_iterable(map(or_, repeat(high << _B), row) for high, row in rows)


def _bounds(k: int) -> tuple[int, int]:
    if k < 1:
        raise ValueError(f"range index must be >= 1, got {k}")
    return core.mersenne_successor(k - 1), core.mersenne(k)


def iter_from(start: int = 0) -> Iterator[int]:
    """Yield start and then each Dyck successor, without end.

    Raises NotDyckNumberError if start is not a Dyck number.
    """
    core._require_dyck(start)
    return _terms(_rows(start, None))


def iter_range(k: int) -> Iterator[int]:
    """Yield the Dyck numbers of binary length exactly k, ascending."""
    return _terms(_rows(*_bounds(k)))


def range_terms(k: int) -> list[int]:
    """All Dyck numbers of binary length exactly k, as an ascending list."""
    return list(iter_range(k))


class RangeStats(namedtuple("RangeStats", "k first last size expected")):
    """Counted versus expected size of one range of Dyck numbers."""

    __slots__ = ()

    @property
    def matches(self) -> bool:
        return self.size == self.expected


def range_stats(k: int) -> RangeStats:
    """Boundary terms and counted size of range k, with the A001405 check.

    The first and last terms come from closed forms; the size adds up the
    lengths of the block walk's rows of low blocks, generating no term.
    """
    first, last = _bounds(k)
    size = sum(len(row) for _, row in _rows(first, last))
    return RangeStats(k, first, last, size, central_binomial(k - 1))


def verify_conjecture(max_k: int) -> list[RangeStats]:
    """Count ranges 1..max_k and compare each against A001405(k-1).

    The range-size law follows from the walk bijection in the module
    docstring. This recount by the block walk's rows shares no code with
    the ranking counts, so it checks the two against each other.
    """
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    return [range_stats(k) for k in range(1, max_k + 1)]


def _ranges(m: int) -> Iterator[tuple[int, int]]:
    # (m, C(m, m // 2)) from the given m on: the ranges whose terms have m
    # digits below the leading 1, with their sizes, each stepped from the
    # one before: C(m + 1, (m + 1) // 2) is C(m, m // 2) times
    # (m + 1)/(m/2 + 1) for even m and times 2 for odd m
    size = comb(m, m // 2)
    while True:
        yield m, size
        size = size * 2 if m % 2 else size * (m + 1) // (m // 2 + 1)
        m += 1


# the ranges of 25 to 64 bits, whose sizes _high_parts()'s starts go on to sum
_TABLED = 40
# the Dyck numbers below 2**_B, which term_at reads from _tables()'s small,
# and below 2**(2 * _B), which it finds through _high_parts()'s hint
_SMALL = 1 + sum(map(central_binomial, range(_B)))
_NARROW_RANKS = 1 + sum(map(central_binomial, range(2 * _B)))
# the hint's buckets are 2**_BUCKET ranks wide
_BUCKET = 8
# _high_parts()'s rows, starts, hint and places, bound by its first call so
# that term_at and index_of read them without one. Each is empty until
# then; term_at tests the hint and index_of the places, each bound after
# the tables read with it
_high_rows = _high_starts = _high_hint = _high_places = ()


@cache
def _high_parts() -> tuple[
    tuple[tuple[int, ...], ...],
    tuple[int, ...],
    tuple[list[int] | None, ...],
    tuple[list[int], ...],
    list[int],
]:
    # (rows, starts, places, spots, hint): rows[h] the low blocks that
    # complete the high part h, and starts[h] the Dyck numbers below
    # h << _B; needs[h] = -_lowest(h), stepped from h >> 1 by the digit read
    # first, is at most _B - 1. Past starts[1 << _B], the count below
    # 2**(2 * _B), the range sizes go on to the count below 2**(2 * _B + t)
    # at starts[(1 << _B) + t]. spots[need][w] is the place of the low block
    # w in tails[need], or -1 where w is not there, one list per distinct
    # row; places[h] is spots[needs[h]], and places[0] is None, since
    # index_of bisects small instead. hint[b] is the high part whose row
    # holds rank b << _BUCKET: each high part h is repeated for the buckets
    # that start below starts[h + 1] and past those of the rows before it,
    # so a row shorter than a bucket may get none
    global _high_rows, _high_starts, _high_hint, _high_places
    small, tails = _tables()
    needs = [0]
    for h in range(1, 1 << _B):
        g = needs[h >> 1]
        needs.append((g - 1 if g else 0) if h & 1 else g + 1)
    rows = (small, *(tails[need] for need in needs[1:]))
    sizes = (size for _, size in islice(_ranges(2 * _B), _TABLED))
    spots: list[list[int]] = []
    for need, row in enumerate(tails):
        if not need or row != tails[need - 1]:
            spot = [-1] * (1 << _B)
            for at, w in enumerate(row):
                spot[w] = at
        spots.append(spot)
    places = (None, *(spots[need] for need in needs[1:]))
    starts = tuple(accumulate(chain(map(len, rows), sizes), initial=0))
    hint: list[int] = []
    for h, end in enumerate(starts[1 : len(rows) + 1]):
        hint += [h] * (-(-end >> _BUCKET) - len(hint))
    _high_rows, _high_starts, _high_hint, _high_places = rows, starts, hint, places
    return rows, starts, places, tuple(spots), hint


def term_at(i: int) -> int:
    """The i-th Dyck number, 1-based, with term_at(1) = 0.

    Below 2**24, past the terms below 2**12, the rank i - 1 is placed at a
    12-digit high part by a table of buckets of 256 ranks, which gives the
    high part whose row of low blocks holds each bucket's first rank. The
    first ranks of the rows after it are compared with the rank, which
    steps the high part at most a few times, and the row is indexed. The
    terms below 2**12 come from a table of their own. Past 2**24, one
    bisection of a table of first ranks places i, up to 64 bits, in a
    range whose first rank and size the table holds; a wider range is
    reached by skipping whole ranges from 65 bits on by their exact sizes.
    Then the digits below the leading 1 are chosen from the top down: a 0
    is kept while the rank left is below the number of walks that complete
    it, and the last 12 digits are read from the table of low blocks. Each
    count is stepped from the one before by one multiply and one exact
    divide by small integers, so a k-bit term costs O(k) such steps on
    numbers of at most k bits.
    """
    if _SMALL < i <= _NARROW_RANKS:
        if not _high_hint:
            _high_parts()
        rank = i - 1
        h = _high_hint[rank >> _BUCKET]
        while _high_starts[h + 1] <= rank:
            h += 1
        return h << _B | _high_rows[h][rank - _high_starts[h]]
    if i < 1:
        raise ValueError(f"ordinal must be >= 1, got {i}")
    if i <= _SMALL:
        return _tables()[0][i - 1]
    rows, starts, _, _, _ = _high_parts()
    h = bisect_right(starts, i - 1) - 1
    rank = i - 1 - starts[h]
    if h + 1 < len(starts):
        m, size = h - len(rows) + 2 * _B, starts[h + 1] - starts[h]
    else:
        for m, size in _ranges(2 * _B + _TABLED):
            if rank < size:
                break
            rank -= size
    d = 1
    # least end height the free low digits need so that the digits fixed
    # above them stay on or above ground
    need = 0
    # c = C(r, j) on entry to the digit with r - 1 digits below it, at
    # first the range size C(m, (m + 1) // 2). The terms that carry a 0 in
    # that digit are the nonnegative walks of r - 1 steps that end at height
    # need + 1 or more, C(r - 1, j') with j' = (r + need + 1) // 2, which is
    # j or j - 1: C(r, j)(r - j)/r or C(r, j)j/r
    j, c = (m + 1) // 2, size
    for r in range(m, _B, -1):
        if (r + need + 1) // 2 == j:
            c = c * (r - j) // r
        else:
            c = c * j // r
            j -= 1
        if rank < c:
            d <<= 1
            need += 1
        else:
            rank -= c
            d = d << 1 | 1
            need = need - 1 if need else 0
    return d << _B | _tables()[1][need][rank]


def index_of(d: int) -> int:
    """1-based ordinal of the Dyck number d; inverse of term_at.

    The ordinal is the exact count of Dyck numbers below d plus one. Below
    2**24 it is the rank at which d's high part starts, from term_at's
    table, plus the place of its last 12 digits in that part's row. Above,
    it adds the count below d's range, read from the same table up to 64
    bits and summed from range sizes above it, then, at each 1-digit of d
    below its leading 1, the terms that carry a 0 there instead, stepped
    as in term_at. A term below 2**12 is placed in the table of small
    terms by one bisection, and the last 12 digits of a wider one by one
    index into the list of block places of the row that the digits above
    them need. That read decides membership too: d is a Dyck number
    exactly when it is found in the table of small terms, or when its
    last 12 digits have a place in that row. Otherwise NotDyckNumberError
    is raised, with the violating suffix that a scan of d names, and
    ValueError for d < 0.
    """
    if _MASK < d < _NARROW:
        if not _high_places:
            _high_parts()
        h = d >> _B
        at = _high_places[h][d & _MASK]
        if at >= 0:
            return _high_starts[h] + 1 + at
    elif d <= _MASK:
        small = _tables()[0]
        at = bisect_left(small, d)
        if small[at : at + 1] == (d,):
            return 1 + at
    else:
        rows, starts, _, spots, _ = _high_parts()
        top = d.bit_length() - 1
        t = top - 2 * _B + len(rows)
        if t + 1 < len(starts):
            m, size, ordinal = top, starts[t + 1] - starts[t], starts[t] + 1
        else:
            ordinal = starts[-1] + 1
            for m, size in _ranges(2 * _B + _TABLED):
                if m == top:
                    break
                ordinal += size
        need = 0
        # c and j as in term_at
        j, c = (m + 1) // 2, size
        for r, bit in zip(range(m, _B, -1), bin(d)[3 : 3 + m - _B]):
            if (r + need + 1) // 2 == j:
                c = c * (r - j) // r
            else:
                c = c * j // r
                j -= 1
            if bit == "1":
                ordinal += c
                need = need - 1 if need else 0
            else:
                need += 1
        # past _B, the digits above the block dip deeper than any block climbs
        at = spots[need][d & _MASK] if need <= _B else -1
        if at >= 0:
            return ordinal + at
    raise core.NotDyckNumberError(d, core.violating_suffix(d))
