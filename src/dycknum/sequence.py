"""Range structure and ordinal indexing of the Dyck number sequence.

Dyck numbers of the same binary length k form the k-th range: it starts
at the successor of the (k-1)-th Mersenne number and ends at the k-th.
Below its leading 1, a k-bit Dyck number is a string of k-1 digits that,
read from the low end with 1 as a step up and 0 as a step down, is a walk
that never goes below 0; every such walk occurs. Range k therefore holds
C(k-1, floor((k-1)/2)) terms, the central binomial sequence A001405.

term_at and index_of rank and unrank exactly by counting those walks
with ballot numbers. The ranks at which the ranges of 13 to 64 bits
start are summed once into a table, built on the first ranking past the
terms below 2**12, so a range there is found by one lookup; wider ranges
are skipped by their sizes. Each count is stepped from the one before by
one multiply and one exact divide by small integers, and the lowest 12
digits are read from the block tables below, so an ordinal costs O(k)
such steps and no successor steps. index_of reads membership from the
same walk: the digits above the lowest 12 fix the row of low blocks that
can complete them, and the input is a Dyck number exactly when its
lowest 12 digits are in that row, so only a refusal scans the input to
name its violating suffix.

iter_from and iter_range enumerate in blocks: a term is a high part
followed by a 12-digit low block, and each valid high part is followed
by every low block whose walk ends high enough to carry it, taken in
order from a table; the high part 0 takes the 989 Dyck numbers below
2**12 from a table of their own. The tables (3,499 distinct entries: 989
small terms and 2,510 low blocks, since each odd row of low blocks is
the even row after it) are built on the first enumeration or ranking,
not at import. range_stats and verify_conjecture count each range by
this enumeration, which stops at the range's last term by value,
independently of the ballot counts.

Ordinals are 1-based with term 1 equal to 0, matching the published
A036991 b-file (term 13496 is 65535).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import cache
from itertools import accumulate, chain, islice
from math import comb

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


@cache
def _tables() -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    # (small, tails): small holds the Dyck numbers below 2**_B and
    # tails[need] the _B-digit nonnegative walks ending at height >= need,
    # each ascending; built on first use, by adding one top digit at a time
    small = [0]
    ends = [[0]]  # ends[h]: the walks so far that end at height h, ascending
    for j in range(_B):
        up = (1 << j).__or__
        # a leading 1 over the j-digit walks gives range j + 1
        small += sorted(map(up, chain.from_iterable(ends)))
        # a top digit 0 steps down from h + 1 and sorts before a top digit
        # 1, which steps up from h - 1; at[h + 1] is ends[h], or empty
        at = [[]] + ends + [[], []]
        ends = [at[h + 2] + list(map(up, at[h])) for h in range(j + 2)]
    # a _B-digit walk ends at a height of _B's parity, so every other need
    # has no walks of its own and its row is the row of need + 1, the same
    # tuple; each other row merges its own walks into the row of need + 1
    tails = []
    row: tuple[int, ...] = ()
    for need in range(_B, -1, -1):
        if ends[need]:
            row = tuple(sorted(ends[need] + list(row)))
        tails.append(row)
    return tuple(small), tuple(reversed(tails))


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


def _pieces(d: int, last: int | None) -> Iterator[Iterable[int]]:
    # iterables that together yield the Dyck numbers from d on, ascending,
    # through last when it is given. last is a Mersenne number: its high
    # part is valid, so the steps reach it, and its low block 2**_B - 1
    # ends every row, so only a first piece in that high part needs a cut.
    small, tails = _tables()
    mask = (1 << _B) - 1
    high = d >> _B
    top = None if last is None else last >> _B
    tail = tails[-core._lowest(high)] if high else small
    stop = bisect_right(tail, last & mask) if high == top else None
    yield map((high << _B).__or__, tail[bisect_left(tail, d & mask) : stop])
    while high != top:
        high, need = _next_high(high)
        yield map((high << _B).__or__, tails[need])


def iter_from(start: int = 0) -> Iterator[int]:
    """Yield start and then each Dyck successor, without end.

    Raises NotDyckNumberError if start is not a Dyck number.
    """
    core._require_dyck(start)
    return chain.from_iterable(_pieces(start, None))


def iter_range(k: int) -> Iterator[int]:
    """Yield the Dyck numbers of binary length exactly k, ascending."""
    if k < 1:
        raise ValueError(f"range index must be >= 1, got {k}")
    return chain.from_iterable(
        _pieces(core.mersenne_successor(k - 1), core.mersenne(k))
    )


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

    The first and last terms come from closed forms; the size is counted
    by enumerating the whole range.
    """
    size = sum(1 for _ in iter_range(k))
    return RangeStats(
        k=k,
        first=core.mersenne_successor(k - 1),
        last=core.mersenne(k),
        size=size,
        expected=central_binomial(k - 1),
    )


def verify_conjecture(max_k: int) -> list[RangeStats]:
    """Count ranges 1..max_k and compare each against A001405(k-1).

    The range-size law follows from the walk bijection in the module
    docstring. This recount enumerates the terms block by block and
    shares no code with the ranking counts, so it checks the two against
    each other.
    """
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    return [range_stats(k) for k in range(1, max_k + 1)]


def _completions(r: int, need: int) -> int:
    # nonnegative walks of r steps that end at height >= need; the ballot
    # numbers C(r,(r+h)/2) - C(r,(r+h)/2+1) summed over h >= need
    # telescope to one binomial, which is 0 once need > r. term_at and
    # index_of step these counts instead; the tests hold them to this
    return comb(r, (r + need + 1) // 2)


def _ranges() -> Iterator[tuple[int, int]]:
    # (m, C(m, m // 2)) for m = _B, _B + 1, ...: the ranges whose terms
    # have m digits below the leading 1, with their sizes, each stepped
    # from the one before: C(m + 1, (m + 1) // 2) is C(m, m // 2) times
    # (m + 1)/(m/2 + 1) for even m and times 2 for odd m
    m, size = _B, comb(_B, _B // 2)
    while True:
        yield m, size
        size = size * 2 if m % 2 else size * (m + 1) // (m // 2 + 1)
        m += 1


# ranges of 13 to 64 bits, whose first ranks _firsts() holds
_TABLED = 52


@cache
def _firsts() -> tuple[int, ...]:
    # entry t: the terms past the small table that come before range
    # _B + 1 + t, for t = 0.._TABLED, so the last entry is where range
    # _B + 1 + _TABLED (65 bits) starts and the sizes are the differences
    return tuple(
        accumulate((size for _, size in islice(_ranges(), _TABLED)), initial=0)
    )


def term_at(i: int) -> int:
    """The i-th Dyck number, 1-based, with term_at(1) = 0.

    The terms below 2**12 come from a table. Above it, the range is found
    by one bisection of a table of the ranks at which ranges of 13 to 64
    bits start; a wider range is reached by skipping whole ranges by
    their exact sizes. Then the digits below the leading 1 are chosen from
    the top down: a 0 is kept while the rank left is below the number of
    walks that complete it, and the last 12 digits are read from the table
    of low blocks. Each count is stepped from the one before by one
    multiply and one exact divide by small integers, so a k-bit term costs
    O(k) such steps on numbers of at most k bits.
    """
    if i < 1:
        raise ValueError(f"ordinal must be >= 1, got {i}")
    small, tails = _tables()
    if i <= len(small):
        return small[i - 1]
    rank = i - 1 - len(small)
    firsts = _firsts()
    t = bisect_right(firsts, rank) - 1
    if t < _TABLED:
        m, size = _B + t, firsts[t + 1] - firsts[t]
        rank -= firsts[t]
    else:
        for m, size in _ranges():
            if rank < size:
                break
            rank -= size
    d = 1
    # least end height the free low digits need so that the digits fixed
    # above them stay on or above ground
    need = 0
    # c = C(r, j) on entry to the digit with r - 1 digits below it, at
    # first the range size C(m, (m + 1) // 2). The terms that carry a 0 in
    # that digit number _completions(r - 1, need + 1) = C(r - 1, j') with
    # j' = (r + need + 1) // 2, which is j or j - 1: C(r, j)(r - j)/r or
    # C(r, j)j/r
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
    return d << _B | tails[need][rank]


def index_of(d: int) -> int:
    """1-based ordinal of the Dyck number d; inverse of term_at.

    The ordinal is the exact count of Dyck numbers below d plus one: the
    sizes of the shorter ranges, read from term_at's table of first ranks
    up to 64 bits and summed above it, then, at each 1-digit of d below
    its leading 1, the terms that carry a 0 there instead, stepped as in
    term_at; terms below 2**12 and the last 12 digits are placed in their
    tables by bisection. The same walk decides membership: d is a Dyck
    number exactly when it is found in the table of small terms, or when
    its last 12 digits are found in the row of low blocks that the digits
    above them need. Otherwise NotDyckNumberError is raised, with the
    violating suffix that a scan of d names, and ValueError for d < 0.
    """
    small, tails = _tables()
    if d < 0 or not d >> _B:
        at = bisect_left(small, d)
        if small[at : at + 1] == (d,):
            return at + 1
        raise core.NotDyckNumberError(d, core.violating_suffix(d))
    top = d.bit_length() - 1
    ordinal = len(small) + 1
    if top < _B + _TABLED:
        firsts = _firsts()
        m, t = top, top - _B
        size = firsts[t + 1] - firsts[t]
        ordinal += firsts[t]
    else:
        for m, size in _ranges():
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
    if need <= _B:
        row, w = tails[need], d & ((1 << _B) - 1)
        at = bisect_left(row, w)
        if row[at : at + 1] == (w,):
            return ordinal + at
    raise core.NotDyckNumberError(d, core.violating_suffix(d))
