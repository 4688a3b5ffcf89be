"""Range structure and ordinal indexing of the Dyck number sequence.

Dyck numbers of the same binary length k form the k-th range: it starts
at the successor of the (k-1)-th Mersenne number and ends at the k-th.
Below its leading 1, a k-bit Dyck number is a string of k-1 digits that,
read from the low end with 1 as a step up and 0 as a step down, is a walk
that never goes below 0; every such walk occurs. Range k therefore holds
C(k-1, floor((k-1)/2)) terms, the central binomial sequence A001405.

term_at and index_of rank and unrank exactly by counting those walks
with ballot numbers, so an ordinal costs O(k) binomial coefficients and
no successor steps. range_stats and verify_conjecture count each range
by walking the successor instead, independently of those counts.

Ordinals are 1-based with term 1 equal to 0, matching the published
A036991 b-file (term 13496 is 65535).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

from . import core


def central_binomial(m: int) -> int:
    """C(m, floor(m/2)), the m-th term of A001405, exactly."""
    return comb(m, m // 2)


def iter_from(start: int = 0) -> Iterator[int]:
    """Yield start and then each Dyck successor, without end.

    Raises NotDyckNumberError if start is not a Dyck number.
    """
    core._require_dyck(start)
    d = start
    while True:
        yield d
        d = core._successor_unchecked(d)


def iter_range(k: int) -> Iterator[int]:
    """Yield the Dyck numbers of binary length exactly k, ascending."""
    if k < 1:
        raise ValueError(f"range index must be >= 1, got {k}")
    d = core.mersenne_successor(k - 1)
    last = core.mersenne(k)
    while d < last:
        yield d
        d = core._successor_unchecked(d)
    yield last


def range_terms(k: int, *, allow_zero_range: bool = False) -> list[int]:
    """All Dyck numbers of binary length exactly k, as an ascending list.

    Range 0 holds only the empty path; ask for it explicitly with
    allow_zero_range=True, since most uses start at range 1.
    """
    if k == 0:
        if not allow_zero_range:
            raise ValueError(
                "range 0 is the single empty path; pass allow_zero_range=True"
            )
        return [0]
    return list(iter_range(k))


@dataclass(frozen=True)
class RangeStats:
    """Counted versus expected size of one range of Dyck numbers."""

    k: int
    first: int
    last: int
    size: int
    expected: int

    @property
    def matches(self) -> bool:
        return self.size == self.expected


def range_stats(k: int) -> RangeStats:
    """Boundary terms and counted size of range k, with the A001405 check.

    The first and last terms come from closed forms; the size is counted
    by walking the whole range with the successor function.
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
    docstring. This recount walks the successor and shares no code with
    the ranking counts, so it checks the two against each other.
    """
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    return [range_stats(k) for k in range(1, max_k + 1)]


def _completions(r: int, need: int) -> int:
    # nonnegative walks of r steps that end at height >= need; the ballot
    # numbers C(r,(r+h)/2) - C(r,(r+h)/2+1) summed over h >= need
    # telescope to one binomial, which is 0 once need > r
    return comb(r, (r + need + 1) // 2)


def term_at(i: int) -> int:
    """The i-th Dyck number, 1-based, with term_at(1) = 0.

    Whole ranges are skipped by their exact sizes, then the digits below
    the leading 1 are chosen from the top down: a 0 is kept while the
    rank left is below the number of walks that complete it. The cost
    is O(bit length) binomial coefficients.
    """
    if i < 1:
        raise ValueError(f"ordinal must be >= 1, got {i}")
    if i == 1:
        return 0
    rank = i - 2
    k = 1
    while rank >= (size := _completions(k - 1, 0)):
        rank -= size
        k += 1
    d = 1
    # least end height the free low digits need so that the digits fixed
    # above them stay on or above ground
    need = 0
    for r in range(k - 2, -1, -1):
        with_zero = _completions(r, need + 1)
        if rank < with_zero:
            d <<= 1
            need += 1
        else:
            rank -= with_zero
            d = d << 1 | 1
            need = max(0, need - 1)
    return d


def index_of(d: int) -> int:
    """1-based ordinal of the Dyck number d; inverse of term_at.

    The ordinal is the exact count of Dyck numbers below d plus one:
    the sizes of the shorter ranges, then, at each 1-digit of d below its
    leading 1, the terms that carry a 0 there instead. Raises
    NotDyckNumberError for non-Dyck input.
    """
    core._require_dyck(d)
    if d == 0:
        return 1
    k = d.bit_length()
    ordinal = 2 + sum(_completions(r, 0) for r in range(k - 1))
    need = 0
    r = k - 1
    for bit in bin(d)[3:]:
        r -= 1
        if bit == "1":
            ordinal += _completions(r, need + 1)
            need = max(0, need - 1)
        else:
            need += 1
    return ordinal

