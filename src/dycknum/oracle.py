"""Slow references used as test oracles.

Everything here recomputes from the defining rules with naive scans:

- ``_suffix_balanced``, the rule restated literally, suffix by suffix;
- ``brute_successor`` and ``brute_range``, which scan candidates with it
  under ``SUCCESSOR_SCAN_BUDGET``;
- ``kasa_zero_bounds``, a positional bound on the zeros of a member;
- four per-digit walks, each the reference for a fast path in ``core``:
  ``_heights`` for the height profile and the byte scanner,
  ``_violating_suffix`` for membership and the suffix a refusal names,
  ``_valley_depth`` for the valley depth, and ``_word_violation`` for the
  step-word check and its messages;
- ``_successor``, the reference for ``core.successor`` past the budget: a
  completion search with ``_violating_suffix`` and no budget;
- ``_term_at`` and ``_index_of``, the references for the ranking in
  ``sequence``: one binomial count per range skipped and per digit.

The only thing shared with ``core`` is the exception class. No logic is
shared with the byte scanner, the closed-form successor or the ranking in
the main modules; that independence is the whole point, so keep it slow
and obvious.
"""

from __future__ import annotations

from math import comb

from .core import NotDyckNumberError

# what brute_successor or brute_range may spend on scans, a scan of a k-bit
# number counted as k * (k + 512); a Dyck number below 2**24 is followed by
# at most 2**11 candidates, costing ~2**25, range 19 costs ~2**30.3, and
# each range costs about twice the one before
SUCCESSOR_SCAN_BUDGET = 1 << 31


def _suffix_balanced(n: int) -> bool:
    # literal restatement of the membership rule: every suffix of the
    # binary expansion has at least as many 1s as 0s
    if n == 0:
        return True
    bits = bin(n)[2:]
    for start in range(len(bits)):
        suffix = bits[start:]
        if suffix.count("0") > suffix.count("1"):
            return False
    return True


def _require_dyck(n: int) -> None:
    # by the digit walk, in linear time, so that a wide number is refused too
    if n < 0:
        raise ValueError(f"expected a natural number, got {n}")
    suffix = _violating_suffix(n)
    if suffix is not None:
        raise NotDyckNumberError(n, suffix)


def _scan_cost(k: int) -> int:
    # _suffix_balanced checks up to k suffixes of a k-bit number, each at
    # a fixed cost worth ~512 characters plus its length
    return k * (k + 512)


def brute_successor(d: int) -> int:
    """Next Dyck number after d, found by scanning odd candidates.

    A scan costs time quadratic in its width, and the successor of a
    k-bit number can lie about 2**(k/2) odd numbers above it, so a
    ValueError is raised instead of any scan that would take the cost of
    the scans, d's own included, past SUCCESSOR_SCAN_BUDGET.
    """
    spent = _scan_cost(d.bit_length())
    if spent <= SUCCESSOR_SCAN_BUDGET:
        _require_dyck(d)
        if d == 0:
            return 1
        candidate = d + 2
        while (
            spent := spent + _scan_cost(candidate.bit_length())
        ) <= SUCCESSOR_SCAN_BUDGET:
            if _suffix_balanced(candidate):
                return candidate
            candidate += 2
    raise ValueError(
        f"brute_successor gives up on a {d.bit_length()}-bit number: its "
        f"scans would cost more than SUCCESSOR_SCAN_BUDGET = "
        f"{SUCCESSOR_SCAN_BUDGET}"
    )


def brute_range(k: int) -> list[int]:
    """All Dyck numbers of binary length k, by scanning every odd number.

    A ValueError is raised before any scan when the 2**(k-2) scans of
    k-bit candidates would cost more than SUCCESSOR_SCAN_BUDGET.
    """
    if k < 1:
        raise ValueError(f"range index must be >= 1, got {k}")
    # 2**(k-2) * cost > budget, tested without building a k-bit number
    if _scan_cost(k) > SUCCESSOR_SCAN_BUDGET >> max(k - 2, 0):
        raise ValueError(
            f"brute_range({k}) gives up: its 2**{k - 2} scans would cost "
            f"more than SUCCESSOR_SCAN_BUDGET = {SUCCESSOR_SCAN_BUDGET}"
        )
    return [n for n in range(1 << (k - 1), 1 << k) if n % 2 and _suffix_balanced(n)]


def kasa_zero_bounds(d: int) -> bool:
    """Check the positional bounds on the zeros of d's full binary code.

    With n ones and leading zeros restored to length 2n, the i-th zero
    counted from the right (i = 1..n) must sit at a position in
    [2i - 1, n + i - 1]. This holds for every Dyck number; a False return
    from valid input would disprove the bound.
    """
    _require_dyck(d)
    ones = d.bit_count()
    zero_positions = [p for p in range(2 * ones) if not (d >> p) & 1]
    for i, pos in enumerate(zero_positions, start=1):
        if not 2 * i - 1 <= pos <= ones + i - 1:
            return False
    return True


def _heights(n: int, width: int | None = None) -> list[int]:
    # ones minus zeros over n's digits, low digit first, one digit at a
    # time; with a width of at least n's bit length, the digits past the
    # bit length count as 0s
    digits = bin(n)[:1:-1] if n else ""
    if width is not None:
        digits = digits.ljust(width, "0")
    heights, level = [], 0
    for digit in digits:
        level += 1 if digit == "1" else -1
        heights.append(level)
    return heights


def _violating_suffix(n: int) -> str | None:
    # the digits from the first dip of n's walk down, left to right, or
    # None when the walk never dips
    for p, level in enumerate(_heights(n)):
        if level < 0:
            return bin(n)[-(p + 1) :]
    return None


def _valley_depth(d: int) -> int | None:
    # the least height just below a 01 pair, read from the low end: the
    # height after a 0 digit that the next digit up, a 1, climbs out of;
    # None when no such pair exists (0 and the Mersenne numbers)
    heights, digits = _heights(d), bin(d)[:1:-1] if d else ""
    valleys = [heights[p - 1] for p in range(1, len(digits)) if digits[p - 1 : p + 1] == "01"]
    return min(valleys, default=None)


def _word_violation(word: str) -> str | None:
    # read from the left: the first invalid step or dip, then the balance
    level = 0
    for i, step in enumerate(word):
        if step not in ("U", "D"):
            return f"invalid step {step!r} at position {i} (expected U or D)"
        level += 1 if step == "U" else -1
        if level < 0:
            return f"path dips below ground at step {i + 1}"
    if level != 0:
        return f"unbalanced: {level} more up steps than down steps"
    return None


def _successor(d: int) -> int:
    # the next member first exceeds d at a 0 digit p (a new top digit at
    # worst): keep d above p, set p, and take the fewest 1s below p, packed
    # at the bottom, that make a member; the lowest such p wins. That is
    # the lowest 0 digit, after up to p + 1 walks of d's width
    _require_dyck(d)
    for p in range(d.bit_length() + 1):
        if d >> p & 1:
            continue
        high = (d >> p | 1) << p
        for ones in range(p + 1):
            candidate = high | (1 << ones) - 1
            if _violating_suffix(candidate) is None:
                return candidate


def _completions(r: int, need: int) -> int:
    # nonnegative walks of r steps that end at height >= need; the ballot
    # numbers C(r,(r+h)/2) - C(r,(r+h)/2+1) summed over h >= need
    # telescope to one binomial, which is 0 once need > r
    return comb(r, (r + need + 1) // 2)


def _term_at(i: int) -> int:
    # the ranking by definition: one _completions count per range skipped
    # and per digit chosen below the leading 1, top down, where a 0 is
    # kept while the rank left is below the members that carry it
    if i < 1:
        raise ValueError(f"ordinal must be >= 1, got {i}")
    if i == 1:
        return 0
    rank, k = i - 2, 1
    while rank >= (size := _completions(k - 1, 0)):
        rank -= size
        k += 1
    d, need = 1, 0
    for r in range(k - 2, -1, -1):
        with_zero = _completions(r, need + 1)
        if rank < with_zero:
            d, need = d << 1, need + 1
        else:
            rank -= with_zero
            d, need = d << 1 | 1, max(0, need - 1)
    return d


def _index_of(d: int) -> int:
    # the inverse count: the members below d's range, then at each 1-digit
    # below the leading 1 the members that carry a 0 there instead
    _require_dyck(d)
    if d == 0:
        return 1
    k = d.bit_length()
    ordinal = 2 + sum(_completions(r, 0) for r in range(k - 1))
    need = 0
    for r, bit in zip(range(k - 2, -1, -1), bin(d)[3:]):
        if bit == "1":
            ordinal += _completions(r, need + 1)
            need = max(0, need - 1)
        else:
            need += 1
    return ordinal
