"""Brute-force reference implementations used as test oracles.

Everything here recomputes from the defining suffix-balance rule with
naive scans. None of it shares logic with the closed-form successor or
the ranking in the main modules; that independence is the whole
point, so keep it slow and obvious.
"""

from __future__ import annotations

from .core import NotDyckNumberError, violating_suffix

# what brute_successor or brute_range may spend on scans, a scan of a k-bit
# number counted as k * (k + 512): about 1.5 s on a 2-core shared host under
# Python 3.11; a Dyck number below 2**24 is followed by at most 2**11
# candidates, costing ~2**25, and range 19 costs ~2**30.3
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
    if n < 0:
        raise ValueError(f"expected a natural number, got {n}")
    if not _suffix_balanced(n):
        raise NotDyckNumberError(n, violating_suffix(n))


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
