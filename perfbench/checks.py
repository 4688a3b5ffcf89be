"""Reference answers for the benchmark's output checks.

The functions here restate the definitions with their own code, so they
can judge dycknum's fast paths above 2**24, where the brute-force
`dycknum.oracle` would take too long. Below 2**24 the checks use the
oracle as well. Nothing here runs inside a timed phase.
"""

from __future__ import annotations


def suffix_heights(n: int) -> list[int]:
    """Running (#1s - #0s) over n's binary digits, least significant first."""
    heights, level = [], 0
    for bit in bin(n)[:1:-1] if n else "":
        level += 1 if bit == "1" else -1
        heights.append(level)
    return heights


def first_violation(n: int) -> str | None:
    """Shortest suffix of n's expansion with more 0s than 1s, or None."""
    for pos, height in enumerate(suffix_heights(n)):
        if height < 0:
            return format(n & ((1 << (pos + 1)) - 1), f"0{pos + 1}b")
    return None


def valley_depth(d: int) -> int | None:
    """Least height just before a 0 -> 1 ascent read from the low end."""
    heights = suffix_heights(d)
    depths = [
        heights[p - 1]
        for p in range(1, d.bit_length())
        if (d >> p) & 1 and not (d >> (p - 1)) & 1
    ]
    return min(depths) if depths else None


def standard_code(d: int) -> int:
    """A014486 code: the complement of d's 2n-bit expansion, n = popcount(d)."""
    return ((1 << (2 * bin(d).count("1"))) - 1) ^ d


def successor(d: int) -> int:
    """Smallest Dyck number above the Dyck number d, by colex search.

    Any larger number first differs from d at some 0-bit p (or at the new
    top bit p = bit length), where it has a 1. Keeping d's bits above p,
    the bits below p are filled with the fewest 1s, packed at the bottom,
    that keep every suffix balanced; the lowest feasible p wins.
    """
    length = d.bit_length()
    # lowest[j] = least partial sum of the steps j, j+1, ..., starting at j
    lowest = [0] * (length + 1)
    run = None
    for j in range(length - 1, -1, -1):
        step = 1 if (d >> j) & 1 else -1
        run = step if run is None else step + min(0, run)
        lowest[j] = run
    for p in range(length):
        if (d >> p) & 1:
            continue
        above = lowest[p + 1] if p + 1 < length else 0
        need = max(0, -1 - min(0, above))
        need += (need - p) % 2
        if need <= p:
            ones = (p + need) // 2
            return ((d >> (p + 1)) << (p + 1)) | (1 << p) | ((1 << ones) - 1)
    # a new top bit always works: half the old bits, rounded up, become 1s
    return (1 << length) | ((1 << ((length + 1) // 2)) - 1)
