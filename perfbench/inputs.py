"""Seeded inputs for the benchmark workloads.

Nothing here imports dycknum. Paths, numbers and the facts the checker
needs about them (which inputs are members, where a planted violation
sits) come from the definitions alone, so a wrong library answer cannot
leak into its own reference.

Bit strings follow the package's convention: written left to right with
leading zeros restored, a 0 is an up step (U) and a 1 a down step (D).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

BIGINT_WIDTHS = (22, 64, 10_000)
BIGINT_FUNCTIONS = (
    "is_dyck_number",
    "violating_suffix",
    "successor",
    "valley_depth",
    "height_profile",
    "to_dyck_word",
    "from_dyck_word",
    "to_standard_code",
)
# per width and function, one bigint cycle sends three members, one
# non-member refused near the low end and one refused near the top
BIGINT_KINDS = ("member", "member", "member", "early", "late")
# distinct inputs per (width, kind): the narrow ones are cheap to keep, and
# more of them keep a seed's input shapes from moving the median latency
BIGINT_POOL = {22: 256, 64: 256, 10_000: 16}

SWEEP_MAX_RANGE = 18

LOOKUP_LOW = 10**3
LOOKUP_HIGH = round(10**5.5)
LOOKUP_STRATA = 48
LOOKUP_POOL = 16

CLI_SUBCOMMANDS = ("check", "succ", "convert", "range", "bfile", "bfile_check", "oracle-succ")
CLI_BFILE_COUNT = 40
CLI_RANGE = 10
CLI_SUCC_COUNT = 5
# ranges 1..14 end at ordinal 3628; the cli reference lists them by brute force
CLI_MAX_ORDINAL = 3628


def random_dyck_word(rng: random.Random, n: int) -> str:
    """Uniform random Dyck word of semilength n, by the cycle lemma.

    A shuffled sequence of n up steps and n + 1 down steps has exactly one
    rotation whose partial sums stay >= 0 until the last step; rotating to
    start just after the first minimum finds it, and dropping the final
    down step leaves a Dyck word. Each word arises from 2n + 1 sequences.
    """
    steps = ["U"] * n + ["D"] * (n + 1)
    rng.shuffle(steps)
    level = lowest = cut = 0
    for i, step in enumerate(steps):
        level += 1 if step == "U" else -1
        if level < lowest:
            lowest, cut = level, i + 1
    return "".join(steps[cut:] + steps[:cut])[:-1]


def word_to_int(word: str) -> int:
    return int(word.translate(str.maketrans("UD", "01")) or "0", 2)


@dataclass(frozen=True)
class NumberCase:
    """One input number (or word) and what is known about it by construction."""

    value: int
    word: str  # the member's step word, or the non-member's corrupted word
    width: int  # semilength * 2
    kind: str  # "member", "early" or "late"
    suffix: str | None = None  # planted shortest violating suffix
    dip_step: int | None = None  # 1-based step at which a corrupted word dips


def member(rng: random.Random, width: int) -> NumberCase:
    word = random_dyck_word(rng, width // 2)
    return NumberCase(word_to_int(word), word, width, "member")


def non_member(rng: random.Random, width: int, kind: str) -> NumberCase:
    """A corrupted Dyck path refused early (near where the scan starts) or late.

    Numbers are scanned from the low end. The path is a concatenation
    P1 + P2 of Dyck words, P1 of semilength >= 2; clearing the lowest
    1-bit of P1, which sits just above the balanced block P2, makes the
    suffix ending there the shortest violating one. A short P2 fails
    early, a long one late.

    Words are scanned from the left. The word is Q1 + Q2 with Q2 not
    empty; turning the first up step of Q2 into a down step makes the
    path dip below ground right after Q1. A short Q1 fails early.
    """
    n = width // 2
    span = max(1, n // 16)
    if kind == "early":
        m2, m1 = rng.randrange(span), rng.randrange(span)
    else:
        m2, m1 = rng.randint(n - 1 - span, n - 2), rng.randint(n - span, n - 1)
    v = 2 * m2
    value = word_to_int(random_dyck_word(rng, n - m2) + random_dyck_word(rng, m2))
    value &= ~(1 << v)
    suffix = format(value & ((1 << (v + 1)) - 1), f"0{v + 1}b")
    q1, q2 = random_dyck_word(rng, m1), random_dyck_word(rng, n - m1)
    word = q1 + "D" + q2[1:]
    return NumberCase(value, word, width, kind, suffix=suffix, dip_step=len(q1) + 1)


def bigint_pools(rng: random.Random) -> dict[tuple[int, str], list[NumberCase]]:
    pools = {}
    for width in BIGINT_WIDTHS:
        size = BIGINT_POOL[width]
        pools[width, "member"] = [member(rng, width) for _ in range(size)]
        for kind in ("early", "late"):
            pools[width, kind] = [non_member(rng, width, kind) for _ in range(size)]
    return pools


def bigint_cycle(rng: random.Random) -> list[tuple[str, int, str, int]]:
    """One cycle of (function, width, kind, pool index), in seeded order."""
    ops = [
        (fn, width, kind, rng.randrange(BIGINT_POOL[width]))
        for width in BIGINT_WIDTHS
        for fn in BIGINT_FUNCTIONS
        for kind in BIGINT_KINDS
    ]
    rng.shuffle(ops)
    return ops


def sweep_order(rng: random.Random) -> list[int]:
    ks = list(range(1, SWEEP_MAX_RANGE + 1))
    rng.shuffle(ks)
    return ks


def range_first_ordinal(k: int) -> int:
    """Ordinal of the first k-bit Dyck number: term 1 is 0, range k holds C(k-1, (k-1)//2)."""
    return 2 + sum(math.comb(j - 1, (j - 1) // 2) for j in range(1, k))


def lookup_pool(rng: random.Random) -> list[list[int]]:
    """LOOKUP_POOL log-uniform ordinals in each of LOOKUP_STRATA strata.

    Stratifying the log scale keeps the work of a cycle nearly the same
    from seed to seed, since the cost of an ordinal grows with its size.
    """
    lo, hi = math.log(LOOKUP_LOW), math.log(LOOKUP_HIGH)
    step = (hi - lo) / LOOKUP_STRATA
    return [
        [round(math.exp(lo + (s + rng.random()) * step)) for _ in range(LOOKUP_POOL)]
        for s in range(LOOKUP_STRATA)
    ]


def lookup_cycle(rng: random.Random, pool: list[list[int]]) -> list[int]:
    """One ordinal from each stratum of the pool, in seeded order."""
    ordinals = [rng.choice(stratum) for stratum in pool]
    rng.shuffle(ordinals)
    return ordinals


@dataclass(frozen=True)
class CliCase:
    """One `dyck` process: its subcommand name, arguments and input facts."""

    name: str  # subcommand label used for per-subcommand timings
    argv: tuple[str, ...]
    terms: int  # Dyck numbers the process handles
    case: NumberCase | None = None
    offset: int | None = None  # b-file window start
    planted: tuple[int, int] | None = None  # (index, wrong value) in a --check file


def cli_cycle(rng: random.Random) -> list[CliCase]:
    """One cycle of the command mix, in seeded order.

    Output sizes are fixed per slot so the cycle's work does not depend
    on the seed; the seed picks the numbers and the b-file windows.
    bfile --check files are written by the caller from `offset` and
    `planted`; their path replaces the "{file}" placeholder.
    """
    yes, no = member(rng, 32), non_member(rng, 32, rng.choice(("early", "late")))
    small = member(rng, 22)
    code = member(rng, 64)
    oracle_input = member(rng, 16)

    def window() -> int:
        return rng.randint(1, CLI_MAX_ORDINAL - CLI_BFILE_COUNT + 1)

    check_match, check_mismatch = window(), window()
    bad_index = check_mismatch + rng.randrange(CLI_BFILE_COUNT)
    cases = [
        CliCase("check", ("check", str(yes.value)), 1, yes),
        CliCase("check", ("check", str(no.value)), 1, no),
        CliCase(
            "succ", ("succ", str(small.value), "--count", str(CLI_SUCC_COUNT)), CLI_SUCC_COUNT, small
        ),
        CliCase("convert", ("convert", str(code.value), "--to", "word"), 1, code),
        CliCase("convert", ("convert", str(code.value), "--to", "standard"), 1, code),
        CliCase("convert", ("convert", str(code.value), "--to", "heights"), 1, code),
        CliCase(
            "range", ("range", str(CLI_RANGE), "--list"), math.comb(CLI_RANGE - 1, (CLI_RANGE - 1) // 2)
        ),
        CliCase(
            "bfile",
            ("bfile", "--count", str(CLI_BFILE_COUNT), "--offset", str(off := window())),
            CLI_BFILE_COUNT,
            offset=off,
        ),
        CliCase("bfile_check", ("bfile", "--check", "{file}"), CLI_BFILE_COUNT, offset=check_match),
        CliCase(
            "bfile_check",
            ("bfile", "--check", "{file}"),
            CLI_BFILE_COUNT,
            offset=check_mismatch,
            planted=(bad_index, 2 * rng.randrange(1, 1 << 12)),  # even: never a term
        ),
        CliCase("oracle-succ", ("oracle-succ", str(oracle_input.value)), 1, oracle_input),
    ]
    rng.shuffle(cases)
    return cases
