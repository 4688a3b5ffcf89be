"""Long checks, outside the tier-1 suite: each takes seconds, not milliseconds.

Run them with ``PYTHONPATH=src python -m pytest checks -q``. Each check is
a program run in a child process of its own under a 120 s limit, so a
runaway loop fails the check instead of hanging the run, and a check that
measures memory measures a process that holds nothing else.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
LIMIT_S = 120

# the count adds up row lengths, so this walks the 5.2 M terms of range 26
# one by one, past the 22 that tier-1 walks
RANGE_26_TERM_BY_TERM = """
from dycknum import sequence
if sum(1 for _ in sequence.iter_range(26)) != sequence.central_binomial(25):
    raise SystemExit("range 26 does not hold C(25, 12) terms")
"""

# 1.35 M terms, written 4,096 at a time, so the peak RSS stays flat in k
# (joined whole, the list peaked at 119 MB); the bytes must be the
# library's range
RANGE_24_LIST_IN_BOUNDED_MEMORY = """
import hashlib, resource, subprocess, sys
# the child starts while this process is small, since a child
# started from a large process can report that one peak as its own
argv = [sys.executable, "-m", "dycknum.cli", "range", "24", "--list"]
with subprocess.Popen(argv, stdout=subprocess.PIPE) as proc:
    digest = hashlib.md5()
    for piece in iter(lambda: proc.stdout.read(1 << 16), b""):
        digest.update(piece)
if proc.returncode:
    raise SystemExit(f"dyck range 24 --list exited {proc.returncode}")
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
from dycknum import sequence
text = " ".join(map(str, sequence.range_terms(24))) + "\\n"
if digest.digest() != hashlib.md5(text.encode()).digest():
    raise SystemExit("dyck range 24 --list differs from range_terms(24)")
print(f"dyck range 24 --list: peak RSS {peak_mb:.1f} MB")
if peak_mb >= 30:
    raise SystemExit("dyck range 24 --list peaked at 30 MB or more")
"""

# the 2,786,656 terms that term_at and index_of read from the table of high
# parts, each checked against the block walk
EVERY_TERM_BELOW_2_24_RANKED_BOTH_WAYS = """
from itertools import islice
from dycknum import sequence
count = sequence.index_of((1 << 24) - 1)
if count != 2786656:
    raise SystemExit(f"index_of(2**24 - 1) is {count}, not 2786656")
for i, d in enumerate(islice(sequence.iter_from(0), count), start=1):
    if sequence.term_at(i) != d or sequence.index_of(d) != i:
        raise SystemExit(f"term {i}, {d}, does not rank both ways")
"""

# the 2,704,156 terms of range 25, the first that term_at and index_of find
# in the tail of range first ranks, each checked against the block walk
RANGE_25_RANKED_BOTH_WAYS = """
from dycknum import sequence
first = sequence.index_of((1 << 24) - 1) + 1
if first != 2786657:
    raise SystemExit(f"range 25 starts at ordinal {first}, not 2786657")
i = first - 1
for i, d in enumerate(sequence.iter_range(25), start=first):
    if sequence.term_at(i) != d or sequence.index_of(d) != i:
        raise SystemExit(f"term {i}, {d}, does not rank both ways")
if i != 5490812:
    raise SystemExit(f"range 25 ends at ordinal {i}, not 5490812")
"""

# seeded ordinals wider than the tier-1 round trips: at 24-27 bits, past
# the terms below 2**24 into the table's tail of range first ranks, and at
# 60-70 bits across the end of that tail (64 bits); up to 1,000 bits also
# against dycknum.oracle's per-digit counts, which wider ordinals make
# slow; index_of must refuse seeded non-members, since it reads membership
# from its own count. Nothing is converted to decimal, so no digit limit
# applies
WIDE_RANKING_ROUND_TRIPS = """
import random
from dycknum import core, oracle, sequence
rng = random.Random(2024)
for bits in [*range(24, 28), *range(60, 71), 1000, 4000, 10**4]:
    for _ in range(3):
        i = rng.getrandbits(bits) | 1 << (bits - 1)
        d = sequence.term_at(i)
        if sequence.index_of(d) != i:
            raise SystemExit(f"index_of(term_at(i)) != i at {bits} bits")
        if sequence.term_at(i + 1) != core.successor(d):
            raise SystemExit(f"term_at(i + 1) != successor at {bits} bits")
        if bits <= 1000 and (oracle._term_at(i), oracle._index_of(d)) != (d, i):
            raise SystemExit(f"ranking differs from the oracle's at {bits} bits")
    if bits < 1000:
        continue
    # a block that dips, under a member's upper digits, and 24
    # zero digits, which dip deeper than any block climbs
    for n in (d - 1, d >> 25 << 25 | 1):
        try:
            sequence.index_of(n)
        except core.NotDyckNumberError:
            continue
        raise SystemExit(f"index_of accepted a {bits}-bit non-member")
"""

# the membership scan takes a dip's byte index from the count of bytes it
# has not read; tier-1 plants dips up to 10^4 + 5 bits, this at every
# offset of the first, a middle and the last byte of a 10^5-bit member,
# refused by the membership scan and by the one pass of the successor and
# the valley depth; each dip and the member's valley depth and successor
# are checked against dycknum.oracle, which reads one digit at a time (the
# benchmark checks them at 10^4 bits)
DIPS_PLANTED_IN_A_10_5_BIT_MEMBER = """
import random
from dycknum import core, oracle
WIDTH = 10**5
rng = random.Random(WIDTH)

def steps(width, ground):
    # a walk of width digits, first step lowest, that never dips; it ends
    # on the ground when asked (width even), else its top digit is a 1
    d = h = 0
    for p in range(width):
        left = width - p
        if h == 0 or not ground and left == 1:
            bit = 1
        elif ground and h == left:
            bit = 0
        else:
            bit = rng.getrandbits(1)
        d |= bit << p
        h += 1 if bit else -1
    return d

member = steps(WIDTH, ground=False)
if member.bit_length() != WIDTH or oracle._violating_suffix(member) is not None:
    raise SystemExit("the 10^5-bit walk is not a 10^5-bit member")
if core.violating_suffix(member) is not None:
    raise SystemExit("violating_suffix refused a 10^5-bit member")
if core.valley_depth(member) != oracle._valley_depth(member):
    raise SystemExit("valley_depth of the 10^5-bit member differs from the oracle's")
if core.successor(member) != oracle._successor(member):
    raise SystemExit("successor of the 10^5-bit member differs from the oracle's")
# a path first dips after an odd number of steps, at an even digit, so the
# dip for an odd offset lands on the next digit
for byte in (0, WIDTH // 16, WIDTH // 8 - 1):
    for offset in range(8):
        q = 8 * byte + offset + offset % 2
        n = (member >> q + 1 | 1) << q + 1 | steps(q, ground=True)
        suffix = oracle._violating_suffix(n)
        if suffix != bin(n)[-(q + 1) :]:
            raise SystemExit(f"the dip planted at digit {q} is not the oracle's first")
        if core.violating_suffix(n) != suffix:
            raise SystemExit(f"violating_suffix misplaces the dip at digit {q}")
        for refuse in (core.successor, core.valley_depth):
            try:
                refuse(n)
            except core.NotDyckNumberError as exc:
                if exc.suffix != suffix:
                    raise SystemExit(f"{refuse.__name__} misplaces the dip at digit {q}")
            else:
                raise SystemExit(f"{refuse.__name__} accepted the dip at digit {q}")
"""


# 614 M terms counted by the lengths of 1.05 M rows of low blocks, up to
# the CLI's counting bound, ten ranges past the 22 that the acceptance test
# pins
RANGE_SIZES_THROUGH_32_BY_THE_BLOCK_WALKS_ROWS = """
import subprocess, sys
argv = [sys.executable, "-m", "dycknum.cli", "verify-conjecture", "--max-range", "32"]
proc = subprocess.run(argv, capture_output=True, text=True)
if proc.returncode:
    raise SystemExit(f"dyck verify-conjecture --max-range 32 exited {proc.returncode}")
if "conjecture holds for ranges 1..32" not in proc.stdout.splitlines():
    raise SystemExit("dyck verify-conjecture --max-range 32 did not print that it holds")
"""

# 10^5 b-file lines from index 0, past the lines below 10 that emit_bfile
# writes one at a time and the century seams at 100, 1,000 and 10,000, and
# from 50,000 before 10^6 and before 10^12, where the index prefix that it
# writes once per hundred lines gains a digit; each line against its own
# rendering, and the text parsed in bulk back
EMIT_ACROSS_DIGIT_BOUNDARIES = """
import random
from dycknum import bfile
rng = random.Random(10**5)
for offset in (0, 10**6 - 5 * 10**4, 10**12 - 5 * 10**4):
    terms = tuple(rng.getrandbits(rng.randrange(1, 70)) for _ in range(10**5))
    text = bfile.emit_bfile(terms, offset)
    lines = text.splitlines(keepends=True)
    if len(lines) != len(terms):
        raise SystemExit(f"{len(lines)} lines from offset {offset}, not {len(terms)}")
    for i, (line, term) in enumerate(zip(lines, terms), start=offset):
        if line != f"{i} {term}\\n":
            raise SystemExit(f"line of index {i} is {line!r}")
    if bfile.parse_bfile(text) != bfile.BFile(offset, terms):
        raise SystemExit(f"the b-file from offset {offset} does not parse back")
"""


@pytest.mark.parametrize(
    "program",
    [
        RANGE_26_TERM_BY_TERM,
        RANGE_24_LIST_IN_BOUNDED_MEMORY,
        EVERY_TERM_BELOW_2_24_RANKED_BOTH_WAYS,
        RANGE_25_RANKED_BOTH_WAYS,
        WIDE_RANKING_ROUND_TRIPS,
        DIPS_PLANTED_IN_A_10_5_BIT_MEMBER,
        RANGE_SIZES_THROUGH_32_BY_THE_BLOCK_WALKS_ROWS,
        EMIT_ACROSS_DIGIT_BOUNDARIES,
    ],
    ids=[
        "range-26-term-by-term",
        "range-24-list-in-bounded-memory",
        "every-term-below-2^24-ranked-both-ways",
        "range-25-ranked-both-ways",
        "wide-ranking-round-trips",
        "dips-planted-in-a-10^5-bit-member",
        "range-sizes-through-32-by-the-block-walks-rows",
        "emit-across-digit-boundaries",
    ],
)
def test_long(program):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        env=env,
        timeout=LIMIT_S,
    )
    print(proc.stdout, end="")
    assert proc.returncode == 0, proc.stderr
