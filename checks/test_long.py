"""Long checks, outside the tier-1 suite: each takes seconds, not milliseconds.

A check belongs here only when it takes seconds; anything shorter is an
input of the tier-1 test that makes the same assertions. Run them with
``PYTHONPATH=src python -m pytest checks -q``. Each check is a program run
in a child process of its own under a 120 s limit, so a runaway loop fails
the check instead of hanging the run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
LIMIT_S = 120

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


@pytest.mark.parametrize(
    "program",
    [EVERY_TERM_BELOW_2_24_RANKED_BOTH_WAYS, RANGE_25_RANKED_BOTH_WAYS],
    ids=["every-term-below-2^24-ranked-both-ways", "range-25-ranked-both-ways"],
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
    assert proc.returncode == 0, proc.stderr
