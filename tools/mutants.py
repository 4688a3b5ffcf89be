"""Mutation smoke check: the tests must catch each known mutant.

Run it from anywhere with ``python tools/mutants.py``; it needs pytest and
hypothesis, as the tests do. Each mutant is one exact text replacement in
one file. For each, the script copies src/, tests/, pyproject.toml and
README.md to a temporary directory, applies the replacement there and
runs its tests, by default the mutated module's test file, with
``-x -q -p no:cacheprovider`` under a time limit. The tests must fail: a
mutant whose tests pass survives. Before the mutants, the same tests
must pass on the unchanged copy, so that a failure is the mutant's. The
exit status is 1 when a mutant survives, when its old text does not occur
exactly once (a refactor must update the list below) or when a run ends
in an error other than failing tests, and 0 when every mutant is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "README.md")
# a loop that never ends fails its test at the 120 s limit of
# tests/conftest.py; this limit only stops a run that hangs past it,
# which counts as an error
LIMIT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    # the test files or pytest node ids that must fail; by default the
    # mutated module's own test file, tests/test_X.py for src/dycknum/X.py
    tests: tuple[str, ...] = ()

    @property
    def targets(self) -> tuple[str, ...]:
        return self.tests or (f"tests/test_{Path(self.path).stem}.py",)


CORE = "src/dycknum/core.py"
SEQUENCE = "src/dycknum/sequence.py"
BFILE = "src/dycknum/bfile.py"
CLI = "src/dycknum/cli.py"
ORACLE = "src/dycknum/oracle.py"

MUTANTS = (
    # core: the byte scanner and its tables
    Mutant(
        "scan reads a depth only below height 7",
        CORE,
        "if up < 8 and up < _DEPTH[b]:",
        "if up < 7 and up < _DEPTH[b]:",
    ),
    Mutant(
        "scan pads above the width with one 0",
        CORE,
        "(n | 255 << width)",
        "(n | 127 << width)",
    ),
    Mutant(
        "scan resets the height above the lowest point to 0",
        CORE,
        "low, up = level - _DEPTH[b], _DEPTH[b]",
        "low, up = level - _DEPTH[b], 0",
        ("tests/test_core.py::TestWideDips::test_planted_dip",),
    ),
    Mutant(
        "scan places a dip one byte late",
        CORE,
        "pos = 8 * (size - 1 - rest.__length_hint__())",
        "pos = 8 * (size - rest.__length_hint__())",
    ),
    Mutant(
        "byte lows composed with the halves swapped",
        CORE,
        "_LOW4[b & 15], 2 * (b & 15).bit_count() - 4 + _LOW4[b >> 4]",
        "_LOW4[b >> 4], 2 * (b >> 4).bit_count() - 4 + _LOW4[b & 15]",
    ),
    # core: the functions on top of it
    Mutant(
        "successor's lowest point off by one",
        CORE,
        "min(-rep, low - 2 * rep + 2)",
        "min(-rep, low - 2 * rep + 1)",
    ),
    Mutant(
        "successor scans above the run from height 0",
        CORE,
        "low = _scan(d >> rep, d.bit_length() - rep, rep)",
        "low = _scan(d >> rep, d.bit_length() - rep, 0)",
    ),
    Mutant(
        "word balance tested by >=",
        CORE,
        "if 2 * ups.bit_count() == len(digits):",
        "if 2 * ups.bit_count() >= len(digits):",
    ),
    Mutant(
        "word's mirror scan allows a dip of 1",
        CORE,
        "if _scan(d, d.bit_length()) >= 0:",
        "if _scan(d, d.bit_length()) >= -1:",
    ),
    Mutant(
        "height profile steps swapped",
        CORE,
        'bytes.maketrans(b"01", b"\\xff\\x01")',
        'bytes.maketrans(b"01", b"\\x01\\xff")',
    ),
    Mutant(
        "trailing 1-run counted one too long",
        CORE,
        "return (n ^ n + 1).bit_length() - 1",
        "return (n ^ n + 1).bit_length()",
    ),
    Mutant(
        "a number of _DECIMAL_BITS bits named by its bit length",
        CORE,
        "str(n) if width <= _DECIMAL_BITS else",
        "str(n) if width < _DECIMAL_BITS else",
    ),
    # sequence: the block walk
    # (a floor test of low > -_B would be equivalent: at low = -_B the jump
    # is by 1 and the need is _B, as on the other branch)
    Mutant(
        "high part jump twice too far",
        SEQUENCE,
        "return high + (1 << -((low + _B) // 2)), _B",
        "return high + (2 << -((low + _B) // 2)), _B",
    ),
    Mutant(
        "last row cut before the range's last term",
        SEQUENCE,
        "stop = bisect_right(row, last & _MASK)",
        "stop = bisect_left(row, last & _MASK)",
    ),
    Mutant(
        "a row of low blocks leaves out the walks that end at its need",
        SEQUENCE,
        "sorted(chain.from_iterable(ends[need:]))",
        "sorted(chain.from_iterable(ends[need + 1 :]))",
    ),
    Mutant(
        "range_stats counts rows, not their low blocks",
        SEQUENCE,
        "size = sum(len(row) for _, row in _rows(first, last))",
        "size = sum(1 for _, row in _rows(first, last))",
    ),
    # sequence: ranking
    Mutant(
        "the place lists of high parts read past 2**24",
        SEQUENCE,
        "if _MASK < d < _NARROW:",
        "if _MASK < d < 2 * _NARROW:",
    ),
    Mutant(
        "index_of reads a range past the table's end",
        SEQUENCE,
        "if t + 1 < len(starts):",
        "if t + 1 <= len(starts):",
    ),
    Mutant(
        "term_at's stepped ranges start one range late",
        SEQUENCE,
        """for m, size in _ranges(2 * _B + _TABLED):
            if rank < size:""",
        """for m, size in _ranges(2 * _B + _TABLED + 1):
            if rank < size:""",
    ),
    Mutant(
        "index_of's membership read takes any place in the row",
        SEQUENCE,
        """at = places[d >> _B][d & _MASK]
        if at >= 0:""",
        """at = places[d >> _B][d & _MASK]
        if at >= -1:""",
    ),
    Mutant(
        "index_of's membership read takes any small term's place",
        SEQUENCE,
        "if small[at : at + 1] == (d,):",
        "if at < len(small):",
    ),
    Mutant(
        "a missing block's place set to 0",
        SEQUENCE,
        "spot = [-1] * (1 << _B)",
        "spot = [0] * (1 << _B)",
    ),
    Mutant(
        "the narrow path reads the wrong high part's places",
        SEQUENCE,
        "at = places[d >> _B][d & _MASK]",
        "at = places[d >> _B | 1][d & _MASK]",
    ),
    Mutant(
        "index_of reads a place list for a need past 12",
        SEQUENCE,
        "at = spots[need][d & _MASK] if need <= _B else -1",
        "at = spots[min(need, _B)][d & _MASK]",
    ),
    # emit_bfile: the century template and the lines written one at a time
    Mutant(
        "century head cut one line short",
        BFILE,
        "template[start % 100 * (len(first) + 6) : cut]",
        "template[(start % 100 - 1) * (len(first) + 6) : cut]",
    ),
    Mutant(
        "century tail cut one line long",
        BFILE,
        "(99 - (end - 1) % 100) * (len(last) + 6)",
        "(100 - (end - 1) % 100) * (len(last) + 6)",
    ),
    # any threshold from 10 to 100 writes the same text, since century 0's
    # lines of indices 10 to 99 all take the prefix ""; below 10 it differs
    Mutant(
        "lines written one at a time end at 9",
        BFILE,
        "start = max(offset, min(end, 10))",
        "start = max(offset, min(end, 9))",
    ),
    Mutant(
        "end prefixes from [:-1]",
        BFILE,
        "first, last = str(start)[:-2], str(end - 1)[:-2]",
        "first, last = str(start)[:-1], str(end - 1)[:-1]",
    ),
    Mutant(
        "last prefix divided, not cut from the last index",
        BFILE,
        "str(end - 1)[:-2]",
        "str((end - 1) // 100)",
    ),
    Mutant(
        "century lines space-padded",
        BFILE,
        '_CENTURY = ("", *map("%02d %%d\\n".__mod__, range(100)))',
        '_CENTURY = ("", *map("%2d %%d\\n".__mod__, range(100)))',
    ),
    # the BFile record: properties over two private slots
    Mutant(
        "offset reads the values slot",
        BFILE,
        'offset = property(attrgetter("_offset"))',
        'offset = property(attrgetter("_values"))',
    ),
    Mutant(
        "BFile matches its fields in swapped positions",
        BFILE,
        '__match_args__ = ("offset", "values")',
        '__match_args__ = ("values", "offset")',
        ("tests/test_surface.py::TestRecordDetails::test_bfile_matches_by_position",),
    ),
    # parsing, comparing and the CLI's writer
    Mutant(
        "bulk parse takes a negative value",
        BFILE,
        'if "-" in part or emit_bfile(',
        "if emit_bfile(",
    ),
    Mutant(
        "compare swaps expected and actual",
        BFILE,
        "(lo + i, expected[i], actual[i])",
        "(lo + i, actual[i], expected[i])",
    ),
    # (< never holds, since splitlines never finds fewer lines than there
    # are newlines, so this removes the check)
    Mutant(
        "bulk parse ignores line boundaries that only splitlines knows",
        BFILE,
        'if len(text[:pos].splitlines()) != text.count("\\n", 0, pos):',
        'if len(text[:pos].splitlines()) < text.count("\\n", 0, pos):',
    ),
    Mutant(
        "bulk parse cuts a chunk before its last newline",
        BFILE,
        'end = text.rfind("\\n", pos, pos + _CHUNK) + 1 or',
        'end = text.rfind("\\n", pos, pos + _CHUNK) or',
    ),
    Mutant(
        "the writer's digit-limit cut one digit late",
        CLI,
        "bound = 10**limit if limit",
        "bound = 10 ** (limit + 1) if limit",
    ),
    # the output is the same; only the memory of a long stream grows. The
    # node id leaves out range 50000, where such a writer takes about 20 s
    # to reach the heap limit that the test sets
    Mutant(
        "the writer takes a stream whole",
        CLI,
        "_CHUNK_BITS = 1 << 17",
        "_CHUNK_BITS = 1 << 40",
        ("tests/test_cli.py::TestWriterMemory::test_range_list_peaks_below_30_mb[range-24]",),
    ),
    # a range index too wide for decimal text, named in a refusal
    Mutant(
        "the counting bound's refusal names k in decimal",
        CLI,
        "name = core._named(k)",
        'name = f"{k}"',
        ("tests/test_cli.py::TestCountingBound",),
    ),
    Mutant(
        "the list refusal names k in decimal",
        CLI,
        "k = core._named(args.k)",
        "k = str(args.k)",
        ("tests/test_cli.py::TestCountingBound",),
    ),
    # the README's dyck transcript pins the CLI's stdout
    Mutant(
        "check names the suffix in other words",
        CLI,
        'print(f"no (violating suffix {suffix})")',
        'print(f"no (offending suffix {suffix})")',
        ("tests/test_readme.py",),
    ),
    # the block walk's combine of a high part with its row of low blocks
    Mutant(
        "high part not shifted",
        SEQUENCE,
        "repeat(high << _B)",
        "repeat(high)",
    ),
    # oracle: the slow references themselves
    Mutant(
        "suffix rule refuses a balanced suffix",
        ORACLE,
        'if suffix.count("0") > suffix.count("1"):',
        'if suffix.count("0") >= suffix.count("1"):',
    ),
    Mutant(
        "successor's candidates not charged",
        ORACLE,
        "spent := spent + _scan_cost(candidate.bit_length())",
        "spent := spent + 1",
    ),
    Mutant(
        "oracle refuses by core's membership test",
        ORACLE,
        "if suffix is not None:",
        'if not __import__("dycknum.core").core.is_dyck_number(n):',
    ),
    Mutant(
        "oracle names a refusal's suffix by core's scan",
        ORACLE,
        "suffix = _violating_suffix(n)",
        'suffix = __import__("dycknum.core").core.violating_suffix(n)',
    ),
    Mutant(
        "oracle keeps a 0 digit when the rank left equals its count",
        ORACLE,
        "if rank < with_zero:",
        "if rank <= with_zero:",
    ),
    Mutant(
        "oracle's successor tries one candidate too few at a 0 digit",
        ORACLE,
        "for ones in range(p + 1):",
        "for ones in range(p):",
    ),
    Mutant(
        "oracle ranks through sequence",
        ORACLE,
        "    rank, k = i - 2, 1\n",
        '    return __import__("dycknum.sequence").sequence.term_at(i)\n',
    ),
    Mutant(
        "oracle's successor through core",
        ORACLE,
        "    for p in range(d.bit_length() + 1):\n",
        '    return __import__("dycknum.core").core.successor(d)\n'
        "    for p in range(d.bit_length() + 1):\n",
    ),
)


def _copy(into: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, into / name)


def _run(tree: Path, tests: tuple[str, ...]) -> tuple[int | None, str]:
    # pytest's exit status, None past the time limit, and its output
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(
            argv, cwd=tree, env=env, capture_output=True, text=True, timeout=LIMIT_S
        )
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stdout + proc.stderr


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp, "clean")
        _copy(clean)
        for tests in dict.fromkeys(m.targets for m in MUTANTS):
            status, output = _run(clean, tests)
            if status != 0:
                print(output, end="")
                print(f"ERROR    {' '.join(tests)} do not pass unchanged (exit {status})")
                return 1
        for i, mutant in enumerate(MUTANTS):
            text = (ROOT / mutant.path).read_text()
            found = text.count(mutant.old)
            if found != 1:
                print(f"MISSING  {mutant.name}: its old text occurs {found} times in {mutant.path}")
                bad += 1
                continue
            tree = Path(tmp, f"mutant-{i}")
            _copy(tree)
            (tree / mutant.path).write_text(text.replace(mutant.old, mutant.new))
            began = time.perf_counter()
            status, output = _run(tree, mutant.targets)
            took = f"{time.perf_counter() - began:.1f} s"
            if status == 1:
                print(f"killed   {mutant.name} ({took})")
            elif status == 0:
                print(f"SURVIVED {mutant.name} ({took}): {' '.join(mutant.targets)} pass")
                bad += 1
            else:
                print(output, end="")
                ended = f"exited {status}" if status is not None else f"ran past {LIMIT_S} s"
                print(f"ERROR    {mutant.name}: pytest {ended}")
                bad += 1
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
