"""Read, write, and diff OEIS b-files.

A b-file lists one "index value" pair per line, indices consecutive,
with '#' comment lines and blank lines ignored. Output always uses \\n
line endings and ends with a newline; input accepts \\r\\n too. There is
no network code here: reference files are supplied locally.

Text in the form emit_bfile writes, after any leading comment lines, is
parsed in bulk, a chunk of lines at a time; any other text goes to a
line-by-line loop, which gives the same result and names the line of
any error. emit_bfile renders all lines with one format operation, and
compare tests equal spans with one tuple comparison.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import compress, count
from operator import eq, ne

from . import core

MATCH = "match"
MISMATCH = "mismatch"
LENGTH_DIFFERS = "length-differs"


class BFileParseError(ValueError):
    """Malformed b-file content, located by line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


@dataclass(frozen=True)
class BFile:
    """Parsed b-file: consecutive indices from offset, one value each."""

    offset: int
    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> int:
        """One past the last index."""
        return self.offset + len(self.values)

    def entries(self) -> Iterator[tuple[int, int]]:
        """(index, value) pairs in file order."""
        return enumerate(self.values, start=self.offset)


def parse_bfile(text: str | Iterable[str]) -> BFile:
    """Parse b-file text into a BFile.

    Accepts a string or an iterable of lines. Comment lines start with
    '#'. Raises BFileParseError, naming the line, for anything that is
    not an "index value" pair of integers or breaks index consecutiveness.
    An input with no data lines parses as an empty BFile at offset 1.
    """
    if isinstance(text, str):
        parsed = _parse_canonical(text)
        if parsed is not None:
            return parsed
        text = text.splitlines()
    return _parse_lines(text)


# Bulk parsing reads the data lines in chunks of about this many
# characters, cut after a newline, so that the bytes copy and the token
# list of one chunk stay small beside the parsed values.
_CHUNK = 1 << 16
_DIGITS = b"0123456789"


def _parse_canonical(text: str) -> BFile | None:
    # The BFile of a text made of leading '#' lines and then nothing but
    # "index value\n" lines in ASCII digits with consecutive indices, which
    # is what emit_bfile writes; None for any other text, which the line
    # loop then parses or refuses with its line number.
    pos = 0
    while text.startswith("#", pos):
        pos = text.find("\n", pos) + 1
        if not pos:
            return None
    # the line loop splits at every line boundary that str.splitlines knows
    if len(text[:pos].splitlines()) != text.count("\n", 0, pos):
        return None
    values: list[int] = []
    offset = index = None
    while pos < len(text):
        end = text.rfind("\n", pos, pos + _CHUNK) + 1 or text.find("\n", pos + _CHUNK) + 1
        if not end:
            return None
        try:
            raw = text[pos:end].encode("ascii")
            lines = raw.count(b"\n")
            tokens = raw.split()
            # deleting the digits leaves one space and one newline per line,
            # and two tokens per line rule out an empty token beside a space
            if raw.translate(None, _DIGITS) != b" \n" * lines or len(tokens) != 2 * lines:
                return None
            if index is None:
                offset = index = int(tokens[0])
            if not all(map(eq, map(int, tokens[::2]), range(index, index + lines))):
                return None
            values.extend(map(int, tokens[1::2]))
        except ValueError:
            # a character outside ASCII, or more digits than Python's limit
            # on decimal text conversion
            return None
        index += lines
        pos = end
    if offset is None:
        return None
    return BFile(offset=offset, values=tuple(values))


def _parse_lines(lines: Iterable[str]) -> BFile:
    # one line at a time, for any input; the reference for the bulk path
    offset = 1
    values: list[int] = []
    next_index = None
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileParseError(
                line_number, f"expected 'index value', got {line!r}"
            )
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            # a decimal token fails only past Python's limit on decimal text
            # conversion; name its length instead of repeating the line
            limit = core._str_digit_limit()
            for token in parts:
                digits = token.lstrip("+-")
                if limit and digits.isdecimal() and len(digits) > limit:
                    raise BFileParseError(
                        line_number,
                        f"a token of {len(digits)} decimal digits exceeds "
                        f"Python's limit of {limit} for decimal conversion",
                    ) from None
            raise BFileParseError(
                line_number, f"non-numeric token in {line!r}"
            ) from None
        if value < 0:
            raise BFileParseError(line_number, f"negative value {value}")
        if next_index is None:
            offset = index
        elif index != next_index:
            raise BFileParseError(
                line_number, f"index gap: expected {next_index}, got {index}"
            )
        next_index = index + 1
        values.append(value)
    return BFile(offset=offset, values=tuple(values))


def emit_bfile(terms: Iterable[int], offset: int = 1) -> str:
    """Render terms as canonical b-file text.

    One "index value" line per term, indices counting up from offset,
    each line newline-terminated. Deterministic: equal inputs give
    byte-identical output. An empty sequence yields the empty string.
    """
    values = tuple(terms)
    size = len(values)
    fields = [0] * (2 * size)
    fields[::2] = range(offset, offset + size)
    fields[1::2] = values
    return ("%d %d\n" * size) % tuple(fields)


@dataclass(frozen=True)
class DiffReport:
    """Outcome of comparing two b-files over their shared index span."""

    verdict: str  # MATCH, MISMATCH, or LENGTH_DIFFERS
    compared_count: int
    first_mismatch: tuple[int, int, int] | None = None  # (index, expected, actual)


def compare(generated: BFile, reference: BFile) -> DiffReport:
    """Compare generated against reference values position by position.

    Values are compared over the overlapping index span and the first
    disagreement wins (expected is the reference value). If all shared
    values agree but the spans differ in offset or length, including the
    case of no overlap at all, the verdict is LENGTH_DIFFERS.
    """
    if generated.offset == reference.offset and generated.values == reference.values:
        return DiffReport(MATCH, len(reference))
    lo = max(generated.offset, reference.offset)
    hi = max(lo, min(generated.end, reference.end))
    actual = generated.values[lo - generated.offset : hi - generated.offset]
    expected = reference.values[lo - reference.offset : hi - reference.offset]
    if actual != expected:
        i = next(compress(count(), map(ne, actual, expected)))
        return DiffReport(MISMATCH, i + 1, (lo + i, expected[i], actual[i]))
    return DiffReport(LENGTH_DIFFERS, hi - lo)
