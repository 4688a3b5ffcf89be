"""Read, write, and diff OEIS b-files.

A b-file lists one "index value" pair per line, indices consecutive,
with '#' comment lines and blank lines ignored. Output always uses \\n
line endings and ends with a newline; input accepts \\r\\n too. There is
no network code here: reference files are supplied locally.

emit_bfile defines the canonical form. It writes each index prefix once
per hundred lines, into one template for the whole span, and formats
every value into that template in one operation; only the lines of
indices below 10 are written one at a time. Text that it writes back byte
for byte, after any leading comment lines, is parsed in bulk, a chunk at
a time; any other text goes to a line loop, which gives the same result
and names the line of any error. compare tests equal spans with one tuple
comparison.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import compress, count
from operator import attrgetter, ne

from . import core

MATCH = "match"
MISMATCH = "mismatch"
LENGTH_DIFFERS = "length-differs"


class BFileParseError(ValueError):
    """Malformed b-file content, located by line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class BFile:
    """Parsed b-file: consecutive indices from offset, one value each.

    Immutable; equal when both fields are, and copied or pickled by them.
    """

    __slots__ = ("_offset", "_values")
    __match_args__ = ("offset", "values")

    def __init__(self, offset: int, values: tuple[int, ...]):
        self._offset = offset
        self._values = values

    # properties without a setter, which refuse assignment and deletion
    offset = property(attrgetter("_offset"))
    values = property(attrgetter("_values"))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.offset, self.values) == (other.offset, other.values)

    def __hash__(self) -> int:
        return hash((self.offset, self.values))

    def __repr__(self) -> str:
        name = type(self).__qualname__
        return f"{name}(offset={self.offset!r}, values={self.values!r})"

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
# list of one chunk stay small beside the parsed values; emit_bfile must
# write each chunk's values back to it byte for byte.
_CHUNK = 1 << 16


def _parse_canonical(text: str) -> BFile | None:
    # The BFile of a text made of leading '#' lines and then nothing but
    # lines that emit_bfile writes, with no minus sign; None for any other
    # text, which the line loop then parses or refuses with its line number.
    pos = 0
    while text.startswith("#", pos):
        pos = text.find("\n", pos) + 1
        if not pos:
            return None
    # the line loop splits at every line boundary that str.splitlines knows
    if len(text[:pos].splitlines()) != text.count("\n", 0, pos):
        return None
    values: list[int] = []
    offset = None
    while pos < len(text):
        end = text.rfind("\n", pos, pos + _CHUNK) + 1 or text.find("\n", pos + _CHUNK) + 1
        if not end:
            return None
        part = text[pos:end]
        try:
            tokens = part.encode("ascii").split()
            if offset is None:
                offset = int(tokens[0])
            chunk = tuple(map(int, tokens[1::2]))
            # the line loop refuses a negative value
            if "-" in part or emit_bfile(chunk, offset + len(values)) != part:
                return None
        except (IndexError, ValueError):
            # no token, a character outside ASCII, or a number read or written
            # with more digits than Python's limit on decimal text conversion
            return None
        values += chunk
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
            digits = next(filter(None, map(core._digits_past_limit, parts)), 0)
            if digits:
                raise BFileParseError(
                    line_number,
                    f"a token of {digits} decimal digits exceeds Python's "
                    f"limit of {core._str_digit_limit()} for decimal conversion",
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


# the lines of one century, joined by its index prefix
_CENTURY = ("", *map("%02d %%d\n".__mod__, range(100)))


def emit_bfile(terms: Iterable[int], offset: int = 1) -> str:
    """Render terms as canonical b-file text.

    One "index value" line per term, indices counting up from offset,
    each line newline-terminated: the canonical form, the only text that
    parse_bfile parses in bulk. Deterministic: equal inputs give
    byte-identical output. An empty sequence yields the empty string.
    Raises ValueError for an index or value past Python's limit on
    decimal text conversion.
    """
    values = tuple(terms)
    end = offset + len(values)
    # indices below 10, whose lines are shorter than the rest of century
    # 0's, and those below 0, which no A036991 b-file has, line by line
    start = max(offset, min(end, 10))
    head = "".join(map("%d %d\n".__mod__, zip(range(offset, start), values)))
    if start == end:
        return head
    # Indices 100p to 100p + 99 share the prefix str(p), "" for p = 0: one
    # template holds the lines of every century in the span, cut at start
    # and end, each line of a century len(prefix) + 6 characters long. The
    # end prefixes come from the end indices, so that an index past the
    # digit limit raises ValueError even where its prefix is within it.
    first, last = str(start)[:-2], str(end - 1)[:-2]
    lo, hi = start // 100, (end - 1) // 100
    prefixes = [first, *map(str, range(lo + 1, hi)), last] if lo < hi else [first]
    template = "".join([prefix.join(_CENTURY) for prefix in prefixes])
    cut = len(template) - (99 - (end - 1) % 100) * (len(last) + 6)
    return head + template[start % 100 * (len(first) + 6) : cut] % values[start - offset :]


class DiffReport(
    namedtuple("DiffReport", "verdict compared_count first_mismatch", defaults=(None,))
):
    """Outcome of comparing two b-files over their shared index span.

    verdict is MATCH, MISMATCH or LENGTH_DIFFERS; first_mismatch is
    (index, expected, actual), or None when no shared value differs.
    """

    __slots__ = ()


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
