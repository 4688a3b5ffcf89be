"""Tests for b-file parsing, emission, and diffing."""

import random
import sys
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st

from dycknum import bfile, sequence

SAMPLE = "1 0\n2 1\n3 3\n"
# Python's limit on int <-> decimal text conversion, 0 for none
_LIMIT = getattr(sys, "get_int_max_str_digits", int)()


class TestParse:
    def test_basic(self):
        parsed = bfile.parse_bfile(SAMPLE)
        assert parsed.offset == 1
        assert parsed.values == (0, 1, 3)
        assert len(parsed) == 3
        assert parsed.end == 4

    def test_entries(self):
        parsed = bfile.parse_bfile(SAMPLE)
        assert list(parsed.entries()) == [(1, 0), (2, 1), (3, 3)]

    def test_comments_and_blanks_skipped(self):
        text = "# A036991 head\n\n1 0\n\n# interlude\n2 1\n"
        parsed = bfile.parse_bfile(text)
        assert parsed.values == (0, 1)

    def test_crlf_and_stray_spaces(self):
        parsed = bfile.parse_bfile("1 0\r\n2  1\r\n 3 3 \r\n")
        assert parsed.values == (0, 1, 3)

    def test_accepts_line_iterable(self):
        parsed = bfile.parse_bfile(iter(["5 19", "6 21"]))
        assert parsed.offset == 5
        assert parsed.values == (19, 21)

    def test_nonstandard_offset(self):
        assert bfile.parse_bfile("0 7\n1 11\n").offset == 0

    def test_empty_input(self):
        parsed = bfile.parse_bfile("")
        assert (parsed.offset, parsed.values) == (1, ())
        assert bfile.parse_bfile("# only comments\n\n").values == ()

    def test_index_gap_names_line(self):
        with pytest.raises(bfile.BFileParseError) as exc_info:
            bfile.parse_bfile("1 0\n3 3\n")
        assert exc_info.value.line_number == 2
        assert "index gap: expected 2, got 3" in str(exc_info.value)

    def test_token_count_error(self):
        with pytest.raises(bfile.BFileParseError, match="line 1"):
            bfile.parse_bfile("1 0 extra\n")
        with pytest.raises(bfile.BFileParseError):
            bfile.parse_bfile("42\n")

    def test_non_numeric_error(self):
        with pytest.raises(bfile.BFileParseError, match="non-numeric"):
            bfile.parse_bfile("1 zero\n")

    def test_negative_value_error(self):
        with pytest.raises(bfile.BFileParseError, match="negative value"):
            bfile.parse_bfile("1 -3\n")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits") or sys.get_int_max_str_digits() == 0,
        reason="no limit on int <-> decimal text conversion",
    )
    def test_value_past_the_digit_limit_is_named_by_digit_count(self):
        limit = sys.get_int_max_str_digits()
        for token, digits in [
            ("9" * (limit + 1), limit + 1),
            ("+" + "0" * (limit + 700), limit + 700),
            ("1_" + "0" * (limit + 700), limit + 701),
        ]:
            with pytest.raises(bfile.BFileParseError) as exc_info:
                bfile.parse_bfile(f"# head\n1 0\n2 {token}\n")
            assert exc_info.value.line_number == 3
            assert str(exc_info.value) == (
                f"line 3: a token of {digits} decimal digits "
                f"exceeds Python's limit of {limit} for decimal conversion"
            )


class TestEmit:
    def test_basic(self):
        assert bfile.emit_bfile([0, 1, 3]) == SAMPLE

    def test_offset(self):
        assert bfile.emit_bfile([19, 21], offset=9) == "9 19\n10 21\n"

    def test_empty(self):
        assert bfile.emit_bfile([]) == ""

    def test_deterministic(self):
        terms = list(range(0, 50, 3))
        assert bfile.emit_bfile(terms) == bfile.emit_bfile(terms)

    def test_round_trips_with_parse(self):
        parsed = bfile.parse_bfile(SAMPLE)
        assert bfile.emit_bfile(parsed.values, offset=parsed.offset) == SAMPLE
        again = bfile.parse_bfile(bfile.emit_bfile([7, 11, 13], offset=4))
        assert (again.offset, again.values) == (4, (7, 11, 13))

    # spans of up to 210 lines, so that they start and end at each line of
    # a century of indices and cross two century seams, from offsets around
    # 10, where the lines written one at a time end, around 100 and 200,
    # where the index prefix gains a digit, and across index 0
    @pytest.mark.parametrize(
        "offset",
        sorted(
            {
                *range(-25, 12),
                *range(98, 103),
                *range(199, 202),
                *(10**k + d for k in range(3, 22) for d in (-100, -99, -1, 0, 1)),
            }
        ),
    )
    def test_span_edges_are_the_f_string_rendering(self, offset):
        rng = random.Random(offset)
        terms = [rng.getrandbits(rng.randrange(1, 70)) for _ in range(max(0, -offset) + 211)]
        lines = _rendering(terms, offset).splitlines(keepends=True)
        for size in range(len(terms) + 1):
            assert bfile.emit_bfile(terms[:size], offset) == "".join(lines[:size])

    # 10^5 lines from index 0, past the lines below 10 that are written
    # one at a time and the century seams at 100, 1,000 and 10,000, and
    # from 50,000 before 10^6 and before 10^12, where the index prefix
    # written once per hundred lines gains a digit; the text parsed in bulk
    # back
    @pytest.mark.parametrize("offset", [0, 10**6 - 5 * 10**4, 10**12 - 5 * 10**4])
    def test_digit_boundaries_are_the_f_string_rendering(self, offset):
        rng = random.Random(offset)
        terms = tuple(rng.getrandbits(rng.randrange(1, 70)) for _ in range(10**5))
        text = bfile.emit_bfile(terms, offset)
        assert text == _rendering(terms, offset)
        assert bfile.parse_bfile(text) == bfile.BFile(offset, terms)

    @pytest.mark.skipif(not _LIMIT, reason="no limit on int <-> decimal text conversion")
    @pytest.mark.parametrize(
        "size, offset",
        [
            (1, 10**_LIMIT),
            # the last index is past the limit, its century prefix is not
            (2, 10**_LIMIT - 1),
            # the last index is past the limit, the first century's prefix
            # is within it
            (150, 10**_LIMIT - 120),
        ],
        ids=[
            "first index past the limit",
            "last index past the limit",
            "last index past the limit a century on",
        ],
    )
    def test_index_past_the_digit_limit_raises(self, size, offset):
        for render in (bfile.emit_bfile, _rendering):
            with pytest.raises(ValueError):
                render([0] * size, offset)


class TestCompare:
    def _head_bfile(self, count, offset=1):
        values = islice(sequence.iter_from(sequence.term_at(offset)), count)
        return bfile.BFile(offset=offset, values=tuple(values))

    def test_match(self):
        reference = bfile.parse_bfile(SAMPLE)
        report = bfile.compare(self._head_bfile(3), reference)
        assert report.verdict == bfile.MATCH
        assert report.compared_count == 3
        assert report.first_mismatch is None

    def test_mismatch_reports_first_difference(self):
        reference = bfile.BFile(offset=1, values=(0, 1, 3, 5, 9, 11))
        report = bfile.compare(self._head_bfile(6), reference)
        assert report.verdict == bfile.MISMATCH
        assert report.first_mismatch == (5, 9, 7)
        assert report.compared_count == 5

    def test_length_differs(self):
        report = bfile.compare(self._head_bfile(3), self._head_bfile(5))
        assert report.verdict == bfile.LENGTH_DIFFERS
        assert report.compared_count == 3

    def test_offset_disagreement_with_agreeing_overlap(self):
        # same terms, shifted window: values line up index by index
        report = bfile.compare(self._head_bfile(5, offset=3), self._head_bfile(7))
        assert report.verdict == bfile.LENGTH_DIFFERS
        assert report.compared_count == 5

    def test_disjoint_spans(self):
        report = bfile.compare(self._head_bfile(2), self._head_bfile(2, offset=10))
        assert report.verdict == bfile.LENGTH_DIFFERS
        assert report.compared_count == 0

    def test_mismatch_wins_over_length(self):
        reference = bfile.BFile(offset=1, values=(0, 1, 4))
        report = bfile.compare(self._head_bfile(5), reference)
        assert report.verdict == bfile.MISMATCH
        assert report.first_mismatch == (3, 4, 3)


def _outcome(parse, text):
    # the BFile, or what the parse error says and where
    try:
        return parse(text)
    except bfile.BFileParseError as exc:
        return type(exc), exc.line_number, str(exc)


def _rendering(terms, offset):
    # one f-string per line, the reference for emit_bfile
    return "".join(f"{i} {t}\n" for i, t in enumerate(terms, start=offset))


def _line_loop(text):
    return bfile._parse_lines(text.splitlines())


# line edits that a hand-made or foreign b-file may carry; the line loop
# decides what each of them means
_EDITS = {
    "comment": lambda line: ["# A036991 — Dyck numbers, é", line],
    "blank": lambda line: ["", "  ", line],
    "crlf": lambda line: [line + "\r"],
    "tab": lambda line: [line.replace(" ", "\t")],
    "double space": lambda line: [line.replace(" ", "  ")],
    "leading space": lambda line: [" " + line],
    "trailing space": lambda line: [line + " "],
    "leading zeros": lambda line: ["00" + line.replace(" ", " 0")],
    "plus": lambda line: [line.replace(" ", " +")],
    "underscore": lambda line: [line[:1] + "_" + line[1:] if line[1:2].isdigit() else line],
    "non-ASCII digits": lambda line: [line.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))],
    "gap": lambda line: [" ".join([str(int(line.split()[0]) + 1), *line.split()[1:]])],
    "negative": lambda line: [line.replace(" ", " -")],
    "one token": lambda line: [line.split()[0]],
    "one token and a space": lambda line: [line.split()[0] + " "],
    "lone surrogate": lambda line: [line + "\ud800"],
    "three tokens": lambda line: [line + " 7"],
    "separator in a comment": lambda line: ["# split\x85here", line],
    "form feed": lambda line: [line + "\x0c"],
}


@st.composite
def bfile_texts(draw):
    """Canonical b-file text, perhaps edited near its start, end or a chunk boundary.

    Returns the text and whether it is still canonical, so that the bulk
    path must take it.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    big = draw(st.booleans())
    small = draw(st.integers(0, 30))
    offset = draw(st.integers(0, 10**6))
    lines = []
    # boundary: the first line of the second chunk, when the text has no header
    size = boundary = 0
    while size <= (bfile._CHUNK + 200 if big else 0) or len(lines) < small:
        lines.append(f"{offset + len(lines)} {rng.randrange(10 ** rng.randrange(1, 25))}")
        size += len(lines[-1]) + 1
        if size <= bfile._CHUNK:
            boundary = len(lines)
    count = len(lines)
    header = ["# A036991 b-file"] * draw(st.integers(0, 2))
    canonical = True
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(sorted(_EDITS)))
        if not lines:
            break
        near = draw(st.sampled_from([0, boundary, len(lines) - 1]))
        at = min(max(near + draw(st.integers(-2, 2)), 0), len(lines) - 1)
        if lines[at].strip()[:1] in ("", "#"):
            continue  # the edits take a data line
        lines[at : at + 1] = _EDITS[kind](lines[at])
        canonical = False
    text = "\n".join(header + lines)
    if header or lines:
        text += draw(st.sampled_from(["\n", "\n", ""]))
    canonical = canonical and count > 0 and text.endswith("\n")
    return text, canonical


class TestBulkPath:
    @given(bfile_texts())
    @settings(deadline=None, max_examples=150)
    def test_parse_agrees_with_the_line_loop(self, case):
        text, canonical = case
        assert _outcome(bfile.parse_bfile, text) == _outcome(_line_loop, text)
        if canonical:
            assert bfile._parse_canonical(text) is not None

    def test_every_pair_of_edits_applies(self):
        # two edits of bfile_texts may land on the same data line
        for first, second in product(_EDITS, repeat=2):
            for line in _EDITS[first]("5 7"):
                if line.strip()[:1] not in ("", "#"):
                    edited = _EDITS[second](line)
                    assert isinstance(edited, list), (first, second)
                    assert all(isinstance(x, str) for x in edited), (first, second)

    def test_emitted_text_takes_the_bulk_path(self):
        terms = sequence.range_terms(17)
        text = "# range 17\n" + bfile.emit_bfile(terms, offset=6437)
        assert len(text) > 2 * bfile._CHUNK
        assert bfile._parse_canonical(text) == bfile.BFile(6437, tuple(terms))

    @pytest.mark.parametrize(
        "text",
        [
            "# only",  # a comment with no newline
            "# a\x85b\n1 0\n",  # a line boundary that only splitlines knows
        ],
    )
    def test_header_the_bulk_path_leaves_to_the_line_loop(self, text):
        assert bfile._parse_canonical(text) is None
        assert _outcome(bfile.parse_bfile, text) == _outcome(_line_loop, text)

    @pytest.mark.parametrize(
        "text",
        [
            "01 0\n02 1\n",  # an index with a leading zero
            "1 0\n2 01\n",  # a value with a leading zero
            "+1 0\n2 +1\n",
            "1 0\n2 1_0\n",
            "1  0\n2  1\n",  # a double space
            "-1 0\n0 1\n",  # a negative index
            "1 0\n2 -1\n",  # a negative value
            # the second index one digit past Python's limit on decimal text
            pytest.param(f"{'9' * _LIMIT} 0\n1{'0' * _LIMIT} 1\n", id="index past the limit"),
        ],
    )
    def test_text_emit_bfile_would_not_write_goes_to_the_line_loop(self, text):
        assert bfile._parse_canonical(text) is None
        assert _outcome(bfile.parse_bfile, text) == _outcome(_line_loop, text)

    def test_value_past_the_decimal_limit(self):
        # refused by the line loop where Python limits decimal conversion
        text = "1 0\n2 " + "1" * 5000 + "\n"
        assert _outcome(bfile.parse_bfile, text) == _outcome(_line_loop, text)

    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 200), max_size=50),
        st.integers(-5, 10**20),
    )
    def test_emit_is_the_f_string_rendering(self, terms, offset):
        expected = _rendering(terms, offset)
        assert bfile.emit_bfile(terms, offset) == expected
        assert bfile.emit_bfile(iter(terms), offset) == expected

    @given(
        st.integers(0, 8),
        st.lists(st.integers(0, 2), max_size=12),
        st.integers(0, 8),
        st.lists(st.integers(0, 2), max_size=12),
    )
    def test_compare_agrees_with_an_index_walk(self, g_off, g_vals, r_off, r_vals):
        generated = bfile.BFile(g_off, tuple(g_vals))
        reference = bfile.BFile(r_off, tuple(r_vals))
        assert bfile.compare(generated, reference) == _walk_compare(generated, reference)


def _walk_compare(generated, reference):
    # the index-by-index comparison that compare's slices must reproduce
    lo = max(generated.offset, reference.offset)
    hi = min(generated.end, reference.end)
    compared = 0
    for index in range(lo, hi):
        compared += 1
        actual = generated.values[index - generated.offset]
        expected = reference.values[index - reference.offset]
        if actual != expected:
            return bfile.DiffReport(bfile.MISMATCH, compared, (index, expected, actual))
    if generated.offset != reference.offset or generated.end != reference.end:
        return bfile.DiffReport(bfile.LENGTH_DIFFERS, compared)
    return bfile.DiffReport(bfile.MATCH, compared)
