"""Tests for b-file parsing, emission, and diffing."""

from itertools import islice

import pytest

from dycknum import bfile, sequence

SAMPLE = "1 0\n2 1\n3 3\n"


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
