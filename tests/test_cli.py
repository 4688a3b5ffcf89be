"""End-to-end tests of the dyck command line tool via main()."""

import sys

import pytest

from dycknum import bfile, core, sequence
from dycknum.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_yes(self, capsys):
        code, out, _ = run(capsys, "check", "21")
        assert (code, out) == (0, "yes\n")

    def test_no_names_the_suffix(self, capsys):
        code, out, _ = run(capsys, "check", "9")
        assert (code, out) == (1, "no (violating suffix 001)\n")

    def test_zero_is_a_member(self, capsys):
        assert run(capsys, "check", "0")[:2] == (0, "yes\n")

    def test_hex_input(self, capsys):
        assert run(capsys, "check", "0x15")[:2] == (0, "yes\n")


class TestSucc:
    def test_single(self, capsys):
        assert run(capsys, "succ", "11")[:2] == (0, "13\n")

    def test_count(self, capsys):
        code, out, _ = run(capsys, "succ", "--count", "3", "11")
        assert code == 0
        assert out == "13\n15\n19\n"

    def test_binary_output(self, capsys):
        assert run(capsys, "succ", "31", "--binary")[:2] == (0, "100111\n")

    def test_non_dyck_input_fails(self, capsys):
        code, _, err = run(capsys, "succ", "9")
        assert code == 1
        assert err.startswith("error:")
        assert "suffix 001" in err

    def test_huge_non_dyck_input_fails(self, capsys):
        code, out, err = run(capsys, "succ", "0b1" + "0" * 20000 + "1")
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert "suffix 001" in err
        assert "Exceeds the limit" not in err

    def test_count_matches_library_stream(self, capsys):
        from itertools import islice

        _, out, _ = run(capsys, "succ", "--count", "7", "0")
        expected = list(islice(sequence.iter_from(1), 7))
        assert [int(line) for line in out.split()] == expected


class TestRange:
    def test_list(self, capsys):
        assert run(capsys, "range", "5", "--list")[:2] == (0, "19 21 23 27 29 31\n")

    def test_stats_line(self, capsys):
        code, out, _ = run(capsys, "range", "5")
        assert code == 0
        assert out == "range 5: first=19 last=31 size=6 expected=6 match=yes\n"

    def test_list_and_stats_conflict(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["range", "5", "--list", "--stats"])
        assert exc_info.value.code == 2

    def test_rejects_zero(self, capsys):
        with pytest.raises(SystemExit):
            main(["range", "0"])


class TestEnumerate:
    def test_defaults(self, capsys):
        code, out, _ = run(capsys, "enumerate")
        lines = out.split()
        assert code == 0
        assert len(lines) == 20
        assert lines[:3] == ["0", "1", "3"]

    def test_skip_zero(self, capsys):
        _, out, _ = run(capsys, "enumerate", "--skip-zero", "--count", "3")
        assert out == "1\n3\n5\n"

    def test_start(self, capsys):
        _, out, _ = run(capsys, "enumerate", "--start", "31", "--count", "2")
        assert out == "31\n39\n"

    def test_skip_zero_keeps_a_later_start(self, capsys):
        _, out, _ = run(capsys, "enumerate", "--skip-zero", "--start", "31", "--count", "2")
        assert out == "31\n39\n"

    def test_bad_start(self, capsys):
        code, _, err = run(capsys, "enumerate", "--start", "9")
        assert code == 1
        assert "not a Dyck number" in err


class TestConvert:
    def test_word(self, capsys):
        assert run(capsys, "convert", "5", "--to", "word")[:2] == (0, "UDUD\n")

    def test_long_word(self, capsys):
        _, out, _ = run(capsys, "convert", "2893215", "--to", "word")
        assert out == "UUDUDDUUUUDUUDUDDUUDDDDD\n"

    def test_heights(self, capsys):
        assert run(capsys, "convert", "5", "--to", "heights")[:2] == (0, "1 0 1\n")

    def test_wide_heights_in_hex(self, capsys):
        # a 10**4-bit member: 5001 ones over pairs of a 0 and a 1 over a 1
        d = core.mersenne(5001) << 4999 | int("01" * 2499 + "1", 2)
        heights, h = [], 0
        for digit in bin(d)[:1:-1]:
            h += 1 if digit == "1" else -1
            heights.append(h)
        assert min(heights) >= 0 and d.bit_length() == 10**4
        expected = " ".join(str(h) for h in reversed(heights)) + "\n"
        assert run(capsys, "convert", hex(d), "--to", "heights") == (0, expected, "")

    def test_standard(self, capsys):
        assert run(capsys, "convert", "3", "--to", "standard")[:2] == (0, "12\n")
        assert run(capsys, "convert", "3", "--to", "standard", "--binary")[:2] == (
            0,
            "1100\n",
        )

    def test_zero(self, capsys):
        assert run(capsys, "convert", "0", "--to", "word")[:2] == (0, "\n")
        assert run(capsys, "convert", "0", "--to", "heights")[:2] == (0, "\n")

    def test_target_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["convert", "5"])
        assert exc_info.value.code == 2

    def test_non_dyck_input_fails(self, capsys):
        code, _, err = run(capsys, "convert", "9", "--to", "word")
        assert code == 1
        assert err.startswith("error:")


class TestVerifyConjecture:
    def test_holds(self, capsys):
        code, out, _ = run(capsys, "verify-conjecture", "--max-range", "5")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "range 1: size=1 expected=1 match"
        assert lines[-1] == "conjecture holds for ranges 1..5"

    def test_a_wrong_size_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(sequence, "central_binomial", lambda m: 1)
        code, out, _ = run(capsys, "verify-conjecture", "--max-range", "3")
        assert code == 1
        assert out.splitlines() == [
            "range 1: size=1 expected=1 match",
            "range 2: size=1 expected=1 match",
            "range 3: size=2 expected=1 MISMATCH",
            "conjecture FAILED; see mismatches above",
        ]

    def test_max_range_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify-conjecture"])


class TestBFileCommand:
    def test_default_emission(self, capsys):
        code, out, _ = run(capsys, "bfile")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 20
        assert lines[0] == "1 0"

    def test_count(self, capsys):
        assert run(capsys, "bfile", "--count", "3")[:2] == (0, "1 0\n2 1\n3 3\n")

    def test_offset(self, capsys):
        _, out, _ = run(capsys, "bfile", "--count", "2", "--offset", "14")
        assert out == "14 31\n15 39\n"

    @pytest.mark.parametrize("offset", [1, 10**18])
    @pytest.mark.parametrize("count", [4095, 4096, 4097, 9000])
    def test_chunked_emission_is_emit_bfile(self, capsys, count, offset):
        # lines are written 4,096 at a time
        from itertools import islice

        terms = islice(sequence.iter_from(sequence.term_at(offset)), count)
        argv = ["bfile", "--count", str(count), "--offset", str(offset)]
        assert run(capsys, *argv) == (0, bfile.emit_bfile(terms, offset), "")

    def test_check_match(self, capsys, tmp_path):
        from itertools import islice

        terms = list(islice(sequence.iter_from(), 25))
        path = tmp_path / "b036991.txt"
        path.write_text(bfile.emit_bfile(terms))
        code, out, _ = run(capsys, "bfile", "--check", str(path))
        assert (code, out) == (0, "match: 25 terms agree\n")

    def test_check_mismatch(self, capsys, tmp_path):
        from itertools import islice

        terms = list(islice(sequence.iter_from(), 6))
        text = bfile.emit_bfile(terms).replace("5 7", "5 9")
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, _ = run(capsys, "bfile", "--check", str(path))
        assert code == 1
        assert out == "mismatch at index 5: expected 9, got 7\n"

    def test_check_with_offset_window(self, capsys, tmp_path):
        path = tmp_path / "window.txt"
        path.write_text(bfile.emit_bfile([31, 39], offset=14))
        code, out, _ = run(capsys, "bfile", "--check", str(path))
        assert (code, out) == (0, "match: 2 terms agree\n")

    def test_check_conflicts_with_emission_options(self, capsys, tmp_path):
        path = tmp_path / "any.txt"
        path.write_text("1 0\n")
        with pytest.raises(SystemExit) as exc_info:
            main(["bfile", "--check", str(path), "--count", "5"])
        assert exc_info.value.code == 2

    def test_check_missing_file(self, capsys):
        code, _, err = run(capsys, "bfile", "--check", "/nonexistent/b.txt")
        assert code == 1
        assert err.startswith("error:")

    def test_check_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("1 0\n9 9\n")
        code, _, err = run(capsys, "bfile", "--check", str(path))
        assert code == 1
        assert "index gap" in err

    def test_check_refuses_file_without_data_lines(self, capsys, tmp_path):
        path = tmp_path / "comments.txt"
        path.write_text("# A036991\n\n# no terms\n")
        code, out, err = run(capsys, "bfile", "--check", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path} has no data lines to check against\n"


    def test_check_reads_utf8_under_the_c_locale(self, tmp_path):
        # a comment outside ASCII must not depend on the locale's encoding
        import os
        import subprocess

        path = tmp_path / "b036991.txt"
        text = "# A036991 — Dyck numbers, é\n" + bfile.emit_bfile([0, 1, 3, 5, 7])
        path.write_bytes(text.encode("utf-8"))
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.dirname(os.path.dirname(bfile.__file__)), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "dycknum.cli", "bfile", "--check", str(path)],
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"match: 5 terms agree\n", b"")


class TestBFileAtHugeOffset:
    OFFSET = 10**18

    def test_emission(self, capsys):
        code, out, _ = run(capsys, "bfile", "--offset", str(self.OFFSET), "--count", "3")
        rows = [tuple(map(int, line.split())) for line in out.splitlines()]
        assert code == 0
        assert [i for i, _ in rows] == [self.OFFSET, self.OFFSET + 1, self.OFFSET + 2]
        values = [v for _, v in rows]
        assert values[1] == core.successor(values[0])
        assert values[2] == core.successor(values[1])

    def _write(self, tmp_path, plant_even=False):
        terms = [sequence.term_at(self.OFFSET)]
        for _ in range(2):
            terms.append(core.successor(terms[-1]))
        if plant_even:
            terms[1] += 1
        path = tmp_path / "b036991.txt"
        path.write_text(bfile.emit_bfile(terms, offset=self.OFFSET))
        return path, terms

    def test_check_match(self, capsys, tmp_path):
        path, _ = self._write(tmp_path)
        code, out, _ = run(capsys, "bfile", "--check", str(path))
        assert (code, out) == (0, "match: 3 terms agree\n")

    def test_check_planted_even_value(self, capsys, tmp_path):
        path, terms = self._write(tmp_path, plant_even=True)
        code, out, _ = run(capsys, "bfile", "--check", str(path))
        assert code == 1
        assert out == (
            f"mismatch at index {self.OFFSET + 1}: "
            f"expected {terms[1]}, got {terms[1] - 1}\n"
        )


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits") or sys.get_int_max_str_digits() == 0,
    reason="no limit on int <-> decimal text conversion",
)
class TestDecimalDigitLimit:
    @staticmethod
    def refusal(capsys, text):
        with pytest.raises(SystemExit) as exc_info:
            main(["check", "--", text])
        err = capsys.readouterr().err
        assert exc_info.value.code == 2
        assert "not a number" not in err
        assert len(err.encode()) < 300
        return err

    def test_long_decimal_input_is_refused_as_too_long(self, capsys):
        digits = "1" * (sys.get_int_max_str_digits() + 700)
        # a negative zero is 0, which the hint's 0x or 0b form accepts; the
        # Arabic-Indic zero is a zero that is not "0"
        negative_zero = "-0_" + "\u0660" * (len(digits) - 1)
        for text in [digits, "+" + digits, negative_zero]:
            err = self.refusal(capsys, text)
            assert f"{len(digits)} decimal digits exceed" in err
            assert "0x or 0b form" in err
        err = self.refusal(capsys, "-" + digits)
        assert err.endswith(
            f"must be non-negative: a numeral of {len(digits)} decimal digits\n"
        )
        assert "0x or 0b form" not in err

    def test_same_size_in_hex_is_accepted(self, capsys):
        hex_digits = "f" * (sys.get_int_max_str_digits() + 700)
        assert run(capsys, "check", "0x" + hex_digits)[:2] == (0, "yes\n")

    def test_long_decimal_output_points_at_binary(self, capsys):
        ones = "0b" + "1" * (4 * sys.get_int_max_str_digits())
        code, out, err = run(capsys, "succ", ones)
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert "use --binary" in err
        code, out, _ = run(capsys, "succ", ones, "--binary")
        assert code == 0
        assert int(out, 2) == core.mersenne_successor(len(ones) - 2)

    def test_huge_non_dyck_input_is_named_by_bit_length(self, capsys):
        _, _, err = run(capsys, "succ", "0b1" + "0" * 20000 + "1")
        assert err.startswith("error: a 20002-bit number is not a Dyck number: suffix 001 ")

    def test_long_value_in_a_checked_bfile_is_named_by_digit_count(self, capsys, tmp_path):
        digits = sys.get_int_max_str_digits() + 700
        path = tmp_path / "long.txt"
        path.write_text(f"1 {'9' * digits}\n", encoding="utf-8")
        code, out, err = run(capsys, "bfile", "--check", str(path))
        assert (code, out) == (1, "")
        assert err == (
            f"error: line 1: a token of {digits} decimal digits exceeds Python's "
            f"limit of {sys.get_int_max_str_digits()} for decimal conversion\n"
        )


    def test_bfile_index_past_the_limit_is_refused_before_any_term(self, capsys, monkeypatch):
        class TermComputed(Exception):
            pass

        def term_at(n):
            raise TermComputed

        monkeypatch.setattr(sequence, "term_at", term_at)
        code, out, err = run(capsys, "bfile", "--offset", "0x" + "f" * 3600, "--count", "1")
        assert (code, out) == (1, "")
        assert err == (
            f"error: 14400-bit index has more decimal digits than Python's limit "
            f"of {sys.get_int_max_str_digits()} for decimal conversion\n"
        )
        # the refusal turns on the last index alone
        widest = 10 ** sys.get_int_max_str_digits() - 1
        with pytest.raises(TermComputed):
            main(["bfile", "--offset", hex(widest - 1), "--count", "2"])
        code, out, err = run(capsys, "bfile", "--offset", hex(widest - 1), "--count", "3")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {(widest + 1).bit_length()}-bit index has more")

    def test_bfile_value_past_the_limit_is_refused(self, capsys, monkeypatch):
        limit = sys.get_int_max_str_digits()
        wide = core.mersenne(4 * limit)
        refusal = (
            f"error: {4 * limit}-bit value has more decimal digits than Python's "
            f"limit of {limit} for decimal conversion\n"
        )
        monkeypatch.setattr(sequence, "term_at", lambda n: wide)
        assert run(capsys, "bfile", "--offset", "5", "--count", "2") == (1, "", refusal)
        # the lines before it are printed whole, and none of its line
        monkeypatch.setattr(sequence, "iter_from", lambda d: iter([7, wide]))
        assert run(capsys, "bfile", "--offset", "5", "--count", "2") == (1, "5 7\n", refusal)

    def test_bfile_value_past_the_limit_in_the_second_chunk(self, capsys, monkeypatch):
        from itertools import chain

        limit = sys.get_int_max_str_digits()
        wide = core.mersenne(4 * limit)
        monkeypatch.setattr(sequence, "iter_from", lambda d: chain(range(4100), [wide]))
        code, out, err = run(capsys, "bfile", "--offset", "5", "--count", "9000")
        # the 4,100 lines before it are printed whole, and none of its line
        assert (code, out) == (1, bfile.emit_bfile(range(4100), offset=5))
        assert err == (
            f"error: {4 * limit}-bit value has more decimal digits than Python's "
            f"limit of {limit} for decimal conversion\n"
        )


class TestWriter:
    # every term the CLI prints goes out 4,096 at a time
    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("count", [4095, 4096, 4097, 9000])
    def test_streams_are_the_library_stream(self, capsys, count, binary):
        from itertools import islice

        form = "b" if binary else "d"
        flags = ["--binary"] * binary + ["--count", str(count)]
        terms = list(islice(sequence.iter_from(), count + 1))
        expected = "".join(f"{v:{form}}\n" for v in terms[1:])
        assert run(capsys, "succ", "0", *flags) == (0, expected, "")
        expected = "".join(f"{v:{form}}\n" for v in terms[:-1])
        assert run(capsys, "enumerate", *flags) == (0, expected, "")

    @pytest.mark.parametrize("binary", [False, True])
    def test_range_list_is_the_library_range(self, capsys, binary):
        # range 16 holds 6,435 terms, so its list spans two chunks
        form = "b" if binary else "d"
        expected = " ".join(f"{v:{form}}" for v in sequence.range_terms(16)) + "\n"
        argv = ["range", "16", "--list"] + ["--binary"] * binary
        assert run(capsys, *argv) == (0, expected, "")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits") or sys.get_int_max_str_digits() == 0,
    reason="no limit on int <-> decimal text conversion",
)
class TestWriterDigitLimit:
    @staticmethod
    def refusal(bits):
        return (
            f"error: {bits}-bit result has more decimal digits than Python's "
            f"limit of {sys.get_int_max_str_digits()} for decimal conversion; "
            f"use --binary\n"
        )

    @pytest.mark.parametrize("argv", [["succ", "0"], ["enumerate", "--start", "0"]])
    def test_value_past_the_limit_in_the_second_chunk(self, capsys, monkeypatch, argv):
        from itertools import chain

        bits = 4 * sys.get_int_max_str_digits()
        wide = core.mersenne(bits)
        monkeypatch.setattr(sequence, "iter_from", lambda d: chain(range(4100), [wide]))
        code, out, err = run(capsys, *argv, "--count", "9000")
        # succ leaves out its start; every line before the wide value is
        # printed whole, and none of its own
        first = 1 if argv[0] == "succ" else 0
        expected = "".join(f"{v}\n" for v in range(first, 4100))
        assert (code, out, err) == (1, expected, self.refusal(bits))

    def test_standard_code_past_the_limit(self, capsys):
        # the A014486 code of a member with n ones has 2n bits
        ones = 2 * sys.get_int_max_str_digits()
        member = hex(core.mersenne(ones))
        argv = ["convert", member, "--to", "standard"]
        assert run(capsys, *argv) == (1, "", self.refusal(2 * ones))
        assert run(capsys, *argv, "--binary") == (0, "1" * ones + "0" * ones + "\n", "")


class TestOracleSucc:
    def test_value(self, capsys):
        assert run(capsys, "oracle-succ", "31")[:2] == (0, "39\n")

    def test_refused_past_the_scan_budget(self, capsys, monkeypatch):
        from dycknum import oracle

        # the scan of 31 itself costs 5 * (5 + 512)
        monkeypatch.setattr(oracle, "SUCCESSOR_SCAN_BUDGET", 3)
        code, out, err = run(capsys, "oracle-succ", "31")
        assert (code, out) == (1, "")
        assert err == (
            "error: brute_successor gives up on a 5-bit number: its scans "
            "would cost more than SUCCESSOR_SCAN_BUDGET = 3\n"
        )


class TestParsing:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0

    def test_command_required(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_non_numeric_argument(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["check", "abc"])
        assert exc_info.value.code == 2

    def test_negative_argument(self, capsys):
        with pytest.raises(SystemExit):
            main(["succ", "--count", "0", "1"])

    def test_negative_number(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["check", "--", "-5"])
        assert exc_info.value.code == 2
        assert "must be non-negative: '-5'" in capsys.readouterr().err


class TestBrokenPipe:
    def test_stream_into_closed_pipe_is_silent(self):
        # enough output to outlive head's three lines and the pipe buffer
        import shlex
        import subprocess
        import sys

        pipeline = (
            f"{shlex.quote(sys.executable)} -m dycknum.cli "
            "enumerate --count 20000 | head -3"
        )
        proc = subprocess.run(
            ["bash", "-c", pipeline], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert proc.stdout.split() == ["0", "1", "3"]
        assert proc.stderr == ""

    @staticmethod
    def read_one_line_and_close(*argv):
        # the first line, then dyck's exit status and stderr once the reader
        # has gone
        import os
        import subprocess

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.dirname(os.path.dirname(bfile.__file__)), env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "dycknum.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return line, proc.wait(timeout=60), err

    def test_reader_closing_the_pipe_ends_the_run_cleanly(self):
        # the pipeline above reports head's exit status; this reads dyck's
        argv = ["enumerate", "--count", "200000"]
        assert self.read_one_line_and_close(*argv) == (b"0\n", 0, b"")

    def test_reader_closing_the_pipe_ends_a_bfile_run_cleanly(self):
        # dyck bfile writes 4,096 lines at a time
        argv = ["bfile", "--count", "200000"]
        assert self.read_one_line_and_close(*argv) == (b"1 0\n", 0, b"")


class TestStartUp:
    @staticmethod
    def probe(code):
        # -S, since a site module may preload some modules itself
        import os
        import subprocess

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.dirname(os.path.dirname(bfile.__file__)), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def test_import_loads_no_typing_pathlib_or_logging(self):
        unwanted = {
            "typing",
            "pathlib",
            "logging",
            "array",
            "dataclasses",
            "inspect",
            "dycknum.bfile",
            "dycknum.sequence",
            "dycknum.oracle",
        }
        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import dycknum, dycknum.cli\n"
            f"print(sorted({unwanted!r} & (set(sys.modules) - before)))\n"
        )
        assert self.probe(probe) == (0, "[]\n", "")

    @pytest.mark.parametrize(
        "argv, out, loaded",
        [
            (["check", "21"], "yes\n", ["dycknum.cli", "dycknum.core"]),
            (
                ["bfile", "--count", "3"],
                "1 0\n2 1\n3 3\n",
                ["dycknum.bfile", "dycknum.cli", "dycknum.core", "dycknum.sequence"],
            ),
        ],
        ids=["check", "bfile"],
    )
    def test_subcommand_loads_only_what_it_runs(self, argv, out, loaded):
        probe = (
            "import sys\n"
            "from dycknum import cli\n"
            f"code = cli.main({argv!r})\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('dycknum.')))\n"
        )
        assert self.probe(probe) == (0, f"{out}0 {loaded}\n", "")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["succ", "--count", "10", "0"],
            ["range", "8", "--list"],
            ["bfile", "--count", "30"],
        ],
    )
    def test_repeat_runs_are_byte_identical(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
