"""Command line front end: the ``dyck`` tool.

One subcommand per library capability. Inputs are decimal by default and
accept 0b/0x prefixes; every term printed goes through _write, in decimal
unless --binary asks for binary. Exit status is 0 on success, 1 on
domain errors (and for a failed check), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import count, islice

# a handler imports the other submodules it uses, so that a process loads
# only what its subcommand runs
from . import __version__, core

_CHUNK = 4096


def _natural(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        try:
            value = int(text, 0)
        except ValueError:
            digits = core._digits_past_limit(text)
            if not digits:
                raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
            # the text is a sign, digits and underscores inside whitespace; a
            # minus makes it negative unless every digit is a zero, and such a
            # 0 is accepted in 0x or 0b form
            body = text.strip()
            if body.startswith("-") and any(map(int, set(body[1:]) - {"_"})):
                raise argparse.ArgumentTypeError(
                    f"must be non-negative: a numeral of {digits} decimal digits"
                ) from None
            raise argparse.ArgumentTypeError(
                f"{digits} decimal digits exceed Python's limit of "
                f"{core._str_digit_limit()} for decimal conversion; give the "
                f"number in 0x or 0b form"
            ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative: {text!r}")
    return value


def _positive(text: str) -> int:
    value = _natural(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return value


def _too_wide(n: int, what: str) -> str:
    return (
        f"{n.bit_length()}-bit {what} has more decimal digits than "
        f"Python's limit of {core._str_digit_limit()} for decimal conversion"
    )


def _write(terms, binary=False, sep="\n", offset=None) -> None:
    """Write ascending terms to stdout, _CHUNK at a time, each followed by
    sep and the last by a newline, or as b-file lines indexed from offset;
    a ValueError refuses the first term too wide for decimal text."""
    from bisect import bisect_left

    if offset is not None:
        from .bfile import emit_bfile
    limit = 0 if binary else core._str_digit_limit()
    bound = 10**limit if limit else float("inf")
    form = ("{:b}" if binary else "{}") + sep
    terms, tail = iter(terms), ""
    for index in count(offset or 0, _CHUNK):
        chunk = tuple(islice(terms, _CHUNK))
        cut = bisect_left(chunk, bound)
        if offset is not None:
            text = tail + emit_bfile(chunk[:cut], index)
        else:
            text = tail + (form * cut).format(*chunk[:cut])
        # each term's text ends in its separator; the last waits for the end
        sys.stdout.write(text[:-1])
        tail = text[-1:]
        if cut < _CHUNK:
            break
    sys.stdout.write(tail and "\n")
    if cut < len(chunk):
        if offset is not None:
            raise ValueError(_too_wide(chunk[cut], "value"))
        raise ValueError(f"{_too_wide(chunk[cut], 'result')}; use --binary")


def _cmd_check(args: argparse.Namespace) -> int:
    suffix = core.violating_suffix(args.number)
    if suffix is None:
        print("yes")
        return 0
    print(f"no (violating suffix {suffix})")
    return 1


def _cmd_succ(args: argparse.Namespace) -> int:
    from . import sequence

    _write(islice(sequence.iter_from(args.number), 1, args.count + 1), args.binary)
    return 0


def _cmd_range(args: argparse.Namespace) -> int:
    from . import sequence

    if args.list:
        _write(sequence.iter_range(args.k), args.binary, sep=" ")
        return 0
    stats = sequence.range_stats(args.k)
    form = "b" if args.binary else "d"
    print(
        f"range {stats.k}: first={stats.first:{form}} "
        f"last={stats.last:{form}} size={stats.size} "
        f"expected={stats.expected} match={'yes' if stats.matches else 'NO'}"
    )
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from . import sequence

    start = 1 if args.skip_zero and args.start == 0 else args.start
    _write(islice(sequence.iter_from(start), args.count), args.binary)
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    if args.to == "word":
        print(core.to_dyck_word(args.number))
    elif args.to == "standard":
        _write((core.to_standard_code(args.number),), args.binary)
    else:  # heights, shown most significant digit first
        profile = core.height_profile(args.number)
        print(" ".join(map(str, reversed(profile))))
    return 0


def _cmd_verify_conjecture(args: argparse.Namespace) -> int:
    from . import sequence

    all_match = True
    for k in range(1, args.max_range + 1):
        stats = sequence.range_stats(k)
        verdict = "match" if stats.matches else "MISMATCH"
        print(f"range {k}: size={stats.size} expected={stats.expected} {verdict}")
        all_match = all_match and stats.matches
    if all_match:
        print(f"conjecture holds for ranges 1..{args.max_range}")
        return 0
    print("conjecture FAILED; see mismatches above")
    return 1


def _cmd_bfile(args: argparse.Namespace) -> int:
    from . import bfile, sequence

    if args.check is not None:
        if args.count is not None or args.offset is not None:
            args.parser.error("--check cannot be combined with --count/--offset")
        # b-files are UTF-8 whatever the locale; comments may hold any text
        with open(args.check, encoding="utf-8") as f:
            reference = bfile.parse_bfile(f.read())
        if not reference.values:
            # a check that compared nothing must not pass
            print(
                f"error: {args.check} has no data lines to check against",
                file=sys.stderr,
            )
            return 1
        terms = sequence.iter_from(sequence.term_at(reference.offset))
        values = tuple(islice(terms, len(reference)))
        report = bfile.compare(bfile.BFile(reference.offset, values), reference)
        if report.verdict == bfile.MATCH:
            print(f"match: {report.compared_count} terms agree")
            return 0
        # the generated span is the reference's, so the verdict is never
        # LENGTH_DIFFERS
        index, expected, actual = report.first_mismatch
        print(f"mismatch at index {index}: expected {expected}, got {actual}")
        return 1
    size = 20 if args.count is None else args.count
    offset = 1 if args.offset is None else args.offset
    # indices print in decimal: refuse one too long for that before
    # computing any term
    last = offset + size - 1
    limit = core._str_digit_limit()
    if limit and last >= 10**limit:
        raise ValueError(_too_wide(last, "index"))
    _write(islice(sequence.iter_from(sequence.term_at(offset)), size), offset=offset)
    return 0


def _cmd_oracle_succ(args: argparse.Namespace) -> int:
    from . import oracle

    _write((oracle.brute_successor(args.number),), args.binary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyck",
        description="Dyck numbers (OEIS A036991): membership, successor, "
        "ranges, encodings, and b-file tooling.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    display = argparse.ArgumentParser(add_help=False)
    display.add_argument(
        "--binary", action="store_true", help="print numbers in binary"
    )

    p = sub.add_parser(
        "check", help="test whether a number is a Dyck number (exit 1 if not)"
    )
    p.add_argument("number", type=_natural)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "succ", parents=[display], help="Dyck successor(s) of a Dyck number"
    )
    p.add_argument("number", type=_natural)
    p.add_argument(
        "--count", type=_positive, default=1, help="how many successors (default 1)"
    )
    p.set_defaults(func=_cmd_succ)

    p = sub.add_parser(
        "range", parents=[display], help="one range of Dyck numbers, by bit length"
    )
    p.add_argument("k", type=_positive, help="range index (= bit length)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--list", action="store_true", help="print every term")
    mode.add_argument(
        "--stats", action="store_true", help="print boundary and size summary (default)"
    )
    p.set_defaults(func=_cmd_range)

    p = sub.add_parser(
        "enumerate", parents=[display], help="stream Dyck numbers in order"
    )
    p.add_argument(
        "--start", type=_natural, default=0, help="first value to emit (default 0)"
    )
    p.add_argument(
        "--count", type=_positive, default=20, help="how many terms (default 20)"
    )
    p.add_argument(
        "--skip-zero", action="store_true", help="start at 1, omitting the empty path"
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "convert", parents=[display], help="re-encode a Dyck number"
    )
    p.add_argument("number", type=_natural)
    p.add_argument(
        "--to",
        required=True,
        choices=("word", "standard", "heights"),
        help="target encoding: U/D step word, A014486 code, or height profile",
    )
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser(
        "verify-conjecture",
        help="count ranges and compare sizes against A001405",
    )
    p.add_argument(
        "--max-range", type=_positive, required=True, help="last range index to count"
    )
    p.set_defaults(func=_cmd_verify_conjecture)

    p = sub.add_parser(
        "bfile", help="emit b-file lines, or --check them against a reference file"
    )
    p.add_argument(
        "--count", type=_positive, default=None, help="how many terms (default 20)"
    )
    p.add_argument(
        "--offset", type=_positive, default=None, help="first index (default 1)"
    )
    p.add_argument(
        "--check", metavar="FILE", default=None, help="compare against this b-file"
    )
    p.set_defaults(func=_cmd_bfile, parser=p)

    p = sub.add_parser(
        "oracle-succ",
        parents=[display],
        help="successor by brute-force scan (slow reference)",
    )
    p.add_argument("number", type=_natural)
    p.set_defaults(func=_cmd_oracle_succ)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # force pending output through while the pipe error is still catchable
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # reader went away mid-stream (e.g. piping into head)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
