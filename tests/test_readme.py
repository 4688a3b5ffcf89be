"""The README's Python examples, run as doctests, and its dyck transcript."""

import doctest
import shlex
from pathlib import Path

import pytest

from dycknum.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    # the NotDyckNumberError message is wrapped over two lines there
    result = doctest.testfile(
        str(README), module_relative=False, optionflags=doctest.NORMALIZE_WHITESPACE
    )
    assert result.attempted >= 9
    assert result.failed == 0


def _transcript(text):
    # (command, stdout) for each "$ dyck ..." line of the console blocks,
    # its stdout the lines under it up to the next command or the block's end
    cases, inside = [], False
    for line in text.splitlines():
        if line.startswith("```"):
            inside = line == "```console"
        elif inside and line.startswith("$ "):
            cases.append((line[2:], []))
        elif inside:
            cases[-1][1].append(line + "\n")
    return [(command, "".join(out)) for command, out in cases]


TRANSCRIPT = _transcript(README.read_text(encoding="utf-8"))


def test_the_transcript_holds_the_command_reference():
    assert len(TRANSCRIPT) >= 8
    assert all(command.startswith("dyck ") for command, _ in TRANSCRIPT)


@pytest.mark.parametrize("command, out", TRANSCRIPT, ids=[c for c, _ in TRANSCRIPT])
def test_transcript(capsys, command, out):
    main(shlex.split(command)[1:])
    assert capsys.readouterr().out == out
