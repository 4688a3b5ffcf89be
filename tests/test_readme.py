"""The README's Python examples, run as doctests."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    # the NotDyckNumberError message is wrapped over two lines there
    result = doctest.testfile(
        str(README), module_relative=False, optionflags=doctest.NORMALIZE_WHITESPACE
    )
    assert result.attempted > 0
    assert result.failed == 0
