"""Dyck numbers: the minimal numbering of Dyck paths (OEIS A036991).

Public surface re-exported from the submodules:

- core: membership, structure, the closed-form successor, path codecs
- sequence: ranges, streaming enumeration, ordinal indexing, the
  A001405 range-size check
- oracle: brute-force reference implementations for cross-validation
- bfile: OEIS b-file parsing, emission, and diffing
"""

from .bfile import (
    LENGTH_DIFFERS,
    MATCH,
    MISMATCH,
    BFile,
    BFileParseError,
    DiffReport,
    compare,
    emit_bfile,
    parse_bfile,
)
from .core import (
    DOWN,
    UP,
    NotDyckNumberError,
    NotDyckWordError,
    from_dyck_word,
    height_profile,
    is_dyck_number,
    is_dyck_word,
    mersenne,
    mersenne_successor,
    repunit_suffix_len,
    successor,
    to_dyck_word,
    to_standard_code,
    valley_depth,
    violating_suffix,
)
from .oracle import brute_range, brute_successor, kasa_zero_bounds
from .sequence import (
    RangeStats,
    central_binomial,
    index_of,
    iter_from,
    iter_range,
    range_stats,
    range_terms,
    term_at,
    verify_conjecture,
)

__version__ = "0.1.0"

__all__ = [
    "BFile",
    "BFileParseError",
    "DiffReport",
    "DOWN",
    "LENGTH_DIFFERS",
    "MATCH",
    "MISMATCH",
    "NotDyckNumberError",
    "NotDyckWordError",
    "RangeStats",
    "UP",
    "brute_range",
    "brute_successor",
    "central_binomial",
    "compare",
    "emit_bfile",
    "from_dyck_word",
    "height_profile",
    "index_of",
    "is_dyck_number",
    "is_dyck_word",
    "iter_from",
    "iter_range",
    "kasa_zero_bounds",
    "mersenne",
    "mersenne_successor",
    "parse_bfile",
    "range_stats",
    "range_terms",
    "repunit_suffix_len",
    "successor",
    "term_at",
    "to_dyck_word",
    "to_standard_code",
    "valley_depth",
    "verify_conjecture",
    "violating_suffix",
]
