"""Dyck numbers: the minimal numbering of Dyck paths (OEIS A036991).

Public surface re-exported from the submodules:

- core: membership, structure, the closed-form successor, path codecs
- sequence: ranges, streaming enumeration, ordinal indexing, the
  A001405 range-size check
- oracle: brute-force reference implementations for cross-validation
- bfile: OEIS b-file parsing, emission, and diffing

Each name loads its submodule on first use (PEP 562), so `import dycknum`
loads none of them, and a program pays only for the submodules it uses.
"""

__version__ = "0.1.0"

# the names each submodule exports here
_EXPORTS = {
    "bfile": (
        "LENGTH_DIFFERS",
        "MATCH",
        "MISMATCH",
        "BFile",
        "BFileParseError",
        "DiffReport",
        "compare",
        "emit_bfile",
        "parse_bfile",
    ),
    "core": (
        "DOWN",
        "UP",
        "NotDyckNumberError",
        "NotDyckWordError",
        "from_dyck_word",
        "height_profile",
        "is_dyck_number",
        "is_dyck_word",
        "mersenne",
        "mersenne_successor",
        "repunit_suffix_len",
        "successor",
        "to_dyck_word",
        "to_standard_code",
        "valley_depth",
        "violating_suffix",
    ),
    "oracle": ("brute_range", "brute_successor", "kasa_zero_bounds"),
    "sequence": (
        "RangeStats",
        "central_binomial",
        "index_of",
        "iter_from",
        "iter_range",
        "range_stats",
        "range_terms",
        "term_at",
        "verify_conjecture",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    # called only for names not bound here yet: a public name or a submodule
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing a submodule binds it here; a public name is bound on first use
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
