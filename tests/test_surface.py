"""The public surface: the package's names, loaded lazily, and its records."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import dycknum
from dycknum import bfile, core, oracle, sequence
from dycknum.bfile import BFile, DiffReport
from dycknum.sequence import RangeStats

# the names the package exports, by the submodule that defines them
EXPORTS = {
    bfile: {
        "LENGTH_DIFFERS",
        "MATCH",
        "MISMATCH",
        "BFile",
        "BFileParseError",
        "DiffReport",
        "compare",
        "emit_bfile",
        "parse_bfile",
    },
    core: {
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
    },
    oracle: {"brute_range", "brute_successor", "kasa_zero_bounds"},
    sequence: {
        "RangeStats",
        "central_binomial",
        "index_of",
        "iter_from",
        "iter_range",
        "range_stats",
        "range_terms",
        "term_at",
        "verify_conjecture",
    },
}
NAMES = set().union(*EXPORTS.values())


class TestPackage:
    def test_the_37_names(self):
        assert len(NAMES) == 37
        assert set(dycknum.__all__) == NAMES
        assert len(dycknum.__all__) == 37

    @pytest.mark.parametrize(
        "module, name",
        sorted(((m, n) for m, names in EXPORTS.items() for n in names), key=lambda p: p[1]),
        ids=lambda p: getattr(p, "__name__", p),
    )
    def test_each_name_is_its_submodules_object(self, module, name):
        assert getattr(dycknum, name) is getattr(module, name)

    def test_star_import_and_dir(self):
        namespace = {}
        exec("from dycknum import *", namespace)
        del namespace["__builtins__"]
        assert namespace.keys() == NAMES
        assert NAMES <= set(dir(dycknum))

    def test_submodules_are_attributes(self):
        for module in EXPORTS:
            assert getattr(dycknum, module.__name__.rpartition(".")[2]) is module

    def test_unknown_name_is_refused_by_name(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            dycknum.no_such_name

    def test_bare_import_loads_no_submodule(self):
        probe = (
            "import sys\n"
            "import dycknum\n"
            "print(sorted(m for m in sys.modules if m.startswith('dycknum')))\n"
            "print(dycknum.successor(21))\n"
            "print(sorted(m for m in sys.modules if m.startswith('dycknum')))\n"
        )
        src = os.path.dirname(os.path.dirname(bfile.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "['dycknum']\n23\n['dycknum', 'dycknum.core']\n"


# each record type, the fields of one record, and that record's repr
RECORDS = [
    (BFile, {"offset": 3, "values": (1, 3)}, "BFile(offset=3, values=(1, 3))"),
    (
        DiffReport,
        {"verdict": "match", "compared_count": 2},
        "DiffReport(verdict='match', compared_count=2, first_mismatch=None)",
    ),
    (
        DiffReport,
        {"verdict": "mismatch", "compared_count": 1, "first_mismatch": (4, 5, 6)},
        "DiffReport(verdict='mismatch', compared_count=1, first_mismatch=(4, 5, 6))",
    ),
    (
        RangeStats,
        {"k": 5, "first": 19, "last": 31, "size": 6, "expected": 6},
        "RangeStats(k=5, first=19, last=31, size=6, expected=6)",
    ),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=["bfile", "match", "mismatch", "range"])
class TestRecords:
    def test_repr(self, cls, fields, text):
        assert repr(cls(**fields)) == text

    def test_equality_and_hash(self, cls, fields, text):
        record, twin = cls(**fields), cls(**fields)
        assert twin is not record
        assert twin == record and not twin != record
        assert hash(twin) == hash(record)
        for name in fields:
            other = cls(**{**fields, name: -1})
            assert other != record and not other == record
        assert len({record, twin}) == 1

    def test_fields_refuse_assignment_and_deletion(self, cls, fields, text):
        record = cls(**fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, -1)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = -1
        assert repr(record) == text

    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copy_and_pickle(self, cls, fields, text, round_trip):
        twin = round_trip(cls(**fields))
        assert type(twin) is cls
        assert twin == cls(**fields) and repr(twin) == text


class TestRecordDetails:
    def test_bfile_length_end_and_entries(self):
        record = BFile(3, (1, 3))
        assert len(record) == 2
        assert record.end == 5
        assert list(record.entries()) == [(3, 1), (4, 3)]
        assert len(BFile(7, ())) == 0 and BFile(7, ()).end == 7

    def test_bfile_matches_by_position(self):
        match BFile(3, (1, 3)):
            case BFile(offset, values):
                assert (offset, values) == (3, (1, 3))
            case _:
                pytest.fail("no positional match")

    def test_bfile_equals_only_a_bfile(self):
        assert BFile(3, (1, 3)) != (3, (1, 3))

    def test_first_mismatch_defaults_to_none(self):
        assert DiffReport(bfile.LENGTH_DIFFERS, 0).first_mismatch is None

    def test_range_stats_matches(self):
        assert RangeStats(5, 19, 31, 6, 6).matches
        assert not RangeStats(5, 19, 31, 5, 6).matches
        assert sequence.range_stats(5) == RangeStats(5, 19, 31, 6, 6)
