"""The library's records: immutable values built by position or by keyword,
equal and hashed field by field, shown, pickled and copied as they were when
they were declared as frozen dataclasses, and still checking their fields."""

from __future__ import annotations

import copy
import pickle

import pytest

from delannoy import (
    BijectionReport,
    ConjectureReport,
    CountTable,
    LatticePath,
    PathFamilySpec,
    RadicalCheck,
    SeriesTriple,
)
from helpers import InversionSequence

S = (1, 1, 2)
NO_PATTERNS = frozenset()

# Each record class: its fields by keyword, in order; one field with another
# value; the fields a construction may leave out, with their defaults; and the
# repr, byte for byte as the dataclass printed it.
RECORDS = {
    "LatticePath": (
        LatticePath, {"start": (0, 0), "word": "NE"}, {"word": "EN"}, {"start": (0, 0), "word": ""},
        "LatticePath(start=(0, 0), word='NE')",
    ),
    "PathFamilySpec": (
        PathFamilySpec,
        {"target": (2, 3), "forbidden": frozenset({"NE"}), "forbidden_aug": NO_PATTERNS,
         "region_k": 1, "first_step": "N", "last_step": None},
        {"region_k": 2},
        {"forbidden": NO_PATTERNS, "forbidden_aug": NO_PATTERNS, "region_k": None,
         "first_step": None, "last_step": None},
        "PathFamilySpec(target=(2, 3), forbidden=frozenset({'NE'}), forbidden_aug=frozenset(), "
        "region_k=1, first_step='N', last_step=None)",
    ),
    "CountTable": (
        CountTable, {"kind": "h", "columns": ((1, 1), (1, 2))}, {"kind": "b"}, {},
        "CountTable(kind='h', columns=((1, 1), (1, 2)))",
    ),
    "SeriesTriple": (
        SeriesTriple, {"k": 1, "f": S, "fd": S, "fe": S}, {"fe": (0, 0, 1)}, {},
        "SeriesTriple(k=1, f=(1, 1, 2), fd=(1, 1, 2), fe=(1, 1, 2))",
    ),
    "RadicalCheck": (
        RadicalCheck, {"ok": False, "first_mismatch": 3}, {"first_mismatch": 4},
        {"first_mismatch": None}, "RadicalCheck(ok=False, first_mismatch=3)",
    ),
    "BijectionReport": (
        BijectionReport,
        {"domain_size": 1, "codomain_size": 1, "injective": True, "surjective": True,
         "images_in_codomain": True, "counterexamples": ()},
        {"codomain_size": 2},
        {"counterexamples": ()},
        "BijectionReport(domain_size=1, codomain_size=1, injective=True, surjective=True, "
        "images_in_codomain=True, counterexamples=())",
    ),
    "ConjectureReport": (
        ConjectureReport, {"which": 1, "n_max": 2, "rows": ((1, 1, 1), (2, 2, 2))}, {"which": 2}, {},
        "ConjectureReport(which=1, n_max=2, rows=((1, 1, 1), (2, 2, 2)))",
    ),
}


@pytest.mark.parametrize("cls,fields,changed,defaults,text", RECORDS.values(), ids=RECORDS)
def test_record_semantics(cls, fields, changed, defaults, text):
    record = cls(**fields)
    values = tuple(fields.values())
    assert record == cls(*values) and hash(record) == hash(cls(*values))
    assert cls(**{name: v for name, v in fields.items() if name not in defaults}) == cls(**{**fields, **defaults})
    assert record != cls(**{**fields, **changed}) and len({record, cls(**{**fields, **changed})}) == 2
    assert record != values and values != record and record not in {values: 0}
    assert repr(record) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in fields] == list(values)
    assert cls.__match_args__ == tuple(fields)  # so case Name(a, b) binds them in order
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert twin == record and type(twin) is cls and repr(twin) == text
    with pytest.raises(TypeError):
        cls(*values, None)  # one value more than there are fields
    with pytest.raises(TypeError):
        cls(**fields, nosuch=1)


def test_path_is_equal_and_hashed_by_start_and_word():
    path = LatticePath((1, 2), "NE")
    assert hash(path) == hash(((1, 2), "NE"))  # the field tuple's hash, as the dataclass had
    assert path != LatticePath((0, 0), "NE") and path != LatticePath((1, 2), "EN")
    assert path.__eq__(PathFamilySpec((1, 2))) is NotImplemented and path != PathFamilySpec((1, 2))


def test_records_of_different_classes_differ():
    assert CountTable(True, None) != RadicalCheck(True, None)  # equal fields, different classes
    assert RadicalCheck(ok=True) == RadicalCheck(True) == RadicalCheck(True, None)
    with pytest.raises(TypeError):
        RadicalCheck(True, ok=True)  # a field given twice
    with pytest.raises(TypeError):
        CountTable("h")  # a field with no default left out


@pytest.mark.parametrize("build,message", [
    (lambda: LatticePath(word="NX"), "invalid step character 'X' at position 1"),
    (lambda: InversionSequence((0, 2)), "entry 2 at position 2 is not an integer in [0, 1]"),
    (lambda: PathFamilySpec(target=(-1, 2)), "corner coordinates must be nonnegative, got (-1, 2)"),
])
def test_checked_records_keep_their_errors(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_checked_records_store_normalized_fields():
    spec = PathFamilySpec(target=(2.0, 3), forbidden=["NE"], region_k=2.0, first_step="N")
    assert spec == PathFamilySpec((2, 3), frozenset({"NE"}), NO_PATTERNS, 2, "N")
    assert type(spec.target[0]) is int and type(spec.region_k) is int
    assert InversionSequence([0, 1.0]).entries == (0, 1)
    assert pickle.loads(pickle.dumps(spec)) == spec
