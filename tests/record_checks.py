"""Checks shared by the test modules.

check_record pins the value semantics every result record of the package
keeps. The records were frozen dataclasses and are named tuples; it pins
what both forms share: the field names and order, the
`Name(field=value, ...)` repr, equality and hash of the field tuple, the
clones, and no assignment. reject_constant makes `json.loads` strict.
"""

import copy
import pickle

import pytest


def check_record(record, text: str, **fields):
    """`record` has exactly `fields`, in order, and the repr `text`."""
    cls = type(record)
    values = tuple(fields.values())
    assert cls._fields == tuple(fields)
    assert tuple(getattr(record, name) for name in fields) == values
    *unpacked, = record
    assert tuple(unpacked) == values
    assert repr(record) == text
    assert text == f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    assert record == values and hash(record) == hash(values)
    assert record._asdict() == fields
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls and clone == record and repr(clone) == text
    for name in fields:
        changed = record._replace(**{name: "replaced"})
        assert type(changed) is cls
        assert changed == tuple("replaced" if k == name else v for k, v in fields.items())
        # dataclasses.FrozenInstanceError, raised before, is an AttributeError too
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
    with pytest.raises(AttributeError):
        record.extra = 0.0
    assert record == values


def reject_constant(token):
    """`json.loads`' parse_constant: NaN and Infinity are not JSON."""
    raise ValueError(f"non-standard JSON token {token}")
