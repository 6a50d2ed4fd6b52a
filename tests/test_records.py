"""The package's records behave as the frozen dataclasses they replace.

Each record type is compared with a reference ``@dataclass(frozen=True)``
that has the same name, fields and defaults, and the same validation where
the record validates its fields: equality, hashing, ``repr``, immutability,
keyword construction, copying and pickling, and the exceptions raised for
invalid fields.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from critickit import (
    AssignmentError,
    BlockSystem,
    ColoringVerdict,
    Cover,
    EkabParams,
    Graph,
    GraphError,
    LemmaReport,
    ListAssignment,
    PdpResult,
    Polynomial,
    RobustVerdict,
    SearchLimits,
    StrongVerdict,
    cycle,
    make_canonical_cover,
)
from critickit.limits import DEFAULT_NODE_BUDGET


def _ekab_checks(self):
    if self.k < 3:
        raise GraphError(f"ekab requires k >= 3, got k={self.k}")
    if not 1 <= self.a <= self.k - 2:
        raise GraphError(f"ekab requires 1 <= a <= k-2, got a={self.a}, k={self.k}")
    if not 1 <= self.b <= self.k - 2:
        raise GraphError(f"ekab requires 1 <= b <= k-2, got b={self.b}, k={self.k}")
    if self.a + self.b < self.k - 1:
        raise GraphError(
            f"ekab requires a + b >= k-1, got a+b={self.a + self.b}, k={self.k}"
        )


def _limits_checks(self):
    if self.max_nodes <= 0:
        raise ValueError("max_nodes must be positive")
    if self.max_millis is not None and self.max_millis <= 0:
        raise ValueError("max_millis must be positive")


def _block_checks(self):
    full = (1 << self.n) - 1
    for i, b in enumerate(self.blocks):
        if b == 0:
            raise AssignmentError(f"block {i} is empty")
        if b & ~full:
            raise AssignmentError(f"block {i} uses vertices outside 0..{self.n - 1}")
    if list(self.blocks) != sorted(self.blocks):
        raise AssignmentError("blocks must be sorted non-decreasingly")


def _reference(cls, defaults=None, checks=None):
    """A frozen dataclass named like ``cls``, over its fields."""
    defaults = defaults or {}
    fields = [
        (name, object, dataclasses.field(default=defaults[name]))
        if name in defaults
        else (name, object)
        for name in cls.__slots__
    ]
    namespace = {"__post_init__": checks} if checks else {}
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, namespace=namespace)


C5 = cycle(5)
COVER = make_canonical_cover(C5, 2)

# record type -> (reference, valid field tuples, invalid field tuples)
CASES = {
    Graph: (
        _reference(Graph),
        [(2, (frozenset({1}), frozenset({0}))), (C5.n, C5.adj)],
        [],
    ),
    EkabParams: (
        _reference(EkabParams, checks=_ekab_checks),
        [(4, 2, 2), (5, 2, 3)],
        [(2, 1, 1), (4, 0, 2), (4, 1, 3), (5, 1, 2)],
    ),
    SearchLimits: (
        _reference(SearchLimits, {"max_nodes": DEFAULT_NODE_BUDGET, "max_millis": None}, _limits_checks),
        [(), (100,), (100, 5)],
        [(0,), (-1, 5), (10, 0), (10, -3)],
    ),
    ColoringVerdict: (
        _reference(ColoringVerdict),
        [(3, True, True, None), (3, False, True, (0, 1)), (4, False, False, 2)],
        [],
    ),
    Polynomial: (_reference(Polynomial), [((0, 2, -3, 1),), ((1,),)], []),
    Cover: (
        _reference(Cover),
        [(COVER.graph, COVER.sizes, COVER.matchings), (C5, (1,) * 5, COVER.matchings[:1])],
        [],
    ),
    RobustVerdict: (
        _reference(RobustVerdict),
        [("robustly_critical", 3, None, 2), ("noncanonical_bad_cover_found", 3, COVER, 7)],
        [],
    ),
    PdpResult: (_reference(PdpResult), [(0, COVER, 5)], []),
    ListAssignment: (
        _reference(ListAssignment),
        [((frozenset({1, 2}), frozenset({3})),), ((),)],
        [],
    ),
    BlockSystem: (
        _reference(BlockSystem, checks=_block_checks),
        [(3, 1, (1, 6)), (2, 2, (3, 3))],
        [(3, 1, (0, 7)), (2, 1, (4,)), (3, 1, (6, 1))],
    ),
    StrongVerdict: (
        _reference(StrongVerdict),
        [("yes", 3, "critical", None), ("no", 3, "vertex_critical", 4)],
        [],
    ),
    LemmaReport: (
        _reference(LemmaReport, {"counterexample": None, "detail": None}),
        [
            ("join", "Dhc", 5, "all_pass", "exhaustive"),
            ("pair", "Dhc", 0, "skipped_precondition", "-", None, "why"),
            ("excess", "Dhc", 9, "counterexample", "sampled", {"cover": [1]}, None),
        ],
        [],
    ),
}

SAMPLES = [
    (cls, ref, values) for cls, (ref, valid, _) in CASES.items() for values in valid
]
INVALID = [
    (cls, ref, values) for cls, (ref, _, invalid) in CASES.items() for values in invalid
]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("cls,ref,values", SAMPLES, ids=[c.__name__ for c, _, _ in SAMPLES])
def test_record_matches_frozen_dataclass(cls, ref, values):
    record, twin, reference = cls(*values), cls(*values), ref(*values)
    assert record == twin and not record != twin
    assert record != reference and reference != record
    assert repr(record) == repr(reference)
    assert _outcome(hash, record) == _outcome(hash, twin) == _outcome(hash, reference)
    names = cls.__slots__[: len(values)]
    assert cls(**dict(zip(names, values))) == record
    assert all(getattr(record, f) == getattr(reference, f) for f in cls.__slots__)
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("cls,ref,values", SAMPLES, ids=[c.__name__ for c, _, _ in SAMPLES])
def test_record_fields_are_read_only(cls, ref, values):
    record = cls(*values)
    for name in (cls.__slots__[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ref(*values), name, 1)
    with pytest.raises(AttributeError):
        delattr(record, cls.__slots__[0])


def test_records_of_different_fields_differ():
    for cls, (ref, valid, _) in CASES.items():
        records = [cls(*values) for values in valid]
        references = [ref(*values) for values in valid]
        for i, a in enumerate(records):
            for j, b in enumerate(records):
                assert (a == b) == (references[i] == references[j])


@pytest.mark.parametrize("cls,ref,values", INVALID, ids=[c.__name__ for c, _, _ in INVALID])
def test_validators_match(cls, ref, values):
    got, expected = _outcome(cls, *values), _outcome(ref, *values)
    assert isinstance(expected, tuple) and issubclass(expected[0], Exception)
    assert got == expected
