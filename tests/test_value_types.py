"""The value types behave as the frozen dataclasses they replaced.

Each class is checked against a dataclass twin with the same name and
fields: repr, ==, != and hash agree, construction takes the same arguments,
and assignment and deletion raise AttributeError.  Pickle, copy and weakref
keep working.
"""

import copy
import pickle
import weakref
from dataclasses import make_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvdfusion import (
    CredibilityWeights,
    CvdVector,
    InvalidOutcomeSpaceError,
    OutcomeSpace,
    PairwiseMatrix,
    SelectionResult,
    SourceSet,
)

FIELDS = {
    OutcomeSpace: ("labels",),
    CvdVector: ("space", "entries"),
    SourceSet: ("space", "sources"),
    PairwiseMatrix: ("kind", "size", "values"),
    CredibilityWeights: ("values",),
    SelectionResult: ("chosen", "achieved_quality", "strategy"),
}

TWINS = {
    cls: make_dataclass(cls.__name__, fields, frozen=True)
    for cls, fields in FIELDS.items()
}

_labels = st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=4, unique=True)
_spaces = _labels.map(OutcomeSpace)
_leaf = st.one_of(
    st.integers(),
    st.floats(),  # NaN included: a tuple compares each item by identity first
    st.complex_numbers(),
    st.text(max_size=4),
    st.none(),
    _spaces,
)
_value = st.recursive(_leaf, lambda inner: st.tuples(inner, inner), max_leaves=6)


def _arguments(cls):
    """Strategy for a tuple of constructor arguments of cls."""
    if cls is OutcomeSpace:
        return _labels.map(lambda labels: (tuple(labels),))
    return st.tuples(*[_value] * len(FIELDS[cls]))


@st.composite
def _case(draw):
    cls = draw(st.sampled_from(list(FIELDS)))
    a = draw(_arguments(cls))
    b = draw(st.one_of(st.just(a), _arguments(cls)))
    return cls, a, b


@settings(max_examples=300, deadline=None)
@given(_case())
def test_repr_eq_and_hash_match_the_dataclass_twin(case):
    cls, a, b = case
    twin = TWINS[cls]
    ours, theirs = (cls(*a), cls(*b)), (twin(*a), twin(*b))
    assert repr(ours[0]) == repr(theirs[0])
    assert (ours[0] == ours[1]) == (theirs[0] == theirs[1])
    assert (ours[0] != ours[1]) == (theirs[0] != theirs[1])
    assert hash(ours[0]) == hash(theirs[0])
    assert ours[0] == cls(*a)
    assert ours[0] != theirs[0]  # different classes: never equal, as dataclasses
    assert ours[0].__eq__(theirs[0]) is NotImplemented


@settings(max_examples=100, deadline=None)
@given(_case())
def test_construction_by_keyword_and_arity_errors(case):
    cls, a, _ = case
    fields = FIELDS[cls]
    obj = cls(*a)
    assert cls(**dict(zip(fields, a))) == obj
    assert tuple(getattr(obj, name) for name in fields) == a
    assert cls.__match_args__ == TWINS[cls].__match_args__
    with pytest.raises(TypeError):
        cls(*a[:-1])
    with pytest.raises(TypeError):
        cls(*a, a[0])
    with pytest.raises(TypeError):
        cls(*a, unknown=1)


@settings(max_examples=100, deadline=None)
@given(_case(), st.sampled_from(["labels", "space", "values", "other"]))
def test_assignment_and_deletion_raise(case, name):
    cls, a, _ = case
    obj = cls(*a)
    with pytest.raises(AttributeError):
        setattr(obj, name, 1)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    assert repr(obj) == repr(cls(*a))


@settings(max_examples=100, deadline=None)
@given(_case())
def test_pickle_copy_and_weakref(case):
    cls, a, _ = case
    obj = cls(*a)
    copies = [copy.copy(obj), copy.deepcopy(obj)]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copies.append(pickle.loads(pickle.dumps(obj, protocol)))
    for again in copies:
        assert type(again) is cls
        assert repr(again) == repr(obj)
        # a NaN copied is another object, and NaN == NaN is false
        assert again == obj or "nan" in repr(obj)
    assert weakref.ref(obj)() is obj


def test_outcome_space_checks_its_labels_in_init():
    assert OutcomeSpace(iter(["up", "down"])).labels == ("up", "down")
    for bad in ("up", {"up"}, None, [], ["up", "up"], ["up", ""], ["up", 3]):
        with pytest.raises(InvalidOutcomeSpaceError):
            OutcomeSpace(bad)
