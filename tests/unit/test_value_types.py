"""The slot-speed constructors of the hot frozen value types.

:func:`repro.slotinit.slot_init` replaces the dataclass-generated
``__init__`` of ``MetadataRecord``, ``PlacedSegment``, ``Extent``,
``PatternPayload``, ``IORequest``, ``BytesPayload`` and
``CorruptPayload`` and adds their unvalidated ``_derived``
constructor.  Each type must behave exactly like a stock
``make_dataclass(..., frozen=True, slots=True)`` clone of itself: same
signature, field values, equality, hash and repr, the same validation
errors, frozenness, and pickle/copy/replace round trips.
"""

import copy
import dataclasses
import inspect
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StorageTier
from repro.core.dhp import PlacedSegment
from repro.core.metadata import MetadataRecord
from repro.simmpi.mpiio import IORequest
from repro.slotinit import slot_init
from repro.storage.datamodel import (BytesPayload, CorruptPayload, Extent,
                                     PatternPayload)

naturals = st.integers(min_value=0, max_value=1 << 40)
positives = st.integers(min_value=1, max_value=1 << 40)
vas = st.floats(min_value=0, max_value=1e15, allow_nan=False)
tiers = st.sampled_from(list(StorageTier))
payloads = st.one_of(st.builds(PatternPayload, naturals),
                     st.builds(BytesPayload, st.binary(max_size=8)))

#: Per type: a strategy for valid positional arguments (all fields).
VALID = {
    MetadataRecord: st.tuples(naturals, naturals, positives, naturals, vas,
                              tiers, st.none() | naturals),
    PlacedSegment: st.tuples(naturals, naturals, positives,
                             st.integers(0, 3), tiers, vas, vas),
    Extent: st.tuples(naturals, positives, payloads, naturals),
    PatternPayload: st.tuples(naturals),
    IORequest: st.tuples(naturals, naturals, naturals,
                         st.none() | payloads, naturals),
    BytesPayload: st.tuples(st.binary(max_size=8)),
    CorruptPayload: st.tuples(naturals),
}
TYPES = list(VALID)

#: Per type: one valid argument tuple.
SAMPLE = {
    MetadataRecord: (3, 100, 50, 2, 4096.0, StorageTier.DRAM, 1),
    PlacedSegment: (2, 100, 50, 0, StorageTier.DRAM, 4096.0, 4096.0),
    Extent: (100, 50, PatternPayload(9), 7),
    PatternPayload: (9,),
    IORequest: (1, 100, 50, PatternPayload(7), 3),
    BytesPayload: (b"abc",),
    CorruptPayload: (5,),
}

#: Per type: invalid positional arguments and the error each raises.
INVALID = {
    MetadataRecord: [
        ((0, -1, 10, 0, 0.0, StorageTier.DRAM),
         "invalid record range [-1, +10)"),
        ((0, 0, 0, 0, 0.0, StorageTier.DRAM), "invalid record range [0, +0)"),
    ],
    PlacedSegment: [],
    Extent: [
        ((-1, 10, PatternPayload(1)), "negative extent offset -1"),
        ((0, 0, PatternPayload(1)), "non-positive extent length 0"),
        ((0, 10, PatternPayload(1), -2), "negative payload offset -2"),
    ],
    PatternPayload: [
        ((-3,), "pattern seed must be a non-negative int, got -3"),
        ((1.5,), "pattern seed must be a non-negative int, got 1.5"),
    ],
    IORequest: [
        ((-1, 0, 10), "negative rank -1"),
        ((0, -5, 10), "negative offset -5"),
        ((0, 0, -1), "negative length -1"),
        ((0, 0, 10, PatternPayload(1), -5), "negative payload offset -5"),
    ],
    BytesPayload: [],
    CorruptPayload: [
        ((-3,), "corrupt token must be a non-negative int, got -3"),
    ],
}


def stock_clone(cls):
    """The same fields and ``__post_init__`` in a class that keeps the
    dataclass-generated ``__init__``."""
    specs = [(f.name, f.type) if f.default is dataclasses.MISSING
             else (f.name, f.type, dataclasses.field(default=f.default))
             for f in dataclasses.fields(cls)]
    namespace = {}
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True,
                                      slots=True, namespace=namespace)


CLONES = {cls: stock_clone(cls) for cls in TYPES}


def field_values(obj):
    return [getattr(obj, f.name) for f in dataclasses.fields(obj)]


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
class TestAgainstTheStockDataclass:
    def test_signature(self, cls):
        assert inspect.signature(cls) == inspect.signature(CLONES[cls])
        assert (inspect.signature(cls.__init__)
                == inspect.signature(CLONES[cls].__init__))

    def test_stays_frozen_and_slotted(self, cls):
        assert cls.__dataclass_params__.frozen
        assert "__slots__" in cls.__dict__
        assert "__setattr__" not in cls.__init__.__code__.co_names

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_values_eq_hash_repr(self, cls, data):
        args = data.draw(VALID[cls])
        # Also leave trailing defaulted fields out, as most callers do.
        defaults = sum(f.default is not dataclasses.MISSING
                       for f in dataclasses.fields(cls))
        args = args[:len(args) - data.draw(st.integers(0, defaults))]
        other = data.draw(VALID[cls])
        clone = CLONES[cls]
        obj, ref = cls(*args), clone(*args)
        assert type(obj) is cls
        assert field_values(obj) == field_values(ref)
        assert repr(obj) == repr(ref)
        assert hash(obj) == hash(ref)
        assert obj == cls(*args)
        assert (obj == cls(*other)) == (ref == clone(*other))
        assert obj != ref  # different classes never compare equal

    def test_keywords_and_defaults(self, cls):
        clone = CLONES[cls]
        args = SAMPLE[cls]
        names = [f.name for f in dataclasses.fields(cls)][:len(args)]
        kwargs = dict(zip(names, args))
        assert field_values(cls(**kwargs)) == field_values(clone(**kwargs))
        with pytest.raises(TypeError) as mine:
            cls(*args, **kwargs)
        with pytest.raises(TypeError) as stock:
            clone(*args, **kwargs)
        assert (str(mine.value).split("() ", 1)[1]
                == str(stock.value).split("() ", 1)[1])

    def test_invalid_values_raise_the_same_errors(self, cls):
        for args, message in INVALID[cls]:
            with pytest.raises(ValueError) as mine:
                cls(*args)
            with pytest.raises(ValueError) as stock:
                CLONES[cls](*args)
            assert str(mine.value) == str(stock.value) == message

    def test_set_and_del_raise(self, cls):
        obj = cls(*SAMPLE[cls])
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, f.name)
        # A name that is not a field is refused the same way.
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match="cannot assign to field 'extra'"):
            obj.extra = 1
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match="cannot delete field 'extra'"):
            del obj.extra
        assert field_values(obj) == field_values(cls(*SAMPLE[cls]))

    def test_pickle_copy_replace_round_trip(self, cls):
        obj = cls(*SAMPLE[cls])
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj),
                     copy.deepcopy(obj), dataclasses.replace(obj)):
            assert type(twin) is cls
            assert twin == obj and hash(twin) == hash(obj)
        first = dataclasses.fields(cls)[0].name
        moved = dataclasses.replace(obj, **{first: 7})
        assert getattr(moved, first) == 7
        assert field_values(moved)[1:] == field_values(obj)[1:]

    def test_post_init_once_per_validated_construction(self, cls,
                                                       monkeypatch):
        calls = []
        if hasattr(cls, "__post_init__"):
            post_init = cls.__post_init__

            def counting(obj):
                calls.append(obj)
                post_init(obj)

            monkeypatch.setattr(cls, "__post_init__", counting)
        args = SAMPLE[cls]
        built = cls(*args)
        derived = cls._derived(*field_values(built))
        assert derived == built and type(derived) is cls
        assert calls == ([built] if hasattr(cls, "__post_init__") else [])


class TestDerivedConstructor:
    @pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_equals_the_validated_build(self, cls, data):
        args = data.draw(VALID[cls])
        assert cls._derived(*args) == cls(*args)

    def test_skips_validation(self):
        # Derived values are valid by construction; nothing re-checks.
        assert MetadataRecord._derived(0, -1, 0, 0, 0.0, StorageTier.DRAM,
                                       None).offset == -1

    def test_is_positional_and_total(self):
        with pytest.raises(TypeError):
            Extent._derived(0, 10, PatternPayload(1))  # no default


class TestSlotInitPreconditions:
    def test_needs_frozen(self):
        @dataclasses.dataclass(slots=True)
        class Thawed:
            x: int

        with pytest.raises(TypeError, match="frozen dataclass"):
            slot_init(Thawed)

    def test_needs_slots(self):
        @dataclasses.dataclass(frozen=True)
        class Unslotted:
            x: int

        with pytest.raises(TypeError, match="slots=True"):
            slot_init(Unslotted)

    def test_needs_plain_positional_fields(self):
        @dataclasses.dataclass(frozen=True, slots=True)
        class Factory:
            x: list = dataclasses.field(default_factory=list)

        with pytest.raises(TypeError, match="plain positional"):
            slot_init(Factory)

    def test_class_without_post_init(self):
        @slot_init
        @dataclasses.dataclass(frozen=True, slots=True)
        class Pair:
            a: int
            b: int = 2

        assert Pair(1) == Pair._derived(1, 2)
        assert "__post_init__" not in Pair.__init__.__code__.co_names
