"""Slot-speed constructors for frozen, slotted dataclasses.

A frozen dataclass's generated ``__init__`` stores every field through
``object.__setattr__``, which looks the attribute up by name on each
call.  The hot value types of the write path (metadata records, placed
segments, extents, pattern payloads and I/O requests) are built once or
more per rank per collective, so :func:`slot_init` gives them two
constructors that store each field through its slot's member descriptor
instead:

* ``__init__`` — the validating constructor, with the dataclass's
  parameter names, defaults and annotations (``inspect.signature`` is
  unchanged).  It stores the fields and then runs ``__post_init__`` if
  the class defines one, exactly as the generated one does.
* ``_derived`` — a static, positional constructor that stores the
  fields and runs no ``__post_init__``.  It is for values derived from
  already-validated ones (a slice, a cut piece, a merge), whose fields
  are valid by construction.

Instances stay frozen: the descriptors are the slots' own, and
``__setattr__`` / ``__delattr__`` raise ``FrozenInstanceError`` for any
name.  (The ones ``dataclass`` generates raise a ``TypeError`` for a
name that is not a field: they refer to the class ``slots=True``
replaced.  The other slotted payloads, ``BytesPayload`` and
``CorruptPayload``, take the decorator for this alone.)  Equality,
hashing, ``repr``, pickling, ``copy`` and ``dataclasses.replace`` are
the dataclass's own.
"""

from __future__ import annotations

import dataclasses
import types
from typing import Any, Dict, List, Type, TypeVar

__all__ = ["slot_init"]

T = TypeVar("T")


def slot_init(cls: Type[T]) -> Type[T]:
    """Class decorator, applied above ``@dataclass(frozen=True,
    slots=True)``: replace the generated ``__init__`` and add the
    ``_derived`` constructor (see the module docstring).  Runs once per
    class, at import."""
    if not (dataclasses.is_dataclass(cls)
            and cls.__dataclass_params__.frozen):
        raise TypeError(f"{cls.__name__}: slot_init needs a frozen dataclass")
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    env: Dict[str, Any] = {"_new": object.__new__, "_cls": cls}
    params: List[str] = []
    for f in fields:
        slot = cls.__dict__.get(f.name)
        if not isinstance(slot, types.MemberDescriptorType):
            raise TypeError(f"{cls.__name__}.{f.name}: slot_init needs "
                            f"slots=True")
        if (not f.init or f.kw_only
                or f.default_factory is not dataclasses.MISSING):
            raise TypeError(f"{cls.__name__}.{f.name}: slot_init supports "
                            f"plain positional fields only")
        env[f"_set_{f.name}"] = slot.__set__
        if f.default is dataclasses.MISSING:
            params.append(f.name)
        else:
            env[f"_dflt_{f.name}"] = f.default
            params.append(f"{f.name}=_dflt_{f.name}")
    stores = "".join(f"        _set_{n}(self, {n})\n" for n in names)
    post_init = ("        self.__post_init__()\n"
                 if hasattr(cls, "__post_init__") else "")
    # The setters, defaults and the class reach both functions as
    # closure cells: each store is a cell load and a descriptor call.
    source = (
        f"def _make({', '.join(env)}):\n"
        f"    def __init__(self, {', '.join(params)}):\n"
        f"{stores}{post_init}"
        f"    def _derived({', '.join(names)}):\n"
        f"        self = _new(_cls)\n"
        f"{stores}"
        f"        return self\n"
        f"    return __init__, _derived\n")
    namespace: Dict[str, Any] = {}
    exec(source, {"__name__": cls.__module__}, namespace)
    init, derived = namespace["_make"](**env)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in fields},
                            "return": None}
    derived.__qualname__ = f"{cls.__qualname__}._derived"
    cls.__init__ = init
    cls._derived = staticmethod(derived)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


def _frozen_setattr(self, name: str, value: Any) -> None:
    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")
