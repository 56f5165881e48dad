"""Immutable records written as plain classes.

A record lists its fields in ``_fields``, its constructor's inputs first
and in order, then any the constructor derives from them (and in
``__slots__`` too, unless a cached_property needs an instance dict), and
writes its own ``__init__``, which sets the fields through ``_init``.
After that, assignment and deletion raise AttributeError; the package's
own later writes (a cached property, ``SubgradientTriple.checked``) go
around it.  A ``Record`` compares by identity; a ``Value``, whose fields
are all hashable, compares and hashes by its fields, as equal penalties
and probes must.  Nothing is generated at import time.
"""
from __future__ import annotations

_set = object.__setattr__  # writes a field past Record.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        """Set the fields, in ``_fields`` order."""
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)

    def _values(self) -> tuple:
        """The fields' values, in ``_fields`` order."""
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __setstate__(self, state):
        """Unpickling and copying: the instance dict and the slots, as the
        default pickle protocol gives them, set without ``__setattr__``."""
        dict_state, slot_state = state if isinstance(state, tuple) else (state, None)
        for part in (dict_state, slot_state):
            for name, value in (part or {}).items():
                _set(self, name, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


class Value(Record):
    __slots__ = ()

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())
