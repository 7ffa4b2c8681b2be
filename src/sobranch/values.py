"""Immutable value records without the ``dataclasses`` module.

A record class lists its fields in ``__slots__`` and stores them in a
hand-written ``__init__`` through ``store`` (ordinary assignment raises
``AttributeError``); a subclass that adds no field declares no
``__slots__``.  ``Value`` supplies the rest of what a frozen dataclass
would: equality between instances of the same class, a hash that agrees
with it (the hash of the field tuple), the ``Name(field=value, ...)`` repr,
and pickling.  ``Ordered`` adds the field-tuple ordering.  Importing
``dataclasses`` would load ``inspect`` and cost every CLI call about 10 ms.

The generic ``__eq__`` and ``__hash__`` are for records off the hot paths;
``GroupTag``, ``Weight`` and ``EnhancedParam`` write theirs out, as a
dataclass would generate them, because dict lookups of parameters sit in
the oracle's inner loops.

``GroupTag``'s field is N alone, but its ``__slots__`` also hold the numbers
derived from N (n, rank, top height, parity), stored once when the shared
object of each N is built; it overrides ``_astuple`` and ``__repr__`` so
that equality, hash, ordering, repr and pickling still see N alone.
"""

from __future__ import annotations

store = object.__setattr__


class Value:
    """Base of the record classes; ``__slots__`` of the subclass are its fields."""

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._astuple()


class Ordered(Value):
    """A ``Value`` that orders like its field tuple (same class only)."""

    __slots__ = ()

    def __lt__(self, other: object):
        if other.__class__ is self.__class__:
            return self._astuple() < other._astuple()
        return NotImplemented

    def __le__(self, other: object):
        if other.__class__ is self.__class__:
            return self._astuple() <= other._astuple()
        return NotImplemented

    def __gt__(self, other: object):
        if other.__class__ is self.__class__:
            return self._astuple() > other._astuple()
        return NotImplemented

    def __ge__(self, other: object):
        if other.__class__ is self.__class__:
            return self._astuple() >= other._astuple()
        return NotImplemented
