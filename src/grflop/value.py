"""Immutable value classes built on ``__slots__``.

A ``Value`` subclass lists its fields in ``__slots__``, in constructor order,
and nowhere else: it writes an ``__init__`` only to validate or normalize its
arguments before passing them on to ``Value.__init__``.  Equality, hashing,
immutability and the repr are derived once, here, from ``__slots__``: no
method is generated or compiled per class at import, which keeps the start of
every grflop process cheap (see the README's note on import cost).

Three classes of ``homog`` that key the memos spell out what they need
instead: ``FlagVariety.__hash__``, and ``__hash__`` and ``__eq__`` of
``HomogeneousBundle`` and ``BundleSum``.  One verify-all hashes and compares
them thousands of times, and the generic path through ``_fields`` builds a
tuple for every call; equality keeps this class's rule, exact class first and
then every field."""

from __future__ import annotations


class Value:
    """Frozen record whose fields are the names in the subclass's ``__slots__``.

    Instances of the same class are equal when their fields are equal, hash
    as the tuple of their fields, refuse assignment and deletion, and print
    as ``Name(field=value, ...)``.  Subclass it directly: the fields are read
    from the instance's class's own ``__slots__``.
    """

    __slots__ = ()

    def __init__(self, *values):
        """Assign one value to each field, in ``__slots__`` order."""
        if len(values) != len(self.__slots__):
            raise TypeError(f"{self.__class__.__qualname__} takes {len(self.__slots__)} "
                            f"values, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}"
                         for name, value in zip(self.__slots__, self._fields()))
        return f"{self.__class__.__qualname__}({body})"
