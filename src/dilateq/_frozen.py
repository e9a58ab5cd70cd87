"""The package's record base.

Every value dilateq returns as a record (coefficient and shift vectors,
regularity indices, periodicity certificates, search rectangles, zeros,
power and extended solutions) is a ``Frozen`` subclass: fields are slots,
validation runs in ``__init__`` after the fields are set, and a derived
value is a property.  The base needs nothing beyond the language, so no
subcommand imports ``dataclasses``, or the ``inspect`` module it brings.
"""

from __future__ import annotations


class Frozen:
    """Base of an immutable record whose fields are its class's ``__slots__``.

    It behaves as a frozen dataclass: instances of one class are equal when
    their field tuples are, hash as that tuple, print as
    ``Name(field=value, ...)``, and assigning or deleting a field raises
    AttributeError.  The fields are passed in slot order or by name; a
    subclass that validates calls ``super().__init__`` first.
    """

    __slots__ = ()

    def __init__(self, *values, **named) -> None:
        names = type(self).__slots__
        fields = dict(zip(names, values), **named)
        # too many values, a field given twice, missing or unknown
        if len(fields) != len(values) + len(named) or fields.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, fields[name])

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # pickle and copy would restore slots through the blocked __setattr__
        return type(self), self._fields()
