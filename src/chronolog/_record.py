"""Frozen value classes, written out so that importing chronolog needs no ``dataclasses``."""

from __future__ import annotations


class Record:
    """A frozen value whose fields are its class's ``__slots__``, in order.

    ``__init__`` takes the fields by position or keyword, a missing one
    taking its value from the class's ``_defaults``, and then calls
    ``__post_init__``, which may check them and store normalised values with
    ``object.__setattr__``.  Two records are equal when they are of the same
    class with equal fields; a record hashes by its fields, prints as
    ``Name(field=value, ...)`` and refuses assignment and deletion with
    AttributeError.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        # the field values from positional and keyword arguments and the defaults
        fields = self.__slots__
        name = type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields or key in values:
                raise TypeError(f"{name}() got an unexpected or repeated argument {key!r}")
            values[key] = value
        missing = [field for field in fields if field not in values and field not in self._defaults]
        if missing:
            raise TypeError(f"{name}() missing arguments {missing}")
        return [values[field] if field in values else self._defaults[field] for field in fields]

    def __post_init__(self) -> None:
        pass

    def _fields(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
