"""Frozen value records: the result types the library hands back.

A record class names its fields, in order, in ``__slots__``.  Instances are
built by keyword and cannot be changed afterwards; two records are equal
when they have the same class and equal field tuples, hash by that tuple,
and print as ``Cls(a=..., b=...)``.  This is the behaviour of a frozen
dataclass, without importing ``dataclasses`` (and through it ``inspect``)
or generating code when each class is defined.
"""


class Record:
    """Base of the frozen records; a subclass lists its fields in __slots__."""

    __slots__ = ()

    def __init__(self, **fields):
        names = self.__slots__
        if fields.keys() != set(names):
            raise TypeError(
                f"{type(self).__name__} takes exactly the fields {', '.join(names)}"
            )
        for name in names:
            object.__setattr__(self, name, fields[name])

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __reduce__(self):
        # copy and pickle rebuild through the keyword constructor, since
        # the default slot-state restore would assign fields
        return _rebuild, (type(self), dict(zip(self.__slots__, self._values())))


def _rebuild(cls, fields):
    return cls(**fields)
