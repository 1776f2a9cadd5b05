"""Immutable records that are not tuples.

Most gqlab records are NamedTuples.  A class that must not equal a tuple of
its fields, normalizes its input, keeps a cache, or needs an instance
__dict__ for cached_property derives from Record instead.  It keeps the
NamedTuple surface (_fields, _replace, a repr by field), compares and
hashes by type and fields, and refuses assignment once built.
"""


class Record:
    """A record's fields are the positional parameters of its __init__.  A
    record with an instance __dict__ stores them, after any normalization,
    with _set(locals()); a slotted one (an expr node) sets its own slots."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _set(self, values) -> None:
        fields = vars(self)  # past __setattr__, which refuses
        for name in self._fields:
            fields[name] = values[name]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        """A copy with some fields changed, built anew by __init__."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    def __repr__(self) -> str:
        parts = (f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({', '.join(parts)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def read_only(*arrays):
    """The numpy arrays, made read-only (views of them are too); one array
    alone comes back bare."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays[0] if len(arrays) == 1 else arrays
