"""Record, the immutable base of the library's small exact values.  Its
fields are its class's __slots__, in order, taken by position or keyword
(else from _defaults) and checked by _check; a record is its class and its
fields (__reduce__), and is compared, hashed and copied as such."""


class Record:
    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        names, n = self.__slots__, len(args)
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if n > len(names) or len(values) != len(names) or kwargs.keys() & names[:n]:
            raise TypeError(f"{type(self).__qualname__} takes the fields {names}")
        for name in names:
            object.__setattr__(self, name, values[name])
        self._check()

    def _check(self) -> None:
        """Refuse, as a Precondition, fields that make no value."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return other is self or self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__qualname__}.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__slots__))
