"""The base of the package's immutable value classes."""


class Frozen:
    """A value whose fields are slots, set once by ``__init__``.

    A subclass lists its fields in ``__slots__``, sets them in ``__init__``
    with ``object.__setattr__`` and returns the fields it compares from
    ``_key()``.  Equality and hashing read that tuple, and only between
    instances of one class; assigning or deleting a field raises
    AttributeError.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of immutable {type(self).__name__}")
