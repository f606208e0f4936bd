"""The package's base classes: immutable records and bad-input errors.

A record names its fields in `__slots__`, and its `__init__` checks them and
sets each one once with `object.__setattr__`; assigning or deleting a field
afterwards raises AttributeError.  `Record` compares and hashes the tuple of
the compared fields, `_compared`: all of `__slots__` unless the class names
fewer (`ChainGF` leaves out its four work counters, `RefinedTable` its
`prefixes` count and its `walked` rotation).  Records of two classes are
never equal.  No command compares or hashes a record, so these generic
methods cost nothing on a command's path.

`InputError` is the base class of every error that bad input raises; the
command line turns it, and only it, into exit 2.
"""


class InputError(ValueError):
    """Input that the definitions reject: the message says why."""


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._compared = cls.__dict__.get("_compared", cls.__slots__)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(
            f"cannot assign to field {name!r} of immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(
            f"cannot delete field {name!r} of immutable {type(self).__name__}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
