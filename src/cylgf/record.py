"""The base class of the package's immutable records.

A record names its fields in `__slots__`, and its `__init__` checks them and
sets each one once with `object.__setattr__`; assigning or deleting a field
afterwards raises AttributeError.  Each record writes its own `__eq__` and
`__hash__` over the fields it compares, from plain attribute reads: slices
and profiles are hashed and compared on the `flow` and `decompose` paths,
where a key shared through this class (an `operator.attrgetter`, say) costs
more per call.  Records of two classes are never equal.
"""


class Record:
    __slots__ = ()

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
